"""Named surface patches, and the surface descriptors and config field checks of the CLI."""

from __future__ import annotations

from .rotsurf import circle_profile, default_v_range, family_profile, line_profile, rotation_patch
from .surface import SurfacePatch, graph_patch, parametric_patch

__all__ = [
    "plane",
    "plane_cartesian",
    "cylinder",
    "paraboloid",
    "constant_curvature",
    "surface_from_config",
]


def plane(v_range=(0.05, 8.0), orientation: int = 1) -> SurfacePatch:
    """The plane z = 0 in polar form: u is the angle, v > 0 the radius.

    With this chart the adapted frame has f2 radial, A = 2/v and the
    limit curvature -2/v^2; the Cartesian chart covers the origin but is
    characteristic there.
    """
    return rotation_patch(line_profile(), v_range, orientation, name="plane")


def plane_cartesian(half_width: float = 2.0, orientation: int = 1) -> SurfacePatch:
    """The plane z = 0 as a graph over (u, v); characteristic at the origin."""
    extent = (-half_width, half_width)
    return graph_patch("0", extent, extent, name="plane-cartesian", orientation=orientation)


def cylinder(v_range=(-4.0, 4.0), orientation: int = 1) -> SurfacePatch:
    """The unit vertical cylinder; A vanishes identically on it."""
    return rotation_patch(circle_profile(), v_range, orientation, name="cylinder")


def paraboloid(u_range=(-2.0, 2.0), v_range=(-2.0, 2.0), orientation: int = 1) -> SurfacePatch:
    """Graph z = (u^2 + v^2)/2; characteristic only at the origin."""
    return graph_patch("(u^2+v^2)/2", u_range, v_range, name="paraboloid", orientation=orientation)


def constant_curvature(
    K_inf: float,
    r0: float = 1.0,
    v_range=None,
    c1_shift: float = 0.0,
    orientation: int = 1,
) -> SurfacePatch:
    """One of the three constant-limit-curvature rotation surfaces."""
    profile = family_profile(K_inf, r0, c1_shift)
    if v_range is None:
        v_range = default_v_range(K_inf, r0, c1_shift)
    return rotation_patch(
        profile, v_range, orientation, name=f"rotation(K={K_inf}, r0={r0})"
    )


JSON_KINDS = {  # the kinds of value a configuration field can be, by the phrase naming them
    "a real number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a list of numbers": lambda v: isinstance(v, (list, tuple)) and all(map(JSON_KINDS["a real number"], v)),
    "a pair of numbers": lambda v: JSON_KINDS["a list of numbers"](v) and len(v) == 2,
    "a list of pairs of numbers": lambda v: isinstance(v, list) and all(map(JSON_KINDS["a pair of numbers"], v)),
    "true or false": lambda v: isinstance(v, bool),
    "an expression string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
}


def checked(value, kind: str, what: str):
    """value if it is of the kind named (a key of JSON_KINDS), else a ValueError naming the field what."""
    if not JSON_KINDS[kind](value):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def number(value, what: str) -> float:
    """float(value) if value is a real number or a string that float() reads (strict
    JSON spells nan and inf only so), else a ValueError naming the field what."""
    try:
        if isinstance(value, str) or JSON_KINDS["a real number"](value):
            return float(value)
    except ValueError:
        pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _field(cfg: dict, key: str):
    """The descriptor's field key, checked, as its constructor takes it."""
    value, what = cfg[key], f"surface.{key}"
    if key in ("u_range", "v_range"):
        # a rotation surface reads a null v_range as its default band
        return None if value is None and cfg["kind"] == "rotation" else tuple(checked(value, "a pair of numbers", what))
    if key in ("K_inf", "r0", "c1_shift", "half_width"):
        return number(value, what)
    if key == "closed_u":
        return checked(value, "true or false", what)
    return value if key == "orientation" else checked(value, "an expression string", what)


def surface_from_config(cfg: dict) -> SurfacePatch:
    """Build a patch from a CLI surface descriptor; a field it leaves out keeps the constructor's default."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("surface descriptor must be an object with a 'kind' field")
    kind = cfg["kind"]

    def given(*keys):
        return {key: _field(cfg, key) for key in keys if key in cfg}

    if kind == "plane":
        return plane(**given("v_range", "orientation"))
    if kind == "plane-cartesian":
        return plane_cartesian(**given("half_width", "orientation"))
    if kind == "cylinder":
        return cylinder(**given("v_range", "orientation"))
    if kind == "paraboloid":
        return paraboloid(**given("u_range", "v_range", "orientation"))
    if kind == "rotation":
        if "K_inf" not in cfg:
            raise ValueError("rotation surface needs a K_inf field")
        return constant_curvature(**given("K_inf", "r0", "v_range", "c1_shift", "orientation"))
    if kind == "graph":
        if "h" not in cfg:
            raise ValueError("graph surface needs an 'h' expression")
        return graph_patch(**given("h", "u_range", "v_range", "orientation"))
    if kind == "parametric":
        for key in ("x", "y", "z", "u_range", "v_range"):
            if key not in cfg:
                raise ValueError(f"parametric surface needs a {key!r} field")
        return parametric_patch(**given("x", "y", "z", "u_range", "v_range", "orientation", "closed_u"))
    raise ValueError(f"unknown surface kind {kind!r}")
