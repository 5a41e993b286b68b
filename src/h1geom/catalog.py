"""Named surface patches used by the CLI and the test suite."""

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


def surface_from_config(cfg: dict) -> SurfacePatch:
    """Build a patch from a CLI surface descriptor."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("surface descriptor must be an object with a 'kind' field")
    kind = cfg["kind"]
    orientation = cfg.get("orientation", 1)
    if kind == "plane":
        return plane(tuple(cfg.get("v_range", (0.05, 8.0))), orientation)
    if kind == "plane-cartesian":
        return plane_cartesian(float(cfg.get("half_width", 2.0)), orientation)
    if kind == "cylinder":
        return cylinder(tuple(cfg.get("v_range", (-4.0, 4.0))), orientation)
    if kind == "paraboloid":
        return paraboloid(
            tuple(cfg.get("u_range", (-2.0, 2.0))),
            tuple(cfg.get("v_range", (-2.0, 2.0))),
            orientation,
        )
    if kind == "rotation":
        if "K_inf" not in cfg:
            raise ValueError("rotation surface needs a K_inf field")
        v_range = cfg.get("v_range")
        return constant_curvature(
            float(cfg["K_inf"]),
            float(cfg.get("r0", 1.0)),
            tuple(v_range) if v_range is not None else None,
            float(cfg.get("c1_shift", 0.0)),
            orientation,
        )
    if kind == "graph":
        if "h" not in cfg:
            raise ValueError("graph surface needs an 'h' expression")
        return graph_patch(
            cfg["h"],
            tuple(cfg.get("u_range", (-2.0, 2.0))),
            tuple(cfg.get("v_range", (-2.0, 2.0))),
            orientation=orientation,
        )
    if kind == "parametric":
        for key in ("x", "y", "z", "u_range", "v_range"):
            if key not in cfg:
                raise ValueError(f"parametric surface needs a {key!r} field")
        return parametric_patch(
            cfg["x"],
            cfg["y"],
            cfg["z"],
            tuple(cfg["u_range"]),
            tuple(cfg["v_range"]),
            orientation=orientation,
            closed_u=bool(cfg.get("closed_u", False)),
        )
    raise ValueError(f"unknown surface kind {kind!r}")
