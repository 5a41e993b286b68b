"""Command-line interface: meshes, curvature grids, Gauss-Bonnet reports.

A single JSON configuration document drives every subcommand; CLI flags
override individual fields.  Exit codes: 0 success, 1 configuration or
usage error, 2 numerical/domain failure, 3 validation or threshold
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, catalog
from .catalog import checked, number
from .batch import first_failure
from .curvature import k_gauss_map, k_inf, k_L
from .errors import CharacteristicPointError, GeometryError
from .expr import EvalError
from .export import write_csv, write_json_report, write_obj
from .gaussbonnet import ParamRegion, convergence_study, gb_residual
from .rotsurf import RotationSurfaceSpec, build_mesh
from .selfcheck import run_identity_suite
from .surface import CHARACTERISTIC_TOL, frame_data

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

FIGURE_PRESETS = {1: (1.0, 1.0), 2: (0.0, 1.0), 3: (-1.0, 1.0)}


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


def _parse_floats(text, n, what):
    parts = [p for p in str(text).replace(";", ",").split(",") if p.strip()]
    if n is not None and len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad number in {what}: {exc}") from exc


def _surface_config(args, config) -> dict:
    cfg = dict(_section(config, "surface"))
    if getattr(args, "surface", None):
        cfg = {"kind": args.surface}
    for flag, key in (("kinf", "K_inf"), ("r0", "r0")):
        if getattr(args, flag, None) is not None:
            cfg.setdefault("kind", "rotation")
            if cfg["kind"] != "rotation":
                raise ConfigError(f"--{flag} only applies to rotation surfaces")
            cfg[key] = getattr(args, flag)
    if not cfg:
        raise ConfigError("no surface given; use --surface or a config file")
    if cfg.get("kind") == "rotation" and "K_inf" not in cfg:
        raise ConfigError("rotation surface needs K_inf (--kinf or config)")
    return cfg


def _section(config, key) -> dict:
    """The object config[key]; a missing key reads as an empty one."""
    return checked(config.get(key, {}), "an object", key)


def _build_surface(cfg: dict):
    try:
        return catalog.surface_from_config(cfg)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _int_value(value, what) -> int:
    """An integer setting; booleans and fractional numbers are config errors."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _positive_int(value, what) -> int:
    value = _int_value(value, what)
    if value <= 0:
        raise ConfigError(f"{what} must be positive")
    return value


def _direction(pair, what):
    """The parameter direction pair (du, dv); a config error unless it is finite and nonzero."""
    if not all(map(math.isfinite, pair)) or not any(pair):
        raise ConfigError(f"{what} {list(pair)!r} must be finite and nonzero")
    return pair


def _l_values(args, config, default):
    values = (
        _parse_floats(args.l_values, None, "--l-values")
        if args.l_values
        else [float(L) for L in checked(config.get("L", default), "a list of numbers", "L")]
    )
    if not values or any(not math.isfinite(L) or L <= 0 for L in values):
        raise ConfigError("L values must be positive and finite")
    return values


def _without_char_tol(config, command) -> None:
    if "characteristic" in _section(config, "tolerances"):
        raise ConfigError(f"{command} does not read tolerances.characteristic")


def _char_tol(args, config) -> float:
    tol = args.char_tol
    if tol is None:
        tol = _section(config, "tolerances").get("characteristic", CHARACTERISTIC_TOL)
    tol = number(tol, "tolerances.characteristic")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("characteristic tolerance must be positive")
    return tol


# ---------------------------------------------------------------------------
# rotsurf


def cmd_rotsurf(args) -> int:
    config = _load_config(args.config)
    section = dict(_section(config, "rotsurf"))
    if "v_range" in section:
        checked(section["v_range"], "a pair of numbers", "rotsurf.v_range")
    if args.figure is not None:
        kinf, r0 = FIGURE_PRESETS[args.figure]
        section["K_inf"], section["r0"] = kinf, r0
    flags = {"K_inf": args.kinf}
    flags.update((key, getattr(args, key)) for key in ("r0", "c1_shift", "samples_u", "samples_v", "n_curves"))
    section.update((key, value) for key, value in flags.items() if value is not None)
    if args.vmin is not None or args.vmax is not None:
        lo, hi = section.get("v_range", (None, None))
        lo = args.vmin if args.vmin is not None else lo
        hi = args.vmax if args.vmax is not None else hi
        if lo is None or hi is None:
            raise ConfigError("give both --vmin and --vmax (or a config v_range)")
        section["v_range"] = [float(lo), float(hi)]
    if "K_inf" not in section:
        raise ConfigError("rotsurf needs K_inf (via --kinf, --figure or config)")

    # the spec gets the fields given, in its field order; the others keep its defaults
    given = {key: number(section[key], f"rotsurf.{key}") for key in ("K_inf", "r0", "c1_shift") if key in section}
    if "v_range" in section:
        given["v_range"] = tuple(section["v_range"])
    for key in ("samples_u", "samples_v"):
        if section.get(key) is not None:
            given[key] = _positive_int(section[key], key)
    if "n_curves" in section:
        given["n_curves"] = _int_value(section["n_curves"], "n_curves")
    spec = RotationSurfaceSpec(**given)
    mesh = build_mesh(spec)
    effective = {"command": "rotsurf", **dataclasses.asdict(spec), "v_range": list(spec.resolved_v_range())}
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    obj_path = prefix.with_suffix(".obj")
    write_obj(obj_path, mesh, effective)
    csv_path = prefix.parent / (prefix.name + "_profile.csv")
    write_csv(
        csv_path,
        ["t", "r", "r_prime", "theta", "c", "A"],
        mesh.profile_rows,
        effective,
    )
    print(f"wrote {obj_path} and {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# curvature and frames grids


def _grid_command(args, command, side):
    """(config, chart, effective record, grid sides and characteristic tolerance) of a grid command."""
    config = _load_config(args.config)
    surface_cfg = _surface_config(args, config)
    patch = _build_surface(surface_cfg)
    grid = _section(config, "grid")
    nu, nv = (
        _positive_int(flag if flag is not None else grid[key] if grid.get(key) is not None else side, key)
        for key, flag in (("nu", args.nu), ("nv", args.nv))
    )
    char_tol = _char_tol(args, config)
    effective = {
        "command": command, "surface": surface_cfg, "grid": {"nu": nu, "nv": nv}, "characteristic_tol": char_tol
    }
    return config, patch, effective, (nu, nv, char_tol)


def _grid_rows(patch, nu, nv, char_tol, values):
    """Rows u, v, x, y, z, *values(sample, fd), characteristic over the chart grid.

    One batched frame_data call over the grid, v outer and u inner, with the
    errors of a point-by-point scan.  Characteristic points get NaN values
    and the flag 1; a grid of characteristic points only is an error.
    """
    u = np.tile(np.linspace(patch.u_range[0], patch.u_range[1], nu), nv)
    v = np.repeat(np.linspace(patch.v_range[0], patch.v_range[1], nv), nu)
    sample, fd, singular = first_failure(
        lambda lo, hi: frame_data(patch, u[lo:hi], v[lo:hi], tol=char_tol), len(u)
    )
    if singular.all():
        raise CharacteristicPointError("every grid point is characteristic")
    with np.errstate(all="ignore"):
        cells = [np.where(singular, math.nan, x) for x in values(sample, fd)]
    point = (sample.point.x, sample.point.y, sample.point.z)
    return np.column_stack(np.broadcast_arrays(u, v, *point, *cells, singular.astype(float)))


def cmd_curvature(args) -> int:
    config, patch, effective, grid = _grid_command(args, "curvature", 24)
    L_values = _l_values(args, config, [1.0, 10.0, 100.0])
    directions = checked(config.get("kn_directions", [[1.0, 0.0]]), "a list of pairs of numbers", "kn_directions")
    if args.kn_directions:
        directions = [
            _parse_floats(chunk, 2, "--kn-directions")
            for chunk in args.kn_directions.split(";")
            if chunk.strip()
        ]
    directions = [_direction(d, "kn_directions") for d in directions]

    effective.update(L=L_values, kn_directions=directions)
    columns = ["u", "v", "x", "y", "z", "alpha", "A", "K_inf", "K_gauss"]
    columns += [f"K_L_{L:g}" for L in L_values]
    columns += [f"k_n_{d[0]:g}_{d[1]:g}" for d in directions]
    columns.append("characteristic")

    def values(sample, fd):
        A = sample.A
        row = [sample.alpha, A, k_inf(fd, A), k_gauss_map(fd)]
        row += [k_L(fd, A, L) for L in L_values]
        for du, dv in directions:
            b = du * sample.f_u_23[1] + dv * sample.f_v_23[1]  # f^3 of the direction
            row.append(np.where(b != 0.0, A * np.copysign(1.0, b), math.nan))  # k_n = A sign(b)
        return row

    rows = _grid_rows(patch, *grid, values)
    flagged = int(rows[:, -1].sum())
    write_csv(args.out, columns, rows, effective)
    print(f"wrote {args.out} ({len(rows)} rows, {flagged} characteristic)")
    return EXIT_OK


def cmd_frames(args) -> int:
    _, patch, effective, grid = _grid_command(args, "frames", 16)
    columns = [
        "u", "v", "x", "y", "z", "alpha", "A",
        "f1_c1", "f1_c2", "f2_c1", "f2_c2", "f3_c1", "f3_c2", "f3_c3",
        "dA_f2", "dA_f3", "dalpha_f2", "dalpha_f3", "characteristic",
    ]

    def values(s, fd):
        return [
            s.alpha, s.A, s.f1.c1, s.f1.c2, s.f2.c1, s.f2.c2, s.f3.c1, s.f3.c2, s.f3.c3,
            fd.dA_f2, fd.dA_f3, fd.dalpha_f2, fd.dalpha_f3,
        ]

    rows = _grid_rows(patch, *grid, values)
    write_csv(args.out, columns, rows, effective)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gauss-bonnet


GB_PRESETS = {
    "plane-annulus": {"surface": {"kind": "plane"}, "region": {"u": [0.0, 2.0 * math.pi], "v": [1.0, 2.0], "closed_u": True}},
    "band-k1": {"surface": {"kind": "rotation", "K_inf": 1.0, "r0": 1.0}, "region": {"u": [0.0, 2.0 * math.pi], "v": [-0.5, 0.8], "closed_u": True}},
    "band-k0": {"surface": {"kind": "rotation", "K_inf": 0.0, "r0": 1.0}, "region": {"u": [0.0, 2.0 * math.pi], "v": [0.3, 1.2], "closed_u": True}},
    "band-km1": {"surface": {"kind": "rotation", "K_inf": -1.0, "r0": 1.0}, "region": {"u": [0.0, 2.0 * math.pi], "v": [-1.0, 1.5], "closed_u": True}},
}


def _region_from_config(cfg: dict, patch) -> ParamRegion:
    if "u" not in cfg or "v" not in cfg:
        raise ConfigError("region needs 'u' and 'v' interval fields")
    (u0, u1), (v0, v1) = (checked(cfg[key], "a pair of numbers", f"region.{key}") for key in "uv")
    given = {"orientation": _int_value(cfg["orientation"], "region orientation")} if "orientation" in cfg else {}
    return ParamRegion(
        float(u0),
        float(u1),
        float(v0),
        float(v1),
        closed_u=checked(cfg.get("closed_u", patch.closed_u), "true or false", "region.closed_u"),
        **given,
    )


def cmd_gauss_bonnet(args) -> int:
    config = _load_config(args.config)
    _without_char_tol(config, "gauss-bonnet")
    if args.preset:
        preset = GB_PRESETS[args.preset]
        config = {**config, "surface": preset["surface"], "region": preset["region"]}
    surface_cfg = _surface_config(args, config)
    patch = _build_surface(surface_cfg)
    region_cfg = dict(_section(config, "region"))
    if args.region:
        u0, u1, v0, v1 = _parse_floats(args.region, 4, "--region")
        region_cfg.update({"u": [u0, u1], "v": [v0, v1]})
    if args.closed_u:
        region_cfg["closed_u"] = True
    if not region_cfg:
        region_cfg = {
            "u": list(patch.u_range),
            "v": list(patch.v_range),
            "closed_u": patch.closed_u,
        }
    region = _region_from_config(region_cfg, patch)
    threshold = args.threshold if args.threshold is not None else number(
        _section(config, "tolerances").get("residual", 1e-8), "tolerances.residual"
    )
    if not (math.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"residual threshold must be positive and finite, got {threshold!r}")
    effective = {
        "command": "gauss-bonnet",
        "surface": surface_cfg,
        "region": {
            "u": [region.u0, region.u1],
            "v": [region.v0, region.v1],
            "closed_u": region.closed_u,
            "orientation": region.orientation,
        },
        "threshold": threshold,
    }
    report = gb_residual(patch, region)
    payload = dataclasses.asdict(report)
    payload.update(threshold=threshold, within_threshold=abs(report.residual) <= threshold)
    write_json_report(args.out, payload, effective)
    print(
        f"area {report.area_integral:.12g}  boundary {report.boundary_integral:.12g}  "
        f"residual {report.residual:.3e} (threshold {threshold:g})"
    )
    if abs(report.residual) > threshold:
        print("error: residual exceeds threshold", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge


def cmd_converge(args) -> int:
    config = _load_config(args.config)
    _without_char_tol(config, "converge")
    surface_cfg = _surface_config(args, config)
    patch = _build_surface(surface_cfg)
    L_values = _l_values(args, config, [1e2, 1e3, 1e4, 1e5, 1e6])
    if args.point:
        point = tuple(_parse_floats(args.point, 2, "--point"))
    elif "point" in config:
        point = tuple(float(x) for x in checked(config["point"], "a pair of numbers", "point"))
    else:
        point = (
            0.5 * (patch.u_range[0] + patch.u_range[1]),
            0.5 * (patch.v_range[0] + patch.v_range[1]),
        )
    if not patch.contains(*point):
        raise ConfigError(
            f"point {point!r} lies outside the chart u in {patch.u_range!r}, v in {patch.v_range!r}"
        )
    direction = _direction(
        tuple(_parse_floats(args.direction, 2, "--direction"))
        if args.direction
        else tuple(checked(config.get("direction", (1.0, 0.0)), "a pair of numbers", "direction")),
        "direction",
    )
    effective = {
        "command": "converge",
        "surface": surface_cfg,
        "point": list(point),
        "direction": list(direction),
        "L": L_values,
    }
    result = convergence_study(patch, point, L_values, direction)
    columns = [
        "L", "K_L", "abs_err_K", "sigma_L", "rescaled_sigma", "K_L_sigma_L",
        "k_n_L", "abs_err_k_n", "ds_L_density",
    ]
    rows = [dataclasses.astuple(r) for r in result.rows]  # the columns in field order
    footer = [
        f"K_inf {result.K_inf:.17g}",
        f"k_n {result.k_n_limit:.17g}",
        f"slope_err_K {result.slope_err_K}",
        f"slope_err_k_n {result.slope_err_k_n}",
        f"slope_sigma_L {result.slope_sigma}",
        f"slope_K_L_sigma_L {result.slope_K_L_sigma}",
    ]
    write_csv(args.out, columns, rows, effective, footer_comments=footer)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    results = run_identity_suite()
    failed = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} identity check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(results)} identity checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_surface_flags(sub):
    sub.add_argument("--config", help="JSON configuration document")
    sub.add_argument(
        "--surface",
        choices=["plane", "plane-cartesian", "cylinder", "paraboloid", "rotation"],
        help="catalog surface name",
    )
    sub.add_argument("--kinf", type=float, help="rotation-family curvature")
    sub.add_argument("--r0", type=float, help="rotation-family radius parameter")


def _add_grid_flags(sub):
    _add_surface_flags(sub)
    sub.add_argument(
        "--char-tol",
        dest="char_tol",
        type=float,
        help=f"relative tolerance of the characteristic-point test (default {CHARACTERISTIC_TOL:g})",
    )
    sub.add_argument("--nu", type=int)
    sub.add_argument("--nv", type=int)


@functools.cache  # parsing leaves the parser as it was, so one process shares one
def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="h1geom", description=__doc__)
    parser.add_argument("--version", action="version", version=f"h1geom {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    rot = subs.add_parser("rotsurf", help="mesh a constant-curvature rotation surface")
    rot.add_argument("--config")
    rot.add_argument("--figure", type=int, choices=[1, 2, 3], help="preset (K_inf, r0)")
    rot.add_argument("--kinf", type=float)
    rot.add_argument("--r0", type=float)
    rot.add_argument("--c1-shift", dest="c1_shift", type=float)
    rot.add_argument("--vmin", type=float)
    rot.add_argument("--vmax", type=float)
    rot.add_argument("--samples-u", dest="samples_u", type=int)
    rot.add_argument("--samples-v", dest="samples_v", type=int)
    rot.add_argument("--n-curves", dest="n_curves", type=int)
    rot.add_argument("--out-prefix", dest="out_prefix", default="rotsurf")
    rot.set_defaults(func=cmd_rotsurf)

    cur = subs.add_parser("curvature", help="curvature quantities on a parameter grid")
    _add_grid_flags(cur)
    cur.add_argument("--l-values", dest="l_values")
    cur.add_argument("--kn-directions", dest="kn_directions")
    cur.add_argument("--out", default="curvature.csv")
    cur.set_defaults(func=cmd_curvature)

    frm = subs.add_parser("frames", help="adapted-frame samples on a parameter grid")
    _add_grid_flags(frm)
    frm.add_argument("--out", default="frames.csv")
    frm.set_defaults(func=cmd_frames)

    gb = subs.add_parser("gauss-bonnet", help="verify the limit Gauss-Bonnet identity")
    _add_surface_flags(gb)
    gb.add_argument("--preset", choices=sorted(GB_PRESETS))
    gb.add_argument("--region", help="u0,u1,v0,v1")
    gb.add_argument("--closed-u", dest="closed_u", action="store_true")
    gb.add_argument("--threshold", type=float)
    gb.add_argument("--out", default="gauss_bonnet.json")
    gb.set_defaults(func=cmd_gauss_bonnet)

    con = subs.add_parser("converge", help="L-sweep of the limit relations at a point")
    _add_surface_flags(con)
    con.add_argument("--point", help="u,v")
    con.add_argument("--direction", help="du,dv for the normal-curvature sweep")
    con.add_argument("--l-values", dest="l_values")
    con.add_argument("--out", default="converge.csv")
    con.set_defaults(func=cmd_converge)

    chk = subs.add_parser("check", help="run the built-in identity suite")
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # bad user-supplied values that slipped past explicit validation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
