import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import helpers
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from h1geom import expr as ex
from h1geom.cli import main
from h1geom.export import write_csv
from h1geom.rotsurf import e3_chord_ratio, family_profile


def read_csv(path):
    """(header comment, column names, float rows, footer comments)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# h1geom 0.1.0 config-sha256:")
    columns = lines[1].split(",")
    rows = []
    footer = []
    for line in lines[2:]:
        if line.startswith("#"):
            footer.append(line)
        else:
            rows.append([float(x) for x in line.split(",")])
    return lines[0], columns, rows, footer


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out


def test_rotsurf_figure_preset(tmp_path):
    prefix = tmp_path / "fig2"
    code = main(
        [
            "rotsurf",
            "--figure", "2",
            "--samples-u", "16",
            "--samples-v", "40",
            "--n-curves", "2",
            "--out-prefix", str(prefix),
        ]
    )
    assert code == 0
    obj_text = (tmp_path / "fig2.obj").read_text()
    assert obj_text.startswith("# h1geom 0.1.0 config-sha256:")
    assert obj_text.count("\nl ") == 2
    _, columns, rows, _ = read_csv(tmp_path / "fig2_profile.csv")
    assert columns == ["t", "r", "r_prime", "theta", "c", "A"]
    assert len(rows) == 40
    # figure 2 is the zero-curvature family: r = sqrt(v)
    for row in rows:
        assert row[1] == pytest.approx(math.sqrt(row[0]), rel=1e-12)
    # -dA/dv - A^2 recovers K_inf = 0 row to row, away from the domain edge
    # where A = 1/v is steep and the row spacing too coarse for differencing
    checked = 0
    for first, second in zip(rows, rows[1:]):
        if first[0] < 0.6:
            continue
        dv = second[0] - first[0]
        dA = (second[5] - first[5]) / dv
        mid_A = 0.5 * (second[5] + first[5])
        assert -dA - mid_A**2 == pytest.approx(0.0, abs=0.02)
        checked += 1
    assert checked > 10


def test_rotsurf_obj_polylines_horizontal(tmp_path):
    prefix = tmp_path / "fig1"
    main(
        [
            "rotsurf",
            "--figure", "1",
            "--samples-u", "8",
            "--samples-v", "8",
            "--n-curves", "1",
            "--out-prefix", str(prefix),
        ]
    )
    verts = []
    polylines = []
    for line in (tmp_path / "fig1.obj").read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("l "):
            polylines.append([int(i) for i in line.split()[1:]])
    verts = np.array(verts)
    assert len(polylines) == 1
    curve = verts[np.array(polylines[0]) - 1]
    assert np.max(e3_chord_ratio(curve)) <= 1e-8


def test_rotsurf_domain_violation_exit(tmp_path, capsys):
    code = main(
        [
            "rotsurf",
            "--kinf", "1", "--r0", "1",
            "--vmin", "-1.5", "--vmax", "1.5",
            "--out-prefix", str(tmp_path / "bad"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "1.33247886" in err  # message cites the computed bound


def test_rotsurf_needs_curvature(tmp_path, capsys):
    assert main(["rotsurf", "--out-prefix", str(tmp_path / "x")]) == 1


def test_curvature_grid_plane(tmp_path):
    out = tmp_path / "curv.csv"
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {"kind": "plane", "v_range": [1.0, 2.0]},
                "grid": {"nu": 3, "nv": 3},
                "L": [1.0],
            }
        )
    )
    assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    row = rows[0]  # u = 0, v = 1
    assert row[at["v"]] == 1.0
    assert row[at["K_inf"]] == pytest.approx(-2.0, abs=1e-9)
    assert row[at["K_gauss"]] == pytest.approx(4.0, abs=1e-9)
    assert row[at["K_L_1"]] == pytest.approx(-0.56, abs=1e-9)
    assert row[at["A"]] == pytest.approx(2.0, abs=1e-12)
    assert row[at["k_n_1_0"]] == pytest.approx(-2.0, abs=1e-9)
    assert row[at["characteristic"]] == 0.0


def test_curvature_grid_cylinder_zero(tmp_path):
    out = tmp_path / "cyl.csv"
    assert main(["curvature", "--surface", "cylinder", "--nu", "4", "--nv", "4", "--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    for row in rows:
        assert row[at["K_inf"]] == pytest.approx(0.0, abs=1e-12)
        assert row[at["A"]] == pytest.approx(0.0, abs=1e-12)


def test_curvature_flags_characteristic_rows(tmp_path):
    out = tmp_path / "par.csv"
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {"kind": "paraboloid", "u_range": [-1, 1], "v_range": [-1, 1]},
                "grid": {"nu": 3, "nv": 3},
            }
        )
    )
    assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    flagged = [row for row in rows if row[at["characteristic"]] == 1.0]
    assert len(flagged) == 1  # the origin
    assert math.isnan(flagged[0][at["K_inf"]])


def test_gauss_bonnet_presets(tmp_path):
    for preset in ("plane-annulus", "band-k1", "band-k0", "band-km1"):
        out = tmp_path / f"{preset}.json"
        assert main(["gauss-bonnet", "--preset", preset, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["residual"]) <= 1e-8
        assert report["within_threshold"] is True
        assert report["tool"] == "h1geom"
        assert re.fullmatch(r"[0-9a-f]{12}", report["config_sha256"])


def test_gauss_bonnet_threshold_exit(tmp_path):
    # quadrature rounding leaves a tiny but nonzero residual (about 6e-17
    # here), so a sub-floor threshold must fail with exit 3
    out = tmp_path / "gb.json"
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {"kind": "paraboloid"},
                "region": {"u": [0.5, 0.7], "v": [0.5, 1.2]},
            }
        )
    )
    code = main(
        ["gauss-bonnet", "--config", str(config), "--threshold", "1e-20", "--out", str(out)]
    )
    report = json.loads(out.read_text())
    expected = 0 if abs(report["residual"]) <= 1e-20 else 3
    assert code == expected == 3


def test_gauss_bonnet_transversality_exit(tmp_path, capsys):
    # an open region on the polar plane has radial edges along f2 (b = 0)
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {"kind": "plane"},
                "region": {"u": [0, 1], "v": [1, 2], "closed_u": False},
            }
        )
    )
    code = main(["gauss-bonnet", "--config", str(config), "--out", str(tmp_path / "gb.json")])
    assert code == 2


def test_converge_output(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(
        [
            "converge",
            "--surface", "plane",
            "--point", "0,1",
            "--direction", "1,1",
            "--out", str(out),
        ]
    ) == 0
    _, columns, rows, footer = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    assert [row[at["L"]] for row in rows] == [1e2, 1e3, 1e4, 1e5, 1e6]
    slope_K = float([f for f in footer if "slope_err_K" in f][0].split()[-1])
    assert slope_K == pytest.approx(-1.0, abs=0.05)
    slope_kn = float([f for f in footer if "slope_err_k_n" in f][0].split()[-1])
    assert slope_kn <= -0.45
    # unrescaled density grows like sqrt(L); A = 2 at the sample point
    dens = [row[at["sigma_L"]] for row in rows]
    assert dens[-1] / dens[0] == pytest.approx(
        math.sqrt((1e6 + 4.0) / (1e2 + 4.0)), rel=1e-12
    )


def test_converge_zero_tilt_columns(tmp_path):
    out = tmp_path / "conv0.csv"
    assert main(
        ["converge", "--surface", "cylinder", "--point", "0.3,0.2", "--out", str(out)]
    ) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    for row in rows:
        assert row[at["abs_err_K"]] == 0.0
        assert abs(row[at["abs_err_k_n"]]) <= 1e-12


def test_frames_output(tmp_path):
    out = tmp_path / "frames.csv"
    assert main(["frames", "--surface", "plane", "--nu", "3", "--nv", "3", "--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    for row in rows:
        # f1 components encode alpha; identity holds row-wise
        assert row[at["f1_c1"]] == pytest.approx(math.cos(row[at["alpha"]]), abs=1e-12)
        assert row[at["dalpha_f3"]] + row[at["dA_f2"]] + row[at["A"]] ** 2 == pytest.approx(
            0.0, abs=1e-8
        )


def test_outputs_are_deterministic(tmp_path):
    args = ["curvature", "--surface", "plane", "--nu", "5", "--nv", "4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": {"kind": "cylinder"}}))
    out = tmp_path / "o.csv"
    assert main(
        ["curvature", "--config", str(config), "--surface", "plane", "--nu", "2", "--nv", "2", "--out", str(out)]
    ) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    assert rows[0][at["A"]] != 0.0  # plane, not the cylinder


def test_characteristic_tolerance_override(tmp_path):
    # a huge tolerance flags every point of the near-flat plane as characteristic
    code = main(
        [
            "curvature",
            "--surface", "plane-cartesian",
            "--nu", "3", "--nv", "3",
            "--char-tol", "1e6",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2  # all-characteristic grid


def test_bad_l_values_exit(tmp_path):
    assert main(
        ["curvature", "--surface", "plane", "--l-values", "-5", "--out", str(tmp_path / "x.csv")]
    ) == 1


def test_bad_config_exit(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    config.write_text(json.dumps({"surface": {"kind": "graph"}}))  # missing h
    assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize(
    "section, what",
    [
        ({"n_curves": 2.7}, "n_curves"),
        ({"n_curves": True}, "n_curves"),
        ({"samples_u": 8.9}, "samples_u"),
        ({"samples_v": False}, "samples_v"),
        ({"samples_u": "many"}, "samples_u"),
    ],
)
def test_rotsurf_rejects_non_integer_config(tmp_path, capsys, section, what):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rotsurf": {"K_inf": 1.0, **section}}))
    prefix = tmp_path / "mesh"
    assert main(["rotsurf", "--config", str(config), "--out-prefix", str(prefix)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and what in err and "integer" in err
    assert not prefix.with_suffix(".obj").exists()


@pytest.mark.parametrize("grid", [{"nu": 2.7}, {"nv": True}, {"nu": 4, "nv": 3.5}])
@pytest.mark.parametrize("command", ["curvature", "frames"])
def test_grid_rejects_non_integer_config(tmp_path, capsys, grid, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": {"kind": "plane"}, "grid": grid}))
    out = tmp_path / "grid.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "integer" in err
    assert not out.exists()


def test_integral_float_config_values_accepted(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"rotsurf": {"K_inf": 0.0, "samples_u": 6.0, "samples_v": 5, "n_curves": 2.0}})
    )
    prefix = tmp_path / "mesh"
    assert main(["rotsurf", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    assert prefix.with_suffix(".obj").read_text().count("\nl ") == 2


def test_parametric_surface_from_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {
                    "kind": "parametric",
                    "x": "cos(u)",
                    "y": "sin(u)",
                    "z": "v",
                    "u_range": [0, 6.283185307179586],
                    "v_range": [-1, 1],
                    "closed_u": True,
                },
                "grid": {"nu": 4, "nv": 3},
            }
        )
    )
    out = tmp_path / "p.csv"
    assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    at = {c: i for i, c in enumerate(columns)}
    for row in rows:
        assert row[at["K_inf"]] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1e-8"])
def test_gauss_bonnet_rejects_bad_threshold_flag(tmp_path, capsys, threshold):
    out = tmp_path / "gb.json"
    code = main(["gauss-bonnet", "--preset", "band-k1", f"--threshold={threshold}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "threshold" in err
    assert not out.exists()


@pytest.mark.parametrize("residual", ["nan", 0.0, -1.0])
def test_gauss_bonnet_rejects_bad_threshold_config(tmp_path, capsys, residual):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tolerances": {"residual": residual}}))
    out = tmp_path / "gb.json"
    assert main(["gauss-bonnet", "--preset", "band-k1", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "threshold" in err
    assert not out.exists()


def test_converge_rejects_point_outside_chart(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--surface", "paraboloid", "--point", "50,50", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "outside the chart" in err
    assert not out.exists()


def test_converge_takes_any_u_on_a_chart_closed_in_u(tmp_path):
    # rotation charts are periodic in u; v is still bounded
    for point in ("7,1", "-1,1"):
        out = tmp_path / f"conv{point}.csv"
        assert main(["converge", "--surface", "plane", f"--point={point}", "--out", str(out)]) == 0
        assert out.exists()
    assert main(["converge", "--surface", "plane", "--point", "7,50", "--out", str(tmp_path / "x.csv")]) == 1


def test_deeply_nested_expression_exits_1(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    h = "(" * 5000 + "u" + ")" * 5000
    config.write_text(json.dumps({"surface": {"kind": "graph", "h": h}}))
    out = tmp_path / "x.csv"
    assert main(["curvature", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "nests deeper" in err
    assert not out.exists()


def test_n_curves_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rotsurf": {"K_inf": 0, "n_curves": 1, "samples_u": 4}}))
    prefix = tmp_path / "mesh"
    args = ["rotsurf", "--config", str(config), "--out-prefix", str(prefix)]
    assert main(args + ["--n-curves", "3", "--samples-u", "5"]) == 0
    _, _, rows, _ = read_csv(tmp_path / "mesh_profile.csv")
    obj = prefix.with_suffix(".obj").read_text()
    assert obj.count("\nl ") == 3
    assert obj.count("\nv ") == 5 * len(rows) + sum(
        len(line.split()) - 1 for line in obj.splitlines() if line.startswith("l ")
    )
    assert main(args) == 0
    assert prefix.with_suffix(".obj").read_text().count("\nl ") == 1


def test_gauss_bonnet_graph_rectangle_within_default_threshold(tmp_path):
    # a benchmark rectangle whose finite-difference residual (1.02e-8) used
    # to miss the 1e-8 default; exact derivatives leave rounding only
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "surface": {
                    "kind": "graph",
                    "h": "0.383629*u^2 + -0.101786*v^2 + -0.419296*u*v"
                    " + 0.225044*sin(-0.504825*u + 1.462483*v + 5.415041)",
                    "u_range": [-2.5, 2.5],
                    "v_range": [-2.5, 2.5],
                },
                "region": {
                    "u": [0.4259280067572533, 1.303731613080383],
                    "v": [-0.09801624149504606, 0.8698380910216004],
                },
            }
        )
    )
    out = tmp_path / "gb.json"
    assert main(["gauss-bonnet", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["residual"]) <= 1e-13
    assert report["within_threshold"] is True


def test_gauss_bonnet_closed_region_short_of_a_period_exits_1(tmp_path, capsys):
    # the band once dropped its side edges and reported a residual of 0.75
    band = {
        "kind": "parametric",
        "x": "(2+cos(v))*cos(u)",
        "y": "(2+cos(v))*sin(u)",
        "z": "sin(v)+0.3*sin(u)",
        "u_range": [0.0, 2.0 * math.pi],
        "v_range": [-0.4, 0.4],
        "closed_u": True,
    }
    config = tmp_path / "cfg.json"
    for u1, expected in ((3.0, 1), (2.0 * math.pi, 0)):
        config.write_text(json.dumps({"surface": band, "region": {"u": [0.0, u1], "v": [-0.4, 0.4]}}))
        code = main(["gauss-bonnet", "--config", str(config), "--out", str(tmp_path / "gb.json")])
        assert code == expected
    assert "closed in u" in capsys.readouterr().err


def test_write_csv_matches_line_by_line_reference(tmp_path):
    rows = [
        [0.1, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1, 0, True, None],
        [1 / 3, 2.0, -1.5e300, 3, 12345678901234567.0, -2.5, 0.0, 0, 1, False, 7.0],
    ]
    columns = [f"c{k}" for k in range(11)]
    for footer in ((), ("slope 1.5", "k_n nan")):
        for body in (rows, rows[:0], np.array(rows[1:], dtype=float)):
            write_csv(tmp_path / "block.csv", columns, body, {"k": 1}, footer_comments=footer)
            helpers.reference_write_csv(tmp_path / "lines.csv", columns, body, {"k": 1}, footer_comments=footer)
            assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "lines.csv").read_bytes()


# ---------------------------------------------------------------------------
# Gauss-Bonnet cubature errors: exit 2 with one line, and no report


def _gauss_bonnet_exit(tmp_path, capsys, surface, u, v):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": surface, "region": {"u": u, "v": v}}))
    out = tmp_path / "gb.json"
    code = main(["gauss-bonnet", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert not out.exists()
    return code, err


def test_gauss_bonnet_refuses_a_boundary_winding_around_a_characteristic_point(tmp_path, capsys):
    # the characteristic origin of the paraboloid lies between the prescan's grid nodes
    code, err = _gauss_bonnet_exit(tmp_path, capsys, {"kind": "paraboloid"}, [-0.3, 1.0], [-0.2, 0.9])
    assert code == 2
    assert "characteristic point inside the region" in err and "winding number 1" in err


def test_gauss_bonnet_singular_cubature_node_exits_2(tmp_path, capsys):
    # f_v vanishes at the origin alone, a cubature node that the region gate does not test for degeneracy
    surface = {"kind": "parametric", "x": "u^2 - v^2", "y": "2*u*v", "z": "u", "u_range": [-1, 1], "v_range": [-1, 1]}
    code, err = _gauss_bonnet_exit(tmp_path, capsys, surface, [-0.5, 0.5], [-0.5, 0.5])
    assert code == 2
    assert "dependent coordinate tangents" in err and "(0.0, 0.0)" in err


@pytest.mark.parametrize(
    "surface, u, v, message",
    [
        # at the corner (1, 1) the base is 0 and the exponent's gradient 0, its Hessian not; no cubature node is a corner
        ({"kind": "graph", "h": "((u-1)^2+(v-1)^2)^(2+(u-1)^2+(v-1)^2)"}, [0, 1], [0, 1],
         "non-positive base 0.0 with varying exponent in '((u-1)^2+(v-1)^2)^(2+(u-1)^2+(v-1)^2)'"),
        # the exponent is 2 in floating point, and its v-partial underflows to 0 at the gate's nodes v = k pi
        ({"kind": "parametric", "x": "(3 + sin(v/40))*cos(u)", "y": "(3 + sin(v/40))*sin(u)",
          "z": "v + (-1)^(2 + 1e-310*cos(v))", "u_range": [0, 2 * math.pi], "v_range": [0, 20 * math.pi], "closed_u": True},
         [0, 2 * math.pi], [0, 20 * math.pi],
         "non-positive base -1.0 with varying exponent in '(-1)^(2+9.9999999999999694e-311*cos(v))'"),
    ],
)
def test_gauss_bonnet_varying_exponent_with_a_vanishing_gradient_exits_2(tmp_path, capsys, surface, u, v, message):
    # An exponent in which a variable occurs varies, even where its gradient is 0, and needs a positive base in both
    # passes; the region gate's first-order pass refuses the point with the hyper-dual pass's line.
    from h1geom import catalog, expr
    from h1geom.gaussbonnet import ParamRegion, _check_region

    patch = catalog.surface_from_config(surface)
    with pytest.raises(expr.ExprDomainError, match="varying exponent"):
        _check_region(patch, ParamRegion(*u, *v, closed_u=surface.get("closed_u", False)))
    code, err = _gauss_bonnet_exit(tmp_path, capsys, surface, u, v)
    assert code == 2
    assert err == f"evaluation error: {message}"


def test_gauss_bonnet_exponent_without_a_variable_is_constant(tmp_path, capsys):
    # 1e-320*710/1e308 underflows to 0, so the exponent is 2, though its second partials are NaN (1e+308 squared
    # overflows in the quotient rule); an exponent is constant iff no variable occurs in it, so the base may be negative
    def report(h):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"surface": {"kind": "graph", "h": h}, "region": {"u": [-2, -1], "v": [0.5, 1]}}))
        out = tmp_path / "gb.json"
        assert main(["gauss-bonnet", "--config", str(config), "--out", str(out)]) == 0
        return {key: value for key, value in json.loads(out.read_text()).items() if key in ("area_integral", "boundary_integral", "residual")}

    square = report("u^2")
    assert len(square) == 3 and report("u^(1e-320*710/1e308 + 2)") == square
    (tmp_path / "gb.json").unlink()
    code, err = _gauss_bonnet_exit(tmp_path, capsys, {"kind": "graph", "h": "u^(v-v+2)"}, [-2, -1], [0.5, 1])
    assert code == 2
    assert err == "evaluation error: non-positive base -2.0 with varying exponent in 'u^(v-v+2)'"


@pytest.mark.parametrize(
    "h, message",
    [
        ("u^1e400", "non-finite exponent inf in 'u^inf'"),
        ("(u+2)^1e400", "non-finite exponent inf in '(u+2)^inf'"),
        ("u^-1e400", "non-finite exponent -inf in 'u^-inf'"),
    ],
)
def test_gauss_bonnet_infinite_exponent_exits_2(tmp_path, capsys, h, message):
    # an exponent literal that overflows to inf is refused by name, not by an OverflowError from int(inf)
    code, err = _gauss_bonnet_exit(tmp_path, capsys, {"kind": "graph", "h": h}, [1, 2], [0, 1])
    assert code == 2
    assert err == f"evaluation error: {message}"


@pytest.mark.parametrize(
    "argv, region, chart",
    [
        (["--surface", "paraboloid", "--region", "1,2,3,4"], "u in [1.0, 2.0], v in [3.0, 4.0]", "u in (-2.0, 2.0), v in (-2.0, 2.0)"),
        (
            ["--surface", "cylinder", "--region", "0,6.283185307179586,-9,-5", "--closed-u"],
            "u in [0.0, 6.283185307179586], v in [-9.0, -5.0]",
            "u in (0.0, 6.283185307179586), v in (-4.0, 4.0)",
        ),
        (  # across the polar chart's singular radius v = 0
            ["--surface", "plane", "--region", "0,6.283185307179586,-1,2", "--closed-u"],
            "u in [0.0, 6.283185307179586], v in [-1.0, 2.0]",
            "u in (0.0, 6.283185307179586), v in (0.05, 8.0)",
        ),
        (  # v = -0.5 lies outside the K = 0 family's domain, where the jet would take sqrt of a negative number
            ["--surface", "rotation", "--kinf", "0", "--region", "0,6.283185307179586,-0.5,0.8", "--closed-u"],
            "u in [0.0, 6.283185307179586], v in [-0.5, 0.8]",
            "u in (0.0, 6.283185307179586), v in ",
        ),
    ],
    ids=["paraboloid", "cylinder", "plane", "band-k0"],
)
def test_gauss_bonnet_region_outside_the_chart_exits_1(tmp_path, capsys, argv, region, chart):
    out = tmp_path / "gb.json"
    assert main(["gauss-bonnet", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"config error: region {region} leaves the chart {chart}")
    assert len(err.splitlines()) == 1 and not out.exists()


def test_gauss_bonnet_unconverged_cubature_exits_2(tmp_path, capsys, monkeypatch):
    from h1geom import quadrature

    # the area near the paraboloid's characteristic origin needs three subdivisions
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
    code, err = _gauss_bonnet_exit(tmp_path, capsys, {"kind": "paraboloid"}, [0.02, 1.0], [0.02, 1.0])
    assert code == 2
    assert "cubature" in err and "did not converge" in err


@pytest.mark.parametrize("orientation", [0, 2, 1.5])
def test_gauss_bonnet_region_orientation_must_be_plus_or_minus_one(tmp_path, capsys, orientation):
    region = {"u": [1.0, 2.0], "v": [-1.0, -0.5], "orientation": orientation}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": {"kind": "paraboloid"}, "region": region}))
    out = tmp_path / "gb.json"
    assert main(["gauss-bonnet", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "orientation" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss-bonnet", "--surface", "paraboloid", "--region", "1,2,-1,-0.5"],
        ["converge", "--surface", "paraboloid", "--point", "1,-0.5"],
    ],
)
def test_char_tol_is_a_usage_error_where_it_is_not_honoured(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--char-tol", "0.9", "--out", str(out)])
    assert exc.value.code == 1
    assert "--char-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gauss-bonnet", "converge"])
def test_characteristic_tolerance_is_a_config_error_where_it_is_not_honoured(tmp_path, capsys, command):
    config = {"surface": {"kind": "paraboloid"}, "region": {"u": [1.0, 2.0], "v": [-1.0, -0.5]}, "point": [1.0, -0.5]}
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    out.unlink()
    path.write_text(json.dumps({**config, "tolerances": {"characteristic": -5}}))
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "tolerances.characteristic" in err
    assert not out.exists()


@pytest.mark.parametrize("orientation", [0, 2, 1.5, True])
@pytest.mark.parametrize("command", ["curvature", "gauss-bonnet"])
def test_surface_orientation_must_be_plus_or_minus_one(tmp_path, capsys, command, orientation):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": {"kind": "paraboloid", "orientation": orientation}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "surface orientation must be 1 or -1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--surface", "paraboloid", "--nu", "4", "--nv", "4", "--l-values", "1e200"],
        ["converge", "--surface", "paraboloid", "--point", "1,0.5", "--l-values", "1e2,1e200"],
        ["curvature", "--surface", "paraboloid", "--nu", "2", "--nv", "2", "--l-values", "1e160"],
        ["converge", "--surface", "paraboloid", "--point", "1,0.5", "--l-values", "1e308,1e308"],
    ],
)
def test_overflow_is_a_numeric_error(tmp_path, capsys, argv):
    # (L + A^2)^2 overflows in K_L at the largest L; the message names both
    L = max(map(float, argv[-1].split(",")))
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith(f"error: K_L at L = {L!r}: (L + A^2)^2 overflows")
    assert not out.exists()


@pytest.mark.parametrize("command", ["curvature", "converge"])
def test_trigonometric_function_of_infinity_is_a_domain_error(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    surface = {"kind": "graph", "h": "cos(exp(1000*u)) + v", "u_range": [0.5, 1.0], "v_range": [0.5, 1.0]}
    config.write_text(json.dumps({"surface": surface, "point": [1.0, 0.5], "grid": {"nu": 3, "nv": 3}}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "cos of infinite value inf in 'cos(exp(1000*u))'" in err
    assert not out.exists()


def test_rotsurf_short_band_meets_the_chord_bound(tmp_path):
    # the walk used to end with a 2e-15-long chord of e3 ratio 1.4e-2
    argv = ["rotsurf", "--kinf", "1", "--r0", "1", "--vmin", "0.5", "--vmax", "0.51", "--n-curves", "1"]
    assert main(argv + ["--samples-u", "8", "--samples-v", "8", "--out-prefix", str(tmp_path / "band")]) == 0
    lines = (tmp_path / "band.obj").read_text().splitlines()
    verts = np.array([[float(x) for x in line.split()[1:]] for line in lines if line.startswith("v ")])
    (polyline,) = [[int(i) - 1 for i in line.split()[1:]] for line in lines if line.startswith("l ")]
    assert len(polyline) == 65
    assert np.max(e3_chord_ratio(verts[polyline])) <= 1e-8


@pytest.mark.parametrize("kinf", ["1", "-1"])
def test_rotsurf_on_a_domain_narrower_than_the_boundary_window(tmp_path, kinf):
    # the existence domain of r0 = 1e5 is (-2e-5, 2e-5), inside the quadrature's boundary window
    argv = ["rotsurf", "--kinf", kinf, "--r0", "1e5", "--samples-u", "8", "--samples-v", "8", "--n-curves", "1"]
    assert main(argv + ["--out-prefix", str(tmp_path / "narrow")]) == 0
    _, _, rows, _ = read_csv(tmp_path / "narrow_profile.csv")
    assert all(math.isfinite(x) for row in rows for x in row)


def test_narrow_domain_curvature_and_gauss_bonnet_end_in_an_exit_code(tmp_path, capsys):
    assert main(["curvature", "--kinf", "1", "--r0", "1e5", "--nu", "4", "--nv", "4", "--out", str(tmp_path / "k.csv")]) == 0
    capsys.readouterr()
    code = main(["gauss-bonnet", "--kinf", "1", "--r0", "1e5", "--out", str(tmp_path / "gb.json")])
    err = capsys.readouterr().err.strip()
    assert code == 0 or (code == 2 and len(err.splitlines()) == 1 and err.startswith("error: "))


def test_zero_curvature_rotsurf_on_a_large_r0_takes_its_default_band(tmp_path):
    argv = ["rotsurf", "--kinf", "0", "--r0", "1e5", "--samples-u", "8", "--samples-v", "8", "--n-curves", "1"]
    assert main(argv + ["--out-prefix", str(tmp_path / "k0")]) == 0


@pytest.mark.parametrize("kinf", ["1", "-1"])
def test_gauss_bonnet_on_a_large_r0_band_converges(tmp_path, kinf):
    # areas near 1.2e6, where the absolute tolerances alone are out of reach
    out = tmp_path / "gb.json"
    assert main(["gauss-bonnet", "--kinf", kinf, "--r0", "1e5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["residual"]) <= report["threshold"]


@pytest.mark.parametrize("kinf", ["1", "-1", "4"])
def test_rotsurf_on_a_large_r0_takes_its_default_band(tmp_path, kinf):
    # the domain ends near 2/(r0 |K|) = 2e-8 / |K|, where the old closed forms lost every digit
    argv = ["rotsurf", "--kinf", kinf, "--r0", "1e8", "--samples-u", "8", "--samples-v", "8", "--n-curves", "1"]
    assert main(argv + ["--out-prefix", str(tmp_path / "wide")]) == 0
    _, _, rows, _ = read_csv(tmp_path / "wide_profile.csv")
    assert all(math.isfinite(x) for row in rows for x in row)


def test_rotsurf_domain_error_is_one_line_naming_the_shifted_domain(tmp_path, capsys):
    argv = ["rotsurf", "--kinf", "1", "--c1-shift", "0.5", "--vmin", "-1.9", "--vmax", "0"]
    prefix = tmp_path / "mesh"
    assert main(argv + ["--out-prefix", str(prefix)]) == 2
    err = capsys.readouterr().err.strip()
    lo, hi = family_profile(1.0, 1.0, 0.5).domain
    assert len(err.splitlines()) == 1 and f"({lo!r}, {hi!r})" in err
    assert not prefix.with_suffix(".obj").exists()


@pytest.mark.parametrize("shift, name", [("0.5", "constant-curvature(1.0, r0=1.0, c1_shift=0.5)"), ("0", "constant-curvature(1.0, r0=1.0)")])
def test_rotsurf_domain_error_names_the_shift_of_its_profile(tmp_path, capsys, shift, name):
    argv = ["rotsurf", "--kinf", "1", "--c1-shift", shift, "--vmin", "-1.9", "--vmax", "0"]
    assert main(argv + ["--out-prefix", str(tmp_path / "mesh")]) == 2
    assert capsys.readouterr().err.strip().endswith(f" of {name}")


@pytest.mark.parametrize(
    "argv, surface, band",
    [
        (["rotsurf", "--kinf", "1", "--vmin", "0.6", "--vmax", "0.5"], None, "(0.6, 0.5)"),
        (["rotsurf", "--kinf", "1", "--vmin", "0.5", "--vmax", "0.5"], None, "(0.5, 0.5)"),
        (["rotsurf", "--kinf", "1", "--vmin", "nan", "--vmax", "0.5"], None, "(nan, 0.5)"),
        (["gauss-bonnet"], {"kind": "rotation", "K_inf": 1.0, "v_range": [0.5, 0.2]}, "(0.5, 0.2)"),
        (["curvature"], {"kind": "rotation", "K_inf": 1.0, "v_range": [0.5, 0.2]}, "(0.5, 0.2)"),
        (["converge"], {"kind": "plane", "v_range": [2.0, 2.0]}, "(2.0, 2.0)"),
    ],
)
def test_reversed_empty_or_nan_rotation_band_is_a_config_error(tmp_path, capsys, argv, surface, band):
    # the band check refuses such a band before comparing its ends with the existence domain
    if surface is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"surface": surface}))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = ["--out-prefix", str(tmp_path / "mesh")] if argv[0] == "rotsurf" else ["--out", str(tmp_path / "out")]
    assert main(argv + out) == 1
    assert capsys.readouterr().err.strip() == f"config error: v_range {band} must have v0 < v1"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if surface is not None else [])


@pytest.mark.parametrize("h", ["(u+10)^400+v", "exp(1000*u)+v"])
@pytest.mark.parametrize("command", ["curvature", "frames", "gauss-bonnet", "converge"])
def test_chart_value_that_overflows_is_a_numeric_error(tmp_path, capsys, command, h):
    surface = {"kind": "graph", "h": h, "u_range": [0.5, 1.0], "v_range": [0.0, 1.0]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": surface, "point": [1.0, 0.5], "grid": {"nu": 3, "nv": 3}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "inf" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["curvature", "frames"])
def test_grid_of_characteristic_points_only_exits_2(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": {"kind": "plane-cartesian", "half_width": 0}}))
    out = tmp_path / "grid.csv"
    assert main([command, "--config", str(config), "--nu", "1", "--nv", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: every grid point is characteristic"
    assert not out.exists()


GRAPH = {"kind": "graph", "h": "u*v", "u_range": [0.5, 1.0], "v_range": [0.5, 1.0]}
ROTATION = {"kind": "rotation", "K_inf": 1.0}
REGION = {"u": [0.6, 0.9], "v": [0.6, 0.9]}


@pytest.mark.parametrize(
    "command, config, flags, field",
    [
        ("curvature", {"surface": {"kind": "paraboloid", "v_range": 5}}, [], "surface.v_range"),
        ("curvature", {"surface": {"kind": "paraboloid", "v_range": [1]}}, [], "surface.v_range"),
        ("curvature", {"surface": {**ROTATION, "v_range": [-0.5, "a"]}}, [], "surface.v_range"),
        ("curvature", {"surface": {**GRAPH, "h": 5}}, [], "surface.h"),
        ("curvature", {"surface": GRAPH, "grid": 3}, [], "grid"),
        ("curvature", {"surface": GRAPH, "L": 5}, [], "L"),
        ("curvature", {"surface": GRAPH, "kn_directions": [[1]]}, [], "kn_directions"),
        ("curvature", {"surface": GRAPH, "tolerances": 3}, [], "tolerances"),
        ("gauss-bonnet", {"surface": GRAPH, "region": 7}, [], "region"),
        ("gauss-bonnet", {"surface": GRAPH, "region": {**REGION, "u": 5}}, [], "region.u"),
        ("converge", {"surface": GRAPH, "point": [1]}, [], "point"),
        ("converge", {"surface": GRAPH, "direction": "ab"}, [], "direction"),
        ("rotsurf", {"rotsurf": 3}, ["--kinf", "1"], "rotsurf"),
        ("rotsurf", {"rotsurf": {"K_inf": 1.0, "v_range": 5}}, ["--vmin", "0"], "rotsurf.v_range"),
        ("rotsurf", {"rotsurf": {"K_inf": True}}, [], "rotsurf.K_inf"),
        ("curvature", {"surface": {**ROTATION, "K_inf": True}}, [], "surface.K_inf"),
        (
            "curvature",
            {"surface": {"kind": "parametric", "x": "u", "y": "v", "z": "u*v", "u_range": [0, 1], "v_range": [0, 1], "closed_u": "false"}},
            [],
            "surface.closed_u",
        ),
        ("curvature", {}, ["--surface", "paraboloid", "--r0", "2"], "--r0"),
    ],
)
def test_config_field_of_the_wrong_type_is_a_config_error(tmp_path, capsys, command, config, flags, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = ["--out-prefix", str(tmp_path / "mesh")] if command == "rotsurf" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(path), *flags, *out]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and field in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("curvature", {"surface": {"kind": "plane-cartesian", "half_width": "abc"}}, "surface.half_width"),
        ("curvature", {"surface": {**ROTATION, "K_inf": "abc"}}, "surface.K_inf"),
        ("curvature", {"surface": {**ROTATION, "r0": "abc"}}, "surface.r0"),
        ("curvature", {"surface": {**ROTATION, "c1_shift": "abc"}}, "surface.c1_shift"),
        ("rotsurf", {"rotsurf": {"K_inf": "abc"}}, "rotsurf.K_inf"),
        ("rotsurf", {"rotsurf": {"K_inf": 1.0, "r0": "abc"}}, "rotsurf.r0"),
        ("rotsurf", {"rotsurf": {"K_inf": 1.0, "c1_shift": "abc"}}, "rotsurf.c1_shift"),
        ("curvature", {"surface": GRAPH, "tolerances": {"characteristic": "abc"}}, "tolerances.characteristic"),
        ("gauss-bonnet", {"surface": GRAPH, "region": REGION, "tolerances": {"residual": "abc"}}, "tolerances.residual"),
    ],
)
def test_number_field_that_float_cannot_read_names_the_field(tmp_path, capsys, command, config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = ["--out-prefix", str(tmp_path / "mesh")] if command == "rotsurf" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(path), *out]) == 1
    assert capsys.readouterr().err.strip() == f"config error: {field} must be a number, got 'abc'"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["rotsurf", "curvature", "frames", "gauss-bonnet", "converge"])
def test_non_finite_c1_shift_is_a_config_error(tmp_path, capsys, command, shift):
    # it once passed into the domain, ending in exit 2 on "v_range (nan, nan) not inside ... (nan, nan)"
    if command == "rotsurf":
        argv = ["rotsurf", "--kinf", "1", f"--c1-shift={shift}", "--out-prefix", str(tmp_path / "mesh")]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"surface": {**ROTATION, "c1_shift": shift}}))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"config error: c1_shift must be finite, got {float(shift)!r}"
    assert not any(p.name != "cfg.json" for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, config, pair",
    [
        (["converge", "--kinf", "1", "--point", "0.3,0.2", "--direction", "nan,1"], None, "direction [nan, 1.0]"),
        (["converge", "--kinf", "1", "--point", "0.3,0.2", "--direction", "inf,0"], None, "direction [inf, 0.0]"),
        (["converge", "--surface", "paraboloid"], {"direction": [0, 0]}, "direction [0, 0]"),
        (["converge", "--surface", "paraboloid"], {"direction": [math.nan, 1.0]}, "direction [nan, 1.0]"),
        (["curvature", "--surface", "paraboloid", "--kn-directions", "0,0"], None, "kn_directions [0.0, 0.0]"),
        (["curvature", "--surface", "paraboloid", "--kn-directions", "1,0;inf,1"], None, "kn_directions [inf, 1.0]"),
        (["curvature", "--surface", "paraboloid"], {"kn_directions": [[1, 0], [0.0, -0.0]]}, "kn_directions [0.0, -0.0]"),
    ],
)
def test_non_finite_or_zero_direction_is_a_config_error(tmp_path, capsys, argv, config, pair):
    # these once wrote NaN into every k_n_L, abs_err_k_n and ds_L_density cell, or a k_n column of NaN
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"config error: {pair} must be finite and nonzero"
    assert not out.exists()


TINY_TILT = {
    "kind": "parametric", "x": "1e-153*u", "y": "1e-153*v", "z": "1e-162*(u+v)", "u_range": [0.5, 1.5], "v_range": [0.5, 1.5],
}


@pytest.mark.parametrize("command", ["curvature", "frames", "gauss-bonnet", "converge"])
def test_infinite_tilt_at_a_regular_point_is_a_non_finite_frame(tmp_path, capsys, command):
    # e^3(f_u) = e^3(f_v) = 1e-162 is far above the characteristic tolerance, but its square underflows: A = inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surface": TINY_TILT, "grid": {"nu": 3, "nv": 3}}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == "error: non-finite frame coefficient c1"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["curvature", "--config", "{tmp}/missing.json"], None, "cannot read config '{tmp}/missing.json': [Errno 2] No such file or directory: '{tmp}/missing.json'"),
        (["curvature"], [1, 2], "config document must be a JSON object"),
        (["converge", "--surface", "paraboloid", "--point", "1"], None, "--point needs 2 comma-separated numbers, got '1'"),
        (["converge", "--surface", "paraboloid", "--point", "a,b"], None, "bad number in --point: could not convert string to float: 'a'"),
        (["curvature"], None, "no surface given; use --surface or a config file"),
        (["curvature"], {"surface": {"kind": "rotation"}}, "rotation surface needs K_inf (--kinf or config)"),
        (["curvature", "--surface", "paraboloid", "--nu", "0"], None, "nu must be positive"),
        (["curvature", "--surface", "paraboloid", "--char-tol", "-1"], None, "characteristic tolerance must be positive"),
        (["rotsurf", "--kinf", "1", "--vmin", "0"], None, "give both --vmin and --vmax (or a config v_range)"),
        (["gauss-bonnet"], {"surface": GRAPH, "region": {"u": [0.6, 0.9]}}, "region needs 'u' and 'v' interval fields"),
        (["curvature"], {"surface": {"kind": "torus"}}, "unknown surface kind 'torus'"),
        (
            ["curvature"],
            {"surface": {"kind": "parametric", "x": "u", "y": "v", "z": "u*v", "u_range": [0, 1]}},
            "parametric surface needs a 'v_range' field",
        ),
    ],
)
def test_config_errors_exit_1_with_one_line(tmp_path, capsys, argv, config, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = ["--out-prefix", str(tmp_path / "mesh")] if argv[0] == "rotsurf" else ["--out", str(tmp_path / "out")]
    assert main(argv + out) == 1
    assert capsys.readouterr().err.strip() == "config error: " + message.format(tmp=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config is not None else [])


def test_kn_directions_flag_adds_a_column_per_direction(tmp_path):
    out = tmp_path / "k.csv"
    argv = ["curvature", "--surface", "paraboloid", "--nu", "3", "--nv", "3", "--kn-directions", "1,0;0,1"]
    assert main(argv + ["--out", str(out)]) == 0
    _, columns, rows, _ = read_csv(out)
    assert columns[-3:] == ["k_n_1_0", "k_n_0_1", "characteristic"]
    assert len(rows) == 9


def test_gauss_bonnet_closed_u_flag_closes_the_region(tmp_path):
    region = {"u": [0.0, 2.0 * math.pi], "v": [1.0, 2.0]}
    reports = []
    for closed_u, flags in ((False, ["--closed-u"]), (True, [])):
        config = tmp_path / f"cfg_{closed_u}.json"
        config.write_text(json.dumps({"surface": {"kind": "plane"}, "region": {**region, "closed_u": closed_u}}))
        out = tmp_path / f"gb_{closed_u}.json"
        assert main(["gauss-bonnet", "--config", str(config), *flags, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_check_exits_3_when_a_check_fails(capsys, monkeypatch):
    from h1geom import cli
    from h1geom.selfcheck import CheckResult

    monkeypatch.setattr(cli, "run_identity_suite", lambda: [CheckResult("one", True, "ok"), CheckResult("two", False, "off")])
    assert main(["check"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["[PASS] one: ok", "[FAIL] two: off"]
    assert captured.err.strip() == "1 identity check(s) failed"


def test_parser_shared_by_runs_keeps_no_flag(tmp_path, capsys):
    from h1geom import cli

    assert cli.build_parser() is cli.build_parser()
    config = tmp_path / "cfg.json"  # open in u: without --closed-u its u-edges fail the transversality check
    config.write_text(json.dumps({"surface": {"kind": "plane"}, "region": {"u": [0.0, 2.0 * math.pi], "v": [1.0, 2.0], "closed_u": False}}))
    out = tmp_path / "out"

    def run(argv):
        code = main(argv + ["--out", str(out)])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, capsys.readouterr(), written

    for argv, flag in (
        (["gauss-bonnet", "--config", str(config)], ["--closed-u"]),
        (["curvature", "--surface", "paraboloid", "--nu", "3", "--nv", "3"], ["--kn-directions", "1,0;0,1"]),
    ):
        cli.build_parser.cache_clear()  # a process that has not seen the flag
        fresh = run(argv)
        assert run(argv + flag) != fresh
        assert run(argv) == fresh


# sha256 of each file of `rotsurf --figure N` after its first line, the
# `# h1geom <version> config-sha256:...` stamp
FIGURE_SHA256 = {
    "figure1.obj": "d18142caf8074412cbe56f41534deb3f6cc2577e0f28465a4420ac8a7d98fba9",
    "figure1_profile.csv": "957c9fdb9a36f1d4d66a1a651cdd9c6cb2525b27996ae496cf4f03dd7c17bf57",
    "figure2.obj": "e35a94b85fe3c0a5906b5870594101864ae4231105ce090f8bbede42e181d603",
    "figure2_profile.csv": "73bc400ade41c806b0c128cc0ed1fe55d42d9d8a057ee92af4feb1a312c5ecb6",
    "figure3.obj": "c146f535543dd636d100ab1267c8c96044dec98a50d3215a3e398325d0619288",
    "figure3_profile.csv": "edfcca0e53ecb2f4188c62d39d9059c79069d790c6110927ccf92af263b6ca43",
}


@pytest.mark.parametrize("figure", [1, 2, 3])
def test_rotsurf_figures_keep_their_bytes(tmp_path, figure):
    assert main(["rotsurf", "--figure", str(figure), "--out-prefix", str(tmp_path / f"figure{figure}")]) == 0
    for name in (f"figure{figure}.obj", f"figure{figure}_profile.csv"):
        stamp, rest = (tmp_path / name).read_bytes().split(b"\n", 1)
        assert stamp.startswith(b"# h1geom ")
        assert hashlib.sha256(rest).hexdigest() == FIGURE_SHA256[name]


STAMP_FIELDS = (b'"config_sha256"', b'"tool"', b'"version"')
SUBCOMMAND_RUNS = {
    "curvature.csv": ["curvature", "--surface", "paraboloid", "--nu", "6", "--nv", "5"],
    "frames.csv": ["frames", "--kinf", "1", "--nu", "5", "--nv", "4"],
    "gauss_bonnet.json": ["gauss-bonnet", "--preset", "band-k1"],
    "converge.csv": ["converge", "--surface", "paraboloid", "--point", "1.5,-0.75"],
}
SUBCOMMAND_SHA256 = {
    "curvature.csv": "4e482ba9b41f9fdbfbce96d21c6df5075a8c79c5ab46c3236d96fa4a18ce856e",
    "frames.csv": "7584ef5c3928749d77ed1571818b8a56c731e53bd5a98b2e1fc737c0ae24bf46",
    "gauss_bonnet.json": "9c3255a3c8526ae104aaa4a9ff9b3d6af61a359f98d63836d83608d12a2942cd",
    "converge.csv": "3815109ad466f5e5cf42f2c64293e61f64042fbaa82f7b568f056511fcf74170",
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_RUNS))
def test_subcommands_keep_their_bytes(tmp_path, name):
    assert main(SUBCOMMAND_RUNS[name] + ["--out", str(tmp_path / name)]) == 0
    data = (tmp_path / name).read_bytes()
    if name.endswith(".json"):  # the stamp is three fields of the report
        rest = b"\n".join(line for line in data.split(b"\n") if not line.lstrip().startswith(STAMP_FIELDS))
    else:
        stamp, rest = data.split(b"\n", 1)
        assert stamp.startswith(b"# h1geom ")
    assert hashlib.sha256(rest).hexdigest() == SUBCOMMAND_SHA256[name]


@pytest.mark.parametrize("slope", ["1e15", "1e150"])
@pytest.mark.parametrize("command", ["curvature", "converge", "gauss-bonnet"])
def test_steep_plane_is_not_dependent(tmp_path, command, slope):
    # |w| grows like one coefficient times a tangent; against scale^2 every point of these planes was dependent
    surface = {"kind": "graph", "h": f"{slope}*u", "u_range": [0.5, 1.0], "v_range": [0.5, 1.0]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"surface": surface}))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    if command == "gauss-bonnet":
        report = json.loads(out.read_text())
        assert abs(report["residual"]) <= 1e-15 * abs(report["area_integral"]) + 1e-16
    elif command == "curvature":
        _, columns, rows, _ = read_csv(out)
        assert not any(row[columns.index("characteristic")] for row in rows)


def test_gauss_bonnet_at_r0_1e8_needs_a_threshold_of_its_scale(tmp_path, capsys):
    # areas near 1.2e9: the default threshold is absolute
    argv = ["gauss-bonnet", "--kinf", "1", "--r0", "1e8", "--out", str(tmp_path / "gb.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == "error: residual exceeds threshold"
    assert main(argv + ["--threshold", "1"]) == 0
    report = json.loads((tmp_path / "gb.json").read_text())
    assert report["area_integral"] == pytest.approx(1.2315e9, rel=1e-3)
    assert abs(report["residual"]) <= 1e-15 * report["area_integral"]


def test_rotsurf_point_budget_error_names_where_the_walk_stopped(tmp_path, capsys):
    # the band is about 31 wide; near r0 = 1e-3 the chord step is a few 1e-6
    argv = ["rotsurf", "--kinf", "-1", "--r0", "1e-3", "--samples-u", "4", "--samples-v", "4", "--n-curves", "1"]
    assert main(argv + ["--out-prefix", str(tmp_path / "tiny")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert re.fullmatch(
        r"error: generating-curve sampling exceeded the point budget \(500000\) at v = \S+ in \[\S+, \S+\]",
        err,
    )
    assert not (tmp_path / "tiny.obj").exists()


# ---------------------------------------------------------------------------
# The exit-code contract under random configurations: every run of the grid
# and integral subcommands ends in exit 0-3, a failure in one stderr line,
# and nothing escapes cli.main.

ENDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, math.pi]), st.floats(-3.0, 3.0))
EXPRESSIONS = st.one_of(
    st.integers(0, 10**6).map(lambda seed: ex.pretty(helpers.random_expression(np.random.default_rng(seed)))),
    st.sampled_from(["", "u +", "sin(", "1/0", "ln(u - 10)", "sqrt(-1 - u*u)", "u^v", "1e300*u", "0*u"]),
)


@st.composite
def _fuzz_range(draw, width=None):
    """A pair of ends: free ends (0, 1e300, reversed, empty), or a start and a width of at most `width`."""
    start = draw(ENDS)
    if width is None:
        return [start, draw(ENDS)]
    return [start, start + draw(st.floats(-width, width))]


@st.composite
def _fuzz_surface(draw, width=None):
    kind = draw(st.sampled_from(["graph", "parametric", "plane", "plane-cartesian", "cylinder", "paraboloid", "rotation"]))
    surface = {"kind": kind, "orientation": draw(st.sampled_from([1, -1]))}
    if kind == "graph":
        surface.update(h=draw(EXPRESSIONS), u_range=draw(_fuzz_range(width)), v_range=draw(_fuzz_range(width)))
    elif kind == "parametric":
        surface.update({axis: draw(EXPRESSIONS) for axis in "xyz"})
        surface.update(u_range=draw(_fuzz_range(width)), v_range=draw(_fuzz_range(width)))
    elif kind == "plane-cartesian":
        surface["half_width"] = draw(ENDS)
    elif kind == "rotation":
        surface.update(K_inf=draw(st.sampled_from([1.0, 0.0, -1.0, 0.5, 1e300])), r0=draw(ENDS))
        if draw(st.booleans()):
            surface["v_range"] = draw(_fuzz_range(width))
    elif kind in ("plane", "cylinder", "paraboloid"):
        surface["v_range"] = draw(_fuzz_range(width))
        if kind == "paraboloid":
            surface["u_range"] = draw(_fuzz_range(width))
    return surface


@st.composite
def _fuzz_run(draw):
    """(subcommand, configuration) with small grids and Gauss-Bonnet regions at most 0.5 wide."""
    command = draw(st.sampled_from(["curvature", "frames", "converge", "gauss-bonnet"]))
    if command == "gauss-bonnet":
        config = {"surface": draw(_fuzz_surface(width=0.5)), "region": {"u": draw(_fuzz_range(0.5)), "v": draw(_fuzz_range(0.5))}}
    else:
        config = {"surface": draw(_fuzz_surface())}
    if command in ("curvature", "frames"):
        config["grid"] = {"nu": draw(st.integers(1, 5)), "nv": draw(st.integers(1, 5))}
    if command == "converge":
        config["L"] = draw(st.lists(st.sampled_from([1.0, 1e2, 1e4, 1e6, 1e300]), min_size=1, max_size=4))
        if draw(st.booleans()):
            config["point"] = [draw(ENDS), draw(ENDS)]
    return command, config


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_run())
# the gate meets the paraboloid's characteristic origin at a grid node, whose coordinates the line names
@example(("gauss-bonnet", {"surface": {"kind": "paraboloid"}, "region": {"u": [-1, 1], "v": [-1, 1]}}))
def test_every_run_ends_in_an_exit_code_and_one_line(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        # numbers print as Python floats, never as numpy reprs
        assert "np." not in err.getvalue() and "array(" not in err.getvalue(), err.getvalue()


_IMPORT_PROBE = """
import sys
import h1geom, h1geom.cli
code = h1geom.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, "scipy.integrate" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 0),
        (["curvature", "--surface", "paraboloid"], 0),
        (["frames", "--surface", "paraboloid"], 0),
        (["curvature", "--surface", "paraboloid", "--nu", "0"], 1),
        *((["gauss-bonnet", "--preset", preset], 0) for preset in ("band-k1", "plane-annulus", "band-k0", "band-km1")),
        (["gauss-bonnet", "--surface", "paraboloid", "--region", "1,2,-1,-0.5"], 0),
        (["rotsurf", "--figure", "2"], 0),
        (["check"], 0),
        (["converge", "--kinf", "1", "--point", "0.3,0.2", "--direction", "1,0.5"], 0),
    ],
    ids=[
        "import", "curvature", "frames", "config-error", "gauss-bonnet", "gb-plane-annulus", "gb-band-k0", "gb-band-km1",
        "gb-paraboloid", "rotsurf", "check", "converge-rotation",
    ],
)
def test_scipy_integrate_is_imported_at_the_first_integral(tmp_path, argv, code):
    # one fresh interpreter per case: the profile integrals and the Gauss-Bonnet cubatures are h1geom's own,
    # so no integral imports scipy.integrate (about 0.4 s to import), rotsurf's theta/c included
    import h1geom

    src = str(Path(h1geom.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.splitlines()[-1:] == [f"{code} False"], run.stderr


# The paper's formulas that no command evaluates; README lists each with what it computes.
PAPER_FORMULAS = ("area_form_coeffs", "length_form_limit", "beta", "horizontal_lift")


def _public_functions(namespace):
    """The public functions of a namespace and the methods written in the bodies of its classes, by name."""
    public = {name: f for name, f in vars(namespace).items() if inspect.isfunction(f) and not name.startswith("_")}
    for cls in (c for c in vars(namespace).values() if inspect.isclass(c)):
        source = sys.modules[cls.__module__].__file__
        for name, method in vars(cls).items():
            method = getattr(method, "__func__", method)  # a classmethod's function
            if inspect.isfunction(method) and method.__code__.co_filename == source:
                public[f"{cls.__name__}.{name}"] = method
    return public


def test_every_public_function_is_run_by_the_cli_or_is_a_paper_formula(tmp_path, capsys):
    # a public function or method that no command runs is a second path, which tests could check in place of the
    # program's; dataclass-generated methods (__init__, __eq__, ...) have no source line and are left out
    import h1geom

    parametric = {
        "kind": "parametric", "x": "(2+cos(v))*cos(u)", "y": "(2+cos(v))*sin(u)", "z": "sin(v)+0.3*sin(u)",
        "u_range": [0.0, 2.0 * math.pi], "v_range": [-0.4, 0.4], "closed_u": True,
    }
    (tmp_path / "parametric.json").write_text(json.dumps({"surface": parametric}))
    # a graph chart built without a name labels itself with its pretty-printed height
    graph = {"kind": "graph", "h": "u*v/2 + sin(u)", "u_range": [0.5, 1.5], "v_range": [0.5, 1.5]}
    (tmp_path / "graph.json").write_text(json.dumps({"surface": graph}))
    grid = ["--nu", "4", "--nv", "4"]
    runs = [
        ["check"],
        ["gauss-bonnet", "--preset", "band-k1", "--out", str(tmp_path / "band.json")],
        ["gauss-bonnet", "--surface", "paraboloid", "--region", "1,2,-1,-0.5", "--out", str(tmp_path / "rect.json")],
        ["curvature", "--surface", "paraboloid", *grid, "--kn-directions", "1,0;0.5,1", "--out", str(tmp_path / "k.csv")],
        ["frames", "--kinf", "1", *grid, "--out", str(tmp_path / "f.csv")],
        ["curvature", "--config", str(tmp_path / "parametric.json"), *grid, "--out", str(tmp_path / "p.csv")],
        ["frames", "--config", str(tmp_path / "graph.json"), *grid, "--out", str(tmp_path / "g.csv")],
        ["converge", "--kinf", "1", "--point", "0.3,0.2", "--direction", "1,0.5", "--out", str(tmp_path / "c.csv")],
        ["rotsurf", "--kinf", "-1", "--samples-u", "8", "--samples-v", "8", "--n-curves", "2", "--out-prefix", str(tmp_path / "m")],
    ]
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs), capsys.readouterr().err
    public = _public_functions(h1geom)
    for module in (importlib.import_module(f"h1geom.{m.name}") for m in pkgutil.iter_modules(h1geom.__path__)):
        # and the functions each submodule lists in __all__, which the package need not re-export
        listed = {name: getattr(module, name) for name in getattr(module, "__all__", ())}
        public.update((name, f) for name, f in listed.items() if inspect.isfunction(f))
    assert {"FrameVec.from_coordinates", "SurfacePatch.contains", "RotationSurfaceSpec.validate"} <= set(public)
    assert set(PAPER_FORMULAS) <= set(public)
    assert [name for name, f in sorted(public.items()) if f.__code__ not in ran and name not in PAPER_FORMULAS] == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [name for name in PAPER_FORMULAS if not re.search(rf"`{name}\b", readme)] == []


@pytest.mark.parametrize(
    "argv, target, reason",
    [
        (["curvature", "--surface", "paraboloid", "--nu", "3", "--nv", "3", "--out"], "missing/x.csv", "No such file or directory"),
        (["curvature", "--surface", "paraboloid", "--nu", "3", "--nv", "3", "--out"], "taken", "Is a directory"),
        (["gauss-bonnet", "--preset", "band-k1", "--out"], "taken", "Is a directory"),
        (["rotsurf", "--figure", "2", "--samples-u", "4", "--samples-v", "4", "--n-curves", "1", "--out-prefix"], "taken", "Is a directory"),
    ],
)
def test_an_unwritable_output_path_is_a_config_error(tmp_path, capsys, argv, target, reason):
    # `taken` is a directory, and so is `taken.obj`, the mesh file of the prefix `taken`
    for name in ("taken", "taken.obj"):
        (tmp_path / name).mkdir()
    path = tmp_path / target
    assert main(argv + [str(path)]) == 1
    written = path.with_suffix(".obj") if argv[0] == "rotsurf" else path
    assert capsys.readouterr().err == f"config error: cannot write {str(written)!r}: {reason}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken", "taken.obj"]
