import json
import math
import re

import helpers
import numpy as np
import pytest

from h1geom.cli import main
from h1geom.export import write_csv
from h1geom.rotsurf import e3_chord_ratio


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
    # f_u vanishes on u = 0, a line of cubature nodes the prescans do not test
    surface = {"kind": "parametric", "x": "u^3", "y": "v", "z": "v + u^3", "u_range": [-1, 1], "v_range": [0, 1]}
    code, err = _gauss_bonnet_exit(tmp_path, capsys, surface, [-1.0, 1.0], [0.2, 1.0])
    assert code == 2
    assert "dependent coordinate tangents" in err


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
    ],
)
def test_overflow_is_a_numeric_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: OverflowError")
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
