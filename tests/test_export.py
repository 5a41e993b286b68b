"""The writers' vectorized %.17g renderer against the line-by-line reference writers.

export._block renders float cells in numpy and leaves a line to '%' only
when it cannot decide the rounding.  Its output must be the bytes of
tests/helpers.py's writers, which format one cell at a time with fmt.
export._int_lines renders the OBJ writer's '%d' cells, the face and
polyline indices, from a digit table and is held to the same reference.
Every writer saves through export._save, which writes a file in place
and cuts it where the new bytes end; the last tests pin what a rewrite
leaves at the path.
"""

import errno
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import helpers
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from h1geom import export
from h1geom.export import write_csv, write_json_report, write_obj
from h1geom.rotsurf import Mesh

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

down, up = (lambda x: math.nextafter(x, -math.inf)), (lambda x: math.nextafter(x, math.inf))
SPECIAL = {
    # an exact tie at 17 digits, broken to even
    "tie": [2.0**-25, -(2.0**-25), 0.5**60, 3 * 2.0**-30],
    # powers of ten, where log10 can misjudge the exponent, and carries to them
    "powers": [1e-6, down(1e-6), up(1e-6), 1e-7, down(1e-7), up(1e-7), 1e-14, 1e98, 1e22, 1e23],
    "seventeen": [9.9999999999999999e16, 1e16, 1e17, down(1e16), up(1e16), down(1e17), up(1e17), 12345678901234567.0],
    # the edges between fixed and exponent form
    "forms": [1.25e-5, 9.999e-5, down(1e-4), 1e-4, 1.25e-4, 1.25e16, 1.25e17, 1234.5, 0.1, 1.0, 10.0],
    "extremes": [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
    # both sides of the bounds where cells stop taking the numpy path
    "bounds": [1e250, up(1e250), down(1e250), -1e250, 1e-250, down(1e-250), up(1e-250), -1e-250, 1e-251, 1e251],
    "signs": [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0],
}


def _table(values, ncols):
    rows = -(-len(values) // ncols)
    return np.resize(np.array(values, dtype=float), rows * ncols).reshape(rows, ncols)


SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 19))
TABLES = st.one_of(
    SHAPES.flatmap(lambda shape: hnp.arrays(np.uint64, shape).map(lambda bits: bits.view(np.float64))),
    SHAPES.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=st.floats())),
)


def _assert_csv_matches(tmp_path, table):
    columns = [f"c{k}" for k in range(table.shape[1])]
    write_csv(tmp_path / "block.csv", columns, table, {"k": 1}, footer_comments=("end",))
    helpers.reference_write_csv(tmp_path / "lines.csv", columns, table, {"k": 1}, footer_comments=("end",))
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "lines.csv").read_bytes()


def _assert_obj_matches(tmp_path, points, n_curves):
    """points split into a vertex grid and n_curves polylines, with faces over the vertices."""
    pieces = np.array_split(points, n_curves + 1)
    vertices = pieces[0]
    faces = np.arange(3 * len(vertices)).reshape(-1, 3) % max(len(vertices), 1)
    mesh = Mesh(vertices=vertices, faces=faces, polylines=pieces[1:])
    write_obj(tmp_path / "block.obj", mesh, {"k": 1})
    helpers.reference_write_obj(tmp_path / "lines.obj", mesh, {"k": 1})
    assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()


def _examples(ncols, **kwargs):
    """One example per group of SPECIAL, and one of all of them, in tables of ncols columns."""
    def decorate(test):
        for values in [*SPECIAL.values(), [v for values in SPECIAL.values() for v in values]]:
            test = example(table=_table(values, ncols), **kwargs)(test)
        return test

    return decorate


@SETTINGS
@given(table=TABLES)
@_examples(ncols=7)
@_examples(ncols=1)
def test_write_csv_is_the_line_by_line_reference(tmp_path, table):
    _assert_csv_matches(tmp_path, table)


@SETTINGS
@given(table=TABLES, n_curves=st.integers(0, 8))
@_examples(ncols=3, n_curves=0)
@_examples(ncols=3, n_curves=2)
def test_write_obj_is_the_line_by_line_reference(tmp_path, table, n_curves):
    points = np.resize(table, (-(-table.size // 3), 3))
    _assert_obj_matches(tmp_path, points, n_curves)


def test_lines_left_to_percent_first_last_and_alone_in_a_chunk(tmp_path):
    ncols = 19
    step = export._CHUNK_CELLS // ncols
    table = np.random.default_rng(0).standard_normal((step + 1, ncols))
    # first and last line of the first chunk, and the only line of the second
    for row, value in ((0, math.nan), (step - 1, 2.0**-25), (step, 1e300)):
        table[row, row % ncols] = value
    assert export._render(table.ravel())[1].reshape(-1, ncols).any(axis=1).nonzero()[0].tolist() == [0, step - 1, step]
    _assert_csv_matches(tmp_path, table)
    _assert_obj_matches(tmp_path, table.reshape(-1, 3), 4)


@pytest.mark.parametrize("direction, misjudged", [(-math.inf, [1e-14, 1e16]), (math.inf, [down(10.0)])])
def test_a_log10_one_ulp_off_still_gives_the_reference(tmp_path, direction, misjudged):
    # k = floor(log10|x|) one too low at a power of ten gives round(y) = 1e17
    # (a carry, for 1e-14) or y = 1e17 (for 1e16), one too high gives y < 1e16:
    # all three are left to '%'
    values = [v for group in SPECIAL.values() for v in group]
    table = np.concatenate([_table(values, 5), np.random.default_rng(1).standard_normal((20, 5))])
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda x: np.nextafter(log10(x), direction)):
        assert export._render(np.array(misjudged))[1].all()
        _assert_csv_matches(tmp_path, table)


# --- OBJ faces and polylines: the %d renderer ---------------------------

# each digit count's first and last index, and the rows it leaves to '%': 10**7 and -1
INDICES = [0, *(n for d in range(1, 8) for n in (10**d - 1, 10**d) if n < 10**7)]
LEFT = [10**7, -1]


def _assert_mesh_matches(tmp_path, mesh):
    write_obj(tmp_path / "block.obj", mesh, {"k": 1})
    helpers.reference_write_obj(tmp_path / "lines.obj", mesh, {"k": 1})
    written = (tmp_path / "block.obj").read_bytes()
    assert written == (tmp_path / "lines.obj").read_bytes()
    return written


def _faces(indices, dtype=np.int64):
    """Faces that print the given indices, three to a line."""
    return (np.array(indices, dtype=dtype) - 1).reshape(-1, 3)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("values", [INDICES, INDICES + LEFT], ids=["table", "table-and-left"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_face_indices_at_every_digit_count_boundary(tmp_path, seed, values, dtype):
    rng = np.random.default_rng(seed)
    indices = np.concatenate([rng.permutation(np.resize(values, 3 * len(values))), rng.choice(values, 300)])
    mesh = Mesh(vertices=rng.standard_normal((4, 3)), faces=_faces(indices, dtype), polylines=[rng.standard_normal((2, 3))])
    text = _assert_mesh_matches(tmp_path, mesh)
    printed = [int(cell) for line in text.splitlines() if line.startswith(b"f ") for cell in line.split()[1:]]
    assert printed == indices.tolist()


def test_a_face_block_straddling_a_chunk_with_rows_left_first_last_and_alone(tmp_path):
    step = export._CHUNK_CELLS // 3
    indices = np.resize(INDICES, 3 * (step + 1)).reshape(-1, 3)
    # first and last line of the first chunk, and the only line of the second
    indices[0, 0], indices[step - 1, 1], indices[step, 2] = 10**7, -1, 10**7
    mesh = Mesh(vertices=np.ones((3, 3)), faces=_faces(indices), polylines=[])
    with mock.patch.object(export, "_percent", wraps=export._percent) as percent:
        _assert_mesh_matches(tmp_path, mesh)
    # '%' formats those three rows alone, every index below 10**7 included
    assert [call.args[1].tolist() for call in percent.call_args_list] == [indices[[row]].tolist() for row in (0, step - 1, step)]


def test_zero_faces_write_no_f_line(tmp_path):
    mesh = Mesh(vertices=np.ones((3, 3)), faces=np.zeros((0, 3), np.int64), polylines=[np.ones((2, 3))])
    assert b"\nf " not in _assert_mesh_matches(tmp_path, mesh)


def test_empty_and_one_point_polylines(tmp_path):
    rng = np.random.default_rng(3)
    curves = [rng.standard_normal((n, 3)) for n in (0, 1, 0, 0, 3, 1, 1, 0)]
    mesh = Mesh(vertices=rng.standard_normal((9, 3)), faces=_faces([1, 2, 3]), polylines=curves)
    text = _assert_mesh_matches(tmp_path, mesh)
    assert text.endswith(b"\nl \nl 10\nl \nl \nl 11 12 13\nl 14\nl 15\nl \n")


def test_polylines_across_digit_counts_and_longer_than_a_chunk(tmp_path):
    # 96..98, 99..108, 109..1008 and 1009..(10**4 + 8): one curve longer than _CHUNK_CELLS
    rng = np.random.default_rng(4)
    curves = [rng.standard_normal((n, 3)) for n in (3, 10, 900, 9000)]
    assert 9000 > export._CHUNK_CELLS
    mesh = Mesh(vertices=rng.standard_normal((95, 3)), faces=_faces([95, 1, 10]), polylines=curves)
    _assert_mesh_matches(tmp_path, mesh)


@pytest.mark.parametrize("start", [1, 999_990, 9_999_990, 2**31 - 10])
def test_polyline_lines_are_percent_d_at_high_indices(start):
    # the l lines' indices count on from the vertex count, too far here for a mesh in a test
    rows = np.arange(start, start + 20).reshape(2, 10)
    assert export._int_lines("l ", rows) == "".join("l " + " ".join(map(str, row)) + "\n" for row in rows.tolist()).encode()


def test_a_fresh_import_builds_no_writer_table(tmp_path):
    probe = "import h1geom.cli\nfrom h1geom import export\nprint(export._tables.cache_info().misses, export._int_tables.cache_info().misses)"
    src = str(Path(export.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.split() == ["0", "0"], run.stderr


# --- Rewrites: export._save writes in place and cuts the file ------------


def _mesh(n):
    rng = np.random.default_rng(n)
    faces = np.arange(n - n % 3).reshape(-1, 3)
    return Mesh(vertices=rng.standard_normal((n, 3)), faces=faces, polylines=[rng.standard_normal((n, 3))])


# each writer, given a path and a size n; a larger n writes a longer file
WRITERS = {
    "obj": lambda path, n: write_obj(path, _mesh(n), {"n": n}),
    "csv": lambda path, n: write_csv(path, ["a", "b"], np.arange(2.0 * n).reshape(n, 2) / 7, {"n": n}, footer_comments=("end",)),
    "json": lambda path, n: write_json_report(path, {"values": list(range(n))}, {"n": n}),
}
LONG, SHORT = 400, 4


def _fresh(tmp_path, write):
    write(tmp_path / "fresh", SHORT)
    return (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_a_shorter_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, write):
    path = tmp_path / "out"
    write(path, LONG)
    long = path.stat().st_size
    write(path, SHORT)
    assert path.read_bytes() == _fresh(tmp_path, write)
    assert path.stat().st_size < long


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_a_symlink_at_the_path_is_written_through_to_its_target(tmp_path, write):
    target, link = tmp_path / "target", tmp_path / "link"
    write(target, LONG)
    link.symlink_to(target)
    write(link, SHORT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _fresh(tmp_path, write)


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_a_hard_link_to_the_path_sees_the_new_bytes(tmp_path, write):
    path, other = tmp_path / "out", tmp_path / "other"
    write(path, LONG)
    os.link(path, other)
    write(path, SHORT)
    assert os.path.samefile(path, other)
    assert other.read_bytes() == path.read_bytes() == _fresh(tmp_path, write)


def test_saving_to_the_null_device_takes_no_truncate():
    export._save(os.devnull, [b"text\n", b"more\n"])


def test_a_write_that_fails_midway_leaves_the_bytes_written_and_no_stale_tail(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old line\n" * 1000)

    def parts():
        yield b"first part\n"
        raise RuntimeError("the second part fails")

    with pytest.raises(RuntimeError, match="second part"):
        export._save(path, parts())
    assert path.read_bytes() == b"first part\n"


def test_a_write_the_system_refuses_leaves_the_bytes_written_and_no_stale_tail(tmp_path):
    # RLIMIT_FSIZE under the old file's size makes write(2) fail with EFBIG
    # partway (SIGXFSZ ignored), while small parts still sit in the buffer,
    # so flushing them fails again; the limit holds in the child process only.
    resource = pytest.importorskip("resource")
    path = tmp_path / "out"
    path.write_bytes(b"old line\n" * 20_000)
    code = (
        "import resource, signal\n"
        "from h1geom import export\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, (65536, {resource.getrlimit(resource.RLIMIT_FSIZE)[1]}))\n"
        "try:\n"
        "    export._save('out', [b'new line\\n'] * 40_000)\n"
        "except OSError as exc:\n"
        "    print(exc.errno)\n"
    )
    src = str(Path(export.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.split() == [str(errno.EFBIG)], run.stderr
    data = path.read_bytes()
    assert 0 < len(data) <= 65536
    assert data == (b"new line\n" * 40_000)[: len(data)]
