"""Deterministic writers for OBJ meshes, CSV tables and JSON reports.

Every file carries the tool version and a hash of the effective
configuration in its header, and floats print with 17 significant
digits so doubles round-trip losslessly.  Identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["fmt", "config_hash", "write_obj", "write_csv", "write_json_report"]

TOOL = "h1geom"


def _version() -> str:
    from . import __version__

    return __version__


def fmt(x) -> str:
    """17-significant-digit decimal rendering of one CSV cell."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if x is None:
        return "nan"
    value = float(x)
    if math.isnan(value):
        return "nan"
    return f"{value:.17g}"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _stamp(config: dict) -> str:
    return f"{TOOL} {_version()} config-sha256:{config_hash(config)}"


def _block(line: str, rows) -> str:
    """One formatted line per row; %.17g renders a float as fmt does."""
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def write_obj(path, mesh, config: dict) -> None:
    """OBJ with v vertices, f triangles, and l polylines for embedded curves."""
    parts = [f"# {_stamp(config)}\n", _block("v %.17g %.17g %.17g\n", mesh.vertices)]
    parts += [_block("v %.17g %.17g %.17g\n", curve) for curve in mesh.polylines]
    parts.append(_block("f %d %d %d\n", mesh.faces + 1))
    offset = len(mesh.vertices)
    for curve in mesh.polylines:
        parts.append("l " + " ".join(map(str, range(offset + 1, offset + 1 + len(curve)))) + "\n")
        offset += len(curve)
    Path(path).write_text("".join(parts))


def write_csv(path, columns, rows, config: dict, footer_comments=()) -> None:
    """CSV of numeric rows (a 2-d array or a list of rows), formatted in one block.

    Cells print as fmt prints floats; None prints nan, and integer cells
    (flags) print as their float value, so 0 and 1 read 0 and 1.
    """
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    parts = [f"# {_stamp(config)}\n", ",".join(columns) + "\n"]
    parts.append(_block(",".join(["%.17g"] * len(columns)) + "\n", table))
    parts += [f"# {comment}\n" for comment in footer_comments]
    Path(path).write_text("".join(parts))


def write_json_report(path, payload: dict, config: dict) -> None:
    body = {"tool": TOOL, "version": _version(), "config_sha256": config_hash(config)}
    body.update(payload)
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
