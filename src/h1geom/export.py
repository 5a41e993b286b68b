"""Deterministic writers for OBJ meshes, CSV tables and JSON reports.

Every file carries the tool version and a hash of the effective
configuration in its header, and floats print with 17 significant
digits so doubles round-trip losslessly.  Identical configurations
produce byte-identical files.

Both cell kinds are rendered in numpy, a chunk of cells at a time, into
fixed slots that one compaction packs: floats ('%.17g', the CSV cells and
OBJ vertices) by a double-double rounding, integers ('%d', the OBJ face
and polyline indices) from a table of 4-digit groups.  Either gives the
bytes of Python's '%' and leaves a line it cannot render to '%' itself.

Every writer hands its pieces to _save, which writes them in place and
cuts the file at their end, so rewriting an output never truncates it
first.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import stat

import numpy as np

__all__ = ["config_hash", "write_obj", "write_csv", "write_json_report"]

TOOL = "h1geom"


def _version() -> str:
    from . import __version__

    return __version__


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _stamp(config: dict) -> str:
    return f"{TOOL} {_version()} config-sha256:{config_hash(config)}"


# --- The %.17g renderer -------------------------------------------------
#
# '%.17g' % x is David Gay's correctly rounded dtoa (Gay 1990), about 0.6 us
# a cell as one Python call each.  _render gives the same bytes for a whole
# array.  With k = floor(log10|x|), y = |x| * 10**(16 - k) lies in
# [1e16, 1e17) and the 17 digits are round(y).  y is formed as a Dekker
# double-double product (Dekker 1971) of x with a double-double 10**(16 - k),
# within about 1e-14 of the exact product, so round(y) is decided unless y's
# fractional part lies within _TIE of 1/2 (exact ties included, which '%.17g'
# breaks to even).  Such a cell, a misjudged k (floor(y) outside
# [1e16, 1e17)), a carry (round(y) = 1e17), and a cell that is NaN,
# infinite, or outside [1/_RANGE, _RANGE] and not zero are left to '%'
# itself, a line at a time.
#
# A cell's text is laid out in a 32-byte slot of four little-endian words,
# with NUL in every byte it does not use; _block removes the NULs at once.
#   bytes  0-1   the literal text of the line before the cell (at most 2 bytes)
#   byte   2     '-' if the sign bit is set
#   bytes  3-7   "0.", "0.0", "0.00" or "0.000" in fixed form for k = -1..-4
#   bytes  8-25  the kept digits, with '.' before the first fraction digit
#   bytes 26-30  "e+dd", "e-dd", "e+ddd" or "e-ddd" in exponent form
#   byte  31     the literal text after the line's last cell (at most 1 byte)

_CHUNK_CELLS = 8192  # cells rendered at a time, so temporaries stay small
_RANGE = 1e250  # keeps every partial product of the Dekker split a normal double
_TIE = 1e-6
_K_MIN, _K_MAX = -251, 250  # floor(log10|x|) over [1/_RANGE, _RANGE], and one below
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _word(text: bytes, shift: int = 0) -> int:
    """The little-endian word of text, moved up `shift` bytes."""
    return int.from_bytes(text, "little") << (8 * shift)


def _low(n: int, w: int) -> int:
    """Mask of the bytes below byte n of a 3-word number, in word w."""
    return (1 << 8 * min(max(n - 8 * w, 0), 8)) - 1


@functools.cache
def _tables():
    """Tables of the renderer, built on first use from exact integers.

    power[:, k - _K_MIN]: 10**(16 - k) as a double-double: hi, the Veltkamp halves of
    hi, and lo, where hi is 10**(16 - k) rounded and lo the rounded rest.
    layout[:, k - _K_MIN]: the least number of kept digits (k + 1 in fixed form); the
    byte of the mantissa's '.'; per mantissa word, the mask of the bytes
    below the '.' and the '.' itself; words 0 and 3 of the slot's prefix
    and exponent.
    digits4[g], zeros4[g]: '%04d' % g as a little-endian word, and its
    trailing zeros.  kept[w, n]: mask of the first n mantissa bytes in word w.
    """
    power, layout = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den  # int / int rounds correctly
        m, e = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi_h = c - (c - hi)
        power.append((hi, hi_h, hi - hi_h, (num * e - m * den) / (den * e)))
        if 0 <= k <= 16:  # fixed form, '.' after the k + 1 integer digits
            minkeep, point, prefix, exponent = k + 1, k + 1, 0, 0
        elif -4 <= k < 0:  # fixed form, "0." and -k - 1 zeros before the digits; no '.' among them
            minkeep, point, prefix, exponent = 1, 17, _word(b"0." + b"0" * (-k - 1), 3), 0
        else:  # exponent form, '.' after the first digit
            minkeep, point, prefix, exponent = 1, 1, 0, _word(b"e%+03d" % k, 2)
        dots = [_word(b".", point - 8 * w) if point // 8 == w else 0 for w in range(3)]
        layout.append((minkeep, point, *(_low(point, w) for w in range(3)), *dots, prefix, exponent))
    g = np.arange(10000)
    digits4 = sum((g // 10 ** (3 - j) % 10 + ord("0")) << 8 * j for j in range(4)).astype(np.uint64)
    zeros4 = sum(g % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    kept = np.array([[_low(n, w) for n in range(18)] for w in range(3)], np.uint64)
    return np.array(power).T.copy(), np.array(layout, np.uint64).T.copy(), digits4, zeros4, kept


def _round17(cells: np.ndarray):
    """(d, k, undecided): |x| rounds to d * 10**(k - 16), 10**16 <= d < 10**17 (0 for a zero),
    where not undecided."""
    power = _tables()[0]
    ax = np.abs(cells)
    zero = ax == 0
    fast = (ax >= 1 / _RANGE) & (ax <= _RANGE)  # False on NaN
    x = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    p_hi, p_hi_h, p_hi_l, p_lo = power.take(k - _K_MIN, axis=1)
    c = _SPLIT * x
    x_h = c - (c - x)
    x_l = x - x_h
    hi = x * p_hi
    lo = (((x_h * p_hi_h - hi) + x_h * p_hi_l + x_l * p_hi_h) + x_l * p_hi_l) + x * p_lo
    # hi >= 2**53 is an integer whenever floor(hi + lo) can lie in [1e16, 1e17)
    step = np.floor(lo)
    frac = lo - step
    d = hi.astype(np.int64) + step.astype(np.int64)  # floor(hi + lo)
    undecided = ~(fast | zero) | ((d - 10**16).view(np.uint64) >= 9 * 10**16) | (np.abs(frac - 0.5) < _TIE)
    d += frac > 0.5
    undecided |= d == 10**17  # a carry: round(y) has 18 digits
    d[zero] = 0
    return d, k, undecided


def _render(cells: np.ndarray):
    """'%.17g' of each cell in a slot of four words (layout above), and the cells it cannot decide."""
    _, layout, digits4, zeros4, kept = _tables()
    d, k, undecided = _round17(cells)
    minkeep, point, below0, below1, below2, dot0, dot1, dot2, prefix, exponent = layout.take(k - _K_MIN, axis=1)
    lead = d // 10**16
    high = d // 10**8 - lead * 10**8
    low = d % 10**8
    g1, g3 = high // 10**4, low // 10**4
    g2, g4 = high - g1 * 10**4, low - g3 * 10**4
    # kept digits: 17 less the trailing zeros of g1..g4, and all integer digits
    tz = zeros4.take(g4)
    run = g4 == 0
    for g in (g3, g2, g1):
        tz += zeros4.take(g) * run
        run &= g == 0
    keep = np.maximum(17 - tz.astype(np.int64), minkeep.astype(np.int64))
    # the 17 digits as a 3-word number, cut to the kept ones
    t1, t2, t3, t4 = (digits4.take(g) for g in (g1, g2, g3, g4))
    s0 = (lead.astype(np.uint64) + ord("0") | t1 << 8 | t2 << 40) & kept[0].take(keep)
    s1 = (t2 >> 24 | t3 << 8 | t4 << 40) & kept[1].take(keep)
    s2 = (t4 >> 24) & kept[2].take(keep)
    # '.' at byte `point` if a digit follows it, the digits from there on moved up one
    fraction = (keep > point).astype(np.uint64)
    up0, up1 = s0 & ~below0, s1 & ~below1
    slots = np.empty((len(cells), 4), "<u8")
    slots[:, 0] = prefix | (cells.view(np.uint64) >> 63) * _word(b"-", 2)
    slots[:, 1] = s0 & below0 | up0 << 8 | dot0 * fraction
    slots[:, 2] = s1 & below1 | up1 << 8 | up0 >> 56 | dot1 * fraction
    slots[:, 3] = s2 & below2 | (s2 & ~below2) << 8 | up1 >> 56 | dot2 * fraction | exponent
    return slots, undecided


def _percent(line: str, rows) -> bytes:
    """One line per row formatted by '%', the exact reference of _lines."""
    return ((line * len(rows)) % tuple(rows.ravel().tolist())).encode()


def _lines(line: str, rows: np.ndarray, slots_of) -> list:
    """line % row for each row of a 2-d array, as pieces of bytes.

    slots_of(chunk) gives the text of a chunk of rows as words, NUL in every
    byte a row does not use, and the list of rows it cannot render.
    Chunks of _CHUNK_CELLS cells (at least one row) are rendered at a time,
    so temporaries stay small; one compaction per run of rendered rows drops
    the NULs, and each row left over is formatted by _percent.  No piece is
    empty.
    """
    step = max(1, _CHUNK_CELLS // max(rows.shape[1], 1))
    out = []
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        slots, left = slots_of(chunk)
        text = slots.view(np.uint8).reshape(len(chunk), -1)
        for begin, end in zip([0] + [row + 1 for row in left], left + [len(chunk)]):
            if begin < end:
                out.append(text[begin:end].tobytes().translate(None, b"\0"))
            if end < len(chunk):
                out.append(_percent(line, chunk[end : end + 1]))
    return out


def _block(line: str, rows: np.ndarray) -> list:
    """line % row for each row of a float array, as pieces of bytes; line's conversions are all %.17g.

    Each cell's slot (layout above) carries the literal text before it, and
    the last one the text after it.  A line with a cell _render cannot
    decide is formatted by _percent.
    """
    pieces = [piece.encode() for piece in line.split("%.17g")]
    ncols = len(pieces) - 1
    if ncols == 0 or max(map(len, pieces[:-1])) > 2 or len(pieces[-1]) > 1:
        raise ValueError(f"no slot layout for the line {line!r}")
    before = np.array([_word(piece) for piece in pieces[:-1]], np.uint64)
    after = np.zeros(ncols, np.uint64)
    after[-1] = _word(pieces[-1], 7)

    def slots_of(chunk):
        slots, undecided = _render(chunk.ravel())
        slots = slots.reshape(len(chunk), ncols, 4)
        slots[:, :, 0] |= before
        slots[:, :, 3] |= after
        left = np.flatnonzero(undecided.reshape(len(chunk), ncols).any(axis=1)).tolist() if undecided.any() else []
        return slots, left

    return _lines(line, rows, slots_of)


# --- The %d renderer ----------------------------------------------------
#
# A cell n in [0, 10**7) is laid out in one word: byte 0 the ' ' before
# it, bytes 1-7 '%7d' % n with NUL for the blanks.  With hi = n // 10**4,
# high[hi] holds the ' ' and bytes 1-3, and low the last four digits in bytes
# 4-7: '%4d' % n at low[n] if hi = 0, '%04d' % (n % 10**4) at
# low[10**4 + n % 10**4] otherwise, that is at n - offset[hi].  A row with a
# cell outside [0, 10**7) is left to '%'.

_INT_LIMIT = 10**7


@functools.cache
def _int_tables():
    """(high, offset, low) of the %d renderer, built on first use."""
    g = np.arange(10**4, dtype=np.uint64)

    def digits(width, least):
        """The last `width` digits of g, digit j from the right in byte 7 - j; NUL for the leading
        zeros, except in the last `least` bytes."""
        return sum(
            np.where((g >= 10**j) | (j < least), (g // 10**j % 10 + ord("0")) << 8 * (7 - j), 0) for j in range(width)
        )

    high = _word(b" ") | digits(3, 0)[:1000] >> 32  # no digit for hi = 0
    low = np.concatenate([digits(4, 1), digits(4, 4)])
    return high, np.maximum(np.arange(1000) - 1, 0) * 10**4, low


def _int_lines(head: str, rows: np.ndarray) -> bytes:
    """head + ' '.join('%d' % cell) + '\\n' for each row of an integer array.

    A row is laid out as the word '\\n' + head, then one word per cell, the
    first without its ' '; the text of all rows, less its first byte, is
    followed by the last '\\n'.  So an empty row is head + '\\n', and no
    rows are no text.
    """
    high, offset, low = _int_tables()
    ncols = rows.shape[1]
    lead = _word(("\n" + head).encode())

    def slots_of(chunk):
        n = chunk.astype(np.int64, copy=False)
        big = n.view(np.uint64) >= _INT_LIMIT  # True on a negative cell
        left = np.flatnonzero(big.any(axis=1)).tolist() if big.any() else []
        if left:
            n = np.where(big, 0, n)
        hi = n // 10**4
        slots = np.empty((len(chunk), ncols + 1), np.uint64)
        slots[:, 0] = lead
        np.bitwise_or(high.take(hi), low.take(n - offset.take(hi)), out=slots[:, 1:])
        if ncols:
            slots[:, 1] &= ~np.uint64(0xFF)
        return slots, left

    out = _lines("\n" + head + " ".join(["%d"] * ncols), rows, slots_of)
    if not out:
        return b""
    out[0] = out[0][1:]
    out.append(b"\n")
    return b"".join(out)


def _save(path, parts) -> None:
    """Write the byte strings of parts to path in place, and cut the file where they end.

    Without O_TRUNC a rewrite writes over the old bytes and cuts the tail,
    which where truncating is dear (ext4 mounted with discard) costs far
    less than truncating to zero first.  A symlink at the path is followed
    and a hard link sees the new bytes, as with "wb".  The cut is made at
    the bytes the descriptor reached, after the buffer is flushed or
    dropped, so a part that fails to come or a write the system refuses
    (a full disk, EFBIG) leaves no stale tail; a file that is not regular
    (/dev/null, a pipe) takes no truncate.  A process killed midway makes
    no cut, and the file keeps the old tail after the new bytes.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "wb", closefd=False) as handle:
            handle.writelines(parts)
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def write_obj(path, mesh, config: dict) -> None:
    """OBJ with v vertices, f triangles, and l polylines for embedded curves."""
    points = np.concatenate([mesh.vertices, *mesh.polylines], dtype=float)
    parts = [f"# {_stamp(config)}\n".encode(), *_block("v %.17g %.17g %.17g\n", points)]
    parts.append(_int_lines("f ", np.reshape(mesh.faces, (-1, 3)) + 1))
    offset = len(mesh.vertices) + 1
    for length, curves in itertools.groupby(map(len, mesh.polylines)):
        count = len(list(curves))  # consecutive polylines of one length are one block
        parts.append(_int_lines("l ", np.arange(offset, offset + count * length).reshape(count, length)))
        offset += count * length
    _save(path, parts)


def write_csv(path, columns, rows, config: dict, footer_comments=()) -> None:
    """CSV of numeric rows (a 2-d array or a list of rows), formatted in one block.

    Cells print as '%.17g' prints floats; None prints nan, and integer cells
    (flags) print as their float value, so 0 and 1 read 0 and 1.
    """
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    head = f"# {_stamp(config)}\n" + ",".join(columns) + "\n"
    tail = "".join(f"# {comment}\n" for comment in footer_comments)
    _save(path, [head.encode(), *_block(",".join(["%.17g"] * len(columns)) + "\n", table), tail.encode()])


def write_json_report(path, payload: dict, config: dict) -> None:
    body = {"tool": TOOL, "version": _version(), "config_sha256": config_hash(config)}
    body.update(payload)
    _save(path, [(json.dumps(body, indent=2, sort_keys=True) + "\n").encode()])
