"""What a run writes: CSV tables, the text of each number, gnuplot scripts.

Every CSV cell and printed number is :func:`text` of its value.  CSV files
are written from columns, in blocks of rows; each column is formatted by its
own type, whatever the columns beside it hold: numpy floats and signed
integers by vectorized kernels, anything else (Python sequences, text,
bools, unsigned integers) one value at a time.  The float kernel writes
zeros and every value in [1e-4, 1e16) in magnitude from its own digit
arithmetic, and :func:`text` of each other value in that value's own cell.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_csv", "text", "gnuplot_scripts"]

# rows formatted and written per block: one write per block, and memory that
# stays flat however many rows a file has
_BLOCK_ROWS = 4096


def write_csv(path: Path, names, columns, meta: dict) -> Path:
    """Write ``meta`` as ``# key=value`` lines, a header of ``names`` and one
    row per position of the equal-length ``columns``, in blocks of
    ``_BLOCK_ROWS`` rows formatted by :func:`_format_block`, one ``write`` each."""
    with open(path, "wb") as fh:
        head = "".join(f"# {key}={value}\n" for key, value in meta.items())
        fh.write((head + ",".join(names) + "\n").encode())
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fh.write(_format_block([c[start:start + _BLOCK_ROWS] for c in columns]))
    return path


def _format_block(columns) -> bytes:
    """CSV rows of equal-length column slices.

    Each column becomes a NUL-padded uint8 matrix of cells, by its own type:
    :func:`_float_cells` for a numpy float array, :func:`_int_cells` for a
    numpy signed-integer array, :func:`_text_cells` for anything else.  The
    matrices and the separators sit side by side, and one pass over the
    block's bytes deletes the padding."""
    n = len(columns[0])
    parts = []
    for column in columns:
        kind = column.dtype.kind if isinstance(column, np.ndarray) else None
        if kind == "f":
            cells = _float_cells(column.astype(np.float64, copy=False))
        elif kind == "i":
            cells = _int_cells(column.astype(np.int64, copy=False))
        else:
            cells = _text_cells(column)
        parts += [cells, np.full((n, 1), ord(","), np.uint8)]
    parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def text(value) -> str:
    """One value as every CSV cell and printed number is written: integers
    and bools (Python or numpy) in full, floats to 17 significant digits,
    anything else as ``str``."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _text_cells(values) -> np.ndarray:
    """:func:`text` of each value, as a NUL-padded uint8 matrix."""
    texts = [text(v).encode() for v in values]
    if any(b"\0" in t for t in texts):  # it would be deleted with the padding
        raise ValueError("a CSV text cell holds a NUL byte")
    cells = np.array(texts, dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


# 10^0 .. 10^22, every one an exact double
_POW10 = np.array([float(10**k) for k in range(23)])


def _group_tables():
    """``"0000"`` .. ``"9999"``, the four ASCII digits of each group packed
    in a uint32, and the trailing zero digits of each group (4 for 0000)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    places = np.ix_(digit, digit, digit, digit)  # thousands .. ones
    ascii_groups = np.stack(np.broadcast_arrays(*places), axis=-1).view(np.uint32).ravel()
    thousands, hundreds, tens, ones = (place == ord("0") for place in places)
    zeros = ones * (1 + tens * (1 + hundreds * (1 + thousands)))
    return ascii_groups, zeros.ravel()


_ASCII_GROUPS, _GROUP_ZEROS = _group_tables()


def _float_keep() -> np.ndarray:
    """Byte masks of the whole float cell, for each decimal exponent X in
    [-4, 15] and count L of significant digits after trailing zeros, at row
    ``(X + 4) * 17 + L - 1``.  The whole cell is the sign, the prefix
    ``0.000``, the 17 digits (read as the integer part), the point, the 17
    digits again (read as the fraction), and a NUL to pad with."""
    x = np.arange(-4, 16)[:, None, None]
    n_sig = np.arange(1, 18)[None, :, None]
    i = np.arange(17)
    parts = (
        np.ones((1, 1, 1), bool),                      # sign, NUL when positive
        np.arange(5) < np.where(x < 0, 1 - x, 0),      # "0." and zeros after it
        i <= x,                                        # integer digits
        (x >= 0) & (n_sig > x + 1),                    # point, if a fraction
        (i > x) & (i < n_sig),                         # fraction digits
        np.zeros((1, 1, 1), bool),                     # padding
    )
    keep = np.concatenate([np.broadcast_to(p, (20, 17, p.shape[-1])) for p in parts], axis=2)
    return (keep * np.uint8(0xFF)).reshape(20 * 17, 42)


_FLOAT_KEEP = _float_keep()


def _digit_groups(magnitude: np.ndarray, n_groups: int) -> np.ndarray:
    """The last ``n_groups`` four-digit groups of each uint64, shape
    ``(n, n_groups)``, most significant first."""
    groups = np.empty((len(magnitude), n_groups), np.intp)
    for k in range(n_groups - 1, -1, -1):
        quotient = magnitude // np.uint64(10_000)
        groups[:, k] = magnitude - quotient * np.uint64(10_000)
        magnitude = quotient
    return groups


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``%d`` of each int64 as a NUL-padded uint8 matrix: a sign byte if any
    value is negative, then as many digits as the largest magnitude has,
    leading zeros masked in cells with fewer."""
    magnitude = x.astype(np.uint64)
    negative = x < 0
    np.negative(magnitude, out=magnitude, where=negative)  # exact for -2^63 too
    width = len(str(int(magnitude.max())))
    cells = _ASCII_GROUPS.take(_digit_groups(magnitude, (width + 3) // 4)).view(np.uint8)
    cells = cells[:, -width:]
    if int(magnitude.min()) < 10 ** (width - 1):  # mask the leading zeros
        places = np.uint64(10) ** np.arange(width - 1, -1, -1, dtype=np.uint64)
        cells = cells * (np.maximum(magnitude, 1)[:, None] >= places)
    if negative.any():
        cells = np.concatenate([(negative * np.uint8(ord("-")))[:, None], cells], axis=1)
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float64 as a NUL-padded uint8 matrix: the columns
    of :func:`_float_keep`'s whole cell that the block's signs and least and
    greatest exponents X reach, masked cell by cell.

    For ``1e-4 <= |x| < 1e16`` ``%.17g`` is the 17-digit integer
    ``D = round_half_even(|x| 10^(16 - X))``, X = floor(log10 |x|), in fixed
    point with trailing zeros stripped.  ``10^(16 - X)`` is an exact double,
    and Dekker's TwoProduct gives the product exactly as a double ``p`` plus
    its rounding error.  ``p >= 1e16 > 2^53`` is an even integer, so rounding
    the error half-even rounds D correctly, as Python's ``%`` does.  Next to
    a power of ten ``log10`` can put X one off, and rounding can carry D up
    to 10^17; either shows as a D of 16 or 18 digits, and X is corrected by
    one.  An exact zero is X = 0 and D = 0 (``-0.0`` writes ``-0``).  Each
    other value (not finite, or nonzero below 1e-4 or at least 1e16 in
    magnitude, where ``%.17g`` writes ``nan``, ``inf`` or an exponent) gets
    :func:`text` of itself in its own cell."""
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e16)
    a[~inside] = 1.0  # X = 0: keeps log10 and the scaling finite
    exp = np.floor(np.log10(a)).astype(np.int64)
    digits = _round_scaled(a, exp)
    off = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    if off.any():
        exp += off
        digits[off != 0] = _round_scaled(a[off != 0], exp[off != 0])
    digits[x == 0] = 0
    groups = _digit_groups(digits.view(np.uint64), 5)
    zeros = _GROUP_ZEROS.take(groups[:, 4])
    rows = np.flatnonzero(groups[:, 4] == 0)
    for k in (3, 2, 1):  # groups[:, 0], the leading digit, is always written
        group = groups[rows, k]
        zeros[rows] += _GROUP_ZEROS.take(group)
        rows = rows[group == 0]
    negative, lo, hi = np.signbit(x), int(exp.min()), int(exp.max())
    sign, prefix, first = int(negative.any()), (1 - lo) * (lo < 0), max(lo + 1, 0)
    n_int, point = max(hi + 1, 0), int(hi >= 0)
    # the whole cell's sign, prefix, integer digits, point and fraction digits the block reaches
    columns = [0] * sign + [*range(1, 1 + prefix), *range(6, 6 + n_int), *[23] * point,
                            *range(24 + first, 41)]
    odd = ~inside & (x != 0)
    texts = _text_cells(x[odd])
    columns += [41] * (texts.shape[1] - len(columns))
    cells = np.zeros((len(x), len(columns)), np.uint8)
    head, tail = sign + prefix, sign + prefix + n_int + point
    digit_bytes = _ASCII_GROUPS.take(groups).view(np.uint8)[:, 3:]
    cells[:, :sign] = (negative * np.uint8(ord("-")))[:, None]
    cells[:, sign:head] = np.frombuffer(b"0.000", np.uint8)[:prefix]
    cells[:, head:head + n_int] = digit_bytes[:, :n_int]
    cells[:, tail - point:tail] = ord(".")
    cells[:, tail:tail + 17 - first] = digit_bytes[:, first:]
    cells &= _FLOAT_KEEP[:, columns].take((exp + 4) * 17 + 16 - zeros, axis=0)
    cells[odd] = 0
    cells[odd, :texts.shape[1]] = texts
    return cells


def _split(v: np.ndarray):
    c = v * (2.0**27 + 1)  # Dekker's split of a double into two 26-bit halves
    hi = c - (c - v)
    return hi, v - hi


def _round_scaled(a: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``round_half_even(a * 10^(16 - exp))`` as int64: exact where the
    product is at least 2^53, and below 1e16 wherever the product is, which
    is all the exponent correction reads there."""
    scale = _POW10.take(16 - exp)
    p = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    err = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def gnuplot_scripts(csv_files) -> list[Path]:
    """A gnuplot script beside each CSV file that plots its first two columns."""
    scripts = []
    for csv_path in csv_files:
        gp = csv_path.with_suffix(".gp")
        with open(gp, "w", newline="\n") as fh:
            fh.write("set datafile separator ','\n")
            fh.write(f"set title '{csv_path.stem}'\n")
            fh.write(f"plot '{csv_path.name}' every ::1 using 1:2 with linespoints\n")
        scripts.append(gp)
    return scripts
