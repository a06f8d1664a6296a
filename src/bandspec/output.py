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
    matrices and the separators sit side by side, and one masked gather
    drops the padding."""
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
    block = np.concatenate(parts, axis=1)
    return block[block != 0].tobytes()


def text(value) -> str:
    """One value as every CSV cell and printed number is written: integers
    and bools (Python or numpy) in full, floats to 17 significant digits,
    anything else as ``str``."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _text_cells(values, width: int = 0) -> np.ndarray:
    """:func:`text` of each value as a NUL-padded uint8 matrix, ``width``
    bytes wide, or as wide as its longest cell when ``width`` is 0."""
    cells = np.array([text(v).encode() for v in values], dtype=f"S{width}")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


# 10^0 .. 10^22, every one an exact double
_POW10 = np.array([float(10**k) for k in range(23)])
# place values of the five four-digit groups of a uint64, most significant first
_GROUP_PLACES = np.uint64(10_000) ** np.arange(4, -1, -1, dtype=np.uint64)[:, None]
# 10^1 .. 10^19: a magnitude has searchsorted(_TENS, m, "right") + 1 digits
_TENS = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)


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
# row d keeps the last d of an integer's 20 digit bytes
_INT_KEEP = (np.arange(20) >= 20 - np.arange(21)[:, None]) * np.uint8(0xFF)


def _float_keep() -> np.ndarray:
    """Byte masks of the float cell for each decimal exponent X in [-4, 15]
    and each count L of significant digits left after stripping trailing
    zeros, at row ``(X + 4) * 17 + L - 1``.

    A cell is 41 bytes: the sign, the prefix ``0.000``, the 17 digits (read
    as the integer part), the point, and the 17 digits again (read as the
    fraction)."""
    x = np.arange(-4, 16)[:, None, None]
    n_sig = np.arange(1, 18)[None, :, None]
    i = np.arange(17)
    parts = (
        np.ones((1, 1, 1), bool),                      # sign, NUL when positive
        np.arange(5) < np.where(x < 0, 1 - x, 0),      # "0." and zeros after it
        i <= x,                                        # integer digits
        (x >= 0) & (n_sig > x + 1),                    # point, if a fraction
        (i > x) & (i < n_sig),                         # fraction digits
    )
    keep = np.concatenate([np.broadcast_to(p, (20, 17, p.shape[-1])) for p in parts], axis=2)
    return (keep * np.uint8(0xFF)).reshape(20 * 17, 41)


_FLOAT_KEEP = _float_keep()


def _digit_groups(magnitude: np.ndarray, n_groups: int) -> np.ndarray:
    """The last ``n_groups`` four-digit groups of each uint64, shape
    ``(n_groups, n)``, most significant first."""
    return magnitude // _GROUP_PLACES[-n_groups:] % np.uint64(10_000)


def _ascii(groups: np.ndarray) -> np.ndarray:
    """ASCII digits of ``groups``, shape ``(n, 4 * n_groups)``."""
    return np.ascontiguousarray(_ASCII_GROUPS[groups].T).view(np.uint8)


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``%d`` of each int64 as a NUL-padded uint8 matrix: a sign byte, then
    as many four-digit groups as the largest magnitude needs, leading zeros
    masked."""
    magnitude = x.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=x < 0)  # exact for -2^63 too
    n_digits = np.searchsorted(_TENS, magnitude, side="right") + 1
    n_groups = (int(n_digits.max()) + 3) // 4
    cells = np.empty((len(x), 1 + 4 * n_groups), np.uint8)
    cells[:, 0] = np.where(x < 0, ord("-"), 0)
    cells[:, 1:] = _ascii(_digit_groups(magnitude, n_groups))
    cells[:, 1:] &= _INT_KEEP[n_digits, 20 - 4 * n_groups:]
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float64 as a NUL-padded (n, 41) uint8 matrix laid
    out as :func:`_float_keep` says, decided cell by cell.

    For ``1e-4 <= |x| < 1e16`` ``%.17g`` is the 17-digit integer
    ``D = round_half_even(|x| 10^(16 - X))``, X = floor(log10 |x|), in fixed
    point with trailing zeros stripped.  ``10^(16 - X)`` is an exact double,
    and Dekker's TwoProduct gives the product exactly as a double ``p`` plus
    its rounding error.  ``p >= 1e16 > 2^53`` is an even integer, so rounding
    the error half-even rounds D correctly, as Python's ``%`` does.  Next to
    a power of ten ``log10`` can put X one off, and rounding can carry D up
    to 10^17; either shows as a D of 16 or 18 digits, and X is corrected by
    one.  An exact zero is X = 0 and D = 0, with the sign of its sign bit
    (``-0.0`` writes ``-0``).  Each other value (not finite, or nonzero below
    1e-4 or at least 1e16 in magnitude, where ``%.17g`` writes ``nan``,
    ``inf`` or an exponent) gets :func:`text` of itself in its own cell.
    """
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e16)
    a[~inside] = 1.0  # X = 0: keeps log10 and the scaling finite
    exp = np.floor(np.log10(a)).astype(np.int64)
    digits = _round_scaled(a, exp)
    low, high = digits < 10**16, digits >= 10**17
    off = low | high
    if off.any():
        exp += high
        exp -= low
        digits[off] = _round_scaled(a[off], exp[off])
    zero = x == 0
    digits[zero] = 0
    groups = _digit_groups(digits.astype(np.uint64), 5)
    zeros = _GROUP_ZEROS[groups[4]]
    all_zero = groups[4] == 0
    for group in groups[3:0:-1]:  # groups[0], the leading digit, is always written
        zeros += all_zero * _GROUP_ZEROS[group]
        all_zero &= group == 0
    cells = np.empty((len(x), 41), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    cells[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    cells[:, 6:23] = _ascii(groups)[:, 3:]
    cells[:, 23] = ord(".")
    cells[:, 24:] = cells[:, 6:23]
    cells &= _FLOAT_KEEP[(exp + 4) * 17 + 16 - zeros]
    odd = ~(inside | zero)
    cells[odd] = _text_cells(x[odd], 41)
    return cells


_SPLITTER = 2.0**27 + 1  # Dekker's split of a double into two 26-bit halves


def _split(v: np.ndarray):
    c = v * _SPLITTER
    hi = c - (c - v)
    return hi, v - hi


def _round_scaled(a: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``round_half_even(a * 10^(16 - exp))`` as int64: exact where the
    product is at least 2^53, and below 1e16 wherever the product is, which
    is all the exponent correction reads there."""
    scale = _POW10[16 - exp]
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
