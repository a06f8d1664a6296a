"""Block-banded channel matrices and their Hermitian banded Gram matrices.

The channel is an ``N x N*K`` matrix built from ``1 x K`` random row blocks
placed on a finite set of block diagonals; its Gram matrix ``H H^dagger`` is
Hermitian with bandwidth ``max(offsets) - min(offsets)`` and is assembled
directly in band storage, so matrices with ``N`` up to about ``10^6`` never
materialize densely.  The band is summed in one layout of 8192-row blocks:
``gram`` sums each block into its output, and the trace moments read each
block, with the bandwidth's rows past it, from a band's views or, without
the whole band, as a generator builds it.  Shifted LDL pivots come from
LAPACK ``dpttrf`` at bandwidth 0 and 1, as in the pivot chain, and from
``zpbtrf`` at wider bands.
A grid of shifts is factored in one call: the shifted matrices, placed back
to back, form one block-diagonal matrix whose blocks factor exactly as they
would alone.  Both routines come from ``scipy.linalg``, which the first
factorization imports, so that runs with none (moments, the power profile,
the closed forms) never load it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import FadingSpec, parse_spec_tag

__all__ = [
    "DiagonalSpec",
    "ChannelParams",
    "BlockBandedChannel",
    "BandedHermitian",
    "PivotError",
    "wyner",
    "generate_channel",
    "gram",
    "ldl_shifted",
    "log_ldl_shifted",
]

# Pivots of I + rho*A are >= 1 analytically for PSD A; anything smaller than
# this indicates corrupted input rather than roundoff.
PIVOT_FLOOR = 1e-14


class PivotError(ArithmeticError):
    """A shifted LDL pivot lost positive definiteness."""


@dataclass(frozen=True)
class DiagonalSpec:
    """One block diagonal: column-block offset, path gain, fading law."""

    offset: int
    gain: float
    fading: FadingSpec


@dataclass(frozen=True)
class ChannelParams:
    """Ensemble definition for the block-banded channel.

    ``n_cells`` is the matrix order N, ``users_per_cell`` the block width K,
    and ``power`` the total per-cell transmit power P, so the per-user SNR is
    ``rho = P / K``.
    """

    n_cells: int
    users_per_cell: int
    diagonals: tuple[DiagonalSpec, ...]
    power: float = 1.0

    def __post_init__(self):
        # offset order, so equality and hashing ignore the order given
        diagonals = tuple(sorted(self.diagonals, key=lambda d: d.offset))
        object.__setattr__(self, "diagonals", diagonals)
        if self.n_cells < 1 or self.users_per_cell < 1:
            raise ValueError("n_cells and users_per_cell must be positive")
        if not self.diagonals:
            raise ValueError("at least one block diagonal is required")
        offsets = [d.offset for d in self.diagonals]
        if len(set(offsets)) != len(offsets):
            raise ValueError("diagonal offsets must be distinct")
        for d in self.diagonals:
            if not 0.0 <= d.gain <= 1.0:
                raise ValueError(f"gain {d.gain} outside [0, 1]")
        max_abs = max(abs(o) for o in offsets)
        if max_abs > 0 and self.n_cells < 2 * max_abs + 1:
            raise ValueError("n_cells too small for the configured offsets")
        if not (np.isfinite(self.power) and self.power >= 0):
            raise ValueError("power must be finite and nonnegative")

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(d.offset for d in self.diagonals)

    def with_size(self, n_cells: int) -> "ChannelParams":
        """Same ensemble at a different order N."""
        return ChannelParams(n_cells, self.users_per_cell, self.diagonals, self.power)


def wyner(
    n_cells: int,
    users_per_cell: int,
    alpha: float,
    beta: float,
    fading: FadingSpec | str,
    power: float = 1.0,
) -> ChannelParams:
    """Three-diagonal cellular uplink: local gain 1, neighbors alpha / beta,
    every diagonal with the same fading law.

    A neighbor diagonal of gain exactly 0 is dropped, so that ``beta = 0``
    yields a two-diagonal channel; every other gain must lie in [0, 1].
    """
    if isinstance(fading, str):
        fading = parse_spec_tag(fading)
    gains = ((-1, alpha), (0, 1.0), (+1, beta))
    diagonals = tuple(DiagonalSpec(o, g, fading) for o, g in gains if o == 0 or g != 0)
    return ChannelParams(n_cells, users_per_cell, diagonals, power)


@dataclass(frozen=True)
class BlockBandedChannel:
    """Realized channel: per-offset ``(N, K)`` arrays of gain-scaled blocks.

    Rows whose block column ``i + offset`` falls outside ``[0, N)`` hold
    structural zeros, matching the zero corners of the dense matrix.
    """

    n_cells: int
    users_per_cell: int
    blocks: dict[int, np.ndarray]

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(sorted(self.blocks))


def generate_channel(params: ChannelParams, rng: np.random.Generator) -> BlockBandedChannel:
    """Draw one channel realization.

    Blocks are sampled one diagonal at a time in offset order, each entry an
    independent draw scaled by the diagonal's gain.
    """
    n, k = params.n_cells, params.users_per_cell
    blocks = {}
    for d in params.diagonals:
        rows = d.fading.sample(rng, (n, k))
        rows *= d.gain
        # zero the rows whose block column i + offset is outside [0, N)
        rows[: max(0, -d.offset)] = 0.0
        rows[n - max(0, d.offset):] = 0.0
        blocks[d.offset] = rows
    return BlockBandedChannel(n, k, blocks)


@dataclass(frozen=True)
class BandedHermitian:
    """Hermitian band matrix in diagonal-major storage.

    ``diag`` holds the (real) main diagonal; ``sub[k - 1]`` holds the k-th
    sub-diagonal ``A[i + k, i]`` with length ``n - k``.  The upper triangle
    is implied by conjugation.
    """

    diag: np.ndarray
    sub: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = len(self.diag)
        for k, arr in enumerate(self.sub, start=1):
            if len(arr) != n - k:
                raise ValueError(f"sub-diagonal {k} has length {len(arr)}, want {n - k}")

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def bandwidth(self) -> int:
        return len(self.sub)

    def lower_band(self) -> np.ndarray:
        """LAPACK lower band storage, shape ``(bandwidth + 1, n)``, Fortran order."""
        ab = np.zeros((self.bandwidth + 1, self.n), dtype=complex, order="F")
        ab[0] = self.diag
        for k, arr in enumerate(self.sub, start=1):
            ab[k, : self.n - k] = arr
        return ab


def gram(channel: BlockBandedChannel) -> BandedHermitian:
    """Gram matrix ``H H^dagger`` assembled directly in band form.

    The bandwidth is the spread ``max(offsets) - min(offsets)``; for the
    symmetric three-diagonal channel that is the familiar five-diagonal
    matrix.  The band is summed ``_GRAM_ROWS`` rows at a time, so the
    temporaries are one row block's, whatever N is.
    """
    n = channel.n_cells
    diag = np.zeros(n)
    sub = tuple(np.zeros(n - k, dtype=complex) for k in range(1, _gram_bandwidth(channel) + 1))
    for start, _, stop in _row_blocks(n, 0):
        _add_gram_rows(channel, start, stop, diag[start:], tuple(s[start:] for s in sub))
    return BandedHermitian(diag, sub)


def _gram_bandwidth(channel: BlockBandedChannel) -> int:
    offsets = channel.offsets
    return min(max(offsets) - min(offsets), channel.n_cells - 1)


def _row_blocks(n: int, reach: int):
    """``(start, rows, stop)`` of each ``_GRAM_ROWS``-row block of an order-n
    band, in row order: its first row, the number of its own rows, and the
    end of the rows read with it, ``reach`` past its own, clipped to n."""
    for start in range(0, n, _GRAM_ROWS):
        rows = min(_GRAM_ROWS, n - start)
        yield start, rows, min(start + rows + reach, n)


def _add_gram_rows(channel: BlockBandedChannel, start: int, stop: int, diag, sub) -> None:
    """Add rows ``[start, stop)`` of the Gram band of ``channel`` into
    ``diag`` and ``sub[k - 1]``, arrays whose first entry is row ``start``
    (the k-th sub-diagonal's rows end at ``n - k``).  Each row is summed as
    in a whole-array sum, so every entry has the bits of the whole matrix's."""
    n = channel.n_cells
    blocks = channel.blocks
    offsets = channel.offsets
    for d in offsets:
        diag[: stop - start] += np.sum(np.abs(blocks[d][start:stop]) ** 2, axis=1)
    for k, s in enumerate(sub, start=1):
        # A[m+k, m] sums row (m+k) blocks against row m blocks that share
        # a block column: offsets d (row m+k) and d+k (row m).  einsum sums
        # from +0, so adding its term to a zero keeps the term's bits
        m = slice(start, max(start, min(stop, n - k)))
        for d in offsets:
            if d + k in blocks:
                s[: m.stop - start] += np.einsum("ij,ij->i", blocks[d][k:][m], np.conj(blocks[d + k][m]))


def _gram_blocks(channel: BlockBandedChannel):
    """The Gram band of ``channel`` one ``_GRAM_ROWS``-row block at a time,
    never the whole band.

    Yields ``(rows, diag, sub)`` per block in row order, as
    :func:`_band_blocks` does of ``gram(channel)``, with the same bits: the
    arrays are refilled for the next block, so a block is to be read before
    the next is asked for.
    """
    n = channel.n_cells
    bandwidth = _gram_bandwidth(channel)
    diag_rows = np.empty(min(_GRAM_ROWS + bandwidth, n))
    sub_rows = [np.empty(len(diag_rows), dtype=complex) for _ in range(bandwidth)]
    for start, rows, stop in _row_blocks(n, bandwidth):
        diag = diag_rows[: stop - start]
        sub = tuple(s[: max(0, min(stop, n - k) - start)] for k, s in enumerate(sub_rows, start=1))
        for arr in (diag, *sub):
            arr.fill(0.0)
        _add_gram_rows(channel, start, stop, diag, sub)
        yield rows, diag, sub


def _band_blocks(a: BandedHermitian):
    """Views of ``a`` one ``_GRAM_ROWS``-row block at a time: ``(rows, diag,
    sub)`` per block in row order, where ``rows`` is the number of the
    block's own rows, and ``diag`` and ``sub[k - 1]`` are the diagonal and
    the k-th sub-diagonal from its first row through ``bandwidth`` rows past
    its last (the rows that a power of the band reads beyond the block),
    clipped to each diagonal's length."""
    for start, rows, stop in _row_blocks(a.n, a.bandwidth):
        yield rows, a.diag[start:stop], tuple(s[start:stop] for s in a.sub)


def ldl_shifted(a: BandedHermitian, rho) -> np.ndarray:
    """Diagonal of the unit-triangular LDL factorization of ``I + rho * A``.

    ``rho`` is a number, which gives the ``(n,)`` pivots, or a 1-D grid, which
    gives one row of pivots per value, shape ``(len(rho), n)``.
    ``sum(log(d))`` is the log-determinant of the shifted matrix.  Runs in
    O(n * bandwidth^2) time per value of ``rho``.  Bandwidths 0 and 1 go to
    LAPACK ``dpttrf`` as the real tridiagonal with off-diagonal ``rho |s_i|``
    (a diagonal unitary similarity removes the phases), wider bands to the
    banded Cholesky ``zpbtrf``; the shifted matrices of a grid are factored
    together, up to ``2^18`` rows at a time.  A band entry or pivot that is not
    finite, or a pivot below ``PIVOT_FLOOR`` (analytically they are all
    >= 1 for PSD ``A`` and ``rho >= 0``), raises :class:`PivotError`.
    A negative or non-finite ``rho`` raises ``ValueError``.
    """
    return 1.0 + _pivot_excess(a, rho)


def log_ldl_shifted(a: BandedHermitian, rho) -> np.ndarray:
    """``log(ldl_shifted(a, rho))`` as ``log1p`` of each pivot's excess over
    one, which keeps the digits that ``1 + rho * a_ii`` rounds away when
    ``rho * A`` is small against ``I`` (the plain log is off by up to ~1e-3
    relative at ``rho = 1e-6``).  Takes a number or a grid, and factors and
    raises, as :func:`ldl_shifted`."""
    excess = _pivot_excess(a, rho)
    return np.log1p(excess, out=excess)


# Rows of the channel that gram reads at a time: a few hundred KB of
# temporaries at K <= 3.
_GRAM_ROWS = 8192

# At most this many rows in one stacked factorization: a few MB of band
# storage, and at N >= 2^18 one shift per factorization.
_STACK_ORDER = 2**18


def _stack_slices(n: int, count: int) -> list[slice]:
    """Consecutive slices of a grid of ``count`` shifts, each small enough
    that its shifted matrices of order ``n``, placed back to back, go to one
    factorization of order at most ``_STACK_ORDER`` (or hold one shift)."""
    step = max(1, _STACK_ORDER // n)
    return [slice(i, i + step) for i in range(0, count, step)]


def _pivot_excess(a: BandedHermitian, rho) -> np.ndarray:
    # d_i - 1 = rho * a_ii - sum_j |C_ij|^2 over the off-diagonal entries of
    # row i of the Cholesky factor C: both terms scale with rho * A, not I.
    grid = np.asarray(rho, dtype=float)
    if grid.ndim > 1 or not (np.isfinite(grid) & (grid >= 0)).all():
        raise ValueError("rho must be finite and nonnegative: a number or a 1-D grid")
    # The banded Cholesky is handed the band unchecked.  At bandwidth <= 1 a
    # non-finite entry reaches the pivots instead, and raises there (the check
    # would cost a quarter of a factorization at N = 512).
    if a.bandwidth > 1 and not all(
        np.isfinite(arr).all() for arr in (a.diag, *a.sub)
    ):
        raise PivotError("band entries must be finite")
    rhos = np.atleast_1d(grid)
    stacked = _tridiagonal_excess if a.bandwidth <= 1 else _banded_excess
    excess = np.empty((len(rhos), a.n))
    with np.errstate(over="ignore", invalid="ignore"):  # huge rho: PivotError, not a warning
        for rows in _stack_slices(a.n, len(rhos)):
            stacked(a, rhos[rows], excess[rows])
    bad = ~np.isfinite(excess) | (excess < PIVOT_FLOOR - 1.0)
    if bad.any():
        raise PivotError(
            f"{bad.sum()} pivots non-finite or below {PIVOT_FLOOR:g} "
            f"(first {1.0 + excess[bad][0]:g})"
        )
    return excess if grid.ndim else excess[0]


# Both stacked factorizations take I + rho_j A for each rho_j of ``rhos`` as
# one block-diagonal matrix of order len(rhos) * n, whose zero coupling
# between blocks leaves each block's arithmetic as in a factorization alone.
# They write the pivot excesses into the C-ordered (len(rhos), n) ``excess``.

def _tridiagonal_excess(a: BandedHermitian, rhos: np.ndarray, excess: np.ndarray) -> None:
    # |C_{i,i-1}|^2 = l_{i-1} rho |s_{i-1}| with the LDL multiplier
    # l = rho |s| / d, which never forms (rho |s|)^2 to overflow
    np.multiply.outer(rhos, a.diag, out=excess)
    off = np.zeros_like(excess)  # its last column is the coupling to the next block
    if a.sub:
        np.multiply.outer(rhos, np.abs(a.sub[0]), out=off[:, :-1])
    off = off.reshape(-1)[:-1]
    _, multipliers = _tridiagonal_pivots((excess + 1.0).reshape(-1), off.copy())  # dpttrf overwrites e
    # at a block boundary l = 0 / d and e = 0: subtracting their product is exact
    excess.reshape(-1)[1:] -= np.multiply(multipliers, off, out=off)


def _banded_excess(a: BandedHermitian, rhos: np.ndarray, excess: np.ndarray) -> None:
    m, n, b = len(rhos), a.n, a.bandwidth
    np.multiply.outer(rhos, a.diag, out=excess)
    # lower band storage of the stack, built transposed so that its
    # transpose is the Fortran-ordered (b + 1, m n) array LAPACK reads; the
    # zeros past each sub-diagonal's end are the coupling between blocks
    ab = np.zeros((m, n, b + 1), dtype=complex)
    ab[:, :, 0] = excess
    for k, arr in enumerate(a.sub, start=1):
        np.multiply.outer(rhos, arr, out=ab[:, : n - k, k])
    ab = ab.reshape(m * n, b + 1).T
    ab[0] += 1.0
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise PivotError(f"shifted matrix lost positive definiteness: {exc}") from exc
    flat = excess.reshape(-1)
    for j in range(1, b + 1):
        # lower band storage: factor[j, k] = C[k + j, k], zero across a block boundary
        flat[j:] -= np.abs(factor[j, : m * n - j]) ** 2


def _tridiagonal_pivots(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T pivots and multipliers of the real tridiagonal (``d``, ``e``) by
    LAPACK ``dpttrf``, which overwrites both.  :class:`PivotError` if a pivot is
    not positive or not finite (``dpttrf`` stops only at a pivot ``<= 0``, so a
    NaN runs through)."""
    # the wrapper wants a nonempty e even for n = 1, where LAPACK never reads it
    d, l, info = dpttrf(d, e if len(e) else np.zeros(1), overwrite_d=True, overwrite_e=True)
    if info != 0 or not np.isfinite(d).all():
        raise PivotError(f"tridiagonal LDL broke down (dpttrf info={info})")
    return d, l[: len(e)]


# LAPACK under the names the factorizations call, each importing
# ``scipy.linalg`` on first use; tests replace ``cholesky_banded`` by name

def cholesky_banded(ab, **kwargs):
    """:func:`scipy.linalg.cholesky_banded`, imported by the first call."""
    from scipy import linalg
    return linalg.cholesky_banded(ab, **kwargs)


def dpttrf(d, e, **kwargs):
    """LAPACK ``dpttrf`` from ``scipy.linalg.lapack``, imported by the first call."""
    from scipy.linalg import lapack
    return lapack.dpttrf(d, e, **kwargs)
