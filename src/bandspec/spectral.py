"""Empirical spectral statistics: Shannon transform, moments, distances, and
the channel's expected power profile.

Everything here is a pure function of immutable inputs.  Moments are
normalized traces of small powers computed in band storage, without any
eigendecomposition, by one kernel over row blocks of the band: over a
band matrix's own blocks in :func:`trace_moment`, and, for the ``moments``
kind, over the Gram matrix's blocks as they are built, which never holds
the whole Gram matrix; both add the same block sums in the same order, so
they give the same bits.  The power profile looks up each diagonal's mass
``gain^2 * E|h|^2`` by block offset on the band's cells only; it and its gap
between N and 2N cost O(N b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import band_matrix
from .band_matrix import BandedHermitian, BlockBandedChannel, ChannelParams

__all__ = [
    "EmpiricalSpectrum",
    "trace_moment",
    "power_profile",
    "power_profile_sup_diff",
]

_ORDERS = (1, 2, 3)  # the powers whose traces the band gives directly


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalue sample with distribution-style queries."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def shannon_transform(self, rho: float) -> float:
        """Normalized log-determinant statistic ``mean(log(1 + rho * lam))``
        in natural log units."""
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        return float(np.mean(np.log1p(rho * self.eigenvalues)))

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance to a reference CDF callable.

        The supremum over the ECDF jump points compares the reference's value
        at each jump with the post-jump level and its left limit (one ulp
        below) with the pre-jump level, which is exact for continuous
        references and for step references such as another ECDF.
        """
        uniq, counts = np.unique(self.eigenvalues, return_counts=True)
        ranks = np.cumsum(counts)
        hi = ranks / self.n
        lo = (ranks - counts) / self.n
        f_hi = np.asarray(cdf(uniq), dtype=float)
        f_lo = np.asarray(cdf(np.nextafter(uniq, -np.inf)), dtype=float)
        return float(np.maximum(np.abs(f_hi - hi), np.abs(f_lo - lo)).max())


def trace_moment(a: BandedHermitian, p: int) -> float:
    """Normalized trace ``trace(A^p) / n`` for p in {1, 2, 3}, in band storage
    in O(n * bandwidth^2); higher powers need the eigenvalues.

    With ``s_k[m] = A[m + k, m]``, the closed walks of length 3 (on one site,
    two sites ``m, m + k`` or three sites ``m < m + j < m + k``) give

        trace(A^3) = sum_i a_ii^3 + 3 sum_k sum_m (a_mm + a_{m+k,m+k}) |s_k[m]|^2
                   + 6 Re sum_{0<j<k<=b} sum_m conj(s_j[m] s_{k-j}[m+j]) s_k[m]:

    b real weighted sums and b(b-1)/2 complex triple products, no band copy.
    The sums run over the band's row blocks, in the order and with the block
    size of :func:`_gram_trace_moments`, so both give the same bits.
    Raises ``FloatingPointError`` when the trace overflows a double.
    """
    return _block_trace_moments(band_matrix._band_blocks(a), a.n, (p,))[0]


def _gram_trace_moments(channel: BlockBandedChannel) -> list[float]:
    """``[trace_moment(gram(channel), p) for p in (1, 2, 3)]``, bit for bit,
    from the Gram matrix's row blocks as they are built: the whole Gram
    matrix is never held, only one block of it and the ``bandwidth`` rows
    past it."""
    return _block_trace_moments(band_matrix._gram_blocks(channel), channel.n_cells, _ORDERS)


def _block_trace_moments(blocks, n: int, orders) -> list[float]:
    """``trace(A^p) / n`` for each p of ``orders``, from the ``(rows, diag,
    sub)`` row blocks of ``A`` that :func:`band_matrix._band_blocks` yields:
    each block's sums are added in block order."""
    if not set(orders) <= set(_ORDERS):
        raise ValueError("trace moments from the band are for p in {1, 2, 3}")
    totals = [0.0] * len(orders)
    for rows, diag, sub in blocks:
        totals = [t + s for t, s in zip(totals, _power_sums(rows, diag, sub, orders))]
    values = [t / n for t in totals]  # Python floats: an overflow is inf, not an error
    for p, value in zip(orders, values):
        if not math.isfinite(value):
            raise FloatingPointError(f"trace(A^{p}) / n = {value} is not finite")
    return values


@np.errstate(over="ignore", invalid="ignore")  # a trace past a double raises above
def _power_sums(rows: int, diag: np.ndarray, sub, orders) -> list[float]:
    """Each p of ``orders``: the terms of ``trace(A^p)`` (see
    :func:`trace_moment`) whose lowest site is one of the block's ``rows``
    own rows; the terms at p = 3 also read the ``bandwidth`` rows past them."""
    d = diag[:rows]
    own = [s[:rows] for s in sub]  # A[m + k, m] for the own rows m < n - k
    weights = []  # |A[m + k, m]|^2, which p = 2 and p = 3 both sum
    for s in own if max(orders, default=1) > 1 else ():
        weight = np.square(s.real)
        weight += np.square(s.imag)
        weights.append(weight)
    sums = []
    for p in orders:
        if p == 1:
            total = np.sum(d)
        elif p == 2:
            total = np.einsum("i,i->", d, d)
            for weight in weights:
                total += 2 * np.sum(weight)
        else:
            total = np.einsum("i,i,i->", d, d, d)
            for k, (s, weight) in enumerate(zip(own, weights), start=1):
                total += 3 * (np.einsum("i,i->", d[:len(s)], weight)
                              + np.einsum("i,i->", diag[k:k + len(s)], weight))
                for j in range(1, k):
                    # Re(conj(x) s) = x.re s.re + x.im s.im
                    x = sub[j - 1][:len(s)] * sub[k - j - 1][j:j + len(s)]
                    total += 6 * (np.einsum("i,i->", x.real, s.real)
                                  + np.einsum("i,i->", x.imag, s.imag))
        sums.append(float(total))
    return sums


def _offset_mass(params: ChannelParams, offset: np.ndarray) -> np.ndarray:
    """``gain^2 * E|h|^2`` of the diagonal at each block offset, zero off the band."""
    reach = max(abs(o) for o in params.offsets) + 1
    mass = np.zeros(2 * reach + 1)
    for spec in params.diagonals:
        mass[spec.offset + reach] = spec.gain**2 * spec.fading.amplitude_moment(2)
    return mass[np.clip(offset, -reach, reach) + reach]


def power_profile(params: ChannelParams):
    """Expected squared-magnitude profile of the ``N x N*K`` channel matrix
    on its block diagonals, as ``(row, col, value)`` arrays of the
    ``K * sum(N - |offset|)`` band cells, 0-based and in row-major order.

    Cell ``(i, j)`` holds the exact ensemble value ``gain^2 * E|h|^2`` of the
    diagonal at block offset ``j // K - i``; every unlisted cell is 0, and no
    sampling is involved.  O(N b) in time and memory.
    """
    n, k = params.n_cells, params.users_per_cell
    row = np.arange(n)[:, None, None]
    col = (row + np.array(params.offsets)[:, None]) * k + np.arange(k)
    keep = (col >= 0) & (col < n * k)
    row, col = np.broadcast_to(row, col.shape)[keep], col[keep]
    return row, col, _offset_mass(params, col // k - row)


def power_profile_sup_diff(pa: ChannelParams, pb: ChannelParams) -> float:
    """Exact sup of the absolute difference of two profiles on the unit square.

    Both are piecewise constant on the grid of ``L = lcm(Na, Nb)`` rows and
    ``L*K`` columns.  Its cell ``(r, c)`` lies in block row ``r // m`` and
    block column ``(c // K) // m`` of the profile with ``m = L / N``, so K
    drops out.  A profile is zero where ``|c // K - r| >= (max|offset| + 1) m``,
    so only the cells within ``(max|offset| + 1) L / min(Na, Nb)`` columns of
    the diagonal are evaluated: O(N b) for an N-vs-2N pair, not O(N^2 K).
    """
    if pa.users_per_cell != pb.users_per_cell:
        raise ValueError("profiles must share users_per_cell")
    rows = math.lcm(pa.n_cells, pb.n_cells)
    ma, mb = rows // pa.n_cells, rows // pb.n_cells
    half = (max(abs(o) for o in pa.offsets + pb.offsets) + 1) * max(ma, mb)
    r = np.arange(rows)[:, None]
    # a clipped column repeats a cell of the window, which leaves the sup as is
    c = np.clip(r + np.arange(-half, half + 1), 0, rows - 1)
    diff = _offset_mass(pa, c // ma - r // ma) - _offset_mass(pb, c // mb - r // mb)
    return float(np.abs(diff).max())
