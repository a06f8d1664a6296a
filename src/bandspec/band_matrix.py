"""Block-banded channel matrices and their Hermitian banded Gram matrices.

The channel is an ``N x N*K`` matrix built from ``1 x K`` random row blocks
placed on a finite set of block diagonals; its Gram matrix ``H H^dagger`` is
Hermitian with bandwidth ``max(offsets) - min(offsets)`` and is assembled
directly in band storage, so matrices with ``N`` up to about ``10^6`` never
materialize densely.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, LinAlgError

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
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    @property
    def rho(self) -> float:
        """Per-user transmit SNR P/K."""
        return self.power / self.users_per_cell

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
    fading_left: FadingSpec | str | None = None,
    fading_right: FadingSpec | str | None = None,
) -> ChannelParams:
    """Three-diagonal cellular uplink: local gain 1, neighbors alpha / beta.

    Zero-gain neighbor diagonals are dropped so that e.g. ``beta = 0`` yields
    a genuinely two-diagonal channel.
    """
    fading = _as_spec(fading)
    fading_left = _as_spec(fading_left) if fading_left is not None else fading
    fading_right = _as_spec(fading_right) if fading_right is not None else fading
    diagonals = [DiagonalSpec(0, 1.0, fading)]
    if alpha > 0:
        diagonals.append(DiagonalSpec(-1, alpha, fading_left))
    if beta > 0:
        diagonals.append(DiagonalSpec(+1, beta, fading_right))
    diagonals.sort(key=lambda d: d.offset)
    return ChannelParams(n_cells, users_per_cell, tuple(diagonals), power)


def _as_spec(spec) -> FadingSpec:
    return parse_spec_tag(spec) if isinstance(spec, str) else spec


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

    def dense(self) -> np.ndarray:
        """Dense ``N x N*K`` expansion (test-scale instances only)."""
        n, k = self.n_cells, self.users_per_cell
        out = np.zeros((n, n * k), dtype=complex)
        for offset, rows in self.blocks.items():
            for i in range(n):
                j = i + offset
                if 0 <= j < n:
                    out[i, j * k : (j + 1) * k] = rows[i]
        return out


def generate_channel(params: ChannelParams, rng: np.random.Generator) -> BlockBandedChannel:
    """Draw one channel realization.

    Blocks are sampled one diagonal at a time in offset order, each entry an
    independent draw scaled by the diagonal's gain.
    """
    n, k = params.n_cells, params.users_per_cell
    blocks = {}
    for d in sorted(params.diagonals, key=lambda d: d.offset):
        rows = d.gain * d.fading.sample(rng, (n, k))
        lo = max(0, -d.offset)
        hi = min(n, n - d.offset)
        if lo > 0:
            rows[:lo] = 0.0
        if hi < n:
            rows[hi:] = 0.0
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

    def trace(self) -> float:
        return float(self.diag.sum())

    def frobenius_sq(self) -> float:
        """Squared Frobenius norm, counting the implied upper triangle."""
        total = float(np.sum(self.diag**2))
        for arr in self.sub:
            total += 2.0 * float(np.sum(np.abs(arr) ** 2))
        return total

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag.astype(complex))
        for k, arr in enumerate(self.sub, start=1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = arr
            out[idx, idx + k] = np.conj(arr)
        return out

    def lower_band(self) -> np.ndarray:
        """LAPACK-style lower band storage, shape ``(bandwidth + 1, n)``."""
        ab = np.zeros((self.bandwidth + 1, self.n), dtype=complex)
        ab[0] = self.diag
        for k, arr in enumerate(self.sub, start=1):
            ab[k, : self.n - k] = arr
        return ab

    # -- binary band dump -----------------------------------------------------

    _MAGIC = b"BNDH"
    _VERSION = 1

    def save(self, path) -> None:
        """Little-endian dump: magic, u32 version, u64 n, u32 bandwidth, then
        each diagonal (main first) as complex doubles."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIQI", self._MAGIC, self._VERSION, self.n, self.bandwidth))
            self.diag.astype("<c16").tofile(fh)
            for arr in self.sub:
                arr.astype("<c16").tofile(fh)

    @classmethod
    def load(cls, path) -> "BandedHermitian":
        """Read a dump written by :meth:`save`; a truncated file raises
        ``ValueError``."""
        with open(path, "rb") as fh:
            header = fh.read(20)
            if len(header) < 20:
                raise ValueError("truncated band dump header")
            magic, version, n, bandwidth = struct.unpack("<4sIQI", header)
            if magic != cls._MAGIC:
                raise ValueError("not a banded-Hermitian dump")
            if version != cls._VERSION:
                raise ValueError(f"unsupported dump version {version}")
            sizes = [n] + [n - k for k in range(1, bandwidth + 1)]
            body = np.fromfile(fh, dtype="<c16", count=sum(sizes))
        if len(body) < sum(sizes):
            raise ValueError(f"band dump holds {len(body)} of {sum(sizes)} values")
        diag, *sub = np.split(body, np.cumsum(sizes)[:-1])
        return cls(diag.real.astype(float), tuple(arr.astype(complex) for arr in sub))


def gram(channel: BlockBandedChannel) -> BandedHermitian:
    """Gram matrix ``H H^dagger`` assembled directly in band form.

    The bandwidth is the spread ``max(offsets) - min(offsets)``; for the
    symmetric three-diagonal channel that is the familiar five-diagonal
    matrix.
    """
    n = channel.n_cells
    offsets = channel.offsets
    bandwidth = (max(offsets) - min(offsets)) if len(offsets) > 1 else 0
    bandwidth = min(bandwidth, n - 1)

    diag = np.zeros(n)
    for d in offsets:
        diag += np.sum(np.abs(channel.blocks[d]) ** 2, axis=1)

    sub = []
    for k in range(1, bandwidth + 1):
        s = np.zeros(n - k, dtype=complex)
        for d in offsets:
            if d + k not in channel.blocks:
                continue
            # A[m+k, m] sums row (m+k) blocks against row m blocks that share
            # a block column: offsets d (row m+k) and d+k (row m).
            lower = channel.blocks[d][k:]
            upper = channel.blocks[d + k][: n - k]
            s += np.einsum("ij,ij->i", lower, np.conj(upper))
        sub.append(s)
    return BandedHermitian(diag, tuple(sub))


def ldl_shifted(a: BandedHermitian, rho: float) -> np.ndarray:
    """Diagonal of the unit-triangular LDL factorization of ``I + rho * A``.

    ``sum(log(d))`` is the log-determinant of the shifted matrix.  Runs in
    O(n * bandwidth^2) time via a banded Cholesky factorization; a pivot
    that is not finite or lies below ``PIVOT_FLOOR`` (analytically they are
    all >= 1 for PSD ``A`` and ``rho >= 0``) raises :class:`PivotError`.
    A negative or non-finite ``rho`` raises ``ValueError``.
    """
    if not (np.isfinite(rho) and rho >= 0):
        raise ValueError("rho must be finite and nonnegative")
    ab = a.lower_band() * rho
    ab[0] += 1.0
    try:
        factor = cholesky_banded(ab, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise PivotError(f"shifted matrix lost positive definiteness: {exc}") from exc
    d = factor[0].real ** 2
    bad = ~np.isfinite(d) | (d < PIVOT_FLOOR)
    if bad.any():
        raise PivotError(
            f"{bad.sum()} pivots non-finite or below {PIVOT_FLOOR:g} (first {d[bad][0]:g})"
        )
    return d
