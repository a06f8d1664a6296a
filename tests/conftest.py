import tracemalloc

import numpy as np
import pytest

import bandspec
from bandspec import harness
from bandspec import BandedHermitian, BlockBandedChannel, ChannelParams


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH
    return f"bandspec: {bandspec.__file__}"


def random_banded(n: int, bandwidth: int, rng: np.random.Generator) -> BandedHermitian:
    """Random Hermitian band matrix (not necessarily PSD)."""
    diag = rng.standard_normal(n)
    sub = tuple(
        rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
        for k in range(1, bandwidth + 1)
    )
    return BandedHermitian(diag, sub)


def dense_band(a: BandedHermitian) -> np.ndarray:
    """Dense Hermitian matrix of ``a``."""
    out = np.diag(a.diag.astype(complex))
    for k, arr in enumerate(a.sub, start=1):
        idx = np.arange(a.n - k)
        out[idx + k, idx] = arr
        out[idx, idx + k] = np.conj(arr)
    return out


def dense_channel(channel: BlockBandedChannel) -> np.ndarray:
    """Dense ``N x N*K`` expansion of a channel realization."""
    n, k = channel.n_cells, channel.users_per_cell
    out = np.zeros((n, n * k), dtype=complex)
    for offset, rows in channel.blocks.items():
        for i in range(n):
            j = i + offset
            if 0 <= j < n:
                out[i, j * k : (j + 1) * k] = rows[i]
    return out


def whole_array_gram(channel: BlockBandedChannel) -> BandedHermitian:
    """``gram`` as it was before row blocks: each offset's term over the
    whole channel at once.  The bit-identity oracle of the row-block loop."""
    n = channel.n_cells
    offsets = channel.offsets
    bandwidth = min(max(offsets) - min(offsets), n - 1)

    diag = np.zeros(n)
    for d in offsets:
        diag += np.sum(np.abs(channel.blocks[d]) ** 2, axis=1)

    sub = []
    for k in range(1, bandwidth + 1):
        # einsum sums from +0: its first term has the bits of zero plus it
        s = None
        for d in offsets:
            if d + k not in channel.blocks:
                continue
            # A[m+k, m] sums row (m+k) blocks against row m blocks that share
            # a block column: offsets d (row m+k) and d+k (row m).
            lower = channel.blocks[d][k:]
            upper = channel.blocks[d + k][: n - k]
            term = np.einsum("ij,ij->i", lower, np.conj(upper))
            s = term if s is None else np.add(s, term, out=s)
        sub.append(np.zeros(n - k, dtype=complex) if s is None else s)
    return BandedHermitian(diag, tuple(sub))


def gram_excess_bytes(channel: BlockBandedChannel) -> int:
    """How far ``gram(channel)``'s traced peak rises above its own output."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        a = bandspec.gram(channel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before - sum(arr.nbytes for arr in (a.diag, *a.sub))


def moments_worker(params: ChannelParams):
    """The replicate worker that the ``moments`` kind runs on ``params``."""
    workers = []

    def replicate(found, count):
        workers.extend(found)
        return [[np.zeros(3)]]

    harness._run_moments(harness.ExperimentConfig("moments", params), replicate)
    return workers[0]


def moments_replicate_excess_bytes(params: ChannelParams, rng: np.random.Generator) -> int:
    """How far one replicate of the ``moments`` kind, channel draw included,
    takes its traced peak above the channel it draws."""
    worker = moments_worker(params)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        worker(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    channel = len(params.diagonals) * params.n_cells * params.users_per_cell * 16
    return peak - before - channel


def dense_profile(params: ChannelParams, n_rows: int, n_cols: int) -> np.ndarray:
    """Brute-force power profile: each diagonal's ``gain^2 * E|h|^2`` at the
    cell centers of an ``n_rows x n_cols`` grid of the unit square, which is
    exact whenever the grid refines the ``N x N*K`` matrix cells."""
    n, k = params.n_cells, params.users_per_cell
    r = (np.arange(n_rows) + 0.5) / n_rows
    t = (np.arange(n_cols) + 0.5) / n_cols
    i = np.minimum((r * n).astype(int), n - 1)
    j = np.minimum((t * n * k).astype(int), n * k - 1)
    block = j // k
    d = block[None, :] - i[:, None]
    out = np.zeros((n_rows, n_cols))
    for spec in params.diagonals:
        mass = spec.gain**2 * spec.fading.amplitude_moment(2)
        out += np.where(d == spec.offset, mass, 0.0)
    return out


def dense_eigenvalues(a: BandedHermitian) -> np.ndarray:
    """Brute-force oracle: dense Hermitian solve."""
    return np.linalg.eigvalsh(dense_band(a))


@pytest.fixture
def rng():
    return np.random.default_rng(0xBA5EBA11)
