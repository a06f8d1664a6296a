import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandspec import band_matrix
from bandspec import (
    ChannelParams,
    DETERMINISTIC,
    DiagonalSpec,
    EmpiricalSpectrum,
    RAYLEIGH,
    UNIFORM_PHASE,
    derive_stream,
    eigenvalues,
    generate_channel,
    gram,
    ldl_shifted,
    power_profile,
    power_profile_sup_diff,
    rician,
    trace_moment,
    wyner,
)

from conftest import (
    dense_band,
    dense_profile,
    moments_replicate_excess_bytes,
    moments_worker,
    random_banded,
)


def test_shannon_transform_limits():
    s = EmpiricalSpectrum(np.ones(7))
    assert s.shannon_transform(0.0) == 0.0
    assert s.shannon_transform(3.0) == pytest.approx(np.log(4.0), rel=1e-15)
    with pytest.raises(ValueError):
        s.shannon_transform(-1.0)


def test_shannon_transform_monotone_concave(rng):
    params = wyner(64, 1, 0.6, 0.6, RAYLEIGH)
    s = eigenvalues(gram(generate_channel(params, rng)))
    rhos = np.linspace(0.0, 20.0, 41)
    vals = np.array([s.shannon_transform(r) for r in rhos])
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.diff(vals, 2) <= 1e-12)


def test_shannon_transform_dual_route(rng):
    params = wyner(256, 1, 0.8, 0.3, RAYLEIGH)
    a = gram(generate_channel(params, rng))
    s = eigenvalues(a)
    for rho in (0.1, 1.0, 10.0, 100.0):
        via_ldl = np.log(ldl_shifted(a, rho)).mean()
        assert s.shannon_transform(rho) == pytest.approx(via_ldl, rel=1e-10)


def test_trace_moment_identities(rng):
    a = random_banded(30, 2, rng)
    assert trace_moment(a, 1) == pytest.approx(a.diag.mean(), rel=1e-14)
    frob = np.sum(np.abs(dense_band(a)) ** 2) / a.n
    assert trace_moment(a, 2) == pytest.approx(frob, rel=1e-13)
    with pytest.raises(ValueError):
        trace_moment(a, 4)


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3, 4])
def test_trace_moment_cubed_dense_oracle(bandwidth, rng):
    # bandwidth 4 has all 6 triangle shapes j < k <= 4; n = bandwidth + 1
    # makes every walk touch the matrix edge
    for n in (bandwidth + 1, 10):
        a = random_banded(n, bandwidth, rng)
        dense = dense_band(a)
        want = np.trace(np.linalg.matrix_power(dense, 3)).real / a.n
        assert trace_moment(a, 3) == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 5])
@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3, 4])
def test_trace_moment_row_blocks_match_dense_oracle(bandwidth, block_rows, rng, monkeypatch):
    # blocks narrower than the band: every p = 3 walk that leaves a block
    # reads the rows past it
    monkeypatch.setattr(band_matrix, "_GRAM_ROWS", block_rows)
    for n in (bandwidth + 1, 10, 23):
        a = random_banded(n, bandwidth, rng)
        dense = dense_band(a)
        for p in (1, 2, 3):
            want = np.trace(np.linalg.matrix_power(dense, p)).real / a.n
            assert trace_moment(a, p) == pytest.approx(want, rel=1e-10, abs=1e-10)


LAWS = [DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE, rician(0.3 + 0.4j, 0.5)]


@settings(max_examples=200, deadline=None)
@given(
    offsets=st.sampled_from([(0,), (-1, 0, 1), (0, 3), (-2, 0), (-2, 0, 1), (0, 1, 2, 3)]),
    k=st.integers(1, 3),
    draws=st.lists(st.tuples(st.sampled_from(LAWS), st.just(0.0) | st.floats(0.0, 1.0)),
                   min_size=4, max_size=4),
    n=st.integers(1, 23),
    block_rows=st.sampled_from([3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_moments_replicate_is_trace_moment_of_the_gram(offsets, k, draws, n, block_rows, seed):
    # the kind sums the Gram's row blocks as they are built, halo included;
    # blocks of 3 and 5 rows put the halo past a block and past the matrix end
    n = max(n, 2 * max(abs(o) for o in offsets) + 1)
    params = ChannelParams(n, k, tuple(
        DiagonalSpec(o, gain, law) for o, (law, gain) in zip(offsets, draws)))
    worker = moments_worker(params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(band_matrix, "_GRAM_ROWS", block_rows)
        got = worker(derive_stream(seed, 0))
        a = gram(generate_channel(params, derive_stream(seed, 0)))
        want = np.array([trace_moment(a, p) for p in (1, 2, 3)])
    assert got.tobytes() == want.tobytes()


def test_moments_replicate_is_trace_moment_past_one_block():
    # at the default block size, two blocks and a 17-row tail
    params = ChannelParams(2 * band_matrix._GRAM_ROWS + 17, 2, (
        DiagonalSpec(-2, 0.5, RAYLEIGH), DiagonalSpec(0, 1.0, UNIFORM_PHASE),
        DiagonalSpec(1, 0.7, rician(0.3 + 0.4j, 0.5))))
    got = moments_worker(params)(derive_stream(3, 0))
    a = gram(generate_channel(params, derive_stream(3, 0)))
    assert got.tobytes() == np.array([trace_moment(a, p) for p in (1, 2, 3)]).tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_moments_replicate_never_holds_the_whole_gram(k):
    # the whole Gram (2.6 MB here at K = 1) sat beside the channel
    params = wyner(2**16, k, 0.5, 0.5, RAYLEIGH)
    assert moments_replicate_excess_bytes(params, derive_stream(0, 0)) < 1e6


@pytest.mark.parametrize("nu,p", [(1e60, 3), (1e100, 2)])
def test_trace_moment_past_a_double_raises(nu, p, rng):
    # einsum overflowed to inf without a warning, and inf entered the mean
    a = gram(generate_channel(wyner(16, 1, 0.5, 0.5, rician(nu, 1.0)), rng))
    with pytest.raises(FloatingPointError, match=rf"trace\(A\^{p}\) / n = inf is not finite"):
        trace_moment(a, p)


def test_first_moment_ensemble_mean():
    # 200-replicate ensemble mean of trace/N against the 1 + 2 alpha^2 limit
    n, n_reps, alpha = 2048, 200, 0.5
    params = wyner(n, 1, alpha, alpha, RAYLEIGH)
    total = 0.0
    for r in range(n_reps):
        rng = np.random.default_rng(r)
        total += trace_moment(gram(generate_channel(params, rng)), 1)
    want = 1.0 + 2 * alpha**2
    assert abs(total / n_reps / want - 1.0) < 0.01


def test_trace_moments_match_eigenvalue_route(rng):
    params = wyner(128, 2, 0.7, 0.5, RAYLEIGH)
    a = gram(generate_channel(params, rng))
    s = eigenvalues(a)
    for p in (1, 2, 3):
        assert trace_moment(a, p) == pytest.approx(np.mean(s.eigenvalues**p), rel=1e-9)


def test_ks_distance_cases():
    s = EmpiricalSpectrum(np.array([0.3, 0.9, 1.4]))
    assert s.ks_distance(lambda x: np.searchsorted(s.eigenvalues, x, side="right") / s.n) == 0.0
    single = EmpiricalSpectrum(np.array([0.5]))
    uniform_cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert single.ks_distance(uniform_cdf) == pytest.approx(0.5)


def scattered_profile(params):
    """``power_profile``'s band cells on an ``N x N*K`` grid of zeros."""
    row, col, value = power_profile(params)
    grid = np.zeros((params.n_cells, params.n_cells * params.users_per_cell))
    grid[row, col] = value
    return grid


def test_power_profile_diagonal_only():
    params = wyner(8, 1, 0.0, 0.0, RAYLEIGH)
    grid = scattered_profile(params)
    assert grid.shape == (8, 8)
    assert np.allclose(np.diag(grid), 1.0)
    assert np.count_nonzero(grid - np.diag(np.diag(grid))) == 0


def test_power_profile_row_mass():
    params = wyner(10, 3, 0.5, 0.4, RAYLEIGH)
    grid = scattered_profile(params)
    assert grid.shape == (10, 30)
    # interior rows: each of K columns per block carries gain^2 * m2
    interior = grid[1:-1].sum(axis=1)
    want = 3 * (1.0 + 0.25 + 0.16)
    assert np.allclose(interior, want, rtol=1e-13)
    # refined grid agrees with the natural one on block centers
    fine = dense_profile(params, 20, 60)
    assert np.allclose(fine[::2, ::2], grid)


def test_power_profile_never_converges_uniformly():
    m2 = RAYLEIGH.amplitude_moment(2)
    for n in (16, 32, 64):
        pa = wyner(n, 1, 0.5, 0.5, RAYLEIGH)
        pb = wyner(2 * n, 1, 0.5, 0.5, RAYLEIGH)
        assert power_profile_sup_diff(pa, pb) >= 0.5 * m2


_LAWS = st.sampled_from([DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE]) | st.builds(
    rician, st.complex_numbers(max_magnitude=2.0), st.floats(0.1, 2.0))
_DIAGONALS = st.lists(
    st.builds(DiagonalSpec, st.integers(-2, 2), st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
              _LAWS),
    min_size=1, max_size=5, unique_by=lambda d: d.offset)


@given(k=st.integers(1, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_power_profile_matches_dense_oracle(k, data):
    # the kind's own pairs (one channel at N and 2N) and pairs of two
    # channels, of other laws and gains, at orders that need not divide
    diagonals_a = data.draw(_DIAGONALS)
    diagonals_b = data.draw(st.just(diagonals_a) | _DIAGONALS)
    reach = max(abs(d.offset) for d in diagonals_a + diagonals_b)
    n_a = data.draw(st.integers(2 * reach + 1, 16))
    n_b = data.draw(st.just(2 * n_a) | st.integers(2 * reach + 1, 16))
    pa = ChannelParams(n_a, k, tuple(diagonals_a))
    pb = ChannelParams(n_b, k, tuple(diagonals_b))
    rows = math.lcm(n_a, n_b)
    dense_gap = np.abs(dense_profile(pa, rows, rows * k) - dense_profile(pb, rows, rows * k)).max()
    assert power_profile_sup_diff(pa, pb) == dense_gap
    for p in (pa, pb):
        assert scattered_profile(p).tobytes() == dense_profile(p, p.n_cells, p.n_cells * k).tobytes()


def test_power_profile_stays_in_the_band():
    # the N = 4096 profile lists about 12k band cells, where a dense
    # N x N*K grid takes hundreds of MB
    params = wyner(4096, 1, 0.5, 0.5, RAYLEIGH)
    tracemalloc.start()
    try:
        power_profile(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_power_profile_sup_diff_stays_in_the_band():
    # the benchmark's Wyner channel at N = 1024 vs 2048: the band holds a few
    # thousand cells, where two dense lcm x lcm*K grids take over 100 MB
    pa = wyner(1024, 1, 0.5, 0.5, RAYLEIGH)
    tracemalloc.start()
    try:
        gap = power_profile_sup_diff(pa, pa.with_size(2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap == 0.75
    assert peak < 8e6


def test_power_profile_sup_diff_requires_matching_k():
    pa = wyner(8, 1, 0.5, 0.5, RAYLEIGH)
    pb = wyner(8, 2, 0.5, 0.5, RAYLEIGH)
    with pytest.raises(ValueError):
        power_profile_sup_diff(pa, pb)
