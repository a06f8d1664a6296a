import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky_banded

from bandspec import band_matrix
from bandspec import (
    BandedHermitian,
    ChannelParams,
    DETERMINISTIC,
    DiagonalSpec,
    PivotError,
    RAYLEIGH,
    UNIFORM_PHASE,
    derive_stream,
    eigenvalues,
    generate_channel,
    gram,
    ldl_shifted,
    log_ldl_shifted,
    rician,
    wyner,
)

from conftest import dense_band, dense_channel, gram_excess_bytes, random_banded, whole_array_gram


def test_zero_gain_neighbors_give_diagonal_matrix(rng):
    params = ChannelParams(
        3, 1,
        (
            DiagonalSpec(-1, 0.0, RAYLEIGH),
            DiagonalSpec(0, 1.0, RAYLEIGH),
            DiagonalSpec(1, 0.0, RAYLEIGH),
        ),
    )
    dense = dense_channel(generate_channel(params, rng))
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
    assert np.count_nonzero(np.diag(dense)) == 3


def test_deterministic_structure_is_all_ones(rng):
    params = wyner(3, 2, alpha=1.0, beta=1.0, fading=DETERMINISTIC)
    dense = dense_channel(generate_channel(params, rng))
    # every in-range block is a run of ones; corners stay zero
    assert dense.shape == (3, 6)
    expected = np.array(
        [
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [0, 0, 1, 1, 1, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(dense, expected)


def test_nonzero_count_matches_block_structure(rng):
    params = wyner(6, 3, alpha=0.7, beta=0.4, fading=RAYLEIGH)
    dense = dense_channel(generate_channel(params, rng))
    in_range = sum(
        1
        for i in range(6)
        for off in (-1, 0, 1)
        if 0 <= i + off < 6
    )
    assert np.count_nonzero(dense) == 3 * in_range


# sha256 of each offset's blocks for the channel below on derive_stream(2024, 7)
PINNED_DRAWS = {
    -2: "9d720d67c2308a2e7478e600d732c48ce80beeb423be5d79177823951183fe5b",
    0: "869a1a30f3c6ae9709c708f7eebd477bcd4142549a6ff75b85265d5c0750bee7",
    1: "d7d377dc651b7671b7105836fa4b35f0ce167b0c1e1f9d813f509171a3f72551",
    3: "043413a760c5575b6b578e796c68ad04e9a0508c6b17a6f3f9d90827b78d073c",
}


def test_draw_stream_is_pinned():
    """Every law, K = 2, gains below 1 and an offset gap keep the exact bits
    of the sampler that drew ``re`` and ``im`` as separate arrays and
    returned ``gain * (re + 1j * im) / sqrt(2)``, which gave these digests
    (little-endian IEEE doubles, numpy's Philox normals)."""
    params = ChannelParams(
        9, 2,
        (
            DiagonalSpec(-2, 0.5, RAYLEIGH),
            DiagonalSpec(0, 1.0, UNIFORM_PHASE),
            DiagonalSpec(1, 0.75, rician(0.3 + 0.4j, 0.5)),
            DiagonalSpec(3, 0.25, DETERMINISTIC),
        ),
    )
    blocks = generate_channel(params, derive_stream(2024, 7)).blocks
    digests = {o: hashlib.sha256(rows.tobytes()).hexdigest() for o, rows in blocks.items()}
    assert digests == PINNED_DRAWS


def test_gram_interior_stencil_deterministic():
    alpha = 0.3
    params = wyner(9, 1, alpha, alpha, DETERMINISTIC)
    a = gram(generate_channel(params, np.random.default_rng(0)))
    assert a.bandwidth == 2
    assert np.allclose(a.diag[2:-2], 1 + 2 * alpha**2, atol=1e-15)
    assert np.allclose(a.sub[0][1:-1], 2 * alpha, atol=1e-15)
    assert np.allclose(a.sub[1], alpha**2, atol=1e-15)


def test_gram_zero_gains_diagonal(rng):
    params = wyner(5, 3, 0.0, 0.0, RAYLEIGH)
    channel = generate_channel(params, rng)
    a = gram(channel)
    assert a.bandwidth == 0
    expected = np.sum(np.abs(channel.blocks[0]) ** 2, axis=1)
    assert np.allclose(a.diag, expected, rtol=1e-14)


@pytest.mark.parametrize(
    "offsets,gains",
    [
        (((-1, 0, 1)), (0.5, 1.0, 0.9)),
        (((-2, 0, 1)), (0.8, 1.0, 0.3)),
        (((0, 3)), (1.0, 0.6)),
    ],
)
def test_gram_matches_dense_oracle(offsets, gains, rng):
    diagonals = tuple(
        DiagonalSpec(o, g, RAYLEIGH) for o, g in zip(offsets, gains)
    )
    params = ChannelParams(8, 2, diagonals)
    channel = generate_channel(params, rng)
    dense = dense_channel(channel)
    oracle = dense @ dense.conj().T
    a = gram(channel)
    assert np.abs(dense_band(a) - oracle).max() < 1e-12
    # bandedness beyond the offset spread
    spread = max(offsets) - min(offsets)
    n = params.n_cells
    for i in range(n):
        for j in range(n):
            if abs(i - j) > spread:
                assert oracle[i, j] == 0


def test_gram_symmetry_and_trace_conservation(rng):
    params = wyner(12, 2, 0.6, 0.4, rician(0.5, 0.75))
    channel = generate_channel(params, rng)
    a = gram(channel)
    dense = dense_band(a)
    assert np.abs(dense - dense.conj().T).max() == 0
    assert a.diag.min() >= 0
    frob_h = np.sum(np.abs(dense_channel(channel)) ** 2)
    assert a.diag.sum() == pytest.approx(frob_h, rel=1e-13)


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
def test_gram_row_blocks_keep_the_whole_array_bits(offsets, k, draws, n, block_rows, seed):
    n = max(n, 2 * max(abs(o) for o in offsets) + 1)
    params = ChannelParams(n, k, tuple(
        DiagonalSpec(o, gain, law) for o, (law, gain) in zip(offsets, draws)))
    channel = generate_channel(params, np.random.default_rng(seed))
    want = whole_array_gram(channel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(band_matrix, "_GRAM_ROWS", block_rows)
        got = gram(channel)
    assert got.diag.tobytes() == want.diag.tobytes()
    assert len(got.sub) == len(want.sub)
    for g, w in zip(got.sub, want.sub):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_gram_temporaries_stay_one_row_block(k):
    # the whole-array sums held 2.1 MB (K = 1) and 4.2 MB (K = 3) above the
    # output here, and grew with N
    channel = generate_channel(wyner(2**16, k, 0.5, 0.5, RAYLEIGH), derive_stream(0, 0))
    assert gram_excess_bytes(channel) < 1e6


def test_ldl_diagonal_case(rng):
    a = BandedHermitian(np.array([1.0, 2.0, 3.0]), ())
    d = ldl_shifted(a, 0.5)
    assert np.allclose(d, [1.5, 2.0, 2.5], rtol=1e-15)
    assert np.allclose(ldl_shifted(a, 0.0), 1.0)


def test_ldl_matches_two_diagonal_recursion(rng):
    power = 1.0
    params = wyner(200, 1, alpha=1.0, beta=0.0, fading=RAYLEIGH, power=power)
    channel = generate_channel(params, rng)
    pa = power * np.abs(channel.blocks[0][:, 0]) ** 2
    pb = power * np.abs(channel.blocks[-1][:, 0]) ** 2
    d_expected = np.empty(200)
    d_expected[0] = 1 + pa[0] + pb[0]
    for i in range(1, 200):
        d_expected[i] = 1 + pa[i] + pb[i] * (1 - pa[i - 1] / d_expected[i - 1])
    d = ldl_shifted(gram(channel), power)
    assert np.abs(d - d_expected).max() < 1e-12


def test_ldl_logdet_matches_eigenvalues(rng):
    for k in (1, 2):
        params = wyner(64, k, 0.8, 0.5, RAYLEIGH)
        a = gram(generate_channel(params, rng))
        lam = eigenvalues(a).eigenvalues
        for rho in (0.1, 1.0, 10.0):
            logdet_ldl = np.log(ldl_shifted(a, rho)).sum()
            logdet_eig = np.log1p(rho * lam).sum()
            assert logdet_ldl == pytest.approx(logdet_eig, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    bandwidth=st.integers(0, 3),
    n=st.integers(1, 64),
    k=st.integers(1, 3),
    # float64 keeps no relative precision below 2.2e-308, so gains stay 0 or
    # above 1e-100 and no entry of A or rho * A is subnormal
    gains=st.lists(st.just(0.0) | st.floats(1e-100, 1.0), min_size=4, max_size=4),
    fading=st.sampled_from([RAYLEIGH, UNIFORM_PHASE, rician(0.3 + 0.4j, 0.5)]),
    rho=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_ldl_matches_eigen_shannon_transform(bandwidth, n, k, gains, fading, rho, seed):
    # random PSD Gram matrices of complex channels, offsets centred on 0
    offsets = range(-(bandwidth // 2), bandwidth - bandwidth // 2 + 1)
    n = max(n, 2 * max(abs(o) for o in offsets) + 1)
    params = ChannelParams(
        n, k, tuple(DiagonalSpec(o, g, fading) for o, g in zip(offsets, gains))
    )
    a = gram(generate_channel(params, np.random.default_rng(seed)))
    via_eig = eigenvalues(a).shannon_transform(rho)
    via_ldl = log_ldl_shifted(a, rho).mean()
    # C2's tolerance; the absolute floor only matters where both sides are 0
    assert via_ldl == pytest.approx(via_eig, rel=1e-10, abs=0.0)


def test_log_ldl_keeps_digits_below_rounding_of_one():
    # det(I + rho A) = 1 + 3e-10 exactly here (a11 a22 = |a21|^2), and
    # 1 + 1e-10 keeps only ~7 digits of 1e-10: the excess keeps them all
    a = BandedHermitian(np.array([1e-4, 2e-4]), (np.array([1e-4 + 1e-4j]),))
    exact = np.log1p(3e-10)
    assert log_ldl_shifted(a, 1e-6).sum() == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert np.log(ldl_shifted(a, 1e-6)).sum() != pytest.approx(exact, rel=1e-9, abs=0.0)


def test_ldl_pivots_at_least_one(rng):
    params = wyner(50, 1, 1.0, 1.0, RAYLEIGH, power=100.0)
    a = gram(generate_channel(params, rng))
    for rho in (0.0, 1.0, 100.0):
        assert ldl_shifted(a, rho).min() >= 1 - 1e-9


@pytest.mark.parametrize("bandwidth", [1, 2])
def test_ldl_rejects_indefinite_input(bandwidth):
    n = bandwidth + 1
    zeros = tuple(np.zeros(n - k, dtype=complex) for k in range(1, bandwidth + 1))
    a = BandedHermitian(np.full(n, -2.0), zeros)
    with pytest.raises(PivotError):
        ldl_shifted(a, 1.0)
    with pytest.raises(ValueError):
        ldl_shifted(a, -1.0)


@pytest.mark.parametrize("bandwidth", [1, 2])
def test_ldl_rejects_non_finite_pivots(bandwidth, rng):
    a = random_banded(64, bandwidth, rng)
    psd = BandedHermitian(a.diag + 20.0, a.sub)
    assert np.isfinite(ldl_shifted(psd, 1.0)).all()
    # rho = 0 scales an infinite entry to NaN, as complex products do at any rho
    for bad, rho in itertools.product((np.nan, np.inf, -np.inf), (0.0, 1.0)):
        poisoned = psd.diag.copy()
        poisoned[10] = bad
        with pytest.raises(PivotError):
            ldl_shifted(BandedHermitian(poisoned, psd.sub), rho)
        # dpttrf stops only at a pivot <= 0: a NaN off-diagonal gives info = 0
        for k in range(bandwidth):
            sub = list(psd.sub)
            sub[k] = sub[k].copy()
            sub[k][10] = bad
            with pytest.raises(PivotError):
                ldl_shifted(BandedHermitian(psd.diag, tuple(sub)), rho)
    for rho in (np.inf, np.nan):
        with pytest.raises(ValueError):
            ldl_shifted(psd, rho)


@pytest.mark.parametrize("rho", [1e200, 1e300, 1.7e308])
@pytest.mark.parametrize("bandwidth", [0, 1, 2])
def test_ldl_at_huge_rho_factors_or_raises_pivot_error(bandwidth, rho, rng):
    # where the scaled band or a pivot overflows, that is a PivotError, never
    # a RuntimeWarning
    alpha, beta = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)][bandwidth]
    a = gram(generate_channel(wyner(64, 1, alpha, beta, RAYLEIGH), rng))
    assert a.bandwidth == bandwidth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pivots = log_ldl_shifted(a, rho)
        except PivotError:
            return
    assert np.isfinite(pivots).all()


def cholesky_excess(a, rho):
    # the banded Cholesky route for every bandwidth: the oracle for dpttrf
    ab = a.lower_band() * rho
    ab[0] += 1.0
    factor = cholesky_banded(ab, lower=True)
    excess = rho * a.diag
    for j in range(1, a.bandwidth + 1):
        excess[j:] -= np.abs(factor[j, : a.n - j]) ** 2
    return excess


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4096])
@pytest.mark.parametrize("bandwidth,off", [
    (0, None), (1, "complex"), (1, "imaginary"), (1, "zero"),
])
def test_tridiagonal_route_matches_cholesky_oracle(bandwidth, off, n, rng):
    x, y = rng.standard_normal((2, n - 1))
    subs = {None: (), "complex": (x + 1j * y,), "imaginary": (1j * y,),
            "zero": (np.zeros(n - 1, dtype=complex),)}[off]
    # a nonnegative diagonal that dominates its rows: PSD by Gershgorin
    diag = rng.uniform(0.1, 1.0, n)
    for s in subs:
        diag[1:] += np.abs(s)
        diag[:-1] += np.abs(s)
    a = BandedHermitian(diag, subs)
    assert a.bandwidth == bandwidth
    # from rho ~ 1e154 the (rho |s|)^2 form overflowed; the multipliers do not
    for rho in (0.0, 1e-6, 1.0, 1e6, 1e200, 1e300):
        want = cholesky_excess(a, rho)
        assert np.max(np.abs(ldl_shifted(a, rho) - (1.0 + want)) / (1.0 + want)) <= 1e-11
        assert log_ldl_shifted(a, rho).mean() == pytest.approx(
            np.log1p(want).mean(), rel=1e-13, abs=0.0)


GRID = (0.0, 1e-6, 1e-3, 1.0, 10.0, 1e4, 1e8)


def offset_channel(n, k, bandwidth, fading):
    # offsets 0..bandwidth: a Gram bandwidth of exactly ``bandwidth``
    gains = (1.0, 0.7, 0.4, 0.3)
    return ChannelParams(n, k, tuple(
        DiagonalSpec(o, gains[o], fading) for o in range(bandwidth + 1)))


@pytest.mark.parametrize("fading", [RAYLEIGH, rician(0.6 + 0.3j, 0.5)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3])
def test_grid_rows_equal_scalar_calls_bit_for_bit(bandwidth, k, fading, rng):
    a = gram(generate_channel(offset_channel(97, k, bandwidth, fading), rng))
    assert a.bandwidth == bandwidth
    pivots, logs = ldl_shifted(a, GRID), log_ldl_shifted(a, np.array(GRID))
    assert pivots.shape == logs.shape == (len(GRID), a.n)
    for i, rho in enumerate(GRID):
        assert np.array_equal(pivots[i], ldl_shifted(a, rho))
        assert np.array_equal(logs[i], log_ldl_shifted(a, rho))
        if bandwidth >= 2:
            # and the stack equals the banded Cholesky of one shift alone
            assert np.array_equal(pivots[i], 1.0 + cholesky_excess(a, rho))


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3])
def test_grid_spanning_several_stacks_keeps_the_bits(bandwidth, rng, monkeypatch):
    a = gram(generate_channel(offset_channel(64, 2, bandwidth, RAYLEIGH), rng))
    whole = log_ldl_shifted(a, GRID)
    # three shifts per factorization, then one (below the order of one shift)
    for order in (3 * 64 + 5, 1):
        monkeypatch.setattr(band_matrix, "_STACK_ORDER", order)
        assert len(band_matrix._stack_slices(a.n, len(GRID))) > 2
        assert np.array_equal(log_ldl_shifted(a, GRID), whole)


@pytest.mark.parametrize("bandwidth", [0, 1, 2])
def test_grid_with_an_overflowing_rho_raises_pivot_error(bandwidth, rng):
    # the channels of the huge-rho test above, whose factorization at
    # 1.7e308 overflows: one such rho fails the grid, with no RuntimeWarning
    alpha, beta = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)][bandwidth]
    a = gram(generate_channel(wyner(64, 1, alpha, beta, RAYLEIGH), rng))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for huge in (1e300, 1.7e308):
            try:
                log_ldl_shifted(a, huge)
            except PivotError:
                with pytest.raises(PivotError):
                    log_ldl_shifted(a, [1.0, huge, 10.0])
            else:
                assert np.array_equal(log_ldl_shifted(a, [1.0, huge, 10.0])[1],
                                      log_ldl_shifted(a, huge))
        with pytest.raises(PivotError):
            log_ldl_shifted(a, [1.0, 1.7e308, 10.0])


def test_scalar_rho_gives_one_row_and_bad_grids_are_rejected(rng):
    a = random_banded(16, 2, rng)
    psd = BandedHermitian(a.diag + 20.0, a.sub)
    assert ldl_shifted(psd, 1.0).shape == log_ldl_shifted(psd, np.float64(1.0)).shape == (16,)
    assert ldl_shifted(psd, [1.0]).shape == (1, 16)
    assert ldl_shifted(psd, []).shape == (0, 16)
    for bad in ([1.0, -1.0], [1.0, np.nan], [[1.0]]):
        with pytest.raises(ValueError):
            ldl_shifted(psd, bad)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        wyner(2, 1, 0.5, 0.5, RAYLEIGH)  # too small for offsets +-1
    with pytest.raises(ValueError):
        ChannelParams(4, 1, (DiagonalSpec(0, 1.5, RAYLEIGH),))
    with pytest.raises(ValueError):
        ChannelParams(
            4, 1, (DiagonalSpec(0, 1.0, RAYLEIGH), DiagonalSpec(0, 0.5, RAYLEIGH))
        )


@pytest.mark.parametrize("power", [-1.0, float("nan"), float("inf")])
def test_channel_params_reject_bad_power(power):
    with pytest.raises(ValueError):
        wyner(8, 1, 0.5, 0.5, RAYLEIGH, power=power)
