import numpy as np
import pytest

from bandspec import (
    BandedHermitian,
    ChannelParams,
    DETERMINISTIC,
    DiagonalSpec,
    PivotError,
    RAYLEIGH,
    eigenvalues,
    generate_channel,
    gram,
    ldl_shifted,
    rician,
    wyner,
)

from conftest import random_banded


def test_zero_gain_neighbors_give_diagonal_matrix(rng):
    params = ChannelParams(
        3, 1,
        (
            DiagonalSpec(-1, 0.0, RAYLEIGH),
            DiagonalSpec(0, 1.0, RAYLEIGH),
            DiagonalSpec(1, 0.0, RAYLEIGH),
        ),
    )
    dense = generate_channel(params, rng).dense()
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
    assert np.count_nonzero(np.diag(dense)) == 3


def test_deterministic_structure_is_all_ones(rng):
    params = wyner(3, 2, alpha=1.0, beta=1.0, fading=DETERMINISTIC)
    dense = generate_channel(params, rng).dense()
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
    dense = generate_channel(params, rng).dense()
    in_range = sum(
        1
        for i in range(6)
        for off in (-1, 0, 1)
        if 0 <= i + off < 6
    )
    assert np.count_nonzero(dense) == 3 * in_range


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
    dense = channel.dense()
    oracle = dense @ dense.conj().T
    a = gram(channel)
    assert np.abs(a.to_dense() - oracle).max() < 1e-12
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
    dense = a.to_dense()
    assert np.abs(dense - dense.conj().T).max() == 0
    assert a.diag.min() >= 0
    frob_h = np.sum(np.abs(channel.dense()) ** 2)
    assert a.trace() == pytest.approx(frob_h, rel=1e-13)


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


def test_ldl_pivots_at_least_one(rng):
    params = wyner(50, 1, 1.0, 1.0, RAYLEIGH, power=100.0)
    a = gram(generate_channel(params, rng))
    for rho in (0.0, 1.0, 100.0):
        assert ldl_shifted(a, rho).min() >= 1 - 1e-9


def test_ldl_rejects_indefinite_input():
    a = BandedHermitian(np.array([-2.0, -2.0]), (np.zeros(1, dtype=complex),))
    with pytest.raises(PivotError):
        ldl_shifted(a, 1.0)
    with pytest.raises(ValueError):
        ldl_shifted(a, -1.0)


def test_ldl_rejects_non_finite_pivots(rng):
    a = random_banded(64, 2, rng)
    psd = BandedHermitian(a.diag + 20.0, a.sub)
    assert np.isfinite(ldl_shifted(psd, 1.0)).all()
    poisoned = psd.diag.copy()
    poisoned[10] = np.nan
    with pytest.raises(PivotError):
        ldl_shifted(BandedHermitian(poisoned, psd.sub), 1.0)
    for rho in (np.inf, np.nan):
        with pytest.raises(ValueError):
            ldl_shifted(psd, rho)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        wyner(2, 1, 0.5, 0.5, RAYLEIGH)  # too small for offsets +-1
    with pytest.raises(ValueError):
        ChannelParams(4, 1, (DiagonalSpec(0, 1.5, RAYLEIGH),))
    with pytest.raises(ValueError):
        ChannelParams(
            4, 1, (DiagonalSpec(0, 1.0, RAYLEIGH), DiagonalSpec(0, 0.5, RAYLEIGH))
        )
    params = wyner(8, 4, 0.5, 0.5, RAYLEIGH, power=10.0)
    assert params.rho == 2.5


def test_band_dump_round_trip(tmp_path, rng):
    a = random_banded(9, 2, rng)
    path = tmp_path / "matrix.bndh"
    a.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"BNDH"
    loaded = BandedHermitian.load(path)
    assert np.array_equal(loaded.diag, a.diag)
    for got, want in zip(loaded.sub, a.sub):
        assert np.array_equal(got, want)
    assert len(raw) == 20 + 16 * (9 + 8 + 7)


@pytest.mark.parametrize(
    "n,bandwidth,cut_bytes",
    [
        (8, 0, 16 * 3),  # diagonal short by three values
        (9, 2, 16 * 1),  # last sub-diagonal short by one value
        (9, 2, 16 * 9),  # second sub-diagonal missing entirely
    ],
)
def test_band_dump_truncated_body_raises(tmp_path, rng, n, bandwidth, cut_bytes):
    path = tmp_path / "matrix.bndh"
    random_banded(n, bandwidth, rng).save(path)
    path.write_bytes(path.read_bytes()[:-cut_bytes])
    with pytest.raises(ValueError):
        BandedHermitian.load(path)


def test_band_dump_truncated_header_raises(tmp_path, rng):
    path = tmp_path / "matrix.bndh"
    random_banded(4, 1, rng).save(path)
    path.write_bytes(path.read_bytes()[:12])
    with pytest.raises(ValueError):
        BandedHermitian.load(path)
