import numpy as np
import pytest

from bandspec import (
    BandedHermitian,
    DETERMINISTIC,
    RAYLEIGH,
    eigenvalues,
    generate_channel,
    gram,
    trace_moment,
    wyner,
)

from conftest import dense_eigenvalues, random_banded


def toeplitz_tridiag_eigs(n, alpha):
    k = np.arange(1, n + 1)
    return np.sort(1 + 2 * alpha * np.cos(k * np.pi / (n + 1)))


def test_tridiag_single_entry():
    a = BandedHermitian(np.array([4.2]), ())
    assert eigenvalues(a).eigenvalues == pytest.approx([4.2])


def test_tridiag_two_by_two_quadratic():
    a, c, b = 1.3, -0.4, 0.9
    t = BandedHermitian(np.array([a, c]), (np.array([b * np.exp(0.7j)]),))
    disc = np.sqrt((a - c) ** 2 + 4 * b**2)
    want = np.sort([(a + c - disc) / 2, (a + c + disc) / 2])
    assert np.allclose(eigenvalues(t).eigenvalues, want, atol=1e-14)


def test_subnormal_entries_do_not_derail_the_band_reduction():
    # LAPACK's complex band reduction put an eigenvalue 8.7e-3 off here
    tiny = 5e-324
    a = BandedHermitian(
        np.array([1.0, 0.4, 2.8, 0.1, 1.3]),
        (np.array([tiny * (-1 + 1j), 2 * tiny * (-1 - 1j), 0, 0]),
         np.array([1.1 + 0.6j, -0.1 - 0.1j, 0.03 - 0.16j])),
    )
    assert np.allclose(eigenvalues(a).eigenvalues, dense_eigenvalues(a), rtol=0, atol=1e-14)


def test_non_finite_eigenvalue_raises():
    # finite entries whose eigenvalue 2e308 overflows: the solve returns inf,
    # which the histogram of a spectrum run could not bin
    big = np.full(3, 1e308)
    a = BandedHermitian(big, (big[:2].astype(complex),))
    with pytest.raises(np.linalg.LinAlgError, match="non-finite eigenvalue"):
        eigenvalues(a)


def test_tridiag_toeplitz_closed_form():
    n, alpha = 512, 0.37
    t = BandedHermitian(np.ones(n), (np.full(n - 1, alpha, dtype=complex),))
    got = eigenvalues(t).eigenvalues
    assert np.abs(got - toeplitz_tridiag_eigs(n, alpha)).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_full_pipeline_deterministic_wyner(alpha):
    params = wyner(512, 1, alpha, alpha, DETERMINISTIC)
    a = gram(generate_channel(params, np.random.default_rng(0)))
    got = eigenvalues(a).eigenvalues
    want = np.sort(toeplitz_tridiag_eigs(512, alpha) ** 2)
    assert np.abs(got - want).max() < 1e-9


def test_diagonal_matrix_eigenvalues(rng):
    diag = rng.standard_normal(20)
    a = BandedHermitian(diag, ())
    assert np.allclose(eigenvalues(a).eigenvalues, np.sort(diag))


def test_conservation_laws(rng):
    for _ in range(5):
        a = random_banded(60, 2, rng)
        s = eigenvalues(a)
        assert s.eigenvalues.sum() == pytest.approx(a.diag.sum(), rel=1e-9, abs=1e-9)
        assert (s.eigenvalues**2).sum() == pytest.approx(a.n * trace_moment(a, 2), rel=1e-9)


def test_dense_oracle_equivalence_small(rng):
    # every bandwidth the band solver sees: diagonal, tridiagonal and wider
    for n in range(1, 17):
        for bandwidth in range(min(n - 1, 3) + 1):
            a = random_banded(n, bandwidth, rng)
            got = eigenvalues(a).eigenvalues
            assert np.abs(got - dense_eigenvalues(a)).max() < 1e-10


def test_gram_eigenvalues_nonnegative(rng):
    params = wyner(100, 2, 0.9, 0.7, RAYLEIGH)
    a = gram(generate_channel(params, rng))
    assert eigenvalues(a).eigenvalues.min() > -1e-10
