import numpy as np
import pytest

from bandspec import (
    PivotError,
    RAYLEIGH,
    chain_vs_ldl,
    narula_capacity,
    narula_stationary_cdf,
    simulate_chain,
)
from bandspec.narula_chain import _pivots
from bandspec.spectral import EmpiricalSpectrum


def loop_pivots(pa, pb):
    # the recursion written out step by step: the oracle for the dpttrf path
    d = np.empty(len(pa))
    d_prev = d[0] = 1.0 + pa[0] + pb[0]
    for i in range(1, len(pa)):
        d_prev = 1.0 + pa[i] + pb[i] * (1.0 - pa[i - 1] / d_prev)
        d[i] = d_prev
    return d


def fixed_point(power):
    # solve d = 1 + P + P (1 - P/d) for unit-amplitude taps
    return ((1 + 2 * power) + np.sqrt((1 + 2 * power) ** 2 - 4 * power**2)) / 2


def test_step_degenerate_cases():
    # zero power pins every pivot at 1; a zero b tap forgets the history
    assert np.array_equal(_pivots(np.zeros(3), np.zeros(3)), np.ones(3))
    assert _pivots(np.array([3.0, 3.0 * 4]), np.array([5.0, 0.0]))[1] == 1 + 3 * 4


def test_step_worked_example():
    # d_prev=2, |a_prev|=1, |b|=1, |a|=1, P=1 -> 1 + 1 + (1 - 1/2)
    d = _pivots(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    assert d[0] == 2.0
    assert d[1] == pytest.approx(2.5)


@pytest.mark.parametrize("power", [0.5, 1.0, 10.0])
def test_deterministic_taps_reach_fixed_point(power):
    d = _pivots(np.full(1001, power), np.full(1001, power))
    want = fixed_point(power)
    assert abs(np.log(d[-1]) - np.log(want)) < 1e-9


@pytest.mark.parametrize("power", [1.0, 10.0, 100.0, 1e4])
def test_pivots_match_loop_oracle(power):
    rng = np.random.default_rng(int(power))
    pa = power * np.abs(RAYLEIGH.sample(rng, 10**5)) ** 2
    pb = power * np.abs(RAYLEIGH.sample(rng, 10**5)) ** 2
    want = loop_pivots(pa, pb)
    got = _pivots(pa, pb)
    assert np.max(np.abs(got - want) / want) <= 1e-11
    assert abs(np.log(got).mean() - np.log(want).mean()) <= 1e-13
    assert got.min() >= 1.0


def test_pivots_single_step():
    assert np.array_equal(_pivots(np.array([2.0]), np.array([0.5])), [3.5])


def test_pivots_reject_non_finite_taps():
    with pytest.raises(PivotError):
        _pivots(np.array([1.0, np.inf, 1.0]), np.ones(3))


@pytest.mark.parametrize("power", [1e200, 1.7e308])
def test_overflowing_power_raises_pivot_error(power):
    # the tap powers or their products overflow; that is a PivotError, not a RuntimeWarning
    with pytest.raises(PivotError):
        simulate_chain(power, 1000, 10, np.random.default_rng(0))


def test_chain_vs_ldl_overflow_raises_pivot_error():
    # the recursion's tap powers overflow before the Gram matrix is factored
    with pytest.raises(PivotError):
        chain_vs_ldl(64, 1e200, np.random.default_rng(0))


@pytest.mark.parametrize("power", [-1.0, np.nan, np.inf])
def test_bad_power_rejected(power):
    with pytest.raises(ValueError):
        simulate_chain(power, 100, 10, np.random.default_rng(0))


def test_chain_samples_respect_bounds(rng):
    run = simulate_chain(5.0, 20_000, 1_000, rng)
    assert run.samples.min() >= 1.0
    assert len(run.samples) == 19_000
    assert run.log_mean_stderr > 0


def test_chain_keeps_the_logs_it_averages(rng):
    # the narula runner writes these as log_d, so they must be np.log's bytes
    run = simulate_chain(5.0, 5_000, 100, rng)
    assert run.logs.tobytes() == np.log(run.samples).tobytes()
    assert run.ergodic_log_mean == float(run.logs.mean())


def test_chain_determinism():
    a = simulate_chain(2.0, 5_000, 100, np.random.default_rng(42))
    b = simulate_chain(2.0, 5_000, 100, np.random.default_rng(42))
    assert np.array_equal(a.samples, b.samples)
    assert a.ergodic_log_mean == b.ergodic_log_mean


def test_burn_in_doubling_is_irrelevant():
    short = simulate_chain(10.0, 300_000, 1_000, np.random.default_rng(3))
    long = simulate_chain(10.0, 300_000, 10_000, np.random.default_rng(4))
    joint = np.hypot(short.log_mean_stderr, long.log_mean_stderr)
    assert abs(short.ergodic_log_mean - long.ergodic_log_mean) < 3 * joint


def test_single_chain_matches_quadrature_capacity(rng):
    run = simulate_chain(1.0, 10**6, 1_000, rng)
    assert abs(run.ergodic_log_mean - narula_capacity(1.0)) < 3 * run.log_mean_stderr


def test_chain_empirical_cdf_matches_stationary_law(rng):
    run = simulate_chain(1.0, 10**6 + 1_000, 1_000, rng)
    spectrum = EmpiricalSpectrum(run.samples)
    ks = spectrum.ks_distance(lambda x: narula_stationary_cdf(x, 1.0))
    assert ks < 0.01


def test_chain_vs_ldl_agreement(rng):
    assert chain_vs_ldl(1000, 1.0, rng) < 1e-11
    assert chain_vs_ldl(1000, 50.0, rng) < 1e-9
    assert chain_vs_ldl(3, 0.0, rng) == 0.0


def test_invalid_burn_in():
    with pytest.raises(ValueError):
        simulate_chain(1.0, 100, 100, np.random.default_rng(0))
