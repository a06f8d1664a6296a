import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import bandspec
from bandspec import (
    DETERMINISTIC,
    RAYLEIGH,
    UNIFORM_PHASE,
    ChannelParams,
    DiagonalSpec,
    exp_integral,
    generate_channel,
    gram,
    high_snr_params,
    limiting_moments,
    low_snr_params,
    marchenko_pastur_cdf,
    marchenko_pastur_pdf,
    narula_capacity,
    narula_stationary_cdf,
    narula_stationary_pdf,
    rician,
    trace_moment,
    walk_moments,
    wyner,
    wyner_capacity_large_k,
    wyner_capacity_nonfading,
)
from bandspec.closed_forms import _closed_walk_sum, _e1_scaled

import high_precision_oracles as oracles

EULER_GAMMA = float(np.euler_gamma)

# frozen with an independent 2^20-panel composite-Simpson oracle
SIMPSON_C_10_05 = 2.0683276284490972

# the high-precision quadrature values, each beside its arguments
ORACLE_TABLE = oracles.load()


def simpson_capacity(power, alpha, panels=2**16):
    f = np.linspace(0.0, 1.0, panels + 1)
    y = np.log1p(power * (1 + 2 * alpha * np.cos(2 * np.pi * f)) ** 2)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4, 2
    return (w * y).sum() / (3 * panels)


def test_import_leaves_quadrature_unloaded(tmp_path):
    # scipy.integrate pulls in scipy.optimize, and no baseline needs either.  A
    # subprocess: pytest's IntegrationWarning filter imports scipy.integrate here
    src = Path(bandspec.__file__).resolve().parents[1]
    code = f"""
import sys
import bandspec as bs
refs = [bs.wyner_capacity_nonfading(10.0, 0.5), bs.wyner_capacity_large_k(10.0, 0.5, 2.0, 0.3),
        bs.narula_capacity(10.0)]
narula = {{"kind": "narula", "p_grid": [1.0, 10.0], "n_steps": 2000, "burn_in": 10,
          "out_dir": {str(tmp_path / "narula")!r}}}
capacity = {{"kind": "capacity_vs_P", "p_grid": [1.0, 10.0], "replications": 2,
            "channel": {{"n_cells": 64, "alpha": 0.5, "fading": "deterministic"}},
            "out_dir": {str(tmp_path / "capacity")!r}}}
for data in (narula, capacity):
    refs += [r.reference for r in bs.run_experiment(bs.ExperimentConfig.from_dict(data)).results]
assert all(0 < r < 10 for r in refs), refs
print(sorted(m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.optimize"))))
"""
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "[]"


def test_e1_module_loads_with_the_first_e1(tmp_path):
    # Rayleigh moments, spectra and capacities need no E1, so scipy.special
    # stays unloaded until narula_capacity's first E1
    src = Path(bandspec.__file__).resolve().parents[1]
    code = f"""
import sys
import bandspec as bs
loaded = ["scipy.special" in sys.modules]
channel = {{"n_cells": 64, "alpha": 0.5, "fading": "rayleigh"}}
for kind, extra in (("moments", {{}}), ("spectrum", {{"histogram_bins": 10}}),
                    ("capacity_vs_P", {{"p_grid": [1.0, 10.0]}})):
    data = {{"kind": kind, "replications": 2, "channel": channel,
            "out_dir": {str(tmp_path)!r} + "/" + kind, **extra}}
    bs.run_experiment(bs.ExperimentConfig.from_dict(data))
    loaded.append("scipy.special" in sys.modules)
capacity = bs.narula_capacity(10.0)
loaded.append("scipy.special" in sys.modules)
print(loaded, repr(capacity))
"""
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == f"[False, False, False, False, True] {narula_capacity(10.0)!r}"


@pytest.mark.scale
def test_oracle_table_matches_its_quadratures():
    # the committed table is what the mpmath oracles give, value for value
    assert oracles.compute() == ORACLE_TABLE


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the jobs=2 run forks its workers")
def test_linalg_module_loads_with_the_first_factorization(tmp_path):
    # the closed forms, moments and the power profile factor nothing, so
    # scipy.linalg stays unloaded until a factorization or eigensolve, also
    # in a forked moments run; a forked run that factors loads it first, so
    # that no worker imports it again
    src = Path(bandspec.__file__).resolve().parents[1]
    code = f"""
import contextlib, io, sys
import bandspec as bs
from bandspec import cli, harness
loaded = ["scipy.linalg" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["closed-form", "--formula", "narula-capacity", "--pbar", "10"]) == 0
loaded.append("scipy.linalg" in sys.modules)
channel = {{"n_cells": 64, "alpha": 0.5, "fading": "rayleigh"}}
def run(kind, jobs=1, **extra):
    data = {{"kind": kind, "channel": channel, "out_dir": {str(tmp_path)!r} + "/" + kind,
            **extra}}
    bs.run_experiment(bs.ExperimentConfig.from_dict(data), jobs=jobs)
    loaded.append("scipy.linalg" in sys.modules)
run("moments", replications=2)
run("power_profile", n_grid=[8, 16])
if sys.argv[1] == "fork":
    # two workers whatever the host, each refusing to import scipy.linalg
    harness._usable_cpus = lambda: 2
    run("moments", jobs=2, replications=2)
    eigenvalues = harness.eigenvalues
    def worker_eigenvalues(a):
        if "scipy.linalg" not in sys.modules:
            raise RuntimeError("a worker would import scipy.linalg")
        return eigenvalues(a)
    harness.eigenvalues = worker_eigenvalues
    run("spectrum", jobs=2, replications=2, histogram_bins=10)
else:
    run("capacity_vs_P", replications=2, p_grid=[1.0, 10.0])
print(loaded)
"""
    for last, loaded in (("fork", "[False, False, False, False, False, True]"),
                         ("serial", "[False, False, False, False, True]")):
        run = subprocess.run(
            [sys.executable, "-c", code, last], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert run.stdout.strip() == loaded, last


class TestWynerNonfading:
    def test_alpha_zero_is_awgn(self):
        assert wyner_capacity_nonfading(7.0, 0.0) == pytest.approx(np.log(8.0), abs=1e-10)

    def test_zero_power(self):
        assert wyner_capacity_nonfading(0.0, 0.7) == 0.0

    def test_against_simpson_oracle(self):
        assert wyner_capacity_nonfading(10.0, 0.5) == pytest.approx(
            SIMPSON_C_10_05, abs=1e-8
        )
        assert wyner_capacity_nonfading(3.0, 0.9) == pytest.approx(
            simpson_capacity(3.0, 0.9), abs=1e-8
        )

    def test_monotone_in_power(self):
        caps = [wyner_capacity_nonfading(p, 0.4) for p in (0.0, 0.5, 1, 5, 50)]
        assert np.all(np.diff(caps) > 0)


class TestWynerLargeK:
    def test_zero_mean_reduces_to_constant_integrand(self):
        for alpha, m2, power in [(0.5, 1.0, 10.0), (0.9, 2.0, 3.0)]:
            want = np.log1p(power * m2 * (1 + 2 * alpha**2))
            got = wyner_capacity_large_k(power, alpha, m2, 0.0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_deterministic_collapses_to_nonfading(self, rng):
        for _ in range(20):
            power = float(rng.uniform(0.1, 50.0))
            alpha = float(rng.uniform(0.0, 1.0))
            lhs = wyner_capacity_large_k(power, alpha, 1.0, 1.0)
            rhs = wyner_capacity_nonfading(power, alpha)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("alpha", oracles.WYNER_ALPHAS)
    def test_against_high_precision_oracle(self, alpha):
        # the committed values of oracles.wyner_large_k, 20-digit quadrature
        rows = [row[1:] for row in ORACLE_TABLE["wyner_capacity_large_k"] if row[0] == alpha]
        assert [row[:3] for row in rows] == [
            [power, m2, mu] for power in oracles.WYNER_POWERS for m2, mu in oracles.WYNER_MOMENTS]
        for power, m2, mu, want in rows:
            got = wyner_capacity_large_k(power, alpha, m2, mu)
            assert got == pytest.approx(want, rel=2e-15, abs=0.0), (power, m2, mu)

    def test_correctly_rounded_at_the_c3_point(self):
        # 2.068327628449098002 to 19 digits; quad returned ...0977
        assert wyner_capacity_nonfading(10.0, 0.5) == 2.068327628449098

    def test_zero_power_and_validation(self):
        assert wyner_capacity_large_k(0.0, 0.5, 1.0, 0.5) == 0.0
        with pytest.raises(ValueError):
            wyner_capacity_large_k(1.0, 0.5, 0.5, 1.0)


# The hand-derived formulas that the walk sum replaced, kept as oracles of the
# symmetric three-diagonal uplink with a circular law: the three-moment
# polynomials in alpha^2 and the even amplitude moments (K = 1), and the
# low-SNR pair from the amplitude kurtosis m4 / m2^2 (any K).
def moment_polynomials(m2, m4, m6, alpha):
    a2 = alpha**2
    m1 = m2 + 2.0 * m2 * a2
    mm2 = m4 + 8.0 * m2**2 * a2 + (4.0 * m2**2 + 2.0 * m4) * a2**2
    mm3 = (
        m6
        + (6.0 * m2**3 + 12.0 * m2 * m4) * a2
        + (36.0 * m2**3 + 12.0 * m2 * m4) * a2**2
        + (6.0 * m2**3 + 12.0 * m2 * m4 + 2.0 * m6) * a2**3
    )
    return m1, mm2, mm3


def kurtosis_low_snr(k, alpha, m2, m4):
    a2 = alpha**2
    eb_n0_min = np.log(2.0) / (m2 * (1.0 + 2.0 * a2))
    kur = m4 / m2**2
    denom = kur + k - 1.0 + 4.0 * (1.0 + k) * a2 + 2.0 * (kur + 2.0 * k) * a2**2
    return float(eb_n0_min), float(2.0 * k * (1.0 + 2.0 * a2) ** 2 / denom)


CIRCULAR_LAWS = [RAYLEIGH, UNIFORM_PHASE, rician(0.0, 2.5)]


def even_moments(law):
    return [law.amplitude_moment(order) for order in (2, 4, 6)]


class TestLimitingMoments:
    def test_alpha_zero_returns_raw_moments(self):
        assert limiting_moments(1.0, 2.0, 6.0, 0.0) == (1.0, 2.0, 6.0)
        assert moment_polynomials(1.0, 2.0, 6.0, 0.0) == (1.0, 2.0, 6.0)

    def test_rayleigh_half(self):
        # substitution oracle: (m2, m4, m6) = (1, 2, 6), alpha = 1/2
        assert limiting_moments(1.0, 2.0, 6.0, 0.5) == (1.5, 4.5, 573 / 32)
        assert moment_polynomials(1.0, 2.0, 6.0, 0.5) == (1.5, 4.5, 573 / 32)

    def test_unit_amplitude_alpha_one(self):
        assert limiting_moments(1.0, 1.0, 1.0, 1.0) == (3.0, 15.0, 87.0)
        assert moment_polynomials(1.0, 1.0, 1.0, 1.0) == (3.0, 15.0, 87.0)

    @pytest.mark.parametrize("law", CIRCULAR_LAWS, ids=lambda law: law.tag)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_walk_sum_is_the_polynomials_exactly(self, law, alpha):
        want = moment_polynomials(*even_moments(law), alpha)
        assert walk_moments(wyner(8, 1, alpha, alpha, law)) == want
        assert limiting_moments(*even_moments(law), alpha) == want

    @pytest.mark.parametrize("law", CIRCULAR_LAWS, ids=lambda law: law.tag)
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
    def test_walk_sum_is_the_polynomials_to_rounding(self, law, alpha):
        want = moment_polynomials(*even_moments(law), alpha)
        got = walk_moments(wyner(8, 1, alpha, alpha, law))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_a_sum_or_moment_past_a_double_is_nan_at_every_order(self):
        # no inf and no warning, as for the amplitude moments it replaced
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # every amplitude moment fits a double, M2 and M3 do not
            assert np.isnan(limiting_moments(1e100, 1e300, 1e300, 0.5)).all()
            # E[h^2 conj(h)^2] of nu = 1e100 is past a double, E|h|^2 is not
            rich = wyner(8, 1, 0.5, 0.5, rician(1e100, 1.0))
            assert np.isnan(walk_moments(rich)).all()
            assert np.isnan(low_snr_params(rich)).all()
            assert walk_moments(rich, (1,)) == (1.5 * (1e200 + 1.0),)


def _channel(n, k, diagonals):
    return ChannelParams(n, k, tuple(DiagonalSpec(o, g, law) for o, g, law in diagonals))


# CI's K = 2 three-law channel on {-2, 0, 1}, Rician with a complex mean
THREE_LAWS = ((-2, 0.5, RAYLEIGH), (0, 1.0, UNIFORM_PHASE), (1, 0.7, rician(0.3 + 0.4j, 0.5)))
LAWS = [DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE, rician(0.3 + 0.4j, 0.5), rician(-0.6 + 0.2j, 0.3),
        rician(0.8, 0.36)]


class TestWalkMoments:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("diagonals", [
        ((-2, 0.5, DETERMINISTIC), (0, 1.0, rician(0.3 + 0.4j, 0.0)), (1, 0.7, rician(-0.6j, 0.0))),
        ((-1, 0.3, rician(0.3 + 0.4j, 0.0)), (2, 0.9, DETERMINISTIC)),
    ])
    def test_deterministic_channels_differ_from_it_only_at_the_edges(self, k, diagonals):
        # with no randomness, N (trace(A^p) / N - M_p) is the walks that the
        # matrix ends cut off: the same at every N past twice their reach
        ref = np.array(walk_moments(_channel(8, k, diagonals)))
        edges = []
        for n in (600, 1200):
            a = gram(generate_channel(_channel(n, k, diagonals), np.random.default_rng(0)))
            edges.append(n * (np.array([trace_moment(a, p) for p in (1, 2, 3)]) - ref))
        assert edges[1] == pytest.approx(edges[0], rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 3),
        diagonals=st.lists(st.tuples(st.integers(-2, 2), st.floats(0.1, 1.0), st.sampled_from(LAWS)),
                           min_size=1, max_size=3, unique_by=lambda d: d[0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_against_replicate_mean_trace_moments(self, k, diagonals, seed):
        n, replicates, orders = 4096, 16, (1, 2, 3)
        params = _channel(n, k, diagonals)
        streams = np.random.default_rng(seed).spawn(replicates)
        traces = np.array([[trace_moment(a, p) for p in orders]
                           for a in (gram(generate_channel(params, rng)) for rng in streams)])
        mean = traces.mean(axis=0)
        se = traces.std(axis=0, ddof=1) / np.sqrt(replicates)
        ref = np.array(walk_moments(params, orders))
        # a row within reach of an end of the matrix loses the walks that
        # leave it, whose expectations are at most the absolute walk sum
        laws = {o: (g, lambda a, b, law=law: abs(law.mixed_moment(a, b))) for o, g, law in diagonals}
        absolute = np.array(_closed_walk_sum(laws, k, orders))
        offsets = [o for o, _, _ in diagonals]
        reach = np.array(orders) * (max(offsets) - min(offsets)) + max(map(abs, offsets))
        edge = 2 * reach * absolute / n
        rounding = 1e-12 * absolute  # all there is when every law is deterministic
        assert np.all(np.abs(mean - ref) <= 4 * se + edge + rounding), (mean, se, ref, edge)

    def test_three_laws_reference(self):
        # the sums by hand: M1 = K sum_d g_d^2 E|h_d|^2 = 2 (0.25 + 1 + 0.49 * 0.75)
        assert walk_moments(_channel(8, 2, THREE_LAWS), (1,)) == (3.235,)

    def test_cost_does_not_grow_with_k(self):
        # past K = p every sharing pattern of the p steps has its users: the
        # same sum, with other weights; the two K alternate, so load hits both
        times = {3: [], 8: []}
        for _ in range(7):
            for k in times:
                params = _channel(8, k, THREE_LAWS)
                start = time.perf_counter()
                walk_moments(params)
                times[k].append(time.perf_counter() - start)
        assert min(times[8]) <= 1.5 * min(times[3])


# the elementwise functions of a point, each at a point of its domain
POINTWISE = {
    "narula_stationary_pdf": lambda x: narula_stationary_pdf(x, 2.0),
    "narula_stationary_cdf": lambda x: narula_stationary_cdf(x, 2.0),
    "marchenko_pastur_pdf": lambda x: marchenko_pastur_pdf(x, 2),
    "marchenko_pastur_cdf": lambda x: marchenko_pastur_cdf(x, 2),
    "exp_integral": exp_integral,
    "_e1_scaled": _e1_scaled,
}


@pytest.mark.parametrize("name", POINTWISE)
@pytest.mark.parametrize("x", [1.5, np.float64(1.5), np.array(1.5), [[1.5, 2.5]]],
                         ids=["float", "numpy_scalar", "0d_array", "list_1x2"])
def test_pointwise_functions_keep_the_argument_shape(name, x):
    f = POINTWISE[name]
    got = f(x)
    if np.isscalar(x):
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
    assert np.array_equal(np.ravel(got), [f(float(v)) for v in np.ravel(x)])


class TestExpIntegral:
    def test_against_mpmath(self):
        xs = np.logspace(-3, np.log10(500), 200)
        got = exp_integral(xs)
        want = np.array([float(mp.e1(x)) for x in xs])
        assert np.max(np.abs(got / want - 1)) < 1e-12

    def test_reference_value(self):
        assert exp_integral(1.0) == pytest.approx(0.21938393439552027, rel=1e-12)

    def test_leading_asymptotic(self):
        x = 50.0
        assert exp_integral(x) * x * np.exp(x) == pytest.approx(1.0, rel=0.02)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.05, 20.0, 100)
        assert np.all(np.diff(exp_integral(xs)) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral(0.0)
        with pytest.raises(ValueError):
            exp_integral(np.array([1.0, -2.0]))

    def test_shapes(self):
        assert np.isscalar(exp_integral(2.0))
        assert exp_integral(np.ones(5)).shape == (5,)

    def test_scaled_against_mpmath(self):
        # reaches the asymptotic-series branch, far past where E1 underflows
        xs = np.logspace(-4, 14, 400)
        got = _e1_scaled(xs)
        want = np.array([float(mp.exp(x) * mp.e1(x)) for x in xs])
        assert np.max(np.abs(got / want - 1)) <= 1e-14
        assert np.isscalar(_e1_scaled(60.0))


class TestNarulaStationary:
    @pytest.mark.parametrize("pbar", [0.5, 1.0, 10.0, 100.0])
    def test_pdf_normalizes(self, pbar):
        val, err = quad(
            lambda x: narula_stationary_pdf(x, pbar), 1.0, np.inf,
            epsabs=1e-12, epsrel=1e-12, limit=2000,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_pdf_support_and_sign(self):
        assert narula_stationary_pdf(1.0, 2.0) == 0.0
        assert narula_stationary_pdf(0.5, 2.0) == 0.0
        xs = np.linspace(1.0, 50.0, 200)
        assert np.all(narula_stationary_pdf(xs, 2.0) >= 0)

    @pytest.mark.parametrize("pbar", [0.5, 10.0])
    def test_cdf_matches_quadrature_oracle(self, pbar):
        for x in (1.5, 3.0, 10.0, 40.0):
            want, _ = quad(
                lambda t: narula_stationary_pdf(t, pbar), 1.0, x,
                epsabs=1e-12, epsrel=1e-12, limit=2000,
            )
            assert narula_stationary_cdf(x, pbar) == pytest.approx(want, abs=1e-9)

    def test_cdf_is_a_cdf(self):
        xs = np.linspace(0.0, 400.0, 500)
        f = narula_stationary_cdf(xs, 10.0)
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= -1e-15)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)

    def test_tiny_pbar_does_not_underflow(self):
        assert narula_stationary_cdf(1.001, 1e-4) > 0.9


class TestNarulaCapacity:
    def test_vanishes_at_small_power(self):
        assert narula_capacity(1e-4) < 1e-3

    def test_monotone(self):
        caps = [narula_capacity(p) for p in (0.1, 1.0, 10.0, 100.0)]
        assert np.all(np.diff(caps) > 0)

    def test_against_mpmath_oracle(self):
        # independent tanh-sinh quadrature of the stationary-mean integral
        def oracle(pbar):
            norm = mp.e1(1 / mp.mpf(pbar)) * pbar
            val = mp.quad(
                lambda x: mp.log(x) ** 2 * mp.e**(-x / pbar) / norm, [1, mp.inf]
            )
            return float(val)

        for pbar in (0.5, 10.0):
            assert narula_capacity(pbar) == pytest.approx(oracle(pbar), abs=1e-9)

    def test_against_high_precision_oracle(self):
        # the committed values of oracles.narula, 30-digit quadrature;
        # finite and silent out to pbar = 1e300
        rows = ORACLE_TABLE["narula_capacity"]
        assert [pbar for pbar, _ in rows] == list(oracles.NARULA_PBARS)
        for pbar, want in rows:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = narula_capacity(pbar)
            assert np.isfinite(got)
            assert got == pytest.approx(want, rel=2e-15, abs=0.0), pbar

    def test_low_snr_keeps_its_relative_digits(self):
        # 2 pbar - 4 pbar^2 + O(pbar^3), from E log(1 + pbar u)^2 = 2 pbar^2 - 6 pbar^3
        # + ... over E1s(1/pbar) = pbar - pbar^2 + ...: quad's absolute
        # tolerance returned 2.0000304e-12 here
        assert narula_capacity(1e-12) == pytest.approx(2e-12 - 4e-24, rel=2e-15, abs=0.0)


class TestLowSnr:
    def test_textbook_pairs(self):
        for law in (DETERMINISTIC, UNIFORM_PHASE):
            pair = low_snr_params(wyner(8, 1, 0.0, 0.0, law))
            assert pair == kurtosis_low_snr(1, 0.0, 1.0, 1.0) == (np.log(2.0), 2.0)
        pair = low_snr_params(wyner(8, 1, 0.0, 0.0, RAYLEIGH))
        assert pair == kurtosis_low_snr(1, 0.0, 1.0, 2.0) == (np.log(2.0), 1.0)

    def test_threshold_scaling_in_alpha(self):
        for m2 in (1.0, 2.5):
            law = rician(0.0, m2)  # m4 = 2 m2^2
            base, _ = low_snr_params(wyner(8, 3, 0.0, 0.0, law))
            third, _ = low_snr_params(wyner(8, 3, 1.0, 1.0, law))
            assert third == pytest.approx(base / 3.0, rel=1e-14)
            assert (base, third) == (kurtosis_low_snr(3, 0.0, m2, 2 * m2**2)[0],
                                     kurtosis_low_snr(3, 1.0, m2, 2 * m2**2)[0])

    def test_validation(self):
        # M1 = 0 when every gain is 0: no Eb/N0 and no slope
        silent = _channel(8, 2, ((-1, 0.0, RAYLEIGH), (0, 0.0, RAYLEIGH)))
        assert np.isnan(low_snr_params(silent)).all()
        with pytest.raises(ValueError):
            wyner(8, 0, 0.5, 0.5, RAYLEIGH)

    @pytest.mark.parametrize("law", CIRCULAR_LAWS, ids=lambda law: law.tag)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_walk_sum_is_the_kurtosis_formula_for_circular_laws(self, law, k, alpha):
        m2, m4, _ = even_moments(law)
        got = low_snr_params(wyner(8, k, alpha, alpha, law))
        assert got == pytest.approx(kurtosis_low_snr(k, alpha, m2, m4), rel=6e-16, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_rician_mean_is_not_circular(self, k):
        # E h = nu adds walks that the kurtosis formula lacks: it is off by 10-20%
        law = rician(0.8, 0.36)
        _, s0 = low_snr_params(wyner(8, k, 0.5, 0.5, law))
        _, kurtosis = kurtosis_low_snr(k, 0.5, *even_moments(law)[:2])
        assert s0 == pytest.approx((1.011508721452976, 1.189029223696031)[k - 1], rel=1e-15)
        assert kurtosis / s0 - 1 > 0.1


class TestHighSnr:
    def test_unit_amplitude_laws_have_zero_offset(self):
        assert high_snr_params(DETERMINISTIC, DETERMINISTIC) == (1.0, 0.0)
        assert high_snr_params(UNIFORM_PHASE, UNIFORM_PHASE) == (1.0, 0.0)

    def test_rayleigh_offset_is_euler_gamma_based(self):
        s_inf, l_inf = high_snr_params(RAYLEIGH, RAYLEIGH)
        assert s_inf == 1.0
        assert l_inf == pytest.approx(EULER_GAMMA / np.log(2.0), rel=1e-12)

    def test_rayleigh_analytic_matches_monte_carlo(self, rng):
        draws = np.log2(np.abs(RAYLEIGH.sample(rng, 10**7)))
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        want = -EULER_GAMMA / (2 * np.log(2.0))
        assert abs(draws.mean() - want) < 3 * se

    @pytest.mark.parametrize(
        "nu, s2", [(0.8, 0.36), (0.3 + 0.4j, 0.5), (2.0, 0.1), (0.05, 1.0), (0.0, 0.7)]
    )
    def test_rician_matches_rice_density_quadrature(self, nu, s2):
        # E log2|h| integrated against the Rice amplitude density
        r0 = abs(nu)

        def integrand(r):
            return (mp.log(r) * 2 * r / s2 * mp.exp(-(r**2 + r0**2) / s2)
                    * mp.besseli(0, 2 * r * r0 / s2))

        want = float(mp.quad(integrand, [0, r0, r0 + 10 * mp.sqrt(s2), mp.inf]) / mp.log(2))
        assert rician(nu, s2).log2_amplitude_mean() == pytest.approx(want, abs=1e-12)

    def test_rician_limits(self):
        # nu = 0 is Rayleigh scaled by s2; s2 = 0 is the atom at nu
        for s2 in (0.7, 1.0, 3.0):
            want = RAYLEIGH.log2_amplitude_mean() + np.log2(s2) / 2
            assert rician(0.0, s2).log2_amplitude_mean() == pytest.approx(want, abs=1e-15)
        assert rician(0.8, 0.0).log2_amplitude_mean() == pytest.approx(np.log2(0.8), abs=1e-15)
        assert rician(0.6j, 0.0).log2_amplitude_mean() == pytest.approx(np.log2(0.6), abs=1e-15)
        # |nu|^2 / s2 overflows, which must not leak an infinity
        assert rician(1.0, 1e-320).log2_amplitude_mean() == 0.0

    def test_rician_offset_uses_the_stronger_tap(self):
        strong, weak = rician(2.0, 0.1), rician(0.8, 0.36)
        want = -2.0 * strong.log2_amplitude_mean()
        assert high_snr_params(strong, weak) == (1.0, want)
        assert high_snr_params(weak, strong) == (1.0, want)


class TestMarchenkoPastur:
    def test_support_k1(self):
        assert marchenko_pastur_cdf(-1e-9, 1, 1.0) == 0.0
        assert marchenko_pastur_cdf(4.0, 1, 1.0) == 1.0
        assert marchenko_pastur_pdf(4.5, 1, 1.0) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_density_normalization_and_mean(self, k):
        sigma2 = 1.3
        y = 1.0 / k
        a = sigma2 * (1 - np.sqrt(y)) ** 2
        b = sigma2 * (1 + np.sqrt(y)) ** 2
        total = float(mp.quad(lambda x: marchenko_pastur_pdf(float(x), k, sigma2), [a, b]))
        mean = float(mp.quad(lambda x: float(x) * marchenko_pastur_pdf(float(x), k, sigma2), [a, b]))
        assert total == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(sigma2, abs=1e-8)

    @pytest.mark.parametrize("k", [1, 4])
    def test_cdf_matches_density_quadrature(self, k):
        y = 1.0 / k
        for sigma2 in (1.0, 1.3):
            a = sigma2 * (1 - np.sqrt(y)) ** 2
            b = sigma2 * (1 + np.sqrt(y)) ** 2
            edges = [a + 1e-9, b - 1e-9]
            for x in np.concatenate([np.linspace(a + 0.05, b - 0.05, 7), edges]):
                # the edge of the support is a node so the sqrt kink sits at an
                # interval boundary, where tanh-sinh quadrature handles it
                want = float(mp.quad(
                    lambda t: marchenko_pastur_pdf(float(t), k, sigma2), [a, x]
                ))
                assert marchenko_pastur_cdf(x, k, sigma2) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("sigma2", [2.0**-60, 0.5, 8.0, 2.0**900])
    def test_power_of_two_scale_is_exact(self, k, sigma2):
        # the law at scale sigma2 is the unit law at x / sigma2, exactly when
        # sigma2 is a power of two
        xs = np.linspace(-0.5, 6.0, 301)
        assert np.array_equal(marchenko_pastur_cdf(sigma2 * xs, k, sigma2),
                              marchenko_pastur_cdf(xs, k, 1.0))
        assert np.array_equal(marchenko_pastur_pdf(sigma2 * xs, k, sigma2),
                              marchenko_pastur_pdf(xs, k, 1.0) / sigma2)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_huge_scale_is_finite(self, k):
        # (b - x)(x - a) and a (b - x) are of order sigma2^2: at 1e300 they
        # overflowed, with a RuntimeWarning, into a nan CDF
        xs = np.linspace(0.01, 6.0, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = marchenko_pastur_cdf(1e300 * xs, k, 1e300)
            pdf = marchenko_pastur_pdf(1e300 * xs, k, 1e300)
        np.testing.assert_allclose(cdf, marchenko_pastur_cdf(xs, k, 1.0), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(1e300 * pdf, marchenko_pastur_pdf(xs, k, 1.0), rtol=1e-13)

    def test_cdf_monotone_in_bounds(self):
        # plus the first 2000 floats inside each edge, where rounding could
        # step past 0 or 1
        a, b = (1 - np.sqrt(0.5)) ** 2, (1 + np.sqrt(0.5)) ** 2
        ulps = np.arange(1, 2000)
        xs = np.sort(np.concatenate([
            np.linspace(-0.5, 5.0, 300), a + ulps * np.spacing(a), b - ulps * np.spacing(b)
        ]))
        f = marchenko_pastur_cdf(xs, 2, 1.0)
        assert np.all(np.diff(f) >= -1e-12)
        assert f.min() == 0.0 and f.max() == 1.0

