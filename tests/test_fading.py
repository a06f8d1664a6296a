import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, hyp1f1

from bandspec import (
    DETERMINISTIC,
    RAYLEIGH,
    UNIFORM_PHASE,
    FadingSpec,
    derive_stream,
    parse_spec_tag,
    rician,
)
from bandspec.fading import _DRAW_BUFFER, MomentUnavailableError


def batched_mc_moment(spec, order, n, rng, n_batches=100):
    """Monte Carlo amplitude moment with a batch-based standard error."""
    draws = np.abs(spec.sample(rng, n)) ** order
    batches = draws[: (n // n_batches) * n_batches].reshape(n_batches, -1).mean(axis=1)
    return draws.mean(), batches.std(ddof=1) / np.sqrt(n_batches)


def test_deterministic_samples_are_one(rng):
    assert np.all(DETERMINISTIC.sample(rng, 100) == 1.0)


def test_uniform_phase_has_unit_amplitude(rng):
    draws = UNIFORM_PHASE.sample(rng, 10_000)
    assert np.allclose(np.abs(draws), 1.0, atol=1e-15)


def test_rayleigh_power_law_of_large_numbers(rng):
    draws = RAYLEIGH.sample(rng, 10**6)
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.005


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_deterministic_and_uniform_phase_moments(m):
    assert DETERMINISTIC.amplitude_moment(2 * m) == 1.0
    assert UNIFORM_PHASE.amplitude_moment(2 * m) == 1.0


def test_rayleigh_even_moments_are_factorials():
    # |h|^2 is a unit-mean exponential, so E|h|^(2k) = k!
    assert RAYLEIGH.amplitude_moment(2) == pytest.approx(1.0, rel=1e-14)
    assert RAYLEIGH.amplitude_moment(4) == pytest.approx(2.0, rel=1e-14)
    assert RAYLEIGH.amplitude_moment(6) == pytest.approx(6.0, rel=1e-14)


def test_rayleigh_moments_match_monte_carlo(rng):
    n = 10**7
    draws = np.abs(RAYLEIGH.sample(rng, n))
    for order in (2, 4, 6):
        powers = draws**order
        batches = powers.reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / 10.0
        assert abs(powers.mean() - RAYLEIGH.amplitude_moment(order)) < 3 * se


def test_rician_moments_closed_form_and_monte_carlo(rng):
    spec = rician(0.8, 0.36)
    v, s2 = 0.64, 0.36
    assert spec.amplitude_moment(2) == pytest.approx(v + s2, rel=1e-13)
    assert spec.amplitude_moment(4) == pytest.approx(v**2 + 4 * v * s2 + 2 * s2**2, rel=1e-13)
    assert spec.amplitude_moment(6) == pytest.approx(
        v**3 + 9 * v**2 * s2 + 18 * v * s2**2 + 6 * s2**3, rel=1e-12
    )
    for order in (2, 4, 6):
        est, se = batched_mc_moment(spec, order, 10**6, rng)
        assert abs(est - spec.amplitude_moment(order)) < 3 * se


@pytest.mark.parametrize("nu", [0.0, 0.3 + 0.4j, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("s2", [1e-3, 0.36, 1.0, 10.0])
def test_even_rician_moments_match_hyp1f1(nu, s2):
    for m in range(1, 6):
        want = s2**m * gamma(m + 1) * hyp1f1(-m, 1.0, -abs(nu) ** 2 / s2)
        assert rician(nu, s2).amplitude_moment(2 * m) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_even_rician_moments_near_the_atom():
    # 1F1 overflows once |nu|^2 / s2 does; the polynomial holds down to s2 = 0
    for s2 in (1e-300, 1e-320, 0.0):
        assert [rician(1.0, s2).amplitude_moment(o) for o in (2, 4, 6)] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("nu,s2", [(1e200, 1.0), (1e154, 1e308), (1e200j, 0.0)])
def test_rician_mean_power_must_fit_a_double(nu, s2):
    # E|h|^2 = |nu|^2 + s2 past a double: its draws overflow |h|^2 too
    with pytest.raises(ValueError, match="overflows a double"):
        rician(nu, s2)


@pytest.mark.parametrize("nu,order", [(1e100, 4), (1e60, 6), (1e60, 8)])
def test_even_moment_past_a_double_is_unavailable(nu, order):
    # Python float ** raised a bare OverflowError
    spec = rician(nu, 1.0)
    assert spec.amplitude_moment(2) == 1.0 + nu**2
    with pytest.raises(MomentUnavailableError, match=f"moment order {order} .* overflows"):
        spec.amplitude_moment(order)


def rice_moment_mpmath(nu, s2, order):
    """s2^(p/2) Gamma(p/2 + 1) 1F1(-p/2, 1, -|nu|^2 / s2) at 60 digits."""
    with mp.workdps(60):
        s2, half = mp.mpf(s2), mp.mpf(order) / 2
        return float(s2**half * mp.gamma(half + 1) * mp.hyp1f1(-half, 1, -mp.mpf(abs(nu)) ** 2 / s2))


@pytest.mark.parametrize("ratio", [1e2, 1e8, 1e16, 0.99e17, 1.01e17, 1e18, 1e30, 1e300])
@pytest.mark.parametrize("order", [1, 3, 5, 7])
def test_odd_rician_moments_on_both_sides_of_the_series_switch(ratio, order):
    # an odd order has no closed form at any ratio |nu|^2 / s2, small, near
    # 1e17 or past a double's range; the even order next to it is the
    # polynomial, exact at every ratio
    spec = rician(0.6 - 0.8j, 1.0 / ratio)
    with pytest.raises(MomentUnavailableError, match=f"odd moment order {order} "):
        spec.amplitude_moment(order)
    want = rice_moment_mpmath(0.6 - 0.8j, 1.0 / ratio, order + 1)
    assert spec.amplitude_moment(order + 1) == pytest.approx(want, rel=2e-15, abs=0.0)


def test_odd_rician_moment_of_an_overflowed_ratio():
    # |nu|^2 / s2 = 1e500 and the atoms s2 = 0 are past a double's ratio: the
    # odd orders stay unavailable, the even ones are the powers of |nu|
    for spec, m2 in ((rician(1e100, 1e-300), 1e200), (rician(2.0, 0.0), 4.0),
                     (rician(1e120, 0.0), 1e240)):
        assert spec.amplitude_moment(2) == m2
        with pytest.raises(MomentUnavailableError):
            spec.amplitude_moment(3)
    assert rician(2.0, 0.0).amplitude_moment(4) == 16.0


LAWS = [DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE, rician(0.8, 0.36), rician(1.0, 0.0),
        rician(0.0, 2.0), rician(1e100, 1.0)]


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec.tag)
@pytest.mark.parametrize("order", [1, 3, 5, 21])
def test_odd_orders_are_unavailable(spec, order):
    with pytest.raises(MomentUnavailableError, match=f"odd moment order {order} of"):
        spec.amplitude_moment(order)


@pytest.mark.parametrize("spec,nu,s2", [(RAYLEIGH, 0.0, 1.0), (DETERMINISTIC, 1.0, 0.0),
                                        (UNIFORM_PHASE, 1.0, 0.0)])
def test_every_law_is_its_rician_amplitude(spec, nu, s2):
    # the moments read the amplitude only: Rayleigh is |CN(0, 1)|, the others |h| = 1
    twin = rician(nu, s2)
    for m in range(1, 11):
        assert spec.amplitude_moment(2 * m).hex() == twin.amplitude_moment(2 * m).hex()
    assert spec.log2_amplitude_mean().hex() == twin.log2_amplitude_mean().hex()
    assert RAYLEIGH.amplitude_moment(20) == math.factorial(10)


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec.tag)
def test_log2_amplitude_mean_is_a_python_float(spec):
    assert type(spec.log2_amplitude_mean()) is float


@pytest.mark.parametrize("kind", ["deterministic", "rayleigh", "uniform-phase"])
@pytest.mark.parametrize("nu,s2", [(2.0, 0.0), (0.0, 1.0), (1j, 0.5), (float("nan"), 0.0)])
def test_non_rician_law_takes_no_nu_or_s2(kind, nu, s2):
    # sample and the moments ignored them, yet equality and hashing did not:
    # a rayleigh with nu = 2 wrote nan references, and its tag another config
    with pytest.raises(ValueError, match=f"{kind} takes no nu or s2"):
        FadingSpec(kind, nu, s2)
    assert FadingSpec(kind, 0j, 0.0) == FadingSpec(kind)


@given(
    nu=st.floats(min_value=0.0, max_value=5.0),
    s2=st.floats(min_value=1e-6, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_moment_inequalities_hold(nu, s2):
    spec = rician(nu, s2)
    m2 = spec.amplitude_moment(2)
    m4 = spec.amplitude_moment(4)
    assert m2**2 <= m4 * (1 + 1e-12)


@pytest.mark.parametrize("spec", [DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE, rician(1.0, 0.5)])
def test_seed_determinism(spec):
    a = spec.sample(np.random.default_rng(7), 1000)
    b = spec.sample(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def whole_size_draw(spec, rng, size):
    """The Gaussian laws' sample from one whole-size draw per half."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re * (1.0 / np.sqrt(2.0)), im * (1.0 / np.sqrt(2.0))
    if spec.kind == "rician":
        out *= np.sqrt(spec.s2)
        out += spec.nu
    return out


@pytest.mark.parametrize("spec", [RAYLEIGH, rician(0.3 + 0.4j, 0.5)])
@pytest.mark.parametrize("size", [1, _DRAW_BUFFER - 1, _DRAW_BUFFER, _DRAW_BUFFER + 1,
                                  (_DRAW_BUFFER + 5, 3)])
def test_gaussian_draws_through_a_bounded_buffer(spec, size):
    # Philox normals are the same stream in chunks as in one call, so the
    # buffer keeps the bytes; the whole-size scratch array is gone
    want = whole_size_draw(spec, derive_stream(5, 1), size)
    rng = derive_stream(5, 1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        got = spec.sample(rng, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the buffer's doubles, and a few KB of array headers and views
    assert peak - before - got.nbytes < 8 * min(got.size, _DRAW_BUFFER) + 4096


@pytest.mark.parametrize("size", [1, _DRAW_BUFFER, _DRAW_BUFFER + 1, (_DRAW_BUFFER + 5, 3),
                                  (2**18, 1)])
def test_uniform_phase_draws_through_a_bounded_buffer(size):
    # Philox uniforms are the same stream in chunks as in one call, so the
    # buffer keeps the bytes of exp(2j pi u) from one whole-size draw
    whole = 2j * np.pi * derive_stream(5, 1).random(size)
    want = np.exp(whole, out=whole)
    rng = derive_stream(5, 1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        got = UNIFORM_PHASE.sample(rng, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the buffer's doubles and a few KB of headers, under 0.1 MB at 2^18 draws
    # (a whole-size draw held 2.2 MB)
    assert peak - before - got.nbytes < 8 * min(got.size, _DRAW_BUFFER) + 4096


def test_sample_moments_converge_for_all_kinds(rng):
    for spec in (RAYLEIGH, UNIFORM_PHASE, rician(0.5, 0.75)):
        for order in (2, 4):
            est, se = batched_mc_moment(spec, order, 10**6, rng)
            tol = max(3 * se, 1e-12)
            assert abs(est - spec.amplitude_moment(order)) < tol


def test_tag_round_trip():
    for spec in (DETERMINISTIC, RAYLEIGH, UNIFORM_PHASE, rician(0.8, 0.36)):
        assert parse_spec_tag(spec.tag) == spec
    with pytest.raises(ValueError):
        parse_spec_tag("nakagami")
    with pytest.raises(ValueError):
        parse_spec_tag("rician:nu=0.8")


def test_non_string_tag_is_named():
    with pytest.raises(ValueError, match="fading tag must be a string, got 5"):
        parse_spec_tag(5)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["deterministic", "rayleigh", "uniform-phase", "rician"]),
    nu_re=finite,
    nu_im=finite,
    s2=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
def test_tag_round_trip_is_lossless(kind, nu_re, nu_im, s2):
    nu = complex(nu_re, nu_im)
    if kind == "rician":
        if nu_re == nu_im == s2 == 0:
            s2 = 1.0
        if not math.isfinite(nu_re * nu_re + nu_im * nu_im + s2):  # E|h|^2 past a double
            with pytest.raises(ValueError, match="overflows a double"):
                rician(nu, s2)
            return
    elif nu != 0 or s2 != 0:
        with pytest.raises(ValueError, match="takes no nu or s2"):
            FadingSpec(kind, nu, s2)
        return
    spec = FadingSpec(kind, nu, s2)  # every spec that can be built
    assert parse_spec_tag(spec.tag) == spec


def test_tag_keeps_phase_and_digits():
    assert rician(0.3 + 0.4j, 0.5).tag != rician(0.3, 0.5).tag
    assert rician(0.3 - 0.4j, 0.5).tag == "rician:nu=0.3-0.4j,s2=0.5"
    assert rician(0.123456789, 0.5).tag == "rician:nu=0.123456789,s2=0.5"
    # short decimals keep their historical tags
    assert rician(0.8, 0.36).tag == "rician:nu=0.8,s2=0.36"
    assert rician(2.0, 1.0).tag == "rician:nu=2,s2=1"


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        FadingSpec("lognormal")
    with pytest.raises(ValueError):
        rician(0.0, 0.0)  # atom at zero
    with pytest.raises(ValueError):
        RAYLEIGH.amplitude_moment(0)
