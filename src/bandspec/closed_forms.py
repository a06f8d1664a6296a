"""Analytic baselines for the banded-channel ensembles.

The Toeplitz-limit capacities are closed forms (Jensen's formula) and the
chain rate is one fixed double-exponential (exp-sinh) rule, so no quadrature
library is imported.  The exponential integral E1 comes from
:func:`scipy.special.exp1`, with an underflow-proof scaled form
``exp(x) * E1(x)`` for the stationary-density normalizations, which need it
at arguments where E1 itself underflows.  Everything else is an exact
formula: nothing here draws random numbers.  The functions of a point ``x``
give a float for a scalar ``x`` and an array of ``x``'s shape for an array.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import exp1

from .fading import FadingSpec

__all__ = [
    "wyner_capacity_nonfading",
    "wyner_capacity_large_k",
    "limiting_moments",
    "exp_integral",
    "narula_stationary_pdf",
    "narula_stationary_cdf",
    "narula_capacity",
    "low_snr_params",
    "high_snr_params",
    "marchenko_pastur_pdf",
    "marchenko_pastur_cdf",
]

# ---------------------------------------------------------------------------
# capacity integrals
# ---------------------------------------------------------------------------

def wyner_capacity_nonfading(power: float, alpha: float) -> float:
    """Per-cell sum-rate of the non-fading symmetric three-diagonal uplink.

    Large-N limit via the Toeplitz symbol: integrate
    ``log(1 + P * (1 + 2 alpha cos(2 pi f))^2)`` over one period.  The result
    is independent of the number of users per cell at fixed total power P:
    :func:`wyner_capacity_large_k` for unit-modulus deterministic entries.
    """
    return wyner_capacity_large_k(power, alpha, 1.0, 1.0)


def wyner_capacity_large_k(power: float, alpha: float, m2: float, mu: complex) -> float:
    """Per-cell sum-rate in the many-users-per-cell limit at fixed total P.

    The normalized Gram matrix consolidates to its mean and the rate becomes
    ``int_0^1 log(1 + P [sigma^2 (1 + 2 alpha^2)
    + |mu|^2 (1 + 2 alpha cos(2 pi t))^2]) dt`` with
    ``sigma^2 = m2 - |mu|^2`` the coefficient variance.  For zero-mean fading
    the integrand is constant; deterministic entries (``m2 = mu = 1``) give
    :func:`wyner_capacity_nonfading`.

    Exact to rounding: the integrand is ``log1p(P base) + log|A + B cos|^2``
    with ``A = 1 + i sqrt(q)``, ``B = 2i alpha sqrt(q)`` and
    ``q = P |mu|^2 / (1 + P base)``, and Jensen's formula gives the second
    term's mean as ``2 log|(A + s)/2|``, ``s = sqrt(A^2 - B^2)`` with
    ``Re(conj(A) s) >= 0`` (the principal root).
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    mu_sq = abs(mu) ** 2
    sigma2 = m2 - mu_sq
    if sigma2 < -1e-12:
        raise ValueError("m2 < |mu|^2: not a valid (m2, mu) pair")
    sigma2 = max(sigma2, 0.0)
    if power == 0:
        return 0.0
    base = sigma2 * (1.0 + 2.0 * alpha**2)
    # (A + s)/2 = 1 + w with s - 1 = (s^2 - 1)/(s + 1), so 2 log|1 + w| keeps its
    # digits at small q (the plain 2 log|(A + s)/2| is off by 2e-10 at P = 1e-6)
    q = power * mu_sq / (1.0 + power * base)
    r = math.sqrt(q)
    c = (4.0 * alpha**2 - 1.0) * r
    s = cmath.sqrt(complex(1.0 + c * r, 2.0 * r))
    w = (1j * r + r * complex(c, 2.0) / (s + 1.0)) / 2.0
    return math.log1p(power * base) + math.log1p(2.0 * w.real + abs(w) ** 2)


def limiting_moments(m2: float, m4: float, m6: float, alpha: float):
    """First three limiting spectral moments of the Gram matrix.

    Valid for the symmetric three-diagonal single-user channel whose fading
    amplitude is independent of a uniformly distributed phase; ``m2, m4, m6``
    are the even amplitude power moments of the coefficient law.
    """
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


# ---------------------------------------------------------------------------
# exponential integral E1
# ---------------------------------------------------------------------------

# past x = 50 the first 20 terms of the asymptotic series of exp(x) E1(x)
# are exact to rounding, and below it exp(x) cannot overflow
_E1_ASYMPTOTIC_FROM = 50.0
_E1_ASYMPTOTIC_TERMS = 20


def exp_integral(x):
    """Exponential integral ``E1(x) = int_x^inf exp(-t)/t dt`` for x > 0.

    Validated wrapper over :func:`scipy.special.exp1`.  Accepts scalars or
    arrays; a scalar argument gives a float.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.size and xs.min() <= 0:
        raise ValueError("exp_integral requires x > 0")
    return _shaped(exp1(xs), x)


def _shaped(out: np.ndarray, x):
    """``out``, computed elementwise from ``x``, in the shape of ``x``: a
    float for a Python or numpy scalar, else an array of ``x``'s shape."""
    out = out.reshape(np.shape(x))
    return float(out) if np.isscalar(x) else out


def _e1_scaled(x):
    """``exp(x) * E1(x)``, stable for arbitrarily large x.

    ``exp(x) * exp1(x)`` up to x = 50; above, the asymptotic series
    ``sum_k (-1)^k k! / x^(k+1)``, summed by Horner's rule.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    small = xs <= _E1_ASYMPTOTIC_FROM
    out[small] = np.exp(xs[small]) * exp1(xs[small])
    inv = 1.0 / xs[~small]
    series = np.ones_like(inv)
    for k in range(_E1_ASYMPTOTIC_TERMS - 1, 0, -1):
        series = 1.0 - k * inv * series
    out[~small] = inv * series
    return _shaped(out, x)


# ---------------------------------------------------------------------------
# stationary law of the tridiagonal Cholesky chain
# ---------------------------------------------------------------------------

def narula_stationary_pdf(x, pbar: float):
    """Stationary density ``log(x) exp(-x/pbar) / (E1(1/pbar) pbar)`` of the
    tridiagonal Cholesky pivot chain, supported on x >= 1."""
    if pbar <= 0:
        raise ValueError("pbar must be positive")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    ok = xs >= 1.0
    # exp(-x/p)/E1(1/p) written via the scaled E1 so tiny pbar cannot underflow
    norm = pbar * _e1_scaled(1.0 / pbar)
    out[ok] = np.log(xs[ok]) * np.exp(-(xs[ok] - 1.0) / pbar) / norm
    return _shaped(out, x)


def narula_stationary_cdf(x, pbar: float):
    """CDF of :func:`narula_stationary_pdf` in closed form.

    Integration by parts gives
    ``F(x) = 1 - exp(-(x-1)/p) * (E1s(x/p) + log x) / E1s(1/p)`` with
    ``E1s(y) = exp(y) E1(y)``.
    """
    if pbar <= 0:
        raise ValueError("pbar must be positive")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    ok = xs >= 1.0
    if ok.any():
        xv = xs[ok]
        num = _e1_scaled(xv / pbar) + np.log(xv)
        out[ok] = 1.0 - np.exp(-(xv - 1.0) / pbar) * num / _e1_scaled(1.0 / pbar)
    return _shaped(out, x)


# exp-sinh nodes u and weights du/dt * h * exp(-u) on the unit exponential scale
_EXP_SINH_T = np.arange(-144, 113) / 32.0
_EXP_SINH_U = np.exp(np.pi / 2 * np.sinh(_EXP_SINH_T))
with np.errstate(under="ignore"):
    _EXP_SINH_W = np.pi / 64 * np.cosh(_EXP_SINH_T) * _EXP_SINH_U * np.exp(-_EXP_SINH_U)
_EXP_SINH_U, _EXP_SINH_W = _EXP_SINH_U[_EXP_SINH_W > 0], _EXP_SINH_W[_EXP_SINH_W > 0]


def narula_capacity(pbar: float) -> float:
    """Ergodic per-symbol rate of the two-tap single-user channel:
    the stationary mean of ``log d`` over the Cholesky pivot chain.

    Substituting ``x = 1 + pbar u`` turns the semi-infinite integral into
    ``int_0^inf log1p(pbar u)^2 exp(-u) du / (exp(1/pbar) E1(1/pbar))``, summed
    by the fixed exp-sinh rule ``u = exp(pi/2 sinh t)``, step 1/32 over t in
    [-4.5, 3.5], without the nodes where ``exp(-u)`` underflows: within 1e-15
    relative from pbar = 1e-12 to 1e300.
    """
    if pbar <= 0:
        raise ValueError("pbar must be positive")
    return float(_EXP_SINH_W @ np.log1p(pbar * _EXP_SINH_U) ** 2) / _e1_scaled(1.0 / pbar)


# ---------------------------------------------------------------------------
# extreme-SNR parameters
# ---------------------------------------------------------------------------

def low_snr_params(k: int, alpha: float, m2: float, m4: float):
    """Low-SNR pair (minimum transmit Eb/N0, spectral-efficiency slope).

    ``eb_n0_min = log 2 / (m2 (1 + 2 alpha^2))`` and
    ``s0 = 2 K (1 + 2 a^2)^2 / (kur + K - 1 + 4 (1+K) a^2 + 2 (kur + 2K) a^4)``
    with ``kur = m4 / m2^2`` the amplitude kurtosis.
    """
    if m2 <= 0:
        raise ValueError("m2 must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    a2 = alpha**2
    eb_n0_min = np.log(2.0) / (m2 * (1.0 + 2.0 * a2))
    kur = m4 / m2**2
    denom = kur + k - 1.0 + 4.0 * (1.0 + k) * a2 + 2.0 * (kur + 2.0 * k) * a2**2
    s0 = 2.0 * k * (1.0 + 2.0 * a2) ** 2 / denom
    return float(eb_n0_min), float(s0)


def high_snr_params(pi_a: FadingSpec, pi_b: FadingSpec):
    """High-SNR pair (slope, power offset) for the two-diagonal channel.

    The slope is 1 bit per 3 dB; the offset is
    ``-2 max(E log2|a|, E log2|b|)`` in 3-dB units.
    """
    top = max(pi_a.log2_amplitude_mean(), pi_b.log2_amplitude_mean())
    return 1.0, float(-2.0 * top)


# ---------------------------------------------------------------------------
# Marchenko-Pastur reference law
# ---------------------------------------------------------------------------

def _mp_edges(k: int, sigma2: float):
    y = 1.0 / k
    a = sigma2 * (1.0 - np.sqrt(y)) ** 2
    b = sigma2 * (1.0 + np.sqrt(y)) ** 2
    return y, a, b


def _mp_rescaled(x, sigma2: float):
    """``x`` and ``sigma2`` divided by the power of two ``2^e <= sigma2 <
    2^(e+1)``, and ``e``.  The division is exact, so the formulas below give
    at the rescaled law what they give at the law itself, but their products
    of two points, of order ``sigma2^2``, cannot overflow."""
    e = math.frexp(sigma2)[1] - 1
    return np.ldexp(np.atleast_1d(np.asarray(x, dtype=float)), -e), math.ldexp(sigma2, -e), e


def marchenko_pastur_pdf(x, k: int, sigma2: float = 1.0):
    """Marchenko-Pastur density with ratio 1/k and scale sigma2 (mean
    sigma2, support ``sigma2 [(1 - k^-1/2)^2, (1 + k^-1/2)^2]``)."""
    if k < 1 or sigma2 <= 0:
        raise ValueError("k must be >= 1 and sigma2 > 0")
    xs, sigma2, e = _mp_rescaled(x, sigma2)
    y, a, b = _mp_edges(k, sigma2)
    out = np.zeros_like(xs)
    inside = (xs > a) & (xs < b)
    xv = xs[inside]
    # the density of the law scaled by 2^-e is 2^e times the law's
    out[inside] = np.ldexp(np.sqrt((b - xv) * (xv - a)) / (2 * np.pi * sigma2 * y * xv), -e)
    return _shaped(out, x)


def marchenko_pastur_cdf(x, k: int, sigma2: float = 1.0):
    """Marchenko-Pastur CDF in closed form.

    With ``y = 1/k``, ``lo = x - a``, ``hi = b - x`` and ``s = sqrt(hi lo)``,
    for ``a < x < b``

        F = [pi y + s / sigma2 - (1 + y) atan2(hi - lo, 2 s)
             + (1 - y) atan2(a hi - b lo, 2 sigma2 (1 - y) s)] / (2 pi y),

    0 at or below ``a`` and 1 at or above ``b``.  No term divides, so the
    formula is finite at both edges and at k = 1, where the last term is 0.
    """
    if k < 1 or sigma2 <= 0:
        raise ValueError("k must be >= 1 and sigma2 > 0")
    xs, sigma2, _ = _mp_rescaled(x, sigma2)
    y, a, b = _mp_edges(k, sigma2)
    out = (xs >= b).astype(float)
    inside = (xs > a) & (xs < b)
    lo = xs[inside] - a
    hi = b - xs[inside]
    s = np.sqrt(hi * lo)
    f = (
        np.pi * y
        + s / sigma2
        - (1.0 + y) * np.arctan2(hi - lo, 2.0 * s)
        + (1.0 - y) * np.arctan2(a * hi - b * lo, 2.0 * sigma2 * (1.0 - y) * s)
    ) / (2.0 * np.pi * y)
    # rounding can step past 0 or 1 by an ulp next to an edge
    out[inside] = np.clip(f, 0.0, 1.0)
    return _shaped(out, x)
