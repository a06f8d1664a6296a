"""The tridiagonal Cholesky pivot chain and its ergodic capacity estimate.

For the two-diagonal single-user channel the pivots of the shifted LDL
factorization form a Markov chain

    d_n = 1 + P |a_n|^2 + P |b_n|^2 (1 - P |a_{n-1}|^2 / d_{n-1})

driven by the current taps and the previous row's ``|a|^2``.  These are the
LDL^T pivots of the real SPD tridiagonal with diagonal ``1 + pa_i + pb_i`` and
off-diagonal ``sqrt(pb_i pa_{i-1})`` (``pa = P|a|^2``, ``pb = P|b|^2``), so
``_pivots`` is one LAPACK ``dpttrf`` call, made by the same helper as the
bandwidth-1 shifted LDL.  The chain has a unique ergodic stationary law, so
the running mean of ``log d_n`` estimates the channel's per-symbol rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band_matrix import _tridiagonal_pivots, generate_channel, gram, ldl_shifted, wyner
from .fading import RAYLEIGH

__all__ = [
    "ChainRun",
    "simulate_chain",
    "chain_vs_ldl",
]


def _pivots(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Pivots ``d_i = 1 + pa_i + pb_i (1 - pa_{i-1} / d_{i-1})`` of per-row tap
    powers ``pa``, ``pb``; :class:`PivotError` if one is non-finite or not positive."""
    d = 1.0 + pa + pb
    e = pb[1:] * pa[:-1]
    return _tridiagonal_pivots(d, np.sqrt(e, out=e))[0]


def _tap_pivots(power: float, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """:func:`_pivots` of the tap powers ``P a2``, ``P b2``, scaled in place from
    the squared tap moduli; an overflow is a non-finite pivot: :class:`PivotError`."""
    with np.errstate(over="ignore"):
        return _pivots(np.multiply(a2, power, out=a2), np.multiply(b2, power, out=b2))


# batches behind the batch-means standard error of a chain's log-mean
N_BATCHES = 100


@dataclass(frozen=True)
class ChainRun:
    """A simulated chain trajectory with its ergodic log-mean estimate.

    ``samples`` holds the retained pivots (after ``burn_in`` discarded
    steps), every one >= 1, and ``logs`` their natural logs, whose mean is
    the estimate.  The standard error comes from batch means over
    ``N_BATCHES`` batches, the simplest defensible estimator for correlated
    chain output.
    """

    power: float
    n_steps: int
    burn_in: int
    samples: np.ndarray
    logs: np.ndarray
    ergodic_log_mean: float
    log_mean_stderr: float


def simulate_chain(
    power: float,
    n_steps: int,
    burn_in: int,
    rng: np.random.Generator,
) -> ChainRun:
    """Run the chain with complex Gaussian taps and estimate E[log d].

    Draws are i.i.d. CN(0, 1) for both taps.  ``burn_in`` steps are discarded
    before averaging; unique ergodicity makes any finite burn-in
    asymptotically irrelevant.
    """
    if not 0 <= burn_in < n_steps:
        raise ValueError("need 0 <= burn_in < n_steps")
    if not (np.isfinite(power) and power >= 0):
        raise ValueError("power must be finite and nonnegative")
    a2, b2 = (np.abs(RAYLEIGH.sample(rng, n_steps)) ** 2 for _ in range(2))
    samples = _tap_pivots(power, a2, b2)[burn_in:]
    logs = np.log(samples)
    stderr = float("nan")
    if len(logs) >= N_BATCHES:
        usable = (len(logs) // N_BATCHES) * N_BATCHES
        batches = logs[:usable].reshape(N_BATCHES, -1).mean(axis=1)
        stderr = float(batches.std(ddof=1) / np.sqrt(N_BATCHES))
    return ChainRun(power, n_steps, burn_in, samples, logs, float(logs.mean()), stderr)


def chain_vs_ldl(n: int, power: float, rng: np.random.Generator) -> float:
    """Max pivot discrepancy between the recursion and the Gram-matrix LDL.

    Builds one two-diagonal channel realization and factors it twice with
    ``dpttrf``, from different inputs: the recursion takes the tap powers
    actually present in the matrix (the first row carries no b tap, so its
    pivot is ``1 + P |a_1|^2``), ``ldl_shifted`` the assembled Gram band of
    ``I + P H H*``.  Comparing the pivots entrywise still tests ``gram``.
    """
    params = wyner(n, 1, alpha=1.0, beta=0.0, fading=RAYLEIGH, power=power)
    channel = generate_channel(params, rng)
    a2, b2 = (np.abs(channel.blocks[d][:, 0]) ** 2 for d in (0, -1))  # b2[0] == 0 structurally
    d_rec = _tap_pivots(power, a2, b2)
    d_ldl = ldl_shifted(gram(channel), power)
    return float(np.abs(d_ldl - d_rec).max())
