"""The tridiagonal Cholesky pivot chain and its ergodic capacity estimate.

For the two-diagonal single-user channel the pivots of the shifted LDL
factorization form a Markov chain

    d_n = 1 + P |a_n|^2 + P |b_n|^2 (1 - P |a_{n-1}|^2 / d_{n-1})

driven by the current taps and the previous row's ``|a|^2``.  These are the
LDL^T pivots of the real SPD tridiagonal with diagonal ``1 + pa_i + pb_i`` and
off-diagonal ``sqrt(pb_i pa_{i-1})`` (``pa = P|a|^2``, ``pb = P|b|^2``), so
``_pivots`` is one LAPACK ``dpttrf`` call, shared by the single-chain
simulation, the ensemble of independent chains built from it and the LDL
cross-check.  The chain has a unique ergodic stationary law, so the running
mean of ``log d_n`` estimates the channel's per-symbol rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf

from .band_matrix import PivotError, generate_channel, gram, ldl_shifted, wyner
from .fading import RAYLEIGH

__all__ = [
    "ChainRun",
    "simulate_chain",
    "simulate_chain_ensemble",
    "chain_vs_ldl",
]


def _pivots(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Pivot sequence for per-row tap powers ``pa = P|a|^2``, ``pb = P|b|^2``.

    ``d_0 = 1 + pa_0 + pb_0`` and ``d_i = 1 + pa_i + pb_i (1 - pa_{i-1} / d_{i-1})``:
    the LDL^T pivots of the SPD tridiagonal with diagonal ``1 + pa + pb`` and
    off-diagonal ``sqrt(pb_i pa_{i-1})``, factorized by LAPACK ``dpttrf``.
    Raises :class:`PivotError` if a pivot is non-finite or not positive.
    """
    n = len(pa)
    d = 1.0 + pa + pb
    # the wrapper wants a nonempty e even for n = 1, where LAPACK never reads it
    e = np.zeros(max(n - 1, 1))
    np.multiply(pb[1:], pa[:-1], out=e[:n - 1])
    np.sqrt(e, out=e)
    d, _, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    if info != 0 or not np.isfinite(d).all():
        raise PivotError(f"pivot chain broke down (dpttrf info={info})")
    return d


@dataclass(frozen=True)
class ChainRun:
    """A simulated chain trajectory with its ergodic log-mean estimate.

    ``samples`` holds the retained pivots (after ``burn_in`` discarded
    steps); every retained value is >= 1.  The standard error comes from
    batch means over 100 batches, the simplest defensible estimator for
    correlated chain output.
    """

    power: float
    n_steps: int
    burn_in: int
    samples: np.ndarray
    ergodic_log_mean: float
    log_mean_stderr: float


def simulate_chain(
    power: float,
    n_steps: int,
    burn_in: int,
    rng: np.random.Generator,
    n_batches: int = 100,
) -> ChainRun:
    """Run the chain with complex Gaussian taps and estimate E[log d].

    Draws are i.i.d. CN(0, 1) for both taps.  ``burn_in`` steps are discarded
    before averaging; unique ergodicity makes any finite burn-in
    asymptotically irrelevant.
    """
    if not 0 <= burn_in < n_steps:
        raise ValueError("need 0 <= burn_in < n_steps")
    _check_power(power)
    pa = power * np.abs(RAYLEIGH.sample(rng, n_steps)) ** 2
    pb = power * np.abs(RAYLEIGH.sample(rng, n_steps)) ** 2
    samples = _pivots(pa, pb)[burn_in:]
    logs = np.log(samples)
    mean = float(logs.mean())
    stderr = _batch_means_stderr(logs, n_batches)
    return ChainRun(power, n_steps, burn_in, samples, mean, stderr)


def _check_power(power: float) -> None:
    if not (np.isfinite(power) and power >= 0):
        raise ValueError("power must be finite and nonnegative")


def _batch_means_stderr(values: np.ndarray, n_batches: int) -> float:
    usable = (len(values) // n_batches) * n_batches
    if usable < n_batches or n_batches < 2:
        return float("nan")
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def simulate_chain_ensemble(
    power: float,
    n_chains: int,
    n_steps: int,
    burn_in: int,
    rng: np.random.Generator,
):
    """Ergodic log-mean pooled over independent chains.

    Each chain is one :func:`simulate_chain` run drawing from ``rng`` in
    turn; equally long chains make the plain average of per-chain means the
    inverse-variance-weighted one.  Returns ``(estimate, stderr)`` with the
    standard error taken across chains.
    """
    chain_means = np.array([
        simulate_chain(power, n_steps, burn_in, rng).ergodic_log_mean
        for _ in range(n_chains)
    ])
    estimate = float(chain_means.mean())
    stderr = float(chain_means.std(ddof=1) / np.sqrt(n_chains))
    return estimate, stderr


def chain_vs_ldl(n: int, power: float, rng: np.random.Generator) -> float:
    """Max pivot discrepancy between the recursion and the banded LDL path.

    Builds one two-diagonal channel realization, runs the recursion on the
    draws actually present in the matrix (the first row carries no b tap, so
    its pivot is ``1 + P |a_1|^2``), factorizes ``I + P H H*`` in band form,
    and compares the two pivot sequences entrywise.
    """
    params = wyner(n, 1, alpha=1.0, beta=0.0, fading=RAYLEIGH, power=power)
    channel = generate_channel(params, rng)
    pa = power * np.abs(channel.blocks[0][:, 0]) ** 2
    pb = power * np.abs(channel.blocks[-1][:, 0]) ** 2  # pb[0] == 0 structurally
    d_rec = _pivots(pa, pb)
    d_ldl = ldl_shifted(gram(channel), power)
    return float(np.abs(d_ldl - d_rec).max())
