"""The tridiagonal Cholesky pivot chain, three ways.

For the two-diagonal single-user channel the shifted-LDL pivots form a
Markov chain with a known stationary density, so the same capacity is
reachable through (1) direct chain simulation, (2) the shifted LDL pivots
of an actual matrix realization, and (3) quadrature of the stationary law.
(1) and (2) both run LAPACK ``dpttrf``, but from different inputs: the tap
powers, and the assembled Gram band of ``I + P H H*``.  All three are shown
to agree; the chain histogram is also compared with the stationary density.
"""
import numpy as np

import bandspec as bs

POWER = 10.0
SEED = 161803


def main():
    rng = bs.derive_stream(SEED, 0)
    discrepancy = bs.chain_vs_ldl(100_000, POWER, rng)
    print(f"pivot gap between recursion and Gram-matrix LDL (N=1e5): {discrepancy:.2e}")

    run = bs.simulate_chain(POWER, 2_000_000, 1_000, bs.derive_stream(SEED, 1))
    ref = bs.narula_capacity(POWER)
    print(f"chain ergodic mean of log d : {run.ergodic_log_mean:.5f} "
          f"(+- {run.log_mean_stderr:.5f})")
    print(f"stationary-law quadrature   : {ref:.5f}")

    ks = bs.EmpiricalSpectrum(run.samples).ks_distance(
        lambda x: bs.narula_stationary_cdf(x, POWER)
    )
    print(f"KS(chain samples, stationary law) over {len(run.samples)} samples: {ks:.4f}")

    edges = np.linspace(1.0, np.quantile(run.samples, 0.995), 12)
    counts, _ = np.histogram(run.samples, bins=edges, density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    print(f"\n{'d':>8} {'histogram':>10} {'density':>10}")
    for c, h in zip(centers, counts):
        print(f"{c:8.2f} {h:10.4f} {bs.narula_stationary_pdf(c, POWER):10.4f}")


if __name__ == "__main__":
    main()
