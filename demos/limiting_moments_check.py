"""Ensemble trace moments against their closed-walk sums.

The limiting spectral moments of the Gram matrix are exact sums over the
closed walks of the band, each walk weighted by mixed moments of the fading
laws.  Trace moments are computed directly in band storage (no
eigendecomposition) and averaged over the ensemble.

The second part shows why the phase condition matters: at alpha = 1 the
deterministic channel's second moment settles near 19 while unit-amplitude
uniform-phase fading gives 15, so the limiting spectrum depends on the
entry distribution itself, not just its moments of low order.  Each ensemble
prints what ``bandspec moments`` writes for its config.
"""
import tempfile

import bandspec as bs

N = 2048
REPLICATES = 100
SEED = 141421


def moments(params, replications=REPLICATES):
    with tempfile.TemporaryDirectory() as out:
        config = bs.ExperimentConfig("moments", params, replications=replications,
                                     seed=SEED, out_dir=out)
        return bs.run_experiment(config).results


def main():
    print(f"rayleigh, K=1, N={N}, {REPLICATES} replicates")
    print(f"{'alpha':>6} {'p':>2} {'ensemble':>10} {'(se)':>8} {'limit':>10}")
    for alpha in (0.3, 0.7):
        for r in moments(bs.wyner(N, 1, alpha, alpha, bs.RAYLEIGH)):
            print(f"{alpha:6.1f} {r.grid_value:2d} {r.estimate:10.4f} {r.std_err:8.1e} {r.reference:10.4f}")

    print()
    print("distribution dependence at alpha = 1 (second moment)")
    unif = moments(bs.wyner(N, 1, 1.0, 1.0, bs.UNIFORM_PHASE))[1]
    # one draw: the deterministic channel has no spread
    det = moments(bs.wyner(N, 1, 1.0, 1.0, bs.DETERMINISTIC), 1)[1]
    print(f"uniform phase : {unif.estimate:8.4f} (+- {unif.std_err:.4f}), limit {unif.reference:g}")
    print(f"deterministic : {det.estimate:8.4f}, limit {det.reference:g}")


if __name__ == "__main__":
    main()
