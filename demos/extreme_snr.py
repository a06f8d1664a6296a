"""Extreme-SNR parameters: simulated fits against the closed forms.

Low SNR: the minimum transmit Eb/N0 and the slope come from a two-point
quadratic fit of simulated capacity at P = 1e-3 and 2e-3.  High SNR (for the
two-diagonal channel): the slope comes from the affine fit at P = 1e4 and
1e6; the power offset approaches its limit only like 1/log P, so the offset
is fitted together with that transient.  Each row prints what ``bandspec
extreme-snr`` writes for its config; the kind gives its fits no standard error.
"""
import tempfile

import bandspec as bs

SEED = 57721


def extreme_snr(params, replications):
    """``{quantity: (estimate, reference)}`` of one ``extreme_snr`` run."""
    with tempfile.TemporaryDirectory() as out:
        config = bs.ExperimentConfig("extreme_snr", params, replications=replications,
                                     seed=SEED, out_dir=out)
        return {r.grid_value: (r.estimate, r.reference) for r in bs.run_experiment(config).results}


def main():
    print("low-SNR fit (K=1, alpha=0, N=2048, 200 replicates)")
    print(f"{'law':>14} {'Eb/N0_min':>10} {'formula':>9} {'S0':>8} {'formula':>9}")
    for spec in (bs.DETERMINISTIC, bs.RAYLEIGH):
        q = extreme_snr(bs.wyner(2048, 1, 0.0, 0.0, spec), 200)
        (eb, eb_ref), (s0, s0_ref) = q["eb_n0_min"], q["s0"]
        print(f"{spec.tag:>14} {eb:10.5f} {eb_ref:9.5f} {s0:8.4f} {s0_ref:9.4f}")

    print()
    print("high-SNR fit (two-diagonal, K=1, N=4096)")
    print(f"{'law':>14} {'slope':>7} {'formula':>9} {'L(affine)':>10} {'L(fitted)':>10} {'formula':>9}")
    for spec, n_reps in ((bs.DETERMINISTIC, 1), (bs.UNIFORM_PHASE, 2), (bs.RAYLEIGH, 128)):
        q = extreme_snr(bs.wyner(4096, 1, alpha=1.0, beta=0.0, fading=spec), n_reps)
        (slope, slope_ref), (l_affine, l_ref) = q["s_inf"], q["l_inf"]
        l_fitted, _ = q["l_inf_extrapolated"]
        print(f"{spec.tag:>14} {slope:7.4f} {slope_ref:9.4f} {l_affine:10.4f} {l_fitted:10.4f} {l_ref:9.4f}")
    print("\nthe affine offset L at P <= 1e6 still carries the O(1/log P) transient;")
    print("fitting the transient out recovers the limiting offset")


if __name__ == "__main__":
    main()
