"""Extreme-SNR parameters: simulated fits against the closed forms.

Low SNR: the minimum transmit Eb/N0 and the slope come from a two-point
quadratic fit of simulated capacity at P = 1e-3 and 2e-3.  High SNR (for the
two-diagonal channel): the slope comes from the affine fit at P = 1e4 and
1e6; the power offset approaches its limit only like 1/log P, so the offset
is fitted together with that transient.
"""
import numpy as np

import bandspec as bs

SEED = 57721


def simulated_capacities(params, powers, n_reps, group):
    per_rep = np.zeros((n_reps, len(powers)))
    for r in range(n_reps):
        rng = bs.derive_stream(SEED, (group << 32) | r)
        a = bs.gram(bs.generate_channel(params, rng))
        per_rep[r] = [
            bs.log_ldl_shifted(a, p / params.users_per_cell).mean() for p in powers
        ]
    return per_rep.mean(axis=0)


def main():
    print("low-SNR fit (K=1, alpha=0, N=2048, 200 replicates)")
    print(f"{'law':>14} {'Eb/N0_min':>10} {'formula':>9} {'S0':>8} {'formula':>9}")
    for group, spec in enumerate((bs.DETERMINISTIC, bs.RAYLEIGH)):
        params = bs.wyner(2048, 1, 0.0, 0.0, spec)
        caps = simulated_capacities(params, (1e-3, 2e-3), 200, group)
        eb, s0 = bs.fit_low_snr_params((1e-3, 2e-3), caps)
        eb_ref, s0_ref = bs.low_snr_params(
            1, 0.0, spec.amplitude_moment(2), spec.amplitude_moment(4)
        )
        print(f"{spec.tag:>14} {eb:10.5f} {eb_ref:9.5f} {s0:8.4f} {s0_ref:9.4f}")

    print()
    print("high-SNR fit (two-diagonal, K=1, N=4096)")
    powers = (1e4, 1e6)
    print(f"{'law':>14} {'slope':>7} {'offset(affine)':>15} {'offset(fitted)':>15} {'formula':>9}")
    for group, (spec, n_reps) in enumerate(
        [(bs.DETERMINISTIC, 1), (bs.UNIFORM_PHASE, 2), (bs.RAYLEIGH, 128)], start=10
    ):
        params = bs.wyner(4096, 1, alpha=1.0, beta=0.0, fading=spec)
        caps = simulated_capacities(params, powers, n_reps, group)
        slope, l_affine = bs.fit_high_snr_params(powers, caps)
        l_fitted = bs.fit_high_snr_offset_extrapolated(powers, caps)
        _, l_ref = bs.high_snr_params(spec, spec)
        print(f"{spec.tag:>14} {slope:7.4f} {l_affine:15.4f} {l_fitted:15.4f} {l_ref:9.4f}")
    print("\nthe affine offset at P <= 1e6 still carries the O(1/log P) transient;")
    print("fitting the transient out recovers the limiting offset")


if __name__ == "__main__":
    main()
