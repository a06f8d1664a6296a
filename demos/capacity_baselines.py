"""Monte Carlo per-cell rates against the two Toeplitz-limit baselines.

The deterministic symmetric channel converges to the non-fading integral as
the matrix grows; with many users per cell at fixed total power, the
normalized Gram matrix consolidates to its mean and any fading law lands on
the large-K integral instead.  Both comparisons run here side by side.
"""
import numpy as np

import bandspec as bs

P_GRID = [1.0, 10.0, 100.0]
SEED = 2718


def ensemble_rate(params, power, n_reps):
    caps = []
    for r in range(n_reps):
        rng = bs.derive_stream(SEED, r)
        a = bs.gram(bs.generate_channel(params, rng))
        caps.append(bs.log_ldl_shifted(a, power / params.users_per_cell).mean())
    return float(np.mean(caps)), float(np.std(caps, ddof=1) / np.sqrt(n_reps)) if n_reps > 1 else 0.0


def main():
    alpha = 0.5

    print("deterministic channel, K=1, N=2048 vs non-fading integral")
    print(f"{'P':>8} {'simulated':>12} {'integral':>12} {'gap':>10}")
    for power in P_GRID:
        params = bs.wyner(2048, 1, alpha, alpha, bs.DETERMINISTIC, power=power)
        est, _ = ensemble_rate(params, power, 1)
        ref = bs.wyner_capacity_nonfading(power, alpha)
        print(f"{power:8g} {est:12.6f} {ref:12.6f} {est - ref:10.2e}")

    print()
    print("rayleigh channel, K=64, N=1024 (16 replicates) vs large-K integral")
    print(f"{'P':>8} {'simulated':>12} {'(se)':>9} {'integral':>12}")
    for power in P_GRID:
        params = bs.wyner(1024, 64, alpha, alpha, bs.RAYLEIGH, power=power)
        est, se = ensemble_rate(params, power, 16)
        ref = bs.wyner_capacity_large_k(power, alpha, 1.0, 0.0)
        print(f"{power:8g} {est:12.6f} {se:9.1e} {ref:12.6f}")

    print()
    print("rician(nu=0.8, s2=0.36), K=64, N=1024: nonzero-mean large-K integral")
    for power in P_GRID:
        params = bs.wyner(1024, 64, alpha, alpha, bs.rician(0.8, 0.36), power=power)
        est, se = ensemble_rate(params, power, 16)
        ref = bs.wyner_capacity_large_k(power, alpha, 1.0, 0.8)
        print(f"{power:8g} {est:12.6f} {se:9.1e} {ref:12.6f}")


if __name__ == "__main__":
    main()
