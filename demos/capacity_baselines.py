"""Monte Carlo per-cell rates against the two Toeplitz-limit baselines.

The deterministic symmetric channel converges to the non-fading integral as
the matrix grows; with many users per cell at fixed total power, the
normalized Gram matrix consolidates to its mean and any fading law lands on
the large-K integral instead.  Both comparisons run here side by side, each
block printing what ``bandspec capacity`` writes for its ``capacity_vs_P``
config; only the large-K integral, which that kind leaves nan, is computed here.
"""
import tempfile

import bandspec as bs

P_GRID = (1.0, 10.0, 100.0)
SEED = 2718


def capacity_vs_p(params, replications):
    with tempfile.TemporaryDirectory() as out:
        config = bs.ExperimentConfig("capacity_vs_P", params, p_grid=P_GRID,
                                     replications=replications, seed=SEED, out_dir=out)
        return bs.run_experiment(config).results


def main():
    alpha = 0.5

    print("deterministic channel, K=1, N=2048 vs non-fading integral")
    print(f"{'P':>8} {'simulated':>12} {'integral':>12} {'gap':>10}")
    # one draw: every replicate of the deterministic channel is the same matrix
    for r in capacity_vs_p(bs.wyner(2048, 1, alpha, alpha, bs.DETERMINISTIC), 1):
        print(f"{r.grid_value:8g} {r.estimate:12.6f} {r.reference:12.6f} {r.estimate - r.reference:10.2e}")

    for title, spec, mu in (
        ("rayleigh channel, K=64, N=1024 (16 replicates) vs large-K integral", bs.RAYLEIGH, 0.0),
        ("rician(nu=0.8, s2=0.36), K=64, N=1024: nonzero-mean large-K integral",
         bs.rician(0.8, 0.36), 0.8),
    ):
        print()
        print(title)
        print(f"{'P':>8} {'simulated':>12} {'(se)':>9} {'integral':>12}")
        for r in capacity_vs_p(bs.wyner(1024, 64, alpha, alpha, spec), 16):
            ref = bs.wyner_capacity_large_k(r.grid_value, alpha, 1.0, mu)
            print(f"{r.grid_value:8g} {r.estimate:12.6f} {r.std_err:9.1e} {ref:12.6f}")


if __name__ == "__main__":
    main()
