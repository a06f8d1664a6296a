"""Empirical spectra against the Marchenko-Pastur reference law.

The Gram spectrum, normalized by K (1 + 2 alpha^2), is compared with the
Marchenko-Pastur law of ratio 1/K and unit scale.  The fit is good only for
strong inter-cell gains: as alpha drops toward zero the true spectrum turns
exponential-like with unbounded support, and the KS distance grows.

The KS table prints what ``bandspec mp-compare`` writes for one config.  With
matplotlib, spectrum_vs_mp.png draws each alpha's ``ecdf.csv`` from a
``spectrum`` run, on the same scale.
"""
import tempfile

import numpy as np

import bandspec as bs

N = 2048
K = 1
REPLICATES = 4
SEED = 31415
ALPHAS = (0.1, 0.5, 0.9)


def run(kind, channel, **fields):
    """Results of one ``kind`` run, and the text of each file it wrote."""
    with tempfile.TemporaryDirectory() as out:
        config = bs.ExperimentConfig(kind, channel, replications=REPLICATES, seed=SEED,
                                     out_dir=out, **fields)
        output = bs.run_experiment(config)
        return output.results, {path.name: path.read_text() for path in output.files}


def main():
    print(f"K={K}, N={N}, {REPLICATES} replicates, spectrum of HH*/(K(1+2a^2))")
    print(f"{'alpha':>6} {'KS distance to MP':>18}")
    # the kind sets each alpha's neighbor gains; the base channel gives N, K and the law
    results, _ = run("mp_compare", bs.wyner(N, K, 0.0, 0.0, bs.RAYLEIGH), alphas=ALPHAS)
    for r in results:
        print(f"{r.grid_value:6.1f} {r.estimate:18.4f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for alpha in ALPHAS:
        _, files = run("spectrum", bs.wyner(N, K, alpha, alpha, bs.RAYLEIGH))
        # past the metadata and header: bin_right and cum_fraction, the ECDF at each right edge
        rows = [line for line in files["ecdf.csv"].splitlines() if not line.startswith("#")]
        _, right, _, cum = np.loadtxt(rows[1:], delimiter=",", unpack=True)
        ax.plot(right / (K * (1.0 + 2.0 * alpha**2)), cum, label=f"empirical, alpha={alpha}")
    grid = np.linspace(0.0, 5.0, 400)
    ax.plot(grid, bs.marchenko_pastur_cdf(grid, K, 1.0), "k--", label="Marchenko-Pastur")
    ax.set_xlabel("normalized eigenvalue")
    ax.set_ylabel("CDF")
    ax.legend()
    fig.tight_layout()
    fig.savefig("spectrum_vs_mp.png", dpi=120)
    print("wrote spectrum_vs_mp.png")


if __name__ == "__main__":
    main()
