"""Why standard random-matrix machinery does not apply here.

The normalized expected-power profile of the channel concentrates on a band
whose width shrinks like 1/N, so as a function on the unit square it never
converges uniformly: doubling N always leaves cells where the two profiles
differ by the full diagonal mass.  The sup-cell gap below stays pinned at
0.75 (the alpha^2-weighted complement of the shared cell fraction) instead
of decaying, out to the paper's N = 65536.  The gaps and the N = 8 cells print
what ``bandspec power-profile`` writes for one config, in ``power_profile.csv``
and ``profile_n8.csv``.
"""
import tempfile

import numpy as np

import bandspec as bs

ALPHA = 0.5
N_GRID = (8, 64, 256, 1024, 4096, 16384, 65536)


def main():
    params = bs.wyner(N_GRID[0], 1, ALPHA, ALPHA, bs.RAYLEIGH)
    with tempfile.TemporaryDirectory() as out:
        output = bs.run_experiment(
            bs.ExperimentConfig("power_profile", params, n_grid=N_GRID, out_dir=out))
        text = output.files[1].read_text()

    print(f"three-diagonal rayleigh channel, alpha = beta = {ALPHA}")
    print(f"{'N':>6} {'sup-cell |profile_N - profile_2N|':>36}")
    for r in output.results:
        print(f"{r.grid_value:6d} {r.estimate:36.4f}")

    # 1-based band cells (row, col, value); every other cell is 0
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    row, col, value = np.loadtxt(rows, delimiter=",", unpack=True)
    grid = np.zeros((N_GRID[0], N_GRID[0]))
    grid[row.astype(int) - 1, col.astype(int) - 1] = value
    print(f"\nprofile cells at N={N_GRID[0]} (rows x columns, K=1):")
    for line in grid:
        print("  " + " ".join(f"{v:4.2f}" for v in line))


if __name__ == "__main__":
    main()
