"""Why standard random-matrix machinery does not apply here.

The normalized expected-power profile of the channel concentrates on a band
whose width shrinks like 1/N, so as a function on the unit square it never
converges uniformly: doubling N always leaves cells where the two profiles
differ by the full diagonal mass.  The sup-cell gap below stays pinned at
0.75 (the alpha^2-weighted complement of the shared cell fraction) instead
of decaying, out to the paper's N = 65536.
"""
import bandspec as bs

ALPHA = 0.5


def main():
    print(f"three-diagonal rayleigh channel, alpha = beta = {ALPHA}")
    print(f"{'N':>6} {'sup-cell |profile_N - profile_2N|':>36}")
    for n in (64, 256, 1024, 4096, 16384, 65536):
        pa = bs.wyner(n, 1, ALPHA, ALPHA, bs.RAYLEIGH)
        pb = bs.wyner(2 * n, 1, ALPHA, ALPHA, bs.RAYLEIGH)
        print(f"{n:6d} {bs.power_profile_sup_diff(pa, pb):36.4f}")

    grid = bs.power_profile(bs.wyner(8, 1, ALPHA, ALPHA, bs.RAYLEIGH))
    print("\nprofile cells at N=8 (rows x columns, K=1):")
    for row in grid:
        print("  " + " ".join(f"{v:4.2f}" for v in row))


if __name__ == "__main__":
    main()
