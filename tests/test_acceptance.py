"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
"""
import numpy as np
import pytest
from scipy.integrate import quad

import bandspec as bs

from conftest import gram_excess_bytes, moments_replicate_excess_bytes


def check(cid: str, condition: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if condition else 'FAIL'}: {detail}")
    assert condition, f"{cid}: {detail}"


def capacity_via_ldl(params, power, n_reps, seed_group):
    """Mean normalized log-det over replicates, one LDL pass per power."""
    caps = np.zeros(len(power))
    per_rep = np.zeros((n_reps, len(power)))
    for r in range(n_reps):
        rng = bs.derive_stream(2024, (seed_group << 32) | r)
        a = bs.gram(bs.generate_channel(params, rng))
        for i, p in enumerate(power):
            per_rep[r, i] = np.log(bs.ldl_shifted(a, p / params.users_per_cell)).mean()
    caps = per_rep.mean(axis=0)
    if n_reps > 1:
        se = per_rep.std(axis=0, ddof=1) / np.sqrt(n_reps)
    else:
        se = np.zeros(len(power))
    return caps, se


# ---------------------------------------------------------------------------

def test_c1_eigensolver_exactness():
    n = 512
    worst = 0.0
    for alpha in (0.3, 0.9):
        params = bs.wyner(n, 1, alpha, alpha, bs.DETERMINISTIC)
        a = bs.gram(bs.generate_channel(params, np.random.default_rng(0)))
        got = bs.eigenvalues(a).eigenvalues
        k = np.arange(1, n + 1)
        want = np.sort((1 + 2 * alpha * np.cos(k * np.pi / (n + 1))) ** 2)
        worst = max(worst, float(np.abs(got - want).max()))
    check("C1", worst < 1e-9, f"max abs eigenvalue error {worst:.3e} < 1e-9")


def test_c2_dual_path_shannon_transform():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(50):
        k = 1 if i % 2 == 0 else 3
        alpha, beta = rng.uniform(0.05, 1.0, 2)
        params = bs.wyner(256, k, float(alpha), float(beta), bs.RAYLEIGH)
        a = bs.gram(bs.generate_channel(params, rng))
        s = bs.eigenvalues(a)
        for rho in (0.1, 1.0, 10.0, 100.0):
            via_eig = s.shannon_transform(rho)
            via_ldl = np.log(bs.ldl_shifted(a, rho)).mean()
            worst = max(worst, abs(via_eig / via_ldl - 1.0))
    check("C2", worst < 1e-10, f"max relative eig/LDL gap {worst:.3e} < 1e-10")


def test_c3_nonfading_capacity_reproduction():
    params = bs.wyner(4096, 1, 0.5, 0.5, bs.DETERMINISTIC, power=10.0)
    a = bs.gram(bs.generate_channel(params, np.random.default_rng(0)))
    est = bs.eigenvalues(a).shannon_transform(10.0)
    ref = bs.wyner_capacity_nonfading(10.0, 0.5)
    err = abs(est - ref)
    check("C3", err < 1e-2, f"|{est:.6f} - {ref:.6f}| = {err:.2e} < 1e-2")


@pytest.mark.scale
def test_c3_finite_n_correction_at_paper_scale():
    # C_N - C_inf is O(1/N) on the deterministic channel, so N (C_N / C_inf - 1)
    # is the same number at N = 4096 and 2^20; the per-power factorizations
    # at 2^20 are past _STACK_ORDER, one shift each
    powers = np.array([0.1, 1.0, 10.0, 100.0])
    c_inf = np.array([bs.wyner_capacity_nonfading(p, 0.5) for p in powers])

    def scaled_gap(n):
        params = bs.wyner(n, 1, 0.5, 0.5, bs.DETERMINISTIC)
        a = bs.gram(bs.generate_channel(params, np.random.default_rng(0)))
        return n * (bs.log_ldl_shifted(a, powers).mean(axis=-1) / c_inf - 1)

    small, large = scaled_gap(4096), scaled_gap(2**20)
    rel = np.abs(large / small - 1)
    check("C3 scale", bool(np.all(rel < 1e-4)),
          f"N (C_N / C_inf - 1) at 2^20 {np.array2string(large, precision=6)} vs 4096: "
          f"{rel.max():.1e} < 1e-4")


def test_c4_limiting_moments_reproduction():
    n, n_reps = 2048, 200
    for alpha in (0.3, 0.7):
        params = bs.wyner(n, 1, alpha, alpha, bs.RAYLEIGH)
        moments = np.zeros((n_reps, 3))
        for r in range(n_reps):
            rng = bs.derive_stream(4, (int(alpha * 10) << 32) | r)
            a = bs.gram(bs.generate_channel(params, rng))
            moments[r] = [bs.trace_moment(a, p) for p in (1, 2, 3)]
        refs = bs.limiting_moments(1.0, 2.0, 6.0, alpha)
        rel = np.abs(moments.mean(axis=0) / np.array(refs) - 1.0)
        check(
            "C4", bool(np.all(rel < 0.02)),
            f"alpha={alpha}: moment errors {np.array2string(rel, precision=5)} < 2%",
        )

    # distribution dependence at alpha = 1: the second moment separates
    m2_runs = np.zeros(n_reps)
    params_u = bs.wyner(n, 1, 1.0, 1.0, bs.UNIFORM_PHASE)
    for r in range(n_reps):
        rng = bs.derive_stream(4, (99 << 32) | r)
        m2_runs[r] = bs.trace_moment(bs.gram(bs.generate_channel(params_u, rng)), 2)
    params_d = bs.wyner(n, 1, 1.0, 1.0, bs.DETERMINISTIC)
    det_m2 = bs.trace_moment(
        bs.gram(bs.generate_channel(params_d, np.random.default_rng(0))), 2
    )
    se = m2_runs.std(ddof=1) / np.sqrt(n_reps)
    gap = (det_m2 - m2_runs.mean()) / se
    check(
        "C4", gap > 10,
        f"uniform-phase M2={m2_runs.mean():.3f} vs deterministic M2={det_m2:.3f}: "
        f"{gap:.0f} standard errors apart (>10)",
    )


@pytest.mark.scale
def test_c4_limiting_moments_at_paper_scale(tmp_path):
    # the benchmark's wyner-moments run at another seed (seed 7 is the
    # benchmark's): six N = 2^18 replicates, each summing its Gram's row
    # blocks as they are built
    config = bs.ExperimentConfig.from_dict({
        "kind": "moments", "replications": 6, "seed": 11, "out_dir": str(tmp_path),
        "channel": {"n_cells": 2**18, "alpha": 0.5, "fading": "rayleigh"},
    })
    est = np.array([r.estimate for r in bs.run_experiment(config).results])
    rel = np.abs(est / np.array(bs.limiting_moments(1.0, 2.0, 6.0, 0.5)) - 1.0)
    check("C4 scale", bool(np.all(rel < 0.02)),
          f"moment errors at N = 2^18 {np.array2string(rel, precision=5)} < 2%")
    channel = bs.generate_channel(config.channel, bs.derive_stream(11, 0))
    excess = gram_excess_bytes(channel)
    check("C4 scale", excess < 1e6,
          f"gram's traced peak above its output {excess / 1e6:.2f} MB < 1 MB")
    excess = moments_replicate_excess_bytes(config.channel, bs.derive_stream(11, 0))
    check("C4 scale", excess < 1e6,
          f"a moments replicate's traced peak above its channel {excess / 1e6:.2f} MB < 1 MB")


@pytest.mark.scale
def test_c4_three_law_channel_at_paper_scale(tmp_path):
    # CI's moments-k2 channel: K = 2 on diagonals {-2, 0, 1}, one law each,
    # the Rician with a complex mean, against its walk-sum reference
    config = bs.ExperimentConfig.from_dict({
        "kind": "moments", "replications": 4, "seed": 13, "out_dir": str(tmp_path),
        "channel": {"n_cells": 2**18, "users_per_cell": 2, "diagonals": [
            {"offset": -2, "gain": 0.5, "fading": "rayleigh"},
            {"offset": 0, "gain": 1.0, "fading": "uniform-phase"},
            {"offset": 1, "gain": 0.7, "fading": "rician:nu=0.3+0.4j,s2=0.5"}]},
    })
    results = bs.run_experiment(config).results
    refs = np.array([r.reference for r in results])
    check("C4 scale", refs.tolist() == list(bs.walk_moments(config.channel)),
          f"the moments.csv references are the walk sums {np.array2string(refs, precision=6)}")
    rel = np.abs(np.array([r.estimate for r in results]) / refs - 1.0)
    check("C4 scale", bool(np.all(rel < 0.02)),
          f"three-law K = 2 moment errors at N = 2^18 {np.array2string(rel, precision=5)} < 2%")


def test_c5_low_snr_reproduction():
    n, n_reps = 2048, 200
    p_points = (1e-3, 2e-3)
    cases = [
        (bs.DETERMINISTIC, (np.log(2.0), 2.0), "deterministic"),
        (bs.RAYLEIGH, (np.log(2.0), 1.0), "rayleigh"),
    ]
    for group, (spec, want, label) in enumerate(cases, start=50):
        params = bs.wyner(n, 1, 0.0, 0.0, spec)
        per_rep = np.zeros((n_reps, 2))
        for r in range(n_reps):
            rng = bs.derive_stream(5, (group << 32) | r)
            s = bs.eigenvalues(bs.gram(bs.generate_channel(params, rng)))
            per_rep[r] = [s.shannon_transform(p) for p in p_points]
        eb, s0 = bs.fit_low_snr_params(p_points, per_rep.mean(axis=0))
        rel_eb = abs(eb / want[0] - 1.0)
        rel_s0 = abs(s0 / want[1] - 1.0)
        check(
            "C5", rel_eb < 0.05 and rel_s0 < 0.05,
            f"{label}: Eb/N0_min={eb:.5f} ({rel_eb:.2%} off), "
            f"S0={s0:.4f} ({rel_s0:.2%} off), both < 5%",
        )


def test_c6_high_snr_reproduction():
    n = 4096
    p_points = (1e4, 1e6)
    gamma_offset = float(np.euler_gamma) / np.log(2.0)

    def two_diag(spec):
        return bs.wyner(n, 1, alpha=1.0, beta=0.0, fading=spec)

    cap_ray, se_ray = capacity_via_ldl(two_diag(bs.RAYLEIGH), p_points, 256, 60)
    cap_uni, se_uni = capacity_via_ldl(two_diag(bs.UNIFORM_PHASE), p_points, 4, 61)
    cap_det, se_det = capacity_via_ldl(two_diag(bs.DETERMINISTIC), p_points, 2, 62)

    slope, _ = bs.fit_high_snr_params(p_points, cap_ray)
    check("C6", abs(slope - 1.0) < 0.02, f"rayleigh slope {slope:.4f} within 2% of 1")

    # the offset converges only like 1/log P, so the two-point fit includes
    # the fitted transient term; see fit_high_snr_offset_extrapolated
    l_ray = bs.fit_high_snr_offset_extrapolated(p_points, cap_ray)
    rel = abs(l_ray / gamma_offset - 1.0)
    check(
        "C6", rel < 0.05,
        f"rayleigh power offset {l_ray:.4f} vs {gamma_offset:.4f} ({rel:.2%} < 5%)",
    )

    for label, caps in (("uniform-phase", cap_uni), ("deterministic", cap_det)):
        l_est = bs.fit_high_snr_offset_extrapolated(p_points, caps)
        check("C6", abs(l_est) < 0.05, f"{label} power offset {l_est:+.4f} within 0.05 of 0")

    for i, p in enumerate(p_points):
        joint = max(3 * np.hypot(se_uni[i], se_det[i]), 1e-9 * abs(cap_det[i]))
        gap = abs(cap_uni[i] - cap_det[i])
        check(
            "C6", gap <= joint,
            f"uniform-phase and non-fading coincide at P={p:g} "
            f"(gap {gap:.2e} within {joint:.2e})",
        )


def test_c7_cholesky_chain_reproduction():
    rng = np.random.default_rng(7)
    disc = bs.chain_vs_ldl(1000, 1.0, rng)
    check("C7a", disc < 1e-11, f"chain vs LDL pivot discrepancy {disc:.2e} < 1e-11")

    for p in (1.0, 10.0):
        run = bs.simulate_chain(p, 10**6 + 1000, 1000, bs.derive_stream(7, int(p)))
        ks = bs.EmpiricalSpectrum(run.samples).ks_distance(
            lambda x: bs.narula_stationary_cdf(x, p)
        )
        check("C7b", ks < 0.01, f"P={p:g}: KS(chain, stationary law) = {ks:.4f} < 0.01")
        ref = bs.narula_capacity(p)
        gap = abs(run.ergodic_log_mean - ref)
        check(
            "C7c", gap < 3 * run.log_mean_stderr,
            f"P={p:g}: ergodic mean {run.ergodic_log_mean:.5f} within 3 SE "
            f"({3 * run.log_mean_stderr:.5f}) of {ref:.5f}",
        )

    for pbar in (0.5, 1.0, 10.0, 100.0):
        total, _ = quad(
            lambda x: bs.narula_stationary_pdf(x, pbar), 1.0, np.inf,
            epsabs=1e-12, epsrel=1e-12, limit=2000,
        )
        check("C7d", abs(total - 1.0) < 1e-8, f"pbar={pbar:g}: pdf mass {total:.10f}")


def test_c8_large_k_capacity_reproduction():
    n, k, alpha, power, n_reps = 1024, 64, 0.5, 10.0, 50
    cases = [
        (bs.RAYLEIGH, bs.wyner_capacity_large_k(power, alpha, 1.0, 0.0), 0.02, "rayleigh"),
        (bs.rician(0.8, 0.36), bs.wyner_capacity_large_k(power, alpha, 1.0, 0.8), 0.03,
         "rician(nu=0.8)"),
    ]
    for group, (spec, ref, tol, label) in enumerate(cases, start=80):
        params = bs.wyner(n, k, alpha, alpha, spec, power=power)
        caps = np.zeros(n_reps)
        for r in range(n_reps):
            rng = bs.derive_stream(8, (group << 32) | r)
            s = bs.eigenvalues(bs.gram(bs.generate_channel(params, rng)))
            caps[r] = s.shannon_transform(power / k)
        rel = abs(caps.mean() / ref - 1.0)
        check(
            "C8", rel < tol,
            f"{label}: ensemble rate {caps.mean():.4f} vs limit {ref:.4f} "
            f"({rel:.2%} < {tol:.0%})",
        )


def test_c9_marchenko_pastur_alpha_trend():
    n, n_reps = 4096, 4
    for k in (1, 4):
        distances = {}
        for alpha in (0.1, 0.9):
            params = bs.wyner(n, k, alpha, alpha, bs.RAYLEIGH)
            pooled = []
            for r in range(n_reps):
                rng = bs.derive_stream(9, ((k * 10 + int(alpha * 10)) << 32) | r)
                pooled.append(bs.eigenvalues(bs.gram(bs.generate_channel(params, rng))).eigenvalues)
            scale = 1.0 / (k * (1.0 + 2.0 * alpha**2))
            spectrum = bs.EmpiricalSpectrum(np.concatenate(pooled) * scale)
            distances[alpha] = spectrum.ks_distance(
                lambda x: bs.marchenko_pastur_cdf(x, k, 1.0)
            )
        check(
            "C9", distances[0.9] < distances[0.1],
            f"K={k}: KS at alpha=0.9 ({distances[0.9]:.4f}) < "
            f"KS at alpha=0.1 ({distances[0.1]:.4f})",
        )


def test_c10_power_profile_non_convergence():
    m2 = bs.RAYLEIGH.amplitude_moment(2)
    for n in (64, 128, 256, 512):
        pa = bs.wyner(n, 1, 0.5, 0.5, bs.RAYLEIGH)
        pb = bs.wyner(2 * n, 1, 0.5, 0.5, bs.RAYLEIGH)
        diff = bs.power_profile_sup_diff(pa, pb)
        check(
            "C10", diff >= 0.5 * m2,
            f"N={n}: sup-cell profile gap {diff:.3f} >= {0.5 * m2:.3f}",
        )


@pytest.mark.scale
def test_c10_power_profile_non_convergence_at_paper_scale():
    pa = bs.wyner(2**16, 1, 0.5, 0.5, bs.RAYLEIGH)
    diff = bs.power_profile_sup_diff(pa, pa.with_size(2**17))
    check("C10 scale", diff >= 0.75, f"N=2^16: sup-cell profile gap {diff:.3f} >= 0.75")


def test_c11_harness_determinism(tmp_path):
    base = {
        "kind": "spectrum",
        "channel": {"n_cells": 64, "alpha": 0.6, "fading": "rayleigh", "power": 5.0},
        "p_grid": [1.0, 10.0],
        "replications": 4,
        "seed": 777,
    }
    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 3)):
        config = bs.ExperimentConfig.from_dict({**base, "out_dir": str(tmp_path / name)})
        outputs.append(bs.run_experiment(config, jobs=jobs))
    identical_rerun = all(
        fa.read_bytes() == fb.read_bytes()
        for fa, fb in zip(outputs[0].files, outputs[1].files)
    )
    check("C11", identical_rerun, "identical config+seed reruns are byte-identical")
    identical_jobs = all(
        fa.read_bytes() == fb.read_bytes()
        for fa, fb in zip(outputs[0].files, outputs[2].files)
    )
    check("C11", identical_jobs, "aggregation invariant to replicate scheduling (jobs=3)")
