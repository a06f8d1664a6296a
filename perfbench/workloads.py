"""The benchmark's workloads and the checks on their outputs.

Each workload is one experiment config for ``bandspec.harness.run_experiment``
plus the thread count it runs with.  The seed comes from the command line.
``WORKLOADS.md`` says why each one was chosen and what it should show.

A check re-derives the outputs from the library's public functions on the
same random streams as the harness, outside every timed window, and returns
``(description, ok)`` pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import bandspec as bs

# C2: eigenvalue and LDL routes to the Shannon transform agree to 1e-10.
C2_RTOL = 1e-10
# C4: Monte Carlo estimates within 2% of their closed form.
C4_RTOL = 0.02
# C7c asks for 3 standard errors at one fixed seed.  Run on any seed, three
# powers at 3 SE fail about 1 run in 100 (4 of 400 seeds at these sizes),
# so the gate across seeds is 4 SE; the measured z is printed with it.
CHAIN_Z = 4.0
# E|h|^2, E|h|^4, E|h|^6 of CN(0, 1) fading.
RAYLEIGH_MOMENTS = (1.0, 2.0, 6.0)

# Rayleigh Wyner uplink, K = 1: Gram bandwidth 2.
WYNER = {"users_per_cell": 1, "alpha": 0.5, "beta": 0.5, "fading": "rayleigh",
         "power": 10.0}
# Two-diagonal Rayleigh channel (the ISI / pivot-chain channel): bandwidth 1.
TWO_TAP = {"users_per_cell": 1, "alpha": 1.0, "beta": 0.0, "fading": "rayleigh",
           "power": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    jobs: int
    check: Callable[[bs.ExperimentConfig, dict], list]

    def experiment(self, seed: int, out_dir) -> bs.ExperimentConfig:
        return bs.ExperimentConfig.from_dict(
            {**self.config, "seed": seed, "out_dir": str(out_dir)}
        )

    @property
    def is_chain(self) -> bool:
        return self.config["kind"] == "narula"

    def rows_per_call(self) -> int:
        """Input size: matrix rows generated, or chain steps."""
        if self.is_chain:
            return self.config["n_steps"] * len(self.config["p_grid"])
        return self.config["channel"]["n_cells"] * self.config["replications"]

    def attempts_per_call(self) -> int:
        """One replicate, or one chain per power."""
        if self.is_chain:
            return len(self.config["p_grid"])
        return self.config["replications"]

    def failed_attempts(self, output: bs.ExperimentOutput) -> int:
        """Attempts the harness dropped, read from ``n_used``."""
        if self.is_chain:
            kept = self.config["n_steps"] - self.config["burn_in"]
            return sum(r.n_used != kept for r in output.results)
        return self.config["replications"] - min(r.n_used for r in output.results)


# -- output checks --------------------------------------------------------------

def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a harness CSV by name, skipping ``#`` metadata lines."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def _stream(seed: int, group: int, replicate: int):
    # the harness keys replicate r of experiment axis g by (seed, g << 32 | r)
    return bs.derive_stream(seed, (group << 32) | replicate)


def _within(label: str, value: float, limit: float):
    return f"{label}: {value:.3g} <= {limit:g}", bool(value <= limit)


def _max_rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a / b - 1.0)))


def _ldl_shannon(cfg: bs.ExperimentConfig) -> np.ndarray:
    """Replicate-mean ``mean(log(ldl_shifted(A_r, rho)))`` for each power."""
    rhos = [p / cfg.channel.users_per_cell for p in cfg.p_grid]
    per_rep = np.empty((cfg.replications, len(rhos)))
    for r in range(cfg.replications):
        a = bs.gram(bs.generate_channel(cfg.channel, _stream(cfg.seed, 0, r)))
        per_rep[r] = [np.log(bs.ldl_shifted(a, rho)).mean() for rho in rhos]
    return per_rep.mean(axis=0)


def check_spectrum(cfg, files):
    eigs = read_csv(files["spectrum.csv"])["eigenvalue"]
    rows = cfg.channel.n_cells * cfg.replications
    rhos = [p / cfg.channel.users_per_cell for p in cfg.p_grid]
    ldl = _ldl_shannon(cfg)
    # All replicates have N eigenvalues, so the pooled mean is the mean of
    # the replicate transforms.
    pooled = [np.log1p(rho * eigs).mean() for rho in rhos]
    last = float(read_csv(files["ecdf.csv"])["cum_fraction"][-1])
    return [
        (f"spectrum.csv holds N*R = {rows} sorted eigenvalues (has {len(eigs)})",
         len(eigs) == rows and bool(np.all(np.diff(eigs) >= 0))),
        (f"last ecdf.csv cum_fraction is 1 (is {last!r})", last == 1.0),
        _within("spectrum.csv Shannon transform vs LDL pivots, max rel gap",
                _max_rel(pooled, ldl), C2_RTOL),
        _within("shannon.csv estimate vs LDL pivots, max rel gap",
                _max_rel(read_csv(files["shannon.csv"])["estimate"], ldl), C2_RTOL),
    ]


def check_capacity(cfg, files):
    est = read_csv(files["capacity_vs_P.csv"])["estimate"]
    refs = [bs.narula_capacity(p) for p in cfg.p_grid]
    return [
        _within("capacity_vs_P.csv estimate vs LDL pivots, max rel gap",
                _max_rel(est, _ldl_shannon(cfg)), C2_RTOL),
        _within("estimate vs narula_capacity(P), max rel error",
                _max_rel(est, refs), C4_RTOL),
    ]


def check_chain(cfg, files):
    summary = read_csv(files["narula_summary.csv"])
    steps = np.arange(cfg.burn_in + 1, cfg.n_steps + 1)
    out = []
    for i, p in enumerate(cfg.p_grid):
        run = bs.simulate_chain(p, cfg.n_steps, cfg.burn_in, _stream(cfg.seed, i, 0))
        cols = read_csv(files[f"narula_samples_p{i}.csv"])
        same = (
            np.array_equal(cols["step"], steps)
            and np.array_equal(cols["d"], run.samples)
            and np.array_equal(cols["log_d"], np.log(run.samples))
        )
        out.append((f"narula_samples_p{i}.csv parses back to simulate_chain(P={p:g}) "
                    "pivots exactly", bool(same)))
        z = abs(summary["capacity_estimate"][i] - bs.narula_capacity(p)) / summary["std_err"][i]
        out.append(_within(f"P={p:g}: |estimate - narula_capacity| in standard errors",
                           z, CHAIN_Z))
    return out


def check_moments(cfg, files):
    est = read_csv(files["moments.csv"])["estimate"]
    refs = bs.limiting_moments(*RAYLEIGH_MOMENTS, WYNER["alpha"])
    return [_within("moments.csv estimate vs limiting_moments, max rel error",
                    _max_rel(est, refs), C4_RTOL)]


# -- the workloads ----------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "wyner-spectrum",
        "full eigensolve whose eigenvalue list is the output; the only jobs=2 run",
        {"kind": "spectrum", "channel": {**WYNER, "n_cells": 2048},
         "p_grid": [1.0, 10.0, 100.0], "replications": 8},
        jobs=2, check=check_spectrum,
    ),
    Workload(
        "two-tap-capacity",
        "bandwidth-1 Shannon transforms at five powers, all from the eigensolve "
        "on the auto route",
        {"kind": "capacity_vs_P", "channel": {**TWO_TAP, "n_cells": 512},
         "p_grid": [1.0, 10.0, 100.0, 1e3, 1e4], "replications": 16},
        jobs=1, check=check_capacity,
    ),
    Workload(
        "pivot-chain",
        "no matrix: the pivot recursion and the CSV writer do the work",
        {"kind": "narula", "p_grid": [1.0, 10.0, 100.0], "n_steps": 100_000,
         "burn_in": 1000},
        jobs=1, check=check_chain,
    ),
    Workload(
        "wyner-moments",
        "band kernels (fading draws, gram, trace_moment) at N=262144 with no "
        "eigensolve; memory grows with N",
        {"kind": "moments", "channel": {**WYNER, "n_cells": 262_144},
         "replications": 6},
        jobs=1, check=check_moments,
    ),
)}
