"""Experiment runner: seeded, replicated Monte Carlo with CSV artifacts.

Reruns are byte-reproducible: replicate ``r`` always draws from a Philox
stream keyed by ``(master seed, index)``, results are reduced in replicate
order regardless of completion order, floats are printed with a fixed
17-significant-digit format, and every output file carries the config hash
and master seed in comment lines.  CSV rows are streamed in fixed-size
blocks, each formatted with one ``%`` format built from its column types.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closed_forms
from .band_matrix import (
    ChannelParams,
    DiagonalSpec,
    PivotError,
    generate_channel,
    gram,
    wyner,
)
from .eig import eigenvalues
from .fading import parse_spec_tag
from .narula_chain import simulate_chain
from .spectral import EmpiricalSpectrum, power_profile, power_profile_sup_diff, trace_moment

__all__ = [
    "KINDS",
    "ConfigError",
    "AllReplicatesFailedError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentOutput",
    "derive_stream",
    "run_experiment",
    "fit_low_snr_params",
    "fit_high_snr_params",
    "fit_high_snr_offset_extrapolated",
]

KINDS = (
    "spectrum",
    "capacity_vs_P",
    "capacity_vs_N",
    "moments",
    "narula",
    "extreme_snr",
    "mp_compare",
    "power_profile",
)

_NUMERICAL_FAILURES = (PivotError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class AllReplicatesFailedError(RuntimeError):
    """Every replicate hit a numerical failure (CLI exit code 3)."""


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream for one replicate.

    Uses the counter-based Philox generator keyed by the 128-bit pair
    ``(master_seed, index)``; distinct indices give statistically independent
    streams by construction, and the mapping is stable across releases.
    """
    key = np.array([master_seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_index(group: int, replicate: int) -> int:
    # one index space per experiment axis: group in the high 32 bits
    return (group << 32) | replicate


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One experiment: a kind, an ensemble, grids, and replication control."""

    kind: str
    channel: ChannelParams | None = None
    p_grid: tuple[float, ...] = ()
    n_grid: tuple[int, ...] = ()
    replications: int = 1
    seed: int = 0
    out_dir: str = "results"
    histogram_bins: int = 200
    n_steps: int = 100_000
    burn_in: int = 1_000
    low_p: tuple[float, ...] = (1e-3, 2e-3)
    high_p: tuple[float, ...] = (1e4, 1e6)
    alphas: tuple[float, ...] = ()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "kind", "channel", "p_grid", "n_grid", "replications", "seed",
            "out_dir", "histogram_bins", "n_steps", "burn_in", "low_p",
            "high_p", "alphas",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        channel = _channel_from_dict(data["channel"]) if data.get("channel") else None
        try:
            config = cls(
                kind=data.get("kind", ""),
                channel=channel,
                p_grid=tuple(float(p) for p in data.get("p_grid", ())),
                n_grid=tuple(int(n) for n in data.get("n_grid", ())),
                replications=int(data.get("replications", 1)),
                seed=int(data.get("seed", 0)),
                out_dir=str(data.get("out_dir", "results")),
                histogram_bins=int(data.get("histogram_bins", 200)),
                n_steps=int(data.get("n_steps", 100_000)),
                burn_in=int(data.get("burn_in", 1_000)),
                low_p=tuple(float(p) for p in data.get("low_p", (1e-3, 2e-3))),
                high_p=tuple(float(p) for p in data.get("high_p", (1e4, 1e6))),
                alphas=tuple(float(a) for a in data.get("alphas", ())),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        config.validate()
        return config

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        for name, grid in (("p_grid", self.p_grid), ("n_grid", self.n_grid),
                           ("low_p", self.low_p), ("high_p", self.high_p)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        for name, powers in (("p_grid", self.p_grid), ("low_p", self.low_p),
                             ("high_p", self.high_p)):
            if not all(math.isfinite(p) and p >= 0 for p in powers):
                raise ConfigError(f"{name} must hold finite nonnegative powers")
        needs_channel = self.kind != "narula"
        if needs_channel and self.channel is None:
            raise ConfigError(f"{self.kind} experiment needs a channel section")
        if self.kind in ("capacity_vs_P",) and not self.p_grid:
            raise ConfigError("capacity_vs_P needs a nonempty p_grid")
        if self.kind in ("capacity_vs_N", "power_profile") and not self.n_grid:
            raise ConfigError(f"{self.kind} needs a nonempty n_grid")
        if self.kind == "narula":
            if not self.p_grid:
                raise ConfigError("narula needs a nonempty p_grid")
            if not 0 <= self.burn_in < self.n_steps:
                raise ConfigError("need 0 <= burn_in < n_steps")
        if self.kind == "extreme_snr" and (len(self.low_p) < 2 or len(self.high_p) < 2):
            raise ConfigError("extreme_snr needs two low_p and two high_p points")
        if self.kind == "mp_compare" and not self.alphas:
            raise ConfigError("mp_compare needs a nonempty alphas list")

    def to_dict(self) -> dict:
        channel = None
        if self.channel is not None:
            channel = {
                "n_cells": self.channel.n_cells,
                "users_per_cell": self.channel.users_per_cell,
                "power": self.channel.power,
                "diagonals": [
                    {"offset": d.offset, "gain": d.gain, "fading": d.fading.tag}
                    for d in sorted(self.channel.diagonals, key=lambda d: d.offset)
                ],
            }
        return {
            "kind": self.kind,
            "channel": channel,
            "p_grid": list(self.p_grid),
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "seed": self.seed,
            "histogram_bins": self.histogram_bins,
            "n_steps": self.n_steps,
            "burn_in": self.burn_in,
            "low_p": list(self.low_p),
            "high_p": list(self.high_p),
            "alphas": list(self.alphas),
        }

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _channel_from_dict(data: dict) -> ChannelParams:
    try:
        n = int(data["n_cells"])
        k = int(data.get("users_per_cell", 1))
        power = float(data.get("power", 1.0))
        if "diagonals" in data:
            diagonals = tuple(
                DiagonalSpec(int(d["offset"]), float(d["gain"]), parse_spec_tag(d["fading"]))
                for d in data["diagonals"]
            )
            return ChannelParams(n, k, diagonals, power)
        # three-diagonal sugar: alpha / beta plus one shared fading tag
        alpha = float(data.get("alpha", 0.0))
        beta = float(data.get("beta", alpha))
        fading = parse_spec_tag(data.get("fading", "rayleigh"))
        return wyner(n, k, alpha, beta, fading, power)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad channel section: {exc}") from exc


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """One grid point: estimate, its standard error across replicates, the
    number of replicates that contributed, and the closed-form reference
    value when one applies (else nan)."""

    grid_value: object
    estimate: float
    std_err: float
    n_used: int
    reference: float


@dataclass(frozen=True)
class ExperimentOutput:
    results: tuple[ExperimentResult, ...]
    files: tuple[Path, ...]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_experiment(
    config: ExperimentConfig, jobs: int = 1, emit_gnuplot: bool = False
) -> ExperimentOutput:
    """Run one experiment and write its CSV artifacts.

    Identical (config, seed) pairs produce byte-identical files; replicates
    that raise a numerical failure are dropped and reported through the
    ``n_used`` column.  Raises :class:`AllReplicatesFailedError` if nothing
    survives.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner, n_plotted = _RUNNERS[config.kind]
    results, files = runner(config, out_dir, jobs)
    if emit_gnuplot:
        files += _gnuplot_scripts(files[:n_plotted])
    return ExperimentOutput(tuple(results), tuple(files))


def _replicate_map(config: ExperimentConfig, group: int, jobs: int, worker):
    """Run ``worker(rng)`` once per replicate, collected in index order."""
    indices = range(config.replications)

    def call(r):
        rng = derive_stream(config.seed, _stream_index(group, r))
        try:
            return worker(rng)
        except _NUMERICAL_FAILURES:
            return None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            slots = list(pool.map(call, indices))
    else:
        slots = [call(r) for r in indices]
    ok = [s for s in slots if s is not None]
    if not ok:
        raise AllReplicatesFailedError(
            f"all {config.replications} replicates failed numerically"
        )
    return ok


def _gram_replicates(config, params: ChannelParams, group: int, jobs: int, stat):
    """``stat(gram(generate_channel(params, rng)))`` for each surviving replicate."""
    return _replicate_map(
        config, group, jobs, lambda rng: stat(gram(generate_channel(params, rng)))
    )


def _transforms(spec: EmpiricalSpectrum, rhos) -> np.ndarray:
    return np.array([spec.shannon_transform(r) for r in rhos])


def _shannon(rhos):
    """Replicate statistic: Shannon transforms of the spectrum at each rho."""
    return lambda a: _transforms(eigenvalues(a), rhos)


def _mean_se(rows: list[np.ndarray]):
    stacked = np.stack(rows)
    mean = stacked.mean(axis=0)
    if len(rows) > 1:
        se = stacked.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        se = np.full_like(mean, float("nan"))
    return mean, se


def _estimate_rows(grid, replicates, refs):
    """One table row per grid point: replicate mean, standard error, count
    and reference of the statistic at that position."""
    mean, se = _mean_se(replicates)
    return [(g, mean[i], se[i], len(replicates), refs[i]) for i, g in enumerate(grid)]


def _capacity_rows(params: ChannelParams, p_grid, transforms):
    refs = [_capacity_reference(params, p) for p in p_grid]
    return _estimate_rows(p_grid, transforms, refs)


def _table(path: Path, grid_name: str, rows, config):
    """Write a ``grid,estimate,std_err,n_used,reference`` table."""
    columns = (grid_name, "estimate", "std_err", "n_used", "reference")
    _write_csv(path, columns, rows, _meta(config))
    return [ExperimentResult(*row) for row in rows], [path]


# -- per-kind runners --------------------------------------------------------

def _run_spectrum(config, out_dir, jobs):
    params = config.channel
    rhos = [p / params.users_per_cell for p in config.p_grid]

    def stat(a):
        spec = eigenvalues(a)
        return spec.eigenvalues, _transforms(spec, rhos)

    replicates = _gram_replicates(config, params, 0, jobs, stat)
    pooled = np.sort(np.concatenate([eigs for eigs, _ in replicates]))
    meta = _meta(config)
    files = [
        _write_csv(
            out_dir / "spectrum.csv", ("index", "eigenvalue"),
            [(i + 1, v) for i, v in enumerate(pooled)], meta,
        ),
        _write_csv(
            out_dir / "ecdf.csv", ("bin_left", "bin_right", "count", "cum_fraction"),
            _histogram_rows(pooled, config.histogram_bins), meta,
        ),
    ]
    results = []
    if rhos:
        rows = _capacity_rows(params, config.p_grid, [t for _, t in replicates])
        results, table = _table(out_dir / "shannon.csv", "P", rows, config)
        files += table
    return results, files


def _run_capacity_vs_p(config, out_dir, jobs):
    params = config.channel
    rhos = [p / params.users_per_cell for p in config.p_grid]
    replicates = _gram_replicates(config, params, 0, jobs, _shannon(rhos))
    rows = _capacity_rows(params, config.p_grid, replicates)
    return _table(out_dir / "capacity_vs_P.csv", "P", rows, config)


def _run_capacity_vs_n(config, out_dir, jobs):
    base = config.channel
    stat = _shannon([base.rho])
    ref = _capacity_reference(base, base.power)
    rows = []
    for gi, n in enumerate(config.n_grid):
        replicates = _gram_replicates(config, base.with_size(n), gi, jobs, stat)
        rows += _estimate_rows([n], replicates, [ref])
    return _table(out_dir / "capacity_vs_N.csv", "N", rows, config)


def _run_moments(config, out_dir, jobs):
    params = config.channel
    orders = (1, 2, 3)
    replicates = _gram_replicates(
        config, params, 0, jobs, lambda a: np.array([trace_moment(a, p) for p in orders])
    )
    refs = _moment_reference(params) or (float("nan"),) * len(orders)
    rows = _estimate_rows(orders, replicates, refs)
    return _table(out_dir / "moments.csv", "p", rows, config)


def _run_narula(config, out_dir, jobs):
    meta = _meta(config)
    rows, results, files = [], [], []
    for i, p in enumerate(config.p_grid):
        rng = derive_stream(config.seed, _stream_index(i, 0))
        run = simulate_chain(p, config.n_steps, config.burn_in, rng)
        rows.append((p, run.ergodic_log_mean, run.log_mean_stderr, config.n_steps))
        ref = closed_forms.narula_capacity(p)
        results.append(ExperimentResult(
            p, run.ergodic_log_mean, run.log_mean_stderr, len(run.samples), ref,
        ))
        steps = np.arange(config.burn_in + 1, config.n_steps + 1)
        files.append(_write_csv(
            out_dir / f"narula_samples_p{i}.csv", ("step", "d", "log_d"),
            zip(steps, run.samples, np.log(run.samples)), meta,
        ))
    files.insert(0, _write_csv(
        out_dir / "narula_summary.csv",
        ("P", "capacity_estimate", "std_err", "n_steps"), rows, meta,
    ))
    return results, files


def _run_extreme_snr(config, out_dir, jobs):
    params = config.channel
    k = params.users_per_cell
    rhos = [p / k for p in tuple(config.low_p) + tuple(config.high_p)]
    replicates = _gram_replicates(config, params, 0, jobs, _shannon(rhos))
    mean, _ = _mean_se(replicates)
    n_low = len(config.low_p)
    eb_est, s0_est = fit_low_snr_params(config.low_p[:2], mean[:2])
    s_inf_est, l_inf_est = fit_high_snr_params(config.high_p[:2], mean[n_low:n_low + 2])
    l_inf_ext = fit_high_snr_offset_extrapolated(
        config.high_p[:2], mean[n_low:n_low + 2]
    )
    refs = _extreme_snr_reference(params)
    quantities = [
        ("eb_n0_min", eb_est, refs[0]),
        ("s0", s0_est, refs[1]),
        ("s_inf", s_inf_est, refs[2]),
        ("l_inf", l_inf_est, refs[3]),
        ("l_inf_extrapolated", l_inf_ext, refs[3]),
    ]
    results = [
        ExperimentResult(name, est, float("nan"), len(replicates), ref)
        for name, est, ref in quantities
    ]
    files = [_write_csv(
        out_dir / "extreme_snr.csv", ("quantity", "estimate", "reference"),
        quantities, _meta(config),
    )]
    return results, files


def _run_mp_compare(config, out_dir, jobs):
    base = config.channel
    k = base.users_per_cell
    center = _diagonal_gain_spec(base, 0)[1]
    m2 = center.amplitude_moment(2)
    rows, results = [], []
    for gi, alpha in enumerate(config.alphas):
        params = wyner(base.n_cells, k, alpha, alpha, center, base.power)
        scale = 1.0 / (k * (1.0 + 2.0 * alpha**2))
        replicates = _gram_replicates(
            config, params, gi, jobs, lambda a: eigenvalues(a).eigenvalues
        )
        pooled = EmpiricalSpectrum(np.concatenate(replicates) * scale)
        ks = pooled.ks_distance(
            lambda x: closed_forms.marchenko_pastur_cdf(x, k, m2)
        )
        rows.append((alpha, k, ks, pooled.n))
        results.append(ExperimentResult(alpha, ks, float("nan"), len(replicates), float("nan")))
    files = [_write_csv(
        out_dir / "mp_compare.csv", ("alpha", "K", "ks_distance", "n_eigenvalues"),
        rows, _meta(config),
    )]
    return results, files


def _run_power_profile(config, out_dir, jobs):
    base = config.channel
    rows, results = [], []
    for n in config.n_grid:
        diff = power_profile_sup_diff(base.with_size(n), base.with_size(2 * n))
        rows.append((n, diff))
        results.append(ExperimentResult(n, diff, 0.0, 1, float("nan")))
    meta = _meta(config)
    files = [_write_csv(
        out_dir / "power_profile.csv", ("N", "sup_cell_diff_to_2N"), rows, meta,
    )]
    n0 = config.n_grid[0]
    grid = power_profile(base.with_size(n0))
    grid_rows = [
        (i + 1, j + 1, grid[i, j])
        for i in range(grid.shape[0])
        for j in range(grid.shape[1])
    ]
    files.append(_write_csv(
        out_dir / f"profile_n{n0}.csv", ("row", "col", "value"), grid_rows, meta,
    ))
    return results, files


# kind -> (runner, how many of its leading files get a gnuplot script; None = all)
_RUNNERS = {
    "spectrum": (_run_spectrum, None),
    "capacity_vs_P": (_run_capacity_vs_p, None),
    "capacity_vs_N": (_run_capacity_vs_n, None),
    "moments": (_run_moments, None),
    "narula": (_run_narula, 1),
    "extreme_snr": (_run_extreme_snr, 0),
    "mp_compare": (_run_mp_compare, 0),
    "power_profile": (_run_power_profile, 0),
}


# ---------------------------------------------------------------------------
# extreme-SNR fits
# ---------------------------------------------------------------------------

def fit_low_snr_params(p_points, capacities_nats):
    """Fit (Eb/N0_min, S0) from capacity at two small powers.

    Solves the quadratic model ``C(P) = c1 P + c2 P^2 / 2`` exactly through
    the two points; then ``Eb/N0_min = log 2 / c1`` and ``S0 = 2 c1^2 / -c2``.
    """
    (p1, p2), (c1v, c2v) = p_points, capacities_nats
    mat = np.array([[p1, p1**2 / 2.0], [p2, p2**2 / 2.0]])
    c1, c2 = np.linalg.solve(mat, np.array([c1v, c2v]))
    return float(np.log(2.0) / c1), float(2.0 * c1**2 / -c2)


def fit_high_snr_params(p_points, capacities_nats):
    """Affine high-SNR fit: slope in bits per 3 dB and power offset.

    ``S = (C2 - C1) / (log2 P2 - log2 P1)`` and
    ``L = log2 P1 - C1 / S`` with capacities converted to bits.
    """
    (p1, p2) = p_points
    cb = np.asarray(capacities_nats) / np.log(2.0)
    s = (cb[1] - cb[0]) / (np.log2(p2) - np.log2(p1))
    l = np.log2(p1) - cb[0] / s
    return float(s), float(l)


def fit_high_snr_offset_extrapolated(p_points, capacities_nats, s_inf: float = 1.0):
    """Power-offset estimate that extrapolates out the O(1/log P) transient.

    Fading channels of this family approach their high-SNR expansion only
    logarithmically, so the raw offset ``log2 P - C/S`` at accessible powers
    is still far from its limit.  Fitting the two-parameter model
    ``log2 P - C/S = L - a / log P`` through two points removes the leading
    transient; both parameters come from the data.
    """
    (p1, p2) = p_points
    cb = np.asarray(capacities_nats) / np.log(2.0)
    d1 = np.log2(p1) - cb[0] / s_inf
    d2 = np.log2(p2) - cb[1] / s_inf
    w1, w2 = 1.0 / np.log(p1), 1.0 / np.log(p2)
    return float((d2 * w1 - d1 * w2) / (w1 - w2))


# ---------------------------------------------------------------------------
# closed-form reference plumbing
# ---------------------------------------------------------------------------

def _diagonal_gain_spec(params: ChannelParams, offset: int):
    for d in params.diagonals:
        if d.offset == offset:
            return d.gain, d.fading
    return 0.0, None


def _wyner_shape(params: ChannelParams):
    """(alpha, beta) when the channel is the three-diagonal uplink, else None."""
    if not set(params.offsets) <= {-1, 0, 1}:
        return None
    g0, _ = _diagonal_gain_spec(params, 0)
    if g0 != 1.0:
        return None
    alpha, _ = _diagonal_gain_spec(params, -1)
    beta, _ = _diagonal_gain_spec(params, +1)
    return alpha, beta


def _capacity_reference(params: ChannelParams, total_power: float) -> float:
    shape = _wyner_shape(params)
    if shape is None or shape[0] != shape[1]:
        return float("nan")
    if any(d.fading.kind != "deterministic" for d in params.diagonals):
        return float("nan")
    return closed_forms.wyner_capacity_nonfading(total_power, shape[0])


def _moment_reference(params: ChannelParams):
    shape = _wyner_shape(params)
    if shape is None or shape[0] != shape[1] or params.users_per_cell != 1:
        return None
    specs = {d.fading for d in params.diagonals}
    if len(specs) != 1:
        return None
    spec = specs.pop()
    alpha = shape[0]
    if alpha > 0 and spec.kind not in ("rayleigh", "uniform-phase"):
        return None
    return closed_forms.limiting_moments(
        spec.amplitude_moment(2), spec.amplitude_moment(4), spec.amplitude_moment(6),
        alpha,
    )


def _extreme_snr_reference(params: ChannelParams):
    nan = float("nan")
    eb = s0 = s_inf = l_inf = nan
    shape = _wyner_shape(params)
    specs = [d.fading for d in params.diagonals]
    if shape is not None and shape[0] == shape[1] and len(set(specs)) == 1:
        eb, s0 = closed_forms.low_snr_params(
            params.users_per_cell, shape[0],
            specs[0].amplitude_moment(2), specs[0].amplitude_moment(4),
        )
    offs = set(params.offsets)
    if params.users_per_cell == 1 and offs in ({-1, 0}, {0, 1}):
        side = -1 if -1 in offs else 1
        g_side, spec_side = _diagonal_gain_spec(params, side)
        g0, spec0 = _diagonal_gain_spec(params, 0)
        if g_side == 1.0 and g0 == 1.0:
            s_inf, l_inf = closed_forms.high_snr_params(spec0, spec_side)
    return eb, s0, s_inf, l_inf


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _meta(config: ExperimentConfig) -> dict:
    return {
        "experiment": config.kind,
        "config_sha256": config.sha256(),
        "master_seed": config.seed,
    }


# rows formatted and written per block: one write per block, and memory that
# stays flat however many rows a file has
_BLOCK_ROWS = 1024


def _spec(t: type) -> str:
    """``%`` spec for values of type ``t``: integers in full, floats to 17
    significant digits, anything else as ``str``."""
    if issubclass(t, (int, np.integer)):
        return "%d"
    if issubclass(t, (float, np.floating)):
        return "%.17g"
    return "%s"


def _format_block(block: list) -> str:
    specs = [{_spec(t) for t in set(map(type, column))} for column in zip(*block)]
    if all(len(column) == 1 for column in specs):
        fmt = ",".join(spec for (spec,) in specs) + "\n"
        return "".join([fmt % tuple(row) for row in block])
    # some column mixes kinds of value (say an int and a float): one spec per value
    return "".join(",".join(_spec(type(v)) % (v,) for v in row) + "\n" for row in block)


def _write_csv(path: Path, columns, rows, meta: dict) -> Path:
    with open(path, "w", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(columns) + "\n")
        rows = iter(rows)
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            fh.write(_format_block(block))
    return path


def _histogram_rows(values: np.ndarray, n_bins: int):
    # bins start at 0 unless round-off put eigenvalues below it, so every
    # value lands in a bin and the last cum_fraction is exactly 1
    lo = min(0.0, float(values.min())) if len(values) else 0.0
    hi = float(values.max()) if len(values) and values.max() > 0 else 1.0
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    cum = np.cumsum(counts) / max(len(values), 1)
    return [
        (edges[i], edges[i + 1], int(counts[i]), cum[i])
        for i in range(n_bins)
    ]


def _gnuplot_scripts(csv_files) -> list[Path]:
    scripts = []
    for csv_path in csv_files:
        if csv_path.suffix != ".csv":
            continue
        gp = csv_path.with_suffix(".gp")
        with open(gp, "w", newline="\n") as fh:
            fh.write("set datafile separator ','\n")
            fh.write(f"set title '{csv_path.stem}'\n")
            fh.write(f"plot '{csv_path.name}' every ::1 using 1:2 with linespoints\n")
        scripts.append(gp)
    return scripts
