"""Experiment runner: seeded, replicated Monte Carlo, config plus runners.

Reruns are byte-reproducible: replicate ``r`` of group ``g`` (a grid
position, or a ``narula`` power) always draws from a Philox stream keyed by
``(master seed, g << 32 | r)``, results are reduced in replicate order
whatever the number of jobs, and :mod:`bandspec.output` writes every file,
with the config hash and master seed in comment lines.

Each experiment kind is declared once, in ``_RUNNERS``: its runner, how
many of its files get a gnuplot script, the config fields it reads and
those it needs nonempty.  A config may set no other field, so its hash
covers only what the run computes.  A runner hands one worker per group to
one call of the replicate map and returns its results and tables, each a
``(file name, column names, columns)`` triple; only :func:`run_experiment`
knows the job count, the output directory and the metadata lines, and it
writes the tables after the runner returns, so a failed run writes no file.

Shannon transforms come from shifted LDL pivots in O(N b^2) per power, all
powers of a replicate from one stacked factorization; the O(N^2) band
eigensolve runs only where the eigenvalue list is itself the output
(``spectrum.csv``, ``ecdf.csv``) or is compared whole (``mp_compare``).

Every replicate of a run goes through one pool of ``min(jobs, replicates in
the run, os.cpu_count())`` forked worker processes (threads would wait on the
interpreter lock that scipy's LAPACK wrappers hold), or runs serially when
that is 1 or the platform cannot fork.  On glibc, the run's replicates
reuse the heap that the replicate before them freed, and the run hands it
back to the system when it ends.  A replicate (or ``narula`` chain)
dropped for a numerical failure is logged at WARNING on the
``bandspec.harness`` logger with its index, stream key and exception; a
group with no survivor is named by its index in the error.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import closed_forms
from .band_matrix import (
    ChannelParams,
    DiagonalSpec,
    PivotError,
    _stack_slices,
    generate_channel,
    gram,
    log_ldl_shifted,
    wyner,
)
from .eig import eigenvalues
from .fading import MomentUnavailableError, parse_spec_tag
from .narula_chain import N_BATCHES, simulate_chain
from .output import gnuplot_scripts, write_csv
from .spectral import EmpiricalSpectrum, _offset_mass, power_profile_sup_diff, trace_moment

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

_NUMERICAL_FAILURES = (PivotError, np.linalg.LinAlgError, FloatingPointError)

_log = logging.getLogger(__name__)


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

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, an ensemble, grids, and replication control.
    Checked as it is built; override a field with ``dataclasses.replace``."""

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
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config needs a kind")
        values = {}
        for f in fields(cls):
            if f.name in data:
                try:
                    values[f.name] = _CONVERTERS[f.type](data[f.name])
                except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"bad {f.name}: {exc}") from exc
        return cls(**values)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        kind = _RUNNERS[self.kind]
        for f in fields(self):
            if f.name not in kind.reads + _COMMON and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.kind} does not read {f.name}: leave it out")
        for name in kind.needs:
            if not getattr(self, name):
                raise ConfigError(f"{self.kind} needs a nonempty {name}")
        if not 0 <= self.seed < 2**64:  # derive_stream keys Philox with a uint64
            raise ConfigError("seed must lie in [0, 2^64)")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.histogram_bins < 1:
            raise ConfigError("histogram_bins must be >= 1")
        for name in ("p_grid", "n_grid", "low_p", "high_p"):
            grid = getattr(self, name)
            if not all(math.isfinite(v) and v >= 0 for v in grid):
                raise ConfigError(f"{name} must hold finite nonnegative numbers")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not 0 <= self.burn_in < self.n_steps:
            raise ConfigError("need 0 <= burn_in < n_steps")
        if self.kind == "narula" and self.n_steps - self.burn_in < N_BATCHES:
            raise ConfigError(f"narula needs n_steps - burn_in >= {N_BATCHES}, a step per batch")
        if self.kind == "narula" and min(self.p_grid) <= 0:  # the chain's law needs P > 0
            raise ConfigError("narula needs positive p_grid powers")
        # the extreme-SNR fits read two points at each end and divide by P (low) or log P (high)
        two_each = len(self.low_p) == len(self.high_p) == 2
        if not two_each or min(self.low_p + self.high_p) <= 0 or 1.0 in self.high_p:
            raise ConfigError("low_p and high_p need two positive points each, and no high_p of 1")
        # build every channel the run builds; power_profile's 2N fits wherever N does
        try:
            for n in self.n_grid:
                self.channel.with_size(n)
            for alpha in self.alphas:
                _mp_channel(self.channel, alpha)
        except ValueError as exc:
            raise ConfigError(f"{self.kind} channel: {exc}") from exc

    def to_dict(self) -> dict:
        """Every field but ``out_dir``: what a run computes, not where it writes."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        out["channel"] = _channel_to_dict(self.channel) if self.channel is not None else None
        return out

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _int(value) -> int:
    # integral numbers only: 2.7, True or "3" are errors, not 2, 1 or 3
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _list_of(convert):
    def parse(value):
        # a string is a sequence too: "12" must not run as (1.0, 2.0)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list of numbers, got {value!r}")
        return tuple(map(convert, value))
    return parse


def _reads_only(data: dict, what: str, keys) -> None:
    unread = sorted(set(data) - set(keys))
    if unread:
        raise ValueError(f"{what} does not read {unread}")


def _channel_from_dict(data: dict) -> ChannelParams | None:
    if not data:
        return None
    # a channel gives its diagonals or the three-diagonal sugar, not both
    shape = ("diagonals",) if "diagonals" in data else ("alpha", "beta", "fading")
    _reads_only(data, "channel", ("n_cells", "users_per_cell", "power") + shape)
    n = _int(data["n_cells"])
    k = _int(data.get("users_per_cell", 1))
    power = _float(data.get("power", 1.0))
    if "diagonals" in data:
        for d in data["diagonals"]:
            _reads_only(d, "diagonal", ("offset", "gain", "fading"))
        diagonals = tuple(
            DiagonalSpec(_int(d["offset"]), _float(d["gain"]), parse_spec_tag(d["fading"]))
            for d in data["diagonals"]
        )
        return ChannelParams(n, k, diagonals, power)
    # three-diagonal sugar: alpha / beta plus one shared fading tag
    alpha = _float(data.get("alpha", 0.0))
    beta = _float(data.get("beta", alpha))
    return wyner(n, k, alpha, beta, parse_spec_tag(data.get("fading", "rayleigh")), power)


def _channel_to_dict(channel: ChannelParams) -> dict:
    return {
        "n_cells": channel.n_cells,
        "users_per_cell": channel.users_per_cell,
        "power": channel.power,
        "diagonals": [
            {"offset": d.offset, "gain": d.gain, "fading": d.fading.tag}
            for d in channel.diagonals
        ],
    }


# field type (as annotated) -> converter from its JSON value
_CONVERTERS = {
    "str": str,
    "int": _int,
    "tuple[float, ...]": _list_of(_float),
    "tuple[int, ...]": _list_of(_int),
    "ChannelParams | None": _channel_from_dict,
}


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
    """Run one experiment, then write its CSV artifacts.

    Identical (config, seed) pairs produce byte-identical files; replicates
    that raise a numerical failure are dropped and reported through the
    ``n_used`` column.  Raises :class:`AllReplicatesFailedError` if nothing
    survives, before the output directory or any file is made.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    kind = _RUNNERS[config.kind]
    results, tables = kind.run(config, functools.partial(_replicate_map, config.seed, jobs))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"experiment": config.kind, "config_sha256": config.sha256(), "master_seed": config.seed}
    files = [write_csv(out_dir / name, names, columns, meta) for name, names, columns in tables]
    if emit_gnuplot:
        files += gnuplot_scripts(files[:kind.n_plotted])
    return ExperimentOutput(tuple(results), tuple(files))


def _replicate_map(seed: int, jobs: int, workers, count: int) -> list[list]:
    """Run ``workers[g](rng)`` for ``count`` replicates of each group ``g``, all
    through one pool; return each group's survivors, in replicate order.

    A replicate that raises a numerical failure is dropped and logged; a group
    with no survivor raises once every group has run."""
    def call(i):
        g, r = divmod(i, count)
        try:
            return workers[g](derive_stream(seed, _stream_index(g, r)))
        except _NUMERICAL_FAILURES as exc:
            # without its frames, or those of the error it chains, which
            # would keep the replicate's arrays alive
            exc.__cause__ = exc.__context__ = None
            return exc.with_traceback(None)

    total = len(workers) * count
    procs = min(jobs, total, os.cpu_count() or 1)
    with _replicate_heap():
        if procs > 1 and hasattr(os, "fork"):
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            # workers inherit the closure ``call``: only indices and results are pickled
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(procs, fork, _install_call, (call,)) as pool:
                slots = list(pool.map(_call_in_worker, range(total)))
        else:
            slots = [call(i) for i in range(total)]
    for i, slot in enumerate(slots):
        if isinstance(slot, _NUMERICAL_FAILURES):
            _log.warning("dropped replicate %d (stream key seed=%d, index=%d): %r",
                         i % count, seed, _stream_index(*divmod(i, count)), slot)
    groups = [[slot for slot in slots[i:i + count] if not isinstance(slot, _NUMERICAL_FAILURES)]
              for i in range(0, total, count)]
    failed = [str(g) for g, survivors in enumerate(groups) if not survivors]
    if failed:
        raise AllReplicatesFailedError(
            f"{count} of {count} replicates failed numerically in "
            f"group{'s' * (len(failed) > 1)} {', '.join(failed)}")
    return groups


# glibc's mallopt(3) parameters and the values a run's replicates run under
# (32 MiB is the largest mmap threshold glibc takes on 64-bit), and glibc's
# default trim threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20
_DEFAULT_TRIM_THRESHOLD = 128 << 10


class _Mallinfo2(ctypes.Structure):
    # glibc's struct mallinfo2 (glibc 2.33 on): ten size_t counters
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


@functools.cache
def _glibc_malloc():
    """glibc's ``(mallopt, malloc_trim, mallinfo2)``, or None where the
    process has no such symbols."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim, info = libc.mallopt, libc.malloc_trim, libc.mallinfo2
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    info.argtypes, info.restype = (), _Mallinfo2
    return mallopt, trim, info


@contextlib.contextmanager
def _replicate_heap():
    """Let each replicate reuse the heap the one before it freed, and hand
    that heap back to the system on exit.

    By default glibc serves an array of more than its mmap threshold with
    fresh pages and unmaps them when it is freed, and returns a free heap top
    past its trim threshold to the kernel, so every replicate of a large
    channel faults its pages in again.  On entry this sets the mmap threshold
    to 32 MiB and the trim threshold to 64 MiB, so arrays of up to 32 MiB come
    from the heap and up to 64 MiB of free heap top stays with the process.
    On exit, raised or not, ``malloc_trim(0)`` hands the free heap back if
    its free top exceeds glibc's default trim threshold of 128 KiB, as a
    ``free`` at the default settings would; a smaller top is all that a run
    of small replicates leaves, and trimming it would only unmap pages the
    next run faults in again.  The settings hold for the rest of the process,
    forked workers inherit them, and setting ``M_MMAP_THRESHOLD`` turns off
    glibc's dynamic mmap threshold (mallopt(3)).  Where glibc's ``mallopt``,
    ``malloc_trim`` or ``mallinfo2`` is missing, or ``mallopt`` refuses the
    value (musl's stub returns 0), it does nothing.  Nothing it changes
    reaches a computed value."""
    mallopt, trim, info = _glibc_malloc() or (None, None, None)
    active = mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) != 0
    if active:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    try:
        yield
    finally:
        if active and info().keepcost > _DEFAULT_TRIM_THRESHOLD:
            trim(0)


_worker_call = None  # a forked worker's replicate closure


def _install_call(call) -> None:
    global _worker_call
    _worker_call = call


def _call_in_worker(i: int):
    return _worker_call(i)


def _gram_worker(params: ChannelParams, stat):
    """Replicate worker: ``stat`` of the Gram matrix of one channel draw."""
    return lambda rng: stat(gram(generate_channel(params, rng)))


def _shannon(params: ChannelParams, powers):
    """Replicate statistic: the Shannon transform at per-user SNR ``P / K`` for
    each total power P, as the mean log of the shifted LDL pivots (O(N b^2)
    per power), all powers from one stacked factorization.  At large N the
    grid goes in slices, so the pivots held at once do not grow with it."""
    rhos = np.divide(powers, params.users_per_cell, dtype=float)

    def transforms(a):
        out = np.empty(len(rhos))
        for rows in _stack_slices(a.n, len(rhos)):
            out[rows] = log_ldl_shifted(a, rhos[rows]).mean(axis=1)
        return out

    return transforms


def _mean_se(rows: list[np.ndarray]):
    stacked = np.stack(rows)
    mean = stacked.mean(axis=0)
    if len(rows) > 1:
        se = stacked.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        se = np.full_like(mean, float("nan"))
    return mean, se


def _table(name: str, grid_name: str, blocks):
    """A ``grid,estimate,std_err,n_used,reference`` table with one row per
    grid point of each ``(grid, replicates, refs)`` block: the replicate
    mean and standard error of the statistic at that position, the number of
    replicates and the reference."""
    rows = []
    for grid, replicates, refs in blocks:
        mean, se = _mean_se(replicates)
        rows += zip(grid, mean, se, itertools.repeat(len(replicates)), refs)
    names = (grid_name, "estimate", "std_err", "n_used", "reference")
    return [ExperimentResult(*row) for row in rows], [(name, names, list(zip(*rows)))]


def _histogram_columns(values: np.ndarray, n_bins: int):
    """``bin_left, bin_right, count, cum_fraction`` columns of ``values``."""
    # bins start at 0 unless round-off put eigenvalues below it, so every
    # value lands in a bin and the last cum_fraction is exactly 1
    lo = min(0.0, float(values.min())) if len(values) else 0.0
    hi = float(values.max()) if len(values) and values.max() > 0 else 1.0
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    cum = np.cumsum(counts) / max(len(values), 1)
    return edges[:-1], edges[1:], counts, cum


# -- per-kind runners --------------------------------------------------------
# runner(config, replicate) -> (results, tables), a table per file in file order;
# replicate(workers, count) takes a worker per group and returns each group's survivors

def _run_spectrum(config, replicate):
    params = config.channel
    shannon = _shannon(params, config.p_grid)
    worker = _gram_worker(params, lambda a: (eigenvalues(a).eigenvalues, shannon(a)))
    (replicates,) = replicate([worker], config.replications)
    pooled = np.sort(np.concatenate([eigs for eigs, _ in replicates]))
    tables = [
        ("spectrum.csv", ("index", "eigenvalue"), (np.arange(1, len(pooled) + 1), pooled)),
        ("ecdf.csv", ("bin_left", "bin_right", "count", "cum_fraction"),
         _histogram_columns(pooled, config.histogram_bins)),
    ]
    results = []
    if config.p_grid:
        transforms = [t for _, t in replicates]
        block = (config.p_grid, transforms, _capacity_reference(params, config.p_grid))
        results, table = _table("shannon.csv", "P", [block])
        tables += table
    return results, tables


def _run_capacity_vs_p(config, replicate):
    params = config.channel
    worker = _gram_worker(params, _shannon(params, config.p_grid))
    (replicates,) = replicate([worker], config.replications)
    block = (config.p_grid, replicates, _capacity_reference(params, config.p_grid))
    return _table("capacity_vs_P.csv", "P", [block])


def _run_capacity_vs_n(config, replicate):
    base = config.channel
    stat = _shannon(base, [base.power])
    refs = _capacity_reference(base, [base.power])
    workers = [_gram_worker(base.with_size(n), stat) for n in config.n_grid]
    groups = zip(config.n_grid, replicate(workers, config.replications))
    return _table("capacity_vs_N.csv", "N", [([n], reps, refs) for n, reps in groups])


def _run_moments(config, replicate):
    params = config.channel
    orders = (1, 2, 3)
    worker = _gram_worker(params, lambda a: np.array([trace_moment(a, p) for p in orders]))
    (replicates,) = replicate([worker], config.replications)
    refs = _moment_reference(params) or (float("nan"),) * len(orders)
    return _table("moments.csv", "p", [(orders, replicates, refs)])


def _run_narula(config, replicate):
    rows, results, samples = [], [], []
    steps = np.arange(config.burn_in + 1, config.n_steps + 1)
    # each chain is the one replicate of its group
    chains = [functools.partial(simulate_chain, p, config.n_steps, config.burn_in)
              for p in config.p_grid]
    for i, (p, (run,)) in enumerate(zip(config.p_grid, replicate(chains, 1))):
        estimate = (p, run.ergodic_log_mean, run.log_mean_stderr)
        rows.append((*estimate, config.n_steps))
        results.append(ExperimentResult(*estimate, len(run.samples), closed_forms.narula_capacity(p)))
        samples.append((f"narula_samples_p{i}.csv", ("step", "d", "log_d"),
                        (steps, run.samples, np.log(run.samples))))
    names = ("P", "capacity_estimate", "std_err", "n_steps")
    return results, [("narula_summary.csv", names, list(zip(*rows)))] + samples


def _run_extreme_snr(config, replicate):
    params = config.channel
    worker = _gram_worker(params, _shannon(params, config.low_p + config.high_p))
    (replicates,) = replicate([worker], config.replications)
    mean, _ = _mean_se(replicates)
    eb_est, s0_est = fit_low_snr_params(config.low_p, mean[:2])
    s_inf_est, l_inf_est = fit_high_snr_params(config.high_p, mean[2:])
    l_inf_ext = fit_high_snr_offset_extrapolated(config.high_p, mean[2:])
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
    names = ("quantity", "estimate", "reference")
    return results, [("extreme_snr.csv", names, list(zip(*quantities)))]


def _mp_channel(base: ChannelParams, alpha: float) -> ChannelParams:
    """Symmetric three-diagonal channel with neighbor gain ``alpha`` and the
    order, block width, power and offset-0 fading law of ``base``."""
    center = {d.offset: d for d in base.diagonals}.get(0)
    if center is None:
        raise ValueError("mp_compare needs a channel with an offset-0 diagonal")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    return wyner(base.n_cells, base.users_per_cell, alpha, alpha, center.fading, base.power)


def _run_mp_compare(config, replicate):
    base = config.channel
    k = base.users_per_cell
    m2 = {d.offset: d for d in base.diagonals}[0].fading.amplitude_moment(2)
    rows, results = [], []
    workers = [_gram_worker(_mp_channel(base, alpha), lambda a: eigenvalues(a).eigenvalues)
               for alpha in config.alphas]
    for alpha, replicates in zip(config.alphas, replicate(workers, config.replications)):
        scale = 1.0 / (k * (1.0 + 2.0 * alpha**2))
        pooled = EmpiricalSpectrum(np.concatenate(replicates) * scale)
        ks = pooled.ks_distance(lambda x: closed_forms.marchenko_pastur_cdf(x, k, m2))
        rows.append((alpha, k, ks, pooled.n))
        results.append(ExperimentResult(alpha, ks, float("nan"), len(replicates), float("nan")))
    names = ("alpha", "K", "ks_distance", "n_eigenvalues")
    return results, [("mp_compare.csv", names, list(zip(*rows)))]


def _run_power_profile(config, replicate):
    base = config.channel
    diffs = [power_profile_sup_diff(base.with_size(n), base.with_size(2 * n))
             for n in config.n_grid]
    results = [ExperimentResult(n, d, 0.0, 1, float("nan")) for n, d in zip(config.n_grid, diffs)]
    # the first N's profile on its block diagonals, row-major: every other cell is 0
    n, k = config.n_grid[0], base.users_per_cell
    row = np.arange(n)[:, None, None]
    col = (row + np.array(base.offsets)[:, None]) * k + np.arange(k)
    keep = (col >= 0) & (col < n * k)
    row, col = np.broadcast_to(row, col.shape)[keep], col[keep]
    mass = _offset_mass(base, col // k - row)
    return results, [
        ("power_profile.csv", ("N", "sup_cell_diff_to_2N"), (config.n_grid, diffs)),
        (f"profile_n{n}.csv", ("row", "col", "value"), (row + 1, col + 1, mass)),
    ]


class _Kind(NamedTuple):
    """One experiment kind: its runner (which writes nothing), how many of its
    leading files get a gnuplot script (None = all), the config fields it reads
    besides ``_COMMON``, and those it needs nonempty; the rest keep their defaults."""

    run: Callable
    n_plotted: int | None
    reads: tuple[str, ...]
    needs: tuple[str, ...]


_COMMON = ("kind", "seed", "out_dir")
_GRAM = ("channel", "replications")  # read by every kind that draws Gram matrices
_RUNNERS = {
    "spectrum": _Kind(_run_spectrum, None, _GRAM + ("p_grid", "histogram_bins"), ("channel",)),
    "capacity_vs_P": _Kind(_run_capacity_vs_p, None, _GRAM + ("p_grid",), ("channel", "p_grid")),
    "capacity_vs_N": _Kind(_run_capacity_vs_n, None, _GRAM + ("n_grid",), ("channel", "n_grid")),
    "moments": _Kind(_run_moments, None, _GRAM, ("channel",)),
    "narula": _Kind(_run_narula, 1, ("p_grid", "n_steps", "burn_in"), ("p_grid",)),
    "extreme_snr": _Kind(_run_extreme_snr, 0, _GRAM + ("low_p", "high_p"), ("channel",)),
    "mp_compare": _Kind(_run_mp_compare, 0, _GRAM + ("alphas",), ("channel", "alphas")),
    "power_profile": _Kind(_run_power_profile, 0, ("channel", "n_grid"), ("channel", "n_grid")),
}
KINDS = tuple(_RUNNERS)


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


def fit_high_snr_offset_extrapolated(p_points, capacities_nats):
    """Power-offset estimate that extrapolates out the O(1/log P) transient.

    Fading channels of this family approach their high-SNR expansion only
    logarithmically, so the raw offset ``log2 P - C`` (C in bits) at
    accessible powers is still far from its limit.  Fitting the model
    ``log2 P - C = L - a / log P`` through two points removes the leading
    transient; both parameters come from the data.
    """
    (p1, p2) = p_points
    cb = np.asarray(capacities_nats) / np.log(2.0)
    d1 = np.log2(p1) - cb[0]
    d2 = np.log2(p2) - cb[1]
    w1, w2 = 1.0 / np.log(p1), 1.0 / np.log(p2)
    return float((d2 * w1 - d1 * w2) / (w1 - w2))


# ---------------------------------------------------------------------------
# closed-form reference plumbing
# ---------------------------------------------------------------------------

def _symmetric_uplink(params: ChannelParams):
    """``(alpha, law)`` when the channel is the symmetric three-diagonal uplink:
    gains alpha, 1, alpha (a missing neighbor counts as gain 0) and one fading
    law on every diagonal; else None."""
    gains = {d.offset: d.gain for d in params.diagonals}
    laws = {d.fading for d in params.diagonals}
    alpha = gains.get(-1, 0.0)
    if (set(gains) <= {-1, 0, 1} and gains.get(0) == 1.0 and gains.get(1, 0.0) == alpha
            and len(laws) == 1):
        return alpha, laws.pop()
    return None


def _capacity_reference(params: ChannelParams, powers) -> list[float]:
    """Non-fading Toeplitz-limit capacity at each total power; nan where that
    closed form does not apply."""
    uplink = _symmetric_uplink(params)
    if uplink is None or uplink[1].kind != "deterministic":
        return [float("nan")] * len(powers)
    return [closed_forms.wyner_capacity_nonfading(p, uplink[0]) for p in powers]


def _moment_reference(params: ChannelParams):
    uplink = _symmetric_uplink(params)
    if uplink is None or params.users_per_cell != 1:
        return None
    alpha, law = uplink
    if alpha > 0 and law.kind not in ("rayleigh", "uniform-phase"):
        return None
    try:
        moments = [law.amplitude_moment(order) for order in (2, 4, 6)]
    except MomentUnavailableError:  # an even moment past a double: no reference
        return None
    return closed_forms.limiting_moments(*moments, alpha)


def _extreme_snr_reference(params: ChannelParams):
    nan = float("nan")
    eb = s0 = s_inf = l_inf = nan
    uplink = _symmetric_uplink(params)
    if uplink is not None:
        alpha, law = uplink
        try:
            m2, m4 = law.amplitude_moment(2), law.amplitude_moment(4)
            eb, s0 = closed_forms.low_snr_params(params.users_per_cell, alpha, m2, m4)
        except MomentUnavailableError:  # an even moment past a double: nan references
            pass
    diagonal = {d.offset: d for d in params.diagonals}
    if (params.users_per_cell == 1 and set(diagonal) in ({-1, 0}, {0, 1})
            and all(d.gain == 1.0 for d in diagonal.values())):
        side = diagonal.get(-1) or diagonal[1]
        s_inf, l_inf = closed_forms.high_snr_params(diagonal[0].fading, side.fading)
    return eb, s0, s_inf, l_inf
