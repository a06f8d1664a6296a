"""bandspec benchmark: one workload as a closed loop of experiment calls.

Run from the repository root:

    python3 perfbench/run.py --workload wyner-spectrum --seed 7 --seconds 20 --trace 0

One caller in one process runs the workload's experiment through
``bandspec.harness.run_experiment``, the entry point behind the CLI, and
starts the next call when the previous one returns.  After one warm-up call
it loops for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: half the loop runs untraced and half traced (the
difference is the tracing overhead), then one extra call at the other
thread count, then the layer scaling sweep.

Outputs are checked after all timing: every call's files must be
byte-identical to the warm-up call's, and the last call's files must pass
the workload's check.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 1 means a
check failed, 2 that the package could not be found.  A result file with the
environment, and for a traced run the spans, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# Fewest timed calls in a loop, unless the loop has run 3x its time.
MIN_CALLS = 3

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import bandspec
t1 = time.perf_counter()
bandspec.ExperimentConfig.from_file(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandspec" / "__init__.py").is_file():
        print(f"error: no bandspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bandspec

    if Path(bandspec.__file__).resolve().parent != SRC / "bandspec":
        print(f"error: imported bandspec from {bandspec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    try:
        return bench.run()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)


@dataclass
class Call:
    wall: float
    cpu: float
    output: object


@dataclass
class Bench:
    workload: object
    seed: int
    seconds: float
    trace: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def __post_init__(self):
        self.tag = f"{self.workload.name}-seed{self.seed}-trace{self.trace}"
        self.run_dir = OUT / f"{self.tag}-{os.getpid()}"
        self.jobs = min(self.workload.jobs, len(os.sched_getaffinity(0)))
        self.config = self.workload.experiment(self.seed, self.run_dir / "csv")
        self.reference_digest = None

    # -- one experiment call ----------------------------------------------------

    def call(self, jobs: int) -> Call | None:
        from bandspec import harness

        n = self.workload.attempts_per_call()
        self.attempted += n
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output = harness.run_experiment(self.config, jobs=jobs)
        except Exception:
            self.failed += n
            self.problems.append("run_experiment raised:\n" + traceback.format_exc())
            return None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = _digest(output.files)
        if self.reference_digest is None:
            self.reference_digest = digest
        if digest != self.reference_digest:
            self.failed += n
            self.problems.append("output files differ from the warm-up call's")
        else:
            self.failed += self.workload.failed_attempts(output)
        return Call(wall, cpu, output)

    def loop(self, seconds: float, jobs: int) -> list[Call]:
        calls = []
        start = time.perf_counter()
        while True:
            c = self.call(jobs)
            if c is None:
                break
            calls.append(c)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(calls) >= MIN_CALLS) or elapsed >= 3 * seconds:
                break
        return calls

    # -- the run -------------------------------------------------------------------

    def run(self) -> int:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        config_path = self.run_dir / "config.json"
        config_path.write_text(json.dumps(self.config.to_dict() | {
            "out_dir": self.config.out_dir,
        }))
        env = environment(self.seed, self.jobs, self.run_dir)
        setup = measure_setup(config_path)
        warm = self.call(self.jobs)
        if warm is None:
            metrics, notes = {}, {}
        elif self.trace:
            metrics, notes = self.traced(setup)
        else:
            metrics, notes = self.untraced(setup)
        checks = self.check(warm)
        correct = not self.problems and all(ok for _, ok in checks)
        if not correct:
            self.failed = self.attempted

        lines = [f"workload {self.workload.name}  seed {self.seed}  trace {self.trace}  "
                 f"jobs {self.jobs}", "env " + json.dumps(env)]
        lines += [f"{name:<44} {m['value']:<14.6g} {m['unit']:<8} {notes.get(name, '')}"
                  for name, m in metrics.items()]
        lines.append(f"{'failed_frac':<44} {self.failed / max(self.attempted, 1):<14.6g} "
                     f"{'ratio':<8} {self.failed} of {self.attempted} attempts")
        lines += [f"check {'ok' if ok else 'FAILED'}: {text}" for text, ok in checks]
        lines += [f"problem: {p}" for p in self.problems]
        print("\n".join(lines))
        result = {"correct": correct, "attempted": self.attempted,
                  "failed": self.failed, "metrics": metrics}
        (OUT / f"{self.tag}.json").write_text(json.dumps(
            {**result, "workload": self.workload.name, "seed": self.seed,
             "trace": self.trace, "env": env, "notes": notes,
             "checks": checks, "problems": self.problems}, indent=1))
        print(json.dumps(result))
        return 0 if correct else 1

    def untraced(self, setup):
        calls = self.loop(self.seconds, self.jobs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if not calls:
            return {}, {}
        walls = [c.wall for c in calls]
        wall = statistics.median(walls)
        rows = self.workload.rows_per_call()
        metrics = {
            "setup_s": _m(statistics.median(setup["wall"]), "s"),
            "wall_s": _m(wall, "s"),
            "rows_per_s": _m(rows / wall, "rows/s"),
            "peak_rss_mb": _m(peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup['wall'])} fresh processes",
            "wall_s": f"median of {len(calls)} calls; {_tail(walls)}",
            "rows_per_s": f"{rows} rows per call",
            "peak_rss_mb": "peak RSS of this process after the loop",
        }
        return metrics, notes

    def traced(self, setup):
        import tracing
        from spans import SpanRecorder

        plain = self.loop(self.seconds / 2, self.jobs)
        recorder = SpanRecorder(workload=self.workload.name, run=self.tag)
        with tracing.Instrumentation(recorder):
            traced = self.loop(self.seconds / 2, self.jobs)
        recorder.write_jsonl(OUT / f"{self.tag}-spans.jsonl")
        if not plain or not traced:
            return {}, {}
        layers = tracing.layer_metrics(recorder)

        other_jobs = 1 if self.jobs > 1 else 2
        other = self.call(other_jobs)
        plain_wall = statistics.median(c.wall for c in plain)
        traced_wall = statistics.median(c.wall for c in traced)
        walls = {self.jobs: plain_wall, other_jobs: other.wall if other else float("nan")}
        files = traced[-1].output.files
        csv_rows = sum(_data_rows(p) for p in files)
        csv_bytes = sum(p.stat().st_size for p in files)
        metrics = dict(layers)
        metrics.update({
            "harness.csv_rows": csv_rows,
            "harness.csv_bytes": csv_bytes,
            "harness.useful_ratio": (self.attempted - self.failed) / self.attempted,
            "harness.cpu_per_wall": sum(c.cpu for c in plain) / sum(c.wall for c in plain),
            "harness.jobs_speedup": walls[1] / walls[2],
            "cli.import_s": statistics.median(setup["import_s"]),
            "cli.config_s": statistics.median(setup["config_s"]),
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        })
        metrics.update(tracing.scaling_sweep(self.seed))
        metrics = {name: _m(v, _unit(name)) for name, v in metrics.items()}
        # With jobs > 1 layer times are thread-seconds, so shares are of their
        # sum, which equals the call's wall time when jobs = 1.
        busy = sum(layers[name] for name in tracing.LAYER_TIMES)
        notes = {name: f"{layers[name] / busy:.1%} of span time"
                 for name in tracing.LAYER_TIMES}
        notes["trace.overhead_frac"] = (
            f"traced median {traced_wall:.4g} s of {len(traced)} calls vs "
            f"untraced {plain_wall:.4g} s of {len(plain)} calls")
        notes["harness.jobs_speedup"] = (
            f"wall at jobs=1 {walls[1]:.4g} s / jobs=2 {walls[2]:.4g} s")
        return metrics, notes

    def check(self, warm: Call | None):
        """The workload's output check on the last call's files, untimed."""
        if warm is None:
            return []
        files = {p.name: p for p in warm.output.files}
        try:
            return self.workload.check(self.config, files)
        except Exception:
            self.problems.append("output check raised:\n" + traceback.format_exc())
            return []


# -- helpers -------------------------------------------------------------------------

def _m(value, unit):
    return {"value": float(value), "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("n_exponent"):
        return "exponent"
    if name.endswith("ns_per_step"):
        return "ns"
    if name.endswith("_s") or ".s_n" in name:
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_wall", "_speedup", "_frac")):
        return "ratio"
    return "count"


def _tail(walls) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"fewer than 11 samples, max {max(walls):.4g} s"
    k = n - 10  # samples at or below the reported value
    q = 100.0 * k / n
    return f"p{q:.0f} {sorted(walls)[k - 1]:.4g} s"


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        with open(path, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def _data_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def measure_setup(config_path) -> dict[str, list[float]]:
    """Fresh-process time to import bandspec and load the workload config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = {"wall": [], "import_s": [], "config_s": []}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out["wall"].append(time.perf_counter() - t0)
        for key, value in json.loads(proc.stdout.strip().splitlines()[-1]).items():
            out[key].append(value)
    return out


def environment(seed: int, jobs: int, csv_dir) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {pkg.__name__: _openblas(pkg) for pkg in (numpy, scipy)},
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
        "jobs": jobs,
        "csv_filesystem": _filesystem(csv_dir),
    }


def _openblas(pkg) -> dict | None:
    """Runtime config string and thread count of the OpenBLAS a package bundles."""
    libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            return {"config": get_config().decode(), "threads": get_threads()}
    return None


def _git_commit() -> str | None:
    # only this tree's own repository; a copy without .git has no commit
    if not (ROOT / ".git").exists():
        return None
    return _command_output(["git", "rev-parse", "HEAD"])


def _filesystem(path) -> str | None:
    return _command_output(["stat", "-f", "-c", "%T", str(path)])


def _command_output(args) -> str | None:
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
