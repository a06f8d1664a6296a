"""Traced run: spans around bandspec's public functions, and the layer sweep.

``Instrumentation`` replaces each timed function with a span-recording
wrapper under every name a bandspec module looks it up by (for example
``bandspec.harness.eigenvalues`` as well as ``bandspec.eig.eigenvalues``),
and the two timed methods on their classes.  Nothing in ``src/`` changes;
leaving the context puts the originals back.

Span names are ``<layer>.<function>``; the layers are the package modules.
"""
from __future__ import annotations

import inspect
import statistics
import sys
import time

import numpy as np

import bandspec as bs
from bandspec import band_matrix, closed_forms, eig, fading, harness, narula_chain, spectral


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _band_bytes(args, kwargs, result):
    # complex band storage, labelled computed: 16 bytes * N * (bandwidth + 1)
    return {"bytes": 16 * result.n * (result.bandwidth + 1)}


def _steps(args, kwargs, result):
    return {"steps": int(result.n_steps)}


def _functions():
    """(home module, attribute, span name, attrs hook) of each timed function."""
    out = [
        (harness, "run_experiment", "harness.run_experiment", None),
        (band_matrix, "generate_channel", "band_matrix.generate_channel", None),
        (band_matrix, "gram", "band_matrix.gram", _band_bytes),
        (band_matrix, "ldl_shifted", "band_matrix.ldl_shifted", None),
        (eig, "eigenvalues", "eig.eigenvalues", None),
        # the two routes inside eigenvalues, counted by what actually runs
        (eig, "eigvals_banded", "eig.lapack", None),
        (eig, "reduce_to_tridiagonal", "eig.givens", None),
        (spectral, "trace_moment", "spectral.trace_moment", None),
        (narula_chain, "simulate_chain", "narula_chain.simulate_chain", _steps),
    ]
    for name in getattr(closed_forms, "__all__", ()):
        if inspect.isfunction(getattr(closed_forms, name, None)):
            out.append((closed_forms, name, f"closed_forms.{name}", None))
    return out


_METHODS = (
    (fading.FadingSpec, "sample", "fading.sample", _draws),
    (spectral.EmpiricalSpectrum, "shannon_transform", "spectral.shannon_transform", None),
)


class Instrumentation:
    """Context manager that routes bandspec's public calls through spans."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bandspec" or name.startswith("bandspec.")]
        for home, attr, span, attrs in _functions():
            fn = getattr(home, attr, None)
            if fn is None:  # a later version may drop a route
                continue
            wrapper = self.recorder.wrap(span, fn, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        for cls, attr, span, attrs in _METHODS:
            self._set(cls, attr, self.recorder.wrap(span, getattr(cls, attr), attrs))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


# -- per-layer metrics of one traced experiment call -----------------------------

# metric -> span-name prefix whose self time it sums
LAYER_TIMES = {
    "fading.sample_s": "fading.",
    "band_matrix.generate_s": "band_matrix.generate_channel",
    "band_matrix.gram_s": "band_matrix.gram",
    "band_matrix.ldl_s": "band_matrix.ldl_shifted",
    "eig.eigenvalues_s": "eig.",
    "spectral.shannon_s": "spectral.shannon_transform",
    "spectral.trace_moment_s": "spectral.trace_moment",
    "closed_forms.reference_s": "closed_forms.",
    "narula_chain.simulate_s": "narula_chain.",
    "harness.self_s": "harness.",
}
# metric -> (span name, attr summed over those spans, or None to count spans)
LAYER_COUNTS = {
    "fading.draws": ("fading.sample", "draws"),
    "band_matrix.gram_bytes": ("band_matrix.gram", "bytes"),
    "band_matrix.ldl_calls": ("band_matrix.ldl_shifted", None),
    "eig.calls": ("eig.eigenvalues", None),
    "eig.calls.lapack": ("eig.lapack", None),
    "eig.calls.givens": ("eig.givens", None),
}


def call_metrics(spans, self_time) -> dict[str, float]:
    """Per-layer metrics of the spans under one ``run_experiment`` span."""
    out = {m: sum(self_time[s.id] for s in spans if s.name.startswith(prefix))
           for m, prefix in LAYER_TIMES.items()}
    for metric, (name, attr) in LAYER_COUNTS.items():
        out[metric] = sum(1 if attr is None else s.attrs.get(attr, 0)
                          for s in spans if s.name == name)
    chain = [s for s in spans if s.name == "narula_chain.simulate_chain"]
    steps = sum(s.attrs.get("steps", 0) for s in chain)
    out["narula_chain.ns_per_step"] = (
        1e9 * sum(s.duration for s in chain) / steps if steps else 0.0
    )
    return out


def layer_metrics(recorder) -> dict[str, float]:
    """Median over the recorded experiment calls of each ``call_metrics`` value."""
    self_time = recorder.self_times()
    per_call = [call_metrics(spans, self_time) for spans in recorder.trees().values()]
    return {m: statistics.median(c[m] for c in per_call) for m in per_call[0]}


# -- layer scaling sweep -----------------------------------------------------------

SWEEP_N = (4096, 16384, 65536)
# Bandwidth 1 runs on the stebz route today: ~7 s at 4096 and ~2 min at 16384.
EIG_N = {2: (4096, 16384), 1: (1024, 4096)}
_SWEEP_GROUP = 0xBE7C


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaling_sweep(seed: int) -> dict[str, float]:
    """Seconds per call at each N, and the fitted exponent of time in N.

    Channels are the benchmark's Rayleigh Wyner (bandwidth 2) and two-tap
    (bandwidth 1) ensembles; ``trace_moment`` is timed for p = 1, 2, 3
    together, as the harness calls it.
    """
    points: dict[str, list[tuple[int, float]]] = {}
    for i, n in enumerate(SWEEP_N):
        params = bs.wyner(n, 1, 0.5, 0.5, bs.RAYLEIGH, 10.0)
        rng = bs.derive_stream(seed, (_SWEEP_GROUP << 32) | i)
        channel = bs.generate_channel(params, rng)
        a = bs.gram(channel)
        for name, fn in (
            ("band_matrix.generate_channel", lambda: bs.generate_channel(params, rng)),
            ("band_matrix.gram", lambda: bs.gram(channel)),
            ("band_matrix.ldl_shifted", lambda: bs.ldl_shifted(a, 10.0)),
            ("spectral.trace_moment", lambda: [bs.trace_moment(a, p) for p in (1, 2, 3)]),
        ):
            points.setdefault(name, []).append((n, _median_time(fn, 5)))
    for b, ns in EIG_N.items():
        alpha, beta = (0.5, 0.5) if b == 2 else (1.0, 0.0)
        for i, n in enumerate(ns):
            params = bs.wyner(n, 1, alpha, beta, bs.RAYLEIGH, 1.0)
            rng = bs.derive_stream(seed, (_SWEEP_GROUP << 32) | (b << 16) | i)
            a = bs.gram(bs.generate_channel(params, rng))
            points.setdefault(f"eig.eigenvalues.b{b}", []).append(
                (n, _median_time(lambda: bs.eigenvalues(a), 1)))
    out = {}
    for name, pts in points.items():
        out.update({f"{name}.s_n{n}": t for n, t in pts})
        ns, ts = zip(*pts)
        out[f"{name}.n_exponent"] = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
    return out
