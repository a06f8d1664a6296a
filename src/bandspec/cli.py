"""Command line front end.

Subcommands mirror the experiment kinds; ``closed-form`` prints analytic
baselines from flags, as :func:`bandspec.output.text` writes each number.
Exit codes: 0 success, 2 config error, 3 numerical failure in every replicate.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import closed_forms
from .band_matrix import wyner
from .fading import parse_spec_tag
from .harness import (
    AllReplicatesFailedError,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)
from .output import text

_SUBCOMMAND_KINDS = {
    "spectrum": ("spectrum",),
    "capacity": ("capacity_vs_P", "capacity_vs_N"),
    "moments": ("moments",),
    "narula": ("narula",),
    "extreme-snr": ("extreme_snr",),
    "mp-compare": ("mp_compare",),
    "power-profile": ("power_profile",),
}

def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "closed-form":
            return _run_closed_form(args)
        return _run_simulation(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AllReplicatesFailedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandspec",
        description="Spectra and capacity baselines of random Hermitian "
        "finite-band matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name, help=f"run a {name} experiment from a JSON config")
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--jobs", type=int, default=1, help="replicate worker processes")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--emit-gnuplot", action="store_true",
                       help="write companion gnuplot scripts")

    p = sub.add_parser("closed-form", help="evaluate an analytic baseline from flags")
    p.add_argument("--formula", required=True, choices=_FORMULAS)
    p.add_argument("--power", type=float, default=1.0, help="total per-cell power P")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0, help="complex mean modulus")
    p.add_argument("--pbar", type=float, default=1.0)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1, help="users per cell")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--fading-a", default="rayleigh")
    p.add_argument("--fading-b", default=None)
    return parser


def _run_simulation(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if config.kind not in _SUBCOMMAND_KINDS[args.command]:
        raise ConfigError(
            f"config kind {config.kind!r} does not belong to subcommand "
            f"{args.command!r}"
        )
    overrides = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out)) if v is not None}
    if overrides:  # a new config, checked as it is built
        config = dataclasses.replace(config, **overrides)
    output = run_experiment(config, jobs=args.jobs, emit_gnuplot=args.emit_gnuplot)
    for path in output.files:
        print(path)
    return 0


# formula -> function of the parsed flags giving its (quantity, value) rows
_FORMULAS = {
    "wyner-nonfading": lambda a: [
        ("capacity_nats", closed_forms.wyner_capacity_nonfading(a.power, a.alpha))],
    "wyner-large-k": lambda a: [
        ("capacity_nats", closed_forms.wyner_capacity_large_k(a.power, a.alpha, a.m2, a.mu))],
    # the symmetric uplink of --fading-a: the walk sums read no N, so 3 cells
    "limiting-moments": lambda a: zip(("M1", "M2", "M3"), closed_forms.walk_moments(
        wyner(3, a.k, a.alpha, a.alpha, parse_spec_tag(a.fading_a)))),
    "exp-integral": lambda a: [("E1", closed_forms.exp_integral(a.x))],
    "narula-pdf": lambda a: [("pdf", closed_forms.narula_stationary_pdf(a.x, a.pbar))],
    "narula-capacity": lambda a: [("capacity_nats", closed_forms.narula_capacity(a.pbar))],
    "low-snr": lambda a: zip(("eb_n0_min", "s0"), closed_forms.low_snr_params(
        wyner(3, a.k, a.alpha, a.alpha, parse_spec_tag(a.fading_a)))),
    "high-snr": lambda a: zip(("s_inf", "l_inf"), closed_forms.high_snr_params(
        parse_spec_tag(a.fading_a), parse_spec_tag(a.fading_b or a.fading_a))),
    "mp-cdf": lambda a: [("cdf", closed_forms.marchenko_pastur_cdf(a.x, a.k, a.sigma2))],
}


def _run_closed_form(args) -> int:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    try:
        rows = list(_FORMULAS[args.formula](args))
    except ValueError as exc:  # a fading tag or a value outside the formula's domain
        raise ConfigError(str(exc)) from exc
    print("quantity,value")
    for name, value in rows:
        print(f"{name},{text(float(np.real(value)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
