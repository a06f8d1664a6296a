"""Command line front end.

Subcommands mirror the experiment kinds; ``closed-form`` prints analytic
baselines from flags, as :func:`bandspec.output.text` writes each number.
Exit codes: 0 success, 2 config error, 3 numerical failure in every replicate.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
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

    # a flag is set only if given: each formula reads its own, with its own defaults
    p = sub.add_parser("closed-form", help="evaluate an analytic baseline from flags",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--formula", required=True, choices=_FORMULAS)
    p.add_argument("--power", type=float, help="total per-cell power P")
    for name in ("--alpha", "--m2", "--pbar", "--x", "--sigma2"):
        p.add_argument(name, type=float)
    p.add_argument("--mu", type=float, help="complex mean modulus")
    p.add_argument("--k", type=int, help="users per cell")
    p.add_argument("--fading-a")
    p.add_argument("--fading-b")
    return parser


def _run_simulation(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if config.kind not in _SUBCOMMAND_KINDS[args.command]:
        raise ConfigError(f"config kind {config.kind!r} does not belong to subcommand {args.command!r}")
    overrides = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out)) if v is not None}
    if overrides:  # a new config, checked as it is built
        config = dataclasses.replace(config, **overrides)
    output = run_experiment(config, jobs=args.jobs, emit_gnuplot=args.emit_gnuplot)
    for path in output.files:
        print(path)
    return 0


# formula -> function of the flags it reads, with their defaults, giving its
# (quantity, value) rows; the uplinks' walk sums read no N, so 3 cells do
_FORMULAS = {
    "wyner-nonfading": lambda power=1.0, alpha=0.0: [
        ("capacity_nats", closed_forms.wyner_capacity_nonfading(power, alpha))],
    "wyner-large-k": lambda power=1.0, alpha=0.0, m2=1.0, mu=0.0: [
        ("capacity_nats", closed_forms.wyner_capacity_large_k(power, alpha, m2, mu))],
    "limiting-moments": lambda fading_a="rayleigh", alpha=0.0, k=1: zip(("M1", "M2", "M3"),
        closed_forms.walk_moments(wyner(3, k, alpha, alpha, parse_spec_tag(fading_a)))),
    "exp-integral": lambda x=1.0: [("E1", closed_forms.exp_integral(x))],
    "narula-pdf": lambda x=1.0, pbar=1.0: [("pdf", closed_forms.narula_stationary_pdf(x, pbar))],
    "narula-capacity": lambda pbar=1.0: [("capacity_nats", closed_forms.narula_capacity(pbar))],
    "low-snr": lambda fading_a="rayleigh", alpha=0.0, k=1: zip(("eb_n0_min", "s0"),
        closed_forms.low_snr_params(wyner(3, k, alpha, alpha, parse_spec_tag(fading_a)))),
    "high-snr": lambda fading_a="rayleigh", fading_b=None: zip(("s_inf", "l_inf"),
        closed_forms.high_snr_params(parse_spec_tag(fading_a), parse_spec_tag(fading_b or fading_a))),
    "mp-cdf": lambda x=1.0, k=1, sigma2=1.0: [("cdf", closed_forms.marchenko_pastur_cdf(x, k, sigma2))],
}


def _run_closed_form(args) -> int:
    formula = _FORMULAS[args.formula]
    flags = {name: value for name, value in vars(args).items() if name not in ("command", "formula")}
    unread = ", ".join(f"--{name.replace('_', '-')}" for name in flags
                       if name not in inspect.signature(formula).parameters)
    if unread:  # as a config field its kind does not read
        raise ConfigError(f"{args.formula} does not read {unread}: leave it out")
    for name, value in flags.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    try:
        rows = list(formula(**flags))
    except ValueError as exc:  # a fading tag or a value outside the formula's domain
        raise ConfigError(str(exc)) from exc
    print("quantity,value")
    for name, value in rows:
        print(f"{name},{text(float(np.real(value)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
