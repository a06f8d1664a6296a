"""Command line front end.

Subcommands mirror the experiment kinds; ``closed-form`` evaluates any of
the analytic baselines directly from flags without simulation.  Exit codes:
0 success, 2 configuration error, 3 numerical failure in every replicate.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import closed_forms
from .fading import parse_spec_tag
from .harness import (
    AllReplicatesFailedError,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)

_SUBCOMMAND_KINDS = {
    "spectrum": ("spectrum",),
    "capacity": ("capacity_vs_P", "capacity_vs_N"),
    "moments": ("moments",),
    "narula": ("narula",),
    "extreme-snr": ("extreme_snr",),
    "mp-compare": ("mp_compare",),
    "power-profile": ("power_profile",),
}

_FORMULAS = (
    "wyner-nonfading",
    "wyner-large-k",
    "limiting-moments",
    "exp-integral",
    "narula-pdf",
    "narula-capacity",
    "low-snr",
    "high-snr",
    "mp-cdf",
)


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
    p.add_argument("--m4", type=float, default=None)
    p.add_argument("--m6", type=float, default=None)
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
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    output = run_experiment(config, jobs=args.jobs, emit_gnuplot=args.emit_gnuplot)
    for path in output.files:
        print(path)
    return 0


def _run_closed_form(args) -> int:
    rows = []
    if args.formula == "wyner-nonfading":
        rows.append(("capacity_nats",
                     closed_forms.wyner_capacity_nonfading(args.power, args.alpha)))
    elif args.formula == "wyner-large-k":
        rows.append(("capacity_nats", closed_forms.wyner_capacity_large_k(
            args.power, args.alpha, args.m2, args.mu)))
    elif args.formula == "limiting-moments":
        m4 = args.m4 if args.m4 is not None else args.m2**2
        m6 = args.m6 if args.m6 is not None else args.m2**3
        m1, m2m, m3 = closed_forms.limiting_moments(args.m2, m4, m6, args.alpha)
        rows += [("M1", m1), ("M2", m2m), ("M3", m3)]
    elif args.formula == "exp-integral":
        rows.append(("E1", closed_forms.exp_integral(args.x)))
    elif args.formula == "narula-pdf":
        rows.append(("pdf", closed_forms.narula_stationary_pdf(args.x, args.pbar)))
    elif args.formula == "narula-capacity":
        rows.append(("capacity_nats", closed_forms.narula_capacity(args.pbar)))
    elif args.formula == "low-snr":
        m4 = args.m4 if args.m4 is not None else args.m2**2
        eb, s0 = closed_forms.low_snr_params(args.k, args.alpha, args.m2, m4)
        rows += [("eb_n0_min", eb), ("s0", s0)]
    elif args.formula == "high-snr":
        try:
            spec_a = parse_spec_tag(args.fading_a)
            spec_b = parse_spec_tag(args.fading_b or args.fading_a)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        s_inf, l_inf = closed_forms.high_snr_params(spec_a, spec_b)
        rows += [("s_inf", s_inf), ("l_inf", l_inf)]
    elif args.formula == "mp-cdf":
        rows.append(("cdf", closed_forms.marchenko_pastur_cdf(args.x, args.k, args.sigma2)))
    print("quantity,value")
    for name, value in rows:
        print(f"{name},{format(float(np.real(value)), '.17g')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
