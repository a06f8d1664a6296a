import argparse
import concurrent.futures.process
import dataclasses
import itertools
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

import bandspec.band_matrix as band_matrix
import bandspec.cli as cli
import bandspec.harness as harness
import bandspec.output as output
from bandspec import closed_forms
from bandspec import (
    AllReplicatesFailedError,
    ConfigError,
    ExperimentConfig,
    PivotError,
    derive_stream,
    eigenvalues,
    fit_high_snr_offset_extrapolated,
    fit_high_snr_params,
    fit_low_snr_params,
    generate_channel,
    gram,
    log_ldl_shifted,
    rician,
    run_experiment,
    trace_moment,
    wyner,
    wyner_capacity_nonfading,
)
from bandspec.cli import main
from bandspec.fading import parse_spec_tag
from conftest import dense_profile


def spectrum_config(tmp_path, **overrides):
    data = {
        "kind": "spectrum",
        "channel": {
            "n_cells": 32,
            "users_per_cell": 1,
            "alpha": 0.5,
            "fading": "deterministic",
            "power": 10.0,
        },
        "p_grid": [10.0],
        "replications": 3,
        "seed": 123,
        "out_dir": str(tmp_path / "out"),
        "histogram_bins": 20,
    }
    data.update(overrides)
    return data


def capacity_p_config(tmp_path, **overrides):
    data = spectrum_config(tmp_path, kind="capacity_vs_P", **overrides)
    del data["histogram_bins"]  # capacity_vs_P does not read it
    return data


def capacity_n_config(tmp_path, **overrides):
    data = {
        "kind": "capacity_vs_N",
        "channel": {"n_cells": 16, "alpha": 0.3, "fading": "rayleigh", "power": 10.0},
        "n_grid": [8, 16],
        "replications": 3,
        "seed": 5,
        "out_dir": str(tmp_path / "capn"),
    }
    data.update(overrides)
    return data


def extreme_snr_config(tmp_path, **overrides):
    data = {
        "kind": "extreme_snr",
        "channel": {"n_cells": 64, "alpha": 1.0, "beta": 0.0, "fading": "rayleigh"},
        "replications": 2,
        "seed": 3,
        "out_dir": str(tmp_path / "ext"),
    }
    data.update(overrides)
    return data


def moments_config(tmp_path):
    return {"kind": "moments", "replications": 2, "seed": 11, "out_dir": str(tmp_path / "mom"),
            "channel": {"n_cells": 32, "alpha": 0.5, "fading": "rayleigh"}}


def narula_config(tmp_path):
    return {"kind": "narula", "p_grid": [1.0, 10.0], "n_steps": 2000, "burn_in": 10,
            "seed": 2, "out_dir": str(tmp_path / "nar")}


def mp_compare_config(tmp_path):
    return {"kind": "mp_compare", "alphas": [0.1, 0.9], "replications": 2, "seed": 9,
            "out_dir": str(tmp_path / "mp"),
            "channel": {"n_cells": 32, "users_per_cell": 1, "fading": "rayleigh"}}


def power_profile_config(tmp_path):
    return {"kind": "power_profile", "n_grid": [8, 16], "seed": 0, "out_dir": str(tmp_path / "pp"),
            "channel": {"n_cells": 16, "alpha": 0.5, "fading": "rayleigh"}}


# configs whose runs hold several replicate groups: an N, a chain or an alpha each
MULTI_GROUP = {
    "capacity_vs_N": lambda tmp_path: capacity_n_config(tmp_path, n_grid=[8, 12, 16]),
    "narula": lambda tmp_path: {**narula_config(tmp_path), "p_grid": [1.0, 5.0, 10.0]},
    "mp_compare": mp_compare_config,
}


# a small valid config of each kind, setting only fields the kind reads
CONFIGS = {
    "spectrum": spectrum_config,
    "capacity_vs_P": capacity_p_config,
    "capacity_vs_N": capacity_n_config,
    "moments": moments_config,
    "narula": narula_config,
    "extreme_snr": extreme_snr_config,
    "mp_compare": mp_compare_config,
    "power_profile": power_profile_config,
}
SUBCOMMANDS = {kind: command for command, kinds in cli._SUBCOMMAND_KINDS.items() for kind in kinds}
COMMON_FIELDS = {"kind", "seed", "out_dir"}
# a value other than its default for every field that not every kind reads
NON_DEFAULT = {
    "channel": {"n_cells": 8, "alpha": 0.5},
    "p_grid": [1.0],
    "n_grid": [8],
    "replications": 2,
    "histogram_bins": 7,
    "n_steps": 2000,
    "burn_in": 10,
    "low_p": [1e-3, 4e-3],
    "high_p": [1e4, 1e5],
    "alphas": [0.5],
}
UNREAD_FIELDS = [(kind, field) for kind in harness.KINDS for field in NON_DEFAULT
                 if field not in harness._RUNNERS[kind].reads]

# explicit diagonals with no offset-0 diagonal: mp_compare has no center law
NO_CENTER_CHANNEL = {"n_cells": 32, "diagonals": [
    {"offset": 1, "gain": 1.0, "fading": "rayleigh"}]}


# a patch value that removes its key; a patch that is not a dict is the whole config
DROP = "<drop>"


def patched_config(tmp_path, patch):
    """``patch`` applied to the config of its kind (spectrum's if it names none)."""
    if not isinstance(patch, dict):
        return patch
    data = {**CONFIGS.get(patch.get("kind"), spectrum_config)(tmp_path), **patch}
    return {key: value for key, value in data.items() if value != DROP}


def numbered(cases, command=False):
    # the test ids these cases had before they carried their messages
    return [f"{case[0]}-patch{i}" if command else f"patch{i}" for i, case in enumerate(cases)]


# configs that fail validation, with the CLI subcommand each belongs to and
# the message that names the reason
INVALID_CONFIGS = [
    ("spectrum", [1, 2], "config must be a JSON object"),
    ("spectrum", {"kind": DROP}, "config needs a kind"),
    ("capacity", {"kind": "capacity_vs_P", "p_grid": []}, "capacity_vs_P needs a nonempty p_grid"),
    ("capacity", {"kind": "capacity_vs_N", "n_grid": DROP},
     "capacity_vs_N needs a nonempty n_grid"),
    ("power-profile", {"kind": "power_profile", "n_grid": DROP},
     "power_profile needs a nonempty n_grid"),
    ("narula", {"kind": "narula", "p_grid": []}, "narula needs a nonempty p_grid"),
    ("narula", {"kind": "narula", "burn_in": 100, "n_steps": 100}, "need 0 <= burn_in < n_steps"),
    ("extreme-snr", {"kind": "extreme_snr", "low_p": [1e-3]},
     "low_p and high_p need two positive points each"),
    ("mp-compare", {"kind": "mp_compare", "alphas": DROP}, "mp_compare needs a nonempty alphas"),
    # narula_capacity(0) raised ValueError after the output directory was made
    ("narula", {"kind": "narula", "p_grid": [0.0, 1.0], "n_steps": 2000, "burn_in": 10},
     "narula needs positive p_grid powers"),
    # derive_stream reduces the seed mod 2^64: these ran as seeds 0 and 2^64 - 1
    ("spectrum", {"seed": 2**64}, "seed must lie in [0, 2^64)"),
    ("moments", {"kind": "moments", "seed": -1}, "seed must lie in [0, 2^64)"),
    # channel keys that were dropped unread, and never reached the config hash:
    # the misspelt fading ran as Rayleigh
    ("moments", {"kind": "moments", "channel": {"n_cells": 64, "alpha": 0.5,
                                                "fadng": "deterministic"}},
     "bad channel: channel does not read ['fadng']"),
    ("spectrum", {"channel": {**NO_CENTER_CHANNEL, "alpha": 0.5}},
     "bad channel: channel does not read ['alpha']"),
    ("spectrum", {"channel": {"n_cells": 32, "diagonals": [
        {"offset": 0, "gain": 1.0, "fading": "rayleigh", "phase": 0.3}]}},
     "bad channel: diagonal does not read ['phase']"),
    # too few retained steps for the batch-means standard error: it was nan
    ("narula", {"kind": "narula", "p_grid": [1.0], "n_steps": 50, "burn_in": 0},
     "narula needs n_steps - burn_in >= 100"),
    # neighbor gains that wyner dropped unchecked: alpha -0.5 ran, and hashed, as alpha 0
    *(("moments", {"kind": "moments", "channel": {"n_cells": 8, **gains}},
       f"bad channel: gain {bad} outside [0, 1]")
      for bad in (-0.5, float("nan"))
      for gains in ({"alpha": bad}, {"alpha": 0.5, "beta": bad})),
    # Rician tags whose unknown keys were dropped, whose repeated key kept its
    # last value, or whose NaN s2 failed only after the replicates ran
    *(("moments", {"kind": "moments", "channel": {"n_cells": 8, "fading": f"rician:{fields}"}},
       message)
      for fields, message in (
          ("nu=1,s2=0.5,foo=3", "bad channel: rician tag needs nu and s2, once each"),
          ("nu=1,nu=2,s2=0.5", "bad channel: rician tag needs nu and s2, once each"),
          ("nu=1,s2=NaN", "bad channel: rician needs a finite nu and a finite s2 >= 0"),
          ("nu=1,s2=inf", "bad channel: rician needs a finite nu and a finite s2 >= 0"),
          ("nu=nan,s2=0.5", "bad channel: rician needs a finite nu and a finite s2 >= 0"),
          ("nu=inf,s2=0.5", "bad channel: rician needs a finite nu and a finite s2 >= 0"),
      )),
    # E|h|^2 past a double: these ended in an OverflowError traceback (exit 1)
    *((command, {"kind": kind, **extra,
                 "channel": {"n_cells": 8, "fading": "rician:nu=1e200,s2=1"}},
       "bad channel: rician E|h|^2 = |nu|^2 + s2 overflows a double")
      for command, kind, extra in (("moments", "moments", {}),
                                   ("mp-compare", "mp_compare", {"alphas": [0.5]}))),
]
INVALID_PATCHES = [
    ({"kind": "nope"}, "unknown experiment kind 'nope'"),
    ({"p_grid": [2.0, 1.0]}, "p_grid must be strictly increasing"),
    ({"replications": 0}, "replications must be >= 1"),
    ({"channel": None}, "spectrum needs a nonempty channel"),
    ({"bogus_field": 1}, "unknown config fields: ['bogus_field']"),
    ({"channel": {"n_cells": 2, "alpha": 0.5, "fading": "rayleigh"}}, "bad channel: "),
    ({"histogram_bins": 0}, "histogram_bins must be >= 1"),
    ({"histogram_bins": -3}, "histogram_bins must be >= 1"),
    ({"kind": "capacity_vs_N", "n_grid": [0, 8]}, "capacity_vs_N channel: "),
    # too small for offsets +-1
    ({"kind": "power_profile", "n_grid": [1, 2]}, "power_profile channel: "),
    ({"kind": "mp_compare", "alphas": [2.0]}, "mp_compare channel: alpha 2.0 outside [0, 1]"),
    ({"kind": "mp_compare", "alphas": [-0.5]}, "mp_compare channel: alpha -0.5 outside [0, 1]"),
    ({"kind": "mp_compare", "alphas": [0.5], "channel": NO_CENTER_CHANNEL},
     "mp_compare channel: mp_compare needs a channel with an offset-0 diagonal"),
    # values that used to be coerced: "12" ran as (1.0, 2.0), 2.7 as 2
    ({"p_grid": "12"}, "bad p_grid: expected a list of numbers, got '12'"),
    ({"p_grid": ["10.0"]}, "bad p_grid: '10.0' is not a number"),
    ({"replications": 2.7}, "bad replications: 2.7 is not an integer"),
    ({"replications": True}, "bad replications: True is not an integer"),
    ({"kind": "capacity_vs_N", "n_grid": [8.5]}, "bad n_grid: 8.5 is not an integer"),
    ({"channel": {"n_cells": 32.5, "alpha": 0.5}}, "bad channel: 32.5 is not an integer"),
    *((patch, message) for _, patch, message in INVALID_CONFIGS),
    # converted with str: a null out_dir wrote ./None/moments.csv and exited 0
    ({"out_dir": None}, "bad out_dir: None is not a string"),
    ({"out_dir": 5}, "bad out_dir: 5 is not a string"),
    ({"kind": None}, "bad kind: None is not a string"),
]
INVALID_COMMANDS = [
    ("spectrum", {"histogram_bins": 0}, "histogram_bins must be >= 1"),
    ("mp-compare", {"kind": "mp_compare", "alphas": [0.5], "channel": NO_CENTER_CHANNEL},
     "mp_compare channel: mp_compare needs a channel with an offset-0 diagonal"),
    ("spectrum", {"replications": 2.7}, "bad replications: 2.7 is not an integer"),
    *INVALID_CONFIGS,
]


def three_diagonal(alpha, law, beta=None, k=1):
    beta = alpha if beta is None else beta
    return {"n_cells": 8, "users_per_cell": k, "alpha": alpha, "beta": beta, "fading": law}


def taps(*taps, k=1):
    """Explicit diagonals, each an ``(offset, gain, law)`` triple."""
    return {"n_cells": 8, "users_per_cell": k, "diagonals": [
        {"offset": o, "gain": g, "fading": law} for o, g, law in taps]}


RICIAN = "rician:nu=0.8,s2=0.36"
# K = 2 on diagonals {-2, 0, 1}, one law each, the Rician with a complex mean
THREE_LAWS = [{"offset": -2, "gain": 0.5, "fading": "rayleigh"},
              {"offset": 0, "gain": 1.0, "fading": "uniform-phase"},
              {"offset": 1, "gain": 0.7, "fading": "rician:nu=0.3+0.4j,s2=0.5"}]
# which reference columns are finite ("T") for each channel shape: capacity_vs_P
# at one power; moments p = 1, 2, 3; extreme_snr eb_n0_min, s0, s_inf, l_inf and
# l_inf_extrapolated.  The capacity needs the symmetric uplink (gains alpha, 1,
# alpha, a missing neighbour at gain 0) with a deterministic law on every
# diagonal; the moments and the low-SNR pair are walk sums, finite for every
# channel whose moments fit a double; the high-SNR pair needs K = 1 and two
# unit taps.
REFERENCE_SHAPES = {
    "symmetric-deterministic": (three_diagonal(0.5, "deterministic"), "T", "TTT", "TTFFF"),
    "symmetric-rayleigh": (three_diagonal(0.5, "rayleigh"), "F", "TTT", "TTFFF"),
    "symmetric-uniform-phase": (three_diagonal(0.5, "uniform-phase"), "F", "TTT", "TTFFF"),
    "symmetric-rician": (three_diagonal(0.5, RICIAN), "F", "TTT", "TTFFF"),
    "asymmetric": (three_diagonal(0.5, "rayleigh", beta=0.3), "F", "TTT", "TTFFF"),
    "k2-deterministic": (three_diagonal(0.5, "deterministic", k=2), "T", "TTT", "TTFFF"),
    "k2-rayleigh": (three_diagonal(0.5, "rayleigh", k=2), "F", "TTT", "TTFFF"),
    "one-diagonal-deterministic": (three_diagonal(0.0, "deterministic"), "T", "TTT", "TTFFF"),
    "one-diagonal-rician": (three_diagonal(0.0, RICIAN), "F", "TTT", "TTFFF"),
    "two-tap-right": (taps((0, 1.0, "rayleigh"), (1, 1.0, RICIAN)), "F", "TTT", "TTTTT"),
    "two-tap-left": (taps((-1, 1.0, "rayleigh"), (0, 1.0, "rayleigh")), "F", "TTT", "TTTTT"),
    "two-tap-right-0.7": (taps((0, 1.0, "rayleigh"), (1, 0.7, "rayleigh")), "F", "TTT", "TTFFF"),
    "two-tap-left-0.7": (taps((-1, 0.7, "rayleigh"), (0, 1.0, "rayleigh")), "F", "TTT", "TTFFF"),
    "two-tap-k2": (taps((0, 1.0, "rayleigh"), (1, 1.0, "rayleigh"), k=2), "F", "TTT", "TTFFF"),
    "zero-gain-same-law": (taps((-1, 0.0, "deterministic"), (0, 1.0, "deterministic"),
                                (1, 0.0, "deterministic")), "T", "TTT", "TTFFF"),
    "zero-gain-second-law": (taps((-1, 0.0, "rayleigh"), (0, 1.0, "deterministic"),
                                  (1, 0.0, "rayleigh")), "F", "TTT", "TTFFF"),
    "zero-gain-tap-second-law": (taps((0, 1.0, "deterministic"), (1, 0.0, "rayleigh")),
                                 "F", "TTT", "TTFFF"),
    "offsets-minus-2-0": (taps((-2, 1.0, "rayleigh"), (0, 1.0, "rayleigh")), "F", "TTT", "TTFFF"),
    "offsets-1-2": (taps((1, 1.0, "rayleigh"), (2, 1.0, "rayleigh")), "F", "TTT", "TTFFF"),
    # every C = 0: the extreme-SNR fits divided by zero and warned
    "no-signal": (taps((0, 0.0, "rayleigh")), "F", "TTT", "FFFFF"),
}


@pytest.mark.parametrize("shape", REFERENCE_SHAPES)
def test_finite_reference_columns_by_channel_shape(tmp_path, shape):
    channel, *want = REFERENCE_SHAPES[shape]

    def finite(kind, **fields):
        config = ExperimentConfig.from_dict({"kind": kind, "channel": channel, **fields,
                                             "out_dir": str(tmp_path / kind)})
        return "".join("TF"[not np.isfinite(r.reference)] for r in run_experiment(config).results)

    assert [finite("capacity_vs_P", p_grid=[1.0]), finite("moments"),
            finite("extreme_snr")] == want


@pytest.mark.parametrize("k", [1, 2])
def test_rician_s0_reference_is_the_monte_carlo_slope(tmp_path, capsys, k):
    # E h = nu != 0 at alpha 0.5: the kurtosis formula wrote 1.114 (K = 1) and
    # 1.431 (K = 2), 10-20% above the slope that the Gram matrices have
    channel = three_diagonal(0.5, RICIAN, k=k)
    config = ExperimentConfig.from_dict({"kind": "extreme_snr", "channel": channel,
                                         "replications": 1, "out_dir": str(tmp_path)})
    (reference,) = [r.reference for r in run_experiment(config).results if r.grid_value == "s0"]
    # S0 = 2 m1^2 / m2 from replicate trace moments, with a jackknife SE
    params = wyner(2**14, k, 0.5, 0.5, RICIAN)
    traces = np.array([[trace_moment(a, p) for p in (1, 2)] for a in (
        gram(generate_channel(params, derive_stream(29, r))) for r in range(16))])

    def s0(m):
        return 2 * m[..., 0] ** 2 / m[..., 1]

    leave_one_out = s0((traces.sum(axis=0) - traces) / (len(traces) - 1))
    se = np.sqrt((len(traces) - 1) * np.var(leave_one_out))
    assert abs(reference - s0(traces.mean(axis=0))) <= 4 * se
    # and closed-form prints it, K = 1 by default
    k_flag = ["--k", "2"] if k == 2 else []
    assert main(["closed-form", "--formula", "low-snr", "--fading-a", RICIAN, "--alpha", "0.5",
                 *k_flag]) == 0
    printed = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
    assert printed["s0"] == output.text(reference)
    assert printed["s0"].startswith({1: "1.0115", 2: "1.1890"}[k])


class TestStreams:
    def test_same_index_reproduces(self):
        a = derive_stream(99, 7).random(1000)
        b = derive_stream(99, 7).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = derive_stream(99, 0).random(1000)
        b = derive_stream(99, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_paired_streams_uncorrelated(self):
        n = 10**6
        a = derive_stream(5, 0).random(n)
        b = derive_stream(5, 1).random(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01


class TestConfig:
    def test_round_trip_and_hash_stability(self, tmp_path):
        data = spectrum_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        config = ExperimentConfig.from_file(path)
        assert config.kind == "spectrum"
        assert config.channel.offsets == (-1, 0, 1)
        assert config.sha256() == ExperimentConfig.from_dict(data).sha256()

    def test_sugar_equals_explicit_diagonals(self, tmp_path):
        sugar = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        explicit = ExperimentConfig.from_dict(spectrum_config(
            tmp_path,
            channel={
                "n_cells": 32,
                "users_per_cell": 1,
                "power": 10.0,
                "diagonals": [
                    {"offset": -1, "gain": 0.5, "fading": "deterministic"},
                    {"offset": 0, "gain": 1.0, "fading": "deterministic"},
                    {"offset": 1, "gain": 0.5, "fading": "deterministic"},
                ],
            },
        ))
        assert sugar.channel == explicit.channel
        assert sugar.sha256() == explicit.sha256()

    def test_config_is_frozen(self, tmp_path):
        # checked once, as it is built: a later edit would run unchecked
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1
        assert dataclasses.replace(config, seed=1).seed == 1

    @pytest.mark.parametrize("kind,s2", [
        ("moments", "1e-300"), ("extreme_snr", "1e-300"), ("mp_compare", "1e-320")])
    def test_near_atom_rician_runs(self, tmp_path, kind, s2):
        # |nu|^2 / s2 overflowed 1F1 in the amplitude moments, and these runs
        # ended in MomentUnavailableError after every replicate had run
        def references(fading, out):
            data = {**CONFIGS[kind](tmp_path / out), "channel": {"n_cells": 8, "fading": fading}}
            return [r.reference for r in run_experiment(ExperimentConfig.from_dict(data)).results]

        # all but the atom at 1: the deterministic law's moments, so its references
        np.testing.assert_array_equal(references(f"rician:nu=1,s2={s2}", "rician"),
                                      references("deterministic", "atom"))

    def test_hash_distinguishes_rician_phase(self, tmp_path):
        def rician_config(nu):
            return ExperimentConfig.from_dict(spectrum_config(
                tmp_path,
                channel={"n_cells": 32, "alpha": 0.5, "fading": f"rician:nu={nu},s2=0.5"},
            ))

        with_phase = rician_config("0.3+0.4j")
        assert with_phase.sha256() != rician_config("0.3").sha256()
        assert ExperimentConfig.from_dict(with_phase.to_dict()).sha256() == with_phase.sha256()

    @pytest.mark.parametrize("patch,message", INVALID_PATCHES, ids=numbered(INVALID_PATCHES))
    def test_invalid_configs_rejected(self, tmp_path, patch, message):
        data = patched_config(tmp_path, patch)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(data)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("command,patch,message", INVALID_COMMANDS,
                             ids=numbered(INVALID_COMMANDS, command=True))
    def test_invalid_config_exits_2(self, tmp_path, capsys, command, patch, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(patched_config(tmp_path, patch)))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind,field", UNREAD_FIELDS)
    def test_unread_field_exits_2(self, tmp_path, capsys, kind, field):
        # accepted, it would run as if unset yet change the config hash
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CONFIGS[kind](tmp_path), field: NON_DEFAULT[field]}))
        assert main([SUBCOMMANDS[kind], str(path)]) == 2
        expected = f"config error: {kind} does not read {field}: leave it out\n"
        assert capsys.readouterr().err == expected
        assert list(tmp_path.iterdir()) == [path]

    def test_unread_field_at_its_default_is_accepted(self, tmp_path):
        plain = ExperimentConfig.from_dict(narula_config(tmp_path))
        data = {**narula_config(tmp_path), "low_p": [1e-3, 2e-3], "channel": None, "alphas": []}
        assert ExperimentConfig.from_dict(data).sha256() == plain.sha256()

    # sha256 of each config at the commit that introduced this test: every
    # CSV's config_sha256 line depends on to_dict, so these must not drift
    GOLDEN_HASHES = [
        ({"kind": "spectrum",
          "channel": {"n_cells": 32, "users_per_cell": 1, "alpha": 0.5,
                      "fading": "deterministic", "power": 10.0},
          "p_grid": [1, 10.0], "replications": 3, "seed": 123, "histogram_bins": 20},
         "caedfde6e8884930f09700cc3ea72d43815527989d8d1515feacdcd22ba939a3"),
        ({"kind": "capacity_vs_N",
          "channel": {"n_cells": 16, "users_per_cell": 2, "power": 2.5, "diagonals": [
              {"offset": 2, "gain": 0.25, "fading": "uniform-phase"},
              {"offset": 0, "gain": 1.0, "fading": "rayleigh"}]},
          "n_grid": [8, 16], "replications": 4, "seed": 5},
         "340dad00a9569025413258688c8ef2445be730458cfe344710aad9ebe0a911f2"),
        ({"kind": "extreme_snr",
          "channel": {"n_cells": 64, "alpha": 1.0, "beta": 0.0,
                      "fading": "rician:nu=0.3+0.4j,s2=0.5"},
          "replications": 2, "seed": 3, "low_p": [1e-3, 4e-3], "high_p": [1e4, 1e6]},
         "c6ccf4c47f9dd5d753006738d0f9744ed1e89e1bec82b2f5ce45cef5e5c88df2"),
    ]

    def test_diagonal_order_survives_round_trip(self, tmp_path):
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path, channel={
            "n_cells": 16, "diagonals": [
                {"offset": 2, "gain": 0.25, "fading": "uniform-phase"},
                {"offset": 0, "gain": 1.0, "fading": "rayleigh"}]}))
        assert config.channel.offsets == (0, 2)
        assert ExperimentConfig.from_dict(config.to_dict()).channel == config.channel

    def test_non_string_fading_tag_is_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spectrum_config(
            tmp_path, channel={"n_cells": 32, "alpha": 0.5, "fading": 5})))
        assert main(["spectrum", str(path)]) == 2
        assert "fading tag must be a string, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("data,digest", GOLDEN_HASHES)
    def test_config_hash_is_pinned(self, data, digest):
        config = ExperimentConfig.from_dict(data)
        assert config.sha256() == digest
        # to_dict must survive JSON (perfbench/run.py writes it out) and read back
        again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.to_dict() == config.to_dict()
        assert again.sha256() == digest


    @pytest.mark.parametrize("field", ["p_grid", "low_p", "high_p"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_powers_rejected(self, tmp_path, field, bad):
        # each in a config of a kind that reads the field
        data = capacity_p_config(tmp_path) if field == "p_grid" else extreme_snr_config(tmp_path)
        data[field] = [bad, 1e7]
        with pytest.raises(ConfigError, match=f"^{field} must hold finite nonnegative numbers$"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_chain_power_exits_2(self, tmp_path, capsys, bad):
        # unchecked, NaN and inf would run through to a nan capacity_estimate
        path = tmp_path / "narula.json"
        out = tmp_path / "out"
        path.write_text(json.dumps({"kind": "narula", "p_grid": [bad], "n_steps": 200,
                                    "burn_in": 10, "out_dir": str(out)}))
        assert main(["narula", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_channel_power_rejected(self, tmp_path, capsys, bad):
        # unchecked, a capacity_vs_N run wrote nan/inf estimates
        data = capacity_n_config(tmp_path)
        data["channel"]["power"] = bad
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["capacity", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "capn").exists()

    @pytest.mark.parametrize("patch", [
        {"low_p": [0.0, 1e-3]},    # singular low-SNR fit
        {"high_p": [1.0, 1e6]},    # 1 / log P at P = 1
        {"high_p": [0.5, 1.0]},
        {"high_p": [0.0, 1e6]},
        {"low_p": [1e-3, 2e-3, 4e-3]},  # the fits read exactly two points
        {"high_p": [1e4, 1e5, 1e6]},
    ])
    def test_extreme_snr_fit_powers_rejected(self, tmp_path, capsys, patch):
        data = extreme_snr_config(tmp_path, **patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["extreme-snr", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "ext").exists()


class TestCsvWriter:
    """``write_csv`` writes the bytes of the per-value rule below, whichever
    path formats a column."""

    @staticmethod
    def fmt(value) -> str:
        if isinstance(value, (int, np.integer, np.bool_)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    @classmethod
    def expected(cls, names, columns, meta):
        lines = [f"# {k}={v}\n" for k, v in meta.items()] + [",".join(names) + "\n"]
        lines += [",".join(map(cls.fmt, row)) + "\n" for row in zip(*columns)]
        return "".join(lines)

    @staticmethod
    def assert_text(path, expected: str):
        """The file holds ``expected``; on failure, report the line counts and
        the first differing line only (pytest's diff of two long texts takes
        minutes)."""
        got, want = path.read_text().splitlines(True), expected.splitlines(True)
        if got != want:
            differing = (i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            i = next(differing, min(len(got), len(want)))
            pytest.fail(f"{len(got)} lines, expected {len(want)}; line {i + 1} is "
                        f"{got[i:i + 1]}, expected {want[i:i + 1]}")

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 1025, 3000, 4096, 4097, 9000])
    def test_bytes_match_per_value_rule(self, tmp_path, n_rows):
        floats = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1,
                  np.float32(0.1), np.float64(-2.5)]
        ints = [np.int64(-7), True, 2**63 + 5, 0, np.uint64(2**64 - 1)]
        normals = np.random.default_rng(n_rows).standard_normal(n_rows)
        spiky = normals * 1e3
        spiky[5000::1000] = np.resize(np.array(floats[:6] + [1e-5]), len(spiky[5000::1000]))
        unsigned = np.arange(n_rows, dtype=np.uint64) * np.uint64(2**40)
        unsigned[4999::5000] = 2**64 - 1
        columns = [
            list(range(n_rows)),
            [floats[i % len(floats)] for i in range(n_rows)],
            list(normals),
            [ints[i % len(ints)] for i in range(n_rows)],
            [f"q{i}" for i in range(n_rows)],
            np.arange(n_rows) * 7919 - 10**6,
            spiky,
            normals.astype(np.float32),
            normals > 0,
            unsigned,
        ]
        names = ("i", "odd_float", "normal", "odd_int", "label",
                 "int64", "float64", "float32", "bool", "uint64")
        meta = {"experiment": "writer", "master_seed": 1}
        path = output.write_csv(tmp_path / "t.csv", names, columns, meta)
        self.assert_text(path, self.expected(names, columns, meta))
        # the numpy signed-integer and float columns alone take the bulk kernels
        names, columns = names[5:8], columns[5:8]
        path = output.write_csv(tmp_path / "bulk.csv", names, columns, meta)
        self.assert_text(path, self.expected(names, columns, meta))

    @pytest.mark.parametrize("where", [0, 1023, 1024, 2999])
    def test_mixed_int_and_float_column(self, tmp_path, where):
        # a float among ints must never go through %d
        column = [3] * 3000
        column[where] = 2.5
        columns = [column, [np.int64(i) for i in range(3000)]]
        path = output.write_csv(tmp_path / "m.csv", ("v", "i"), columns, {})
        assert path.read_text().splitlines()[1 + where] == f"2.5,{where}"
        self.assert_text(path, self.expected(("v", "i"), columns, {}))

    def test_numpy_and_python_bools_write_alike(self, tmp_path):
        flags = np.arange(10) % 3 == 0
        numpy_path = output.write_csv(tmp_path / "np.csv", ("b",), [flags], {})
        python_path = output.write_csv(tmp_path / "py.csv", ("b",), [flags.tolist()], {})
        assert numpy_path.read_bytes() == python_path.read_bytes()
        assert numpy_path.read_text().split() == ["b"] + ["1", "0", "0"] * 3 + ["1"]


class TestFits:
    def test_low_snr_fit_recovers_awgn(self):
        p = np.array([1e-3, 2e-3])
        caps = np.log1p(p)
        eb, s0 = fit_low_snr_params(p, caps)
        assert eb == pytest.approx(np.log(2.0), rel=1e-4)
        assert s0 == pytest.approx(2.0, rel=1e-2)

    def test_high_snr_fit_exact_on_affine_input(self):
        p = (1e4, 1e6)
        l_true = 0.7
        caps = np.array([(np.log2(pi) - l_true) * np.log(2.0) for pi in p])
        s, l = fit_high_snr_params(p, caps)
        assert s == pytest.approx(1.0, rel=1e-12)
        assert l == pytest.approx(l_true, rel=1e-10)
        assert fit_high_snr_offset_extrapolated(p, caps) == pytest.approx(l_true, rel=1e-9)

    def test_extrapolated_fit_removes_log_transient(self):
        p = (1e4, 1e6)
        l_true, a = 0.8327, 2.374
        caps = np.array(
            [(np.log2(pi) - l_true + a / np.log(pi)) * np.log(2.0) for pi in p]
        )
        plain = fit_high_snr_params(p, caps)[1]
        corrected = fit_high_snr_offset_extrapolated(p, caps)
        assert abs(corrected - l_true) < 1e-9
        assert abs(plain - l_true) > 0.3  # the transient really is that large


class TestRunExperiment:
    def test_spectrum_files_and_reference(self, tmp_path):
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        output = run_experiment(config)
        names = {p.name for p in output.files}
        assert {"spectrum.csv", "ecdf.csv", "shannon.csv"} <= names
        (result,) = output.results
        ref = wyner_capacity_nonfading(10.0, 0.5)
        assert result.reference == pytest.approx(ref, abs=1e-10)
        assert abs(result.estimate - ref) < 0.05  # finite-N edge bias at N=32
        shannon = next(p for p in output.files if p.name == "shannon.csv")
        lines = shannon.read_text().splitlines()
        assert lines[0].startswith("# experiment=spectrum")
        assert any(line.startswith("# master_seed=123") for line in lines[:3])
        assert lines[3] == "P,estimate,std_err,n_used,reference"

    def test_spectrum_reference_at_scale(self, tmp_path):
        config = ExperimentConfig.from_dict(spectrum_config(
            tmp_path, channel={
                "n_cells": 512, "users_per_cell": 1, "alpha": 0.5,
                "fading": "deterministic", "power": 10.0,
            }, replications=1,
        ))
        (result,) = run_experiment(config).results
        assert abs(result.estimate - result.reference) < 2e-2

    def test_rerun_is_byte_identical(self, tmp_path):
        base = spectrum_config(tmp_path)
        out_a = run_experiment(ExperimentConfig.from_dict(
            {**base, "out_dir": str(tmp_path / "a")}))
        out_b = run_experiment(ExperimentConfig.from_dict(
            {**base, "out_dir": str(tmp_path / "b")}))
        for fa, fb in zip(out_a.files, out_b.files):
            assert fa.read_bytes() == fb.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        spectrum = spectrum_config(tmp_path, replications=6)
        spectrum["channel"].update(n_cells=64, fading="rayleigh")
        # bandwidth-2 transforms at four powers, from one stacked banded Cholesky per replicate
        capacity_k2 = {"kind": "capacity_vs_P", "p_grid": [0.1, 1.0, 10.0, 100.0],
                       "replications": 4, "seed": 6, "channel": {
                           "n_cells": 64, "users_per_cell": 2, "alpha": 0.5, "fading": "rayleigh"}}
        # Gram sums that end in a partial row block at N = 20000; at N = 8193, one
        # row past a block, the matrix end cuts the first block's halo to that row
        moments_k2 = {"kind": "moments", "replications": 3, "seed": 8, "channel": {
            "n_cells": 20000, "users_per_cell": 2, "diagonals": THREE_LAWS}}
        moments_8193 = {**moments_k2, "channel": {**moments_k2["channel"], "n_cells": 8193}}
        # and runs of several groups each: three N, three chains, two alphas
        multi_group = [make(tmp_path) for make in MULTI_GROUP.values()]
        # three workers on any host, so the pool forks even with one usable CPU
        usable_cpus(monkeypatch, 3)
        for i, data in enumerate([spectrum, capacity_k2, *multi_group, LARGE_MOMENTS,
                                  moments_k2, moments_8193]):
            out_a, out_b = (run_experiment(ExperimentConfig.from_dict(
                {**data, "out_dir": str(tmp_path / str(i) / str(jobs))}), jobs, emit_gnuplot=True)
                for jobs in (1, 3))
            assert [f.name for f in out_a.files] == [f.name for f in out_b.files]
            for fa, fb in zip(out_a.files, out_b.files):
                assert fa.read_bytes() == fb.read_bytes()
                # every moments row has its walk-sum reference
                assert fa.name != "moments.csv" or b"nan" not in fa.read_bytes()

    def test_capacity_grid_row_count(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "capacity_vs_P",
            "channel": {"n_cells": 16, "alpha": 0.3, "fading": "rayleigh"},
            "p_grid": [0.1, 1.0, 5.0, 20.0, 100.0],
            "replications": 2,
            "seed": 5,
            "out_dir": str(tmp_path / "cap"),
        })
        output = run_experiment(config)
        (path,) = output.files
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "P,estimate,std_err,n_used,reference"
        assert len(rows) == 1 + 5

    def test_moments_experiment_references(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "moments",
            "channel": {"n_cells": 256, "alpha": 0.5, "fading": "rayleigh"},
            "replications": 8,
            "seed": 11,
            "out_dir": str(tmp_path / "mom"),
        })
        output = run_experiment(config)
        refs = [r.reference for r in output.results]
        assert refs[0] == pytest.approx(1.5, rel=1e-12)
        assert refs[1] == pytest.approx(4.5, rel=1e-12)
        for r in output.results:
            assert abs(r.estimate - r.reference) < 0.15 * r.reference

    def test_narula_experiment_schema(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "narula",
            "p_grid": [1.0, 10.0],
            "n_steps": 5000,
            "burn_in": 500,
            "seed": 2,
            "out_dir": str(tmp_path / "nar"),
        })
        output = run_experiment(config)
        summary = next(p for p in output.files if p.name == "narula_summary.csv")
        lines = [l for l in summary.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "P,capacity_estimate,std_err,n_steps"
        assert len(lines) == 3
        samples = next(p for p in output.files if p.name == "narula_samples_p0.csv")
        body = [l for l in samples.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "step,d,log_d"
        assert len(body) == 1 + 4500

    def test_extreme_snr_experiment(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "extreme_snr",
            "channel": {"n_cells": 512, "alpha": 0.0, "fading": "deterministic"},
            "replications": 2,
            "low_p": [1e-3, 2e-3],
            "high_p": [1e4, 1e6],
            "seed": 3,
            "out_dir": str(tmp_path / "ext"),
        })
        output = run_experiment(config)
        by_name = {r.grid_value: r for r in output.results}
        assert by_name["eb_n0_min"].estimate == pytest.approx(np.log(2.0), rel=0.01)
        assert by_name["s0"].estimate == pytest.approx(2.0, rel=0.02)
        assert by_name["eb_n0_min"].reference == pytest.approx(np.log(2.0), rel=1e-12)

    def test_mp_compare_and_power_profile(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "mp_compare",
            "channel": {"n_cells": 256, "users_per_cell": 1, "fading": "rayleigh"},
            "alphas": [0.1, 0.9],
            "replications": 2,
            "seed": 9,
            "out_dir": str(tmp_path / "mp"),
        })
        output = run_experiment(config)
        assert len(output.results) == 2
        assert all(0 <= r.estimate <= 1 for r in output.results)

        config = ExperimentConfig.from_dict({
            "kind": "power_profile",
            "channel": {"n_cells": 64, "alpha": 0.5, "fading": "rayleigh"},
            "n_grid": [16, 32],
            "seed": 0,
            "out_dir": str(tmp_path / "pp"),
        })
        output = run_experiment(config)
        assert all(r.estimate >= 0.5 for r in output.results)

    @pytest.mark.parametrize("channel", [
        {"n_cells": 16, "alpha": 0.5, "fading": "rayleigh"},
        {"n_cells": 8, "users_per_cell": 3, "alpha": 0.3, "beta": 0.0,
         "fading": "rician:nu=1,s2=0.5"},
        {"n_cells": 8, "users_per_cell": 2, "diagonals": [
            {"offset": -2, "gain": 0.4, "fading": "deterministic"},
            {"offset": 0, "gain": 1.0, "fading": "rayleigh"},
            {"offset": 1, "gain": 0.0, "fading": "uniform-phase"}]},
    ])
    def test_profile_file_lists_the_band_cells(self, tmp_path, channel):
        # K * sum(N - |offset|) cells of the N x N*K profile, row-major; the
        # dense oracle holds the same values there and is 0 everywhere else
        config = ExperimentConfig.from_dict({
            "kind": "power_profile", "channel": channel, "n_grid": [9, 18],
            "out_dir": str(tmp_path / "pp"),
        })
        run_experiment(config)
        text = (tmp_path / "pp" / "profile_n9.csv").read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines[0] == "row,col,value"
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        params = config.channel.with_size(9)
        k = params.users_per_cell
        row, col = cells[:, 0].astype(int) - 1, cells[:, 1].astype(int) - 1
        assert len(cells) == k * sum(9 - abs(o) for o in params.offsets)
        assert np.all(np.diff(row * 9 * k + col) > 0)
        oracle = dense_profile(params, 9, 9 * k)
        assert np.array_equal(cells[:, 2], oracle[row, col])
        oracle[row, col] = 0.0
        assert not oracle.any()

    def test_histogram_bins_hold_negative_roundoff(self):
        left, right, counts, cum = harness._histogram_columns(np.array([-1e-17, 0.5, 1.0]), 4)
        assert left[0] == -1e-17
        assert counts.sum() == 3
        assert cum[-1] == 1.0
        # nonnegative spectra keep bins anchored at zero
        assert harness._histogram_columns(np.array([0.5, 1.0]), 4)[0][0] == 0.0

    def test_shannon_kinds_never_eigensolve(self, tmp_path, monkeypatch):
        def no_eigensolve(a):
            raise AssertionError("Shannon transforms must not eigensolve")

        monkeypatch.setattr(harness, "eigenvalues", no_eigensolve)
        for data in (
            capacity_p_config(tmp_path, p_grid=[0.1, 10.0]),
            capacity_n_config(tmp_path),
            extreme_snr_config(tmp_path),
        ):
            output = run_experiment(ExperimentConfig.from_dict(data))
            assert all(r.n_used == data["replications"] for r in output.results)

    def test_spectrum_still_eigensolves(self, tmp_path, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.n)
            return eigenvalues(a)

        monkeypatch.setattr(harness, "eigenvalues", counted)
        run_experiment(ExperimentConfig.from_dict(spectrum_config(tmp_path)))
        assert calls == [32, 32, 32]

    def test_two_tap_transforms_skip_banded_cholesky(self, tmp_path, monkeypatch):
        def no_cholesky(ab, **kwargs):
            raise AssertionError("bandwidth-1 Shannon transforms must use dpttrf")

        monkeypatch.setattr(band_matrix, "cholesky_banded", no_cholesky)
        data = capacity_p_config(
            tmp_path, p_grid=[0.1, 10.0],
            channel={"n_cells": 32, "alpha": 1.0, "beta": 0.0, "fading": "rayleigh"},
        )
        output = run_experiment(ExperimentConfig.from_dict(data))
        assert all(r.n_used == 3 for r in output.results)

    @pytest.mark.parametrize("channel", [
        {"n_cells": 32, "alpha": 0.5, "fading": "rayleigh"},
        # two diagonals, but bandwidth 2: the route follows the Gram bandwidth
        {"n_cells": 32, "diagonals": [
            {"offset": o, "gain": 1.0, "fading": "rayleigh"} for o in (0, 2)]},
    ])
    def test_wider_bands_use_banded_cholesky(self, tmp_path, monkeypatch, channel):
        bandwidths = []

        def counted(ab, **kwargs):
            bandwidths.append(ab.shape[0] - 1)
            assert ab.shape[1] == 2 * 32  # both powers' shifted matrices, stacked
            return cholesky_banded(ab, **kwargs)

        monkeypatch.setattr(band_matrix, "cholesky_banded", counted)
        run_experiment(ExperimentConfig.from_dict(capacity_p_config(
            tmp_path, p_grid=[0.1, 10.0], channel=channel)))
        # one factorization per replicate
        assert bandwidths == [2] * 3

    def test_power_grid_past_one_stack_goes_in_slices(self, tmp_path, monkeypatch):
        # at large N the grid is factored a slice at a time, so the pivots
        # held at once stay bounded; the bytes are those of one stack
        powers = [0.1, 1.0, 10.0, 100.0, 1e3]
        data = capacity_p_config(tmp_path, p_grid=powers, channel={
            "n_cells": 32, "alpha": 0.5, "fading": "rician:nu=0.6+0.2j,s2=0.5"})
        (whole,) = run_experiment(ExperimentConfig.from_dict(data)).files
        expected = whole.read_bytes()
        grids = []

        def recorded(a, rho):
            grids.append(len(rho))
            return log_ldl_shifted(a, rho)

        monkeypatch.setattr(harness, "log_ldl_shifted", recorded)
        monkeypatch.setattr(band_matrix, "_STACK_ORDER", 2 * 32)
        (sliced,) = run_experiment(ExperimentConfig.from_dict(data)).files
        assert sliced.read_bytes() == expected
        assert grids == [2, 2, 1] * 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_factorization_drops_its_replicate(
        self, tmp_path, monkeypatch, caplog, two_cpus, jobs
    ):
        # factorizing replicate 1's matrix fails; it is told apart by its data,
        # since a forked worker's calls never reach this process
        powers = [0.1, 1.0, 10.0]
        config = ExperimentConfig.from_dict(capacity_p_config(
            tmp_path, p_grid=powers, replications=4,
            channel={"n_cells": 32, "alpha": 0.5, "fading": "rayleigh"},
        ))
        grams = [
            gram(generate_channel(
                config.channel, derive_stream(config.seed, harness._stream_index(0, r))))
            for r in range(4)
        ]
        calls = []

        def flaky(a, rho):
            calls.append(rho)
            if np.array_equal(a.diag, grams[1].diag):
                raise PivotError("forced failure")
            return log_ldl_shifted(a, rho)

        monkeypatch.setattr(harness, "log_ldl_shifted", flaky)
        with caplog.at_level(logging.WARNING, logger="bandspec.harness"):
            (path,) = run_experiment(config, jobs=jobs).files
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        assert [int(row.split(",")[3]) for row in rows] == [3, 3, 3]
        # the parent names the dropped replicate, also when a worker ran it
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("bandspec.harness", logging.WARNING)
        assert record.getMessage() == (
            f"dropped replicate 1 (stream key seed={config.seed}, "
            f"index={harness._stream_index(0, 1)}): PivotError('forced failure')"
        )
        survivors = [[log_ldl_shifted(grams[r], p).mean() for p in powers] for r in (0, 2, 3)]
        estimates = [float(row.split(",")[1]) for row in rows]
        assert estimates == pytest.approx(np.mean(survivors, axis=0), rel=1e-14)
        if jobs == 1:
            # one stacked factorization per replicate, of the whole power grid
            assert len(calls) == 4
            assert all(np.array_equal(rhos, powers) for rhos in calls)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_replicates_failing_raises(self, tmp_path, monkeypatch, two_cpus, jobs):
        def explode(*args, **kwargs):
            raise PivotError("forced failure")

        monkeypatch.setattr(harness, "eigenvalues", explode)
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        with pytest.raises(AllReplicatesFailedError):
            run_experiment(config, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(config, jobs=jobs)
        assert not (tmp_path / "out").exists()


def usable_cpus(monkeypatch, cpus):
    """``cpus`` CPUs in the process's affinity set, on a machine of eight, as
    far as the worker cap can tell, however many the host has; None is a
    platform with no affinity set whose CPU count is unknown."""
    if cpus is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs as far as the worker cap can tell, however many the host has."""
    usable_cpus(monkeypatch, 2)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="replicate workers are forked")


@pytest.fixture
def stand_in_pool(monkeypatch):
    """The worker count of each process pool made, in order; a serial
    stand-in runs the pool's calls, so no process starts."""
    made = []

    class StandInPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", StandInPool)
    return made


class TestReplicateWorkers:
    @pytest.mark.parametrize("jobs,replications,cpus,workers", [
        (8, 5, 3, 3),
        (2, 5, 3, 2),
        (8, 2, 3, 2),
        (4, 1, 3, None),
        (4, 5, 1, None),
        (4, 5, None, None),
        (1, 5, 3, None),
    ])
    def test_worker_cap(
        self, tmp_path, monkeypatch, stand_in_pool, jobs, replications, cpus, workers
    ):
        usable_cpus(monkeypatch, cpus)
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path, replications=replications))
        (draws,) = harness._replicate_map(config.seed, jobs, [lambda rng: rng.random()],
                                          replications)
        assert stand_in_pool == ([] if workers is None else [workers])
        assert draws == [derive_stream(config.seed, r).random() for r in range(replications)]

    @pytest.mark.parametrize("kind", list(MULTI_GROUP))
    def test_one_pool_per_run(self, tmp_path, stand_in_pool, two_cpus, kind):
        # every replicate of every group goes through one pool: there was a
        # pool per group, and none for narula, whose groups hold a chain each
        run_experiment(ExperimentConfig.from_dict(MULTI_GROUP[kind](tmp_path)), jobs=2)
        assert stand_in_pool == [2]

    @needs_fork
    def test_replicates_run_in_parallel_workers(self, tmp_path, two_cpus):
        # each replicate waits at a two-party barrier, so a replicate returns
        # only while another worker process is running one too
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)

        def pid(rng):
            barrier.wait()
            return os.getpid()

        config = ExperimentConfig.from_dict(spectrum_config(tmp_path, replications=4))
        (pids,) = harness._replicate_map(config.seed, 2, [pid], config.replications)
        assert len(set(pids)) >= 2
        assert os.getpid() not in pids

    @pytest.mark.parametrize("failing,message", [
        ({1}, "2 of 2 replicates failed numerically in group 1"),
        ({0, 2}, "2 of 2 replicates failed numerically in groups 0, 2"),
    ])
    def test_failed_groups_are_named(self, failing, message):
        def fail(rng):
            raise PivotError("forced failure")

        workers = [fail if g in failing else (lambda rng: rng.random()) for g in range(3)]
        with pytest.raises(AllReplicatesFailedError) as raised:
            harness._replicate_map(0, 1, workers, 2)
        assert str(raised.value) == message

    @needs_fork
    def test_worker_exception_keeps_its_type(self, tmp_path, monkeypatch, two_cpus):
        def broken(a, rho):
            raise KeyError("not a numerical failure")

        monkeypatch.setattr(harness, "log_ldl_shifted", broken)
        config = ExperimentConfig.from_dict(capacity_p_config(tmp_path))
        with pytest.raises(KeyError, match="not a numerical failure"):
            run_experiment(config, jobs=2)


def spy_malloc(calls, mallopt_result=1):
    """A stand-in for the lookup of glibc's ``mallopt`` that records the lookup
    and each ``mallopt`` call; a ``mallopt_result`` of None is a failed lookup."""
    def mallopt(param, value):
        calls.append(("mallopt", param, value))
        return mallopt_result

    def lookup():
        calls.append("lookup")
        return None if mallopt_result is None else mallopt
    return lookup


glibc_only = pytest.mark.skipif(harness._glibc_malloc() is None, reason="no glibc mallopt")

# the allocator calls of a process's first run, in order
TUNE_CALLS = [("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20)]

# the N = 65536 moments config of test_jobs_do_not_change_bytes: 8 MB of
# channel, Gram blocks and scratch arrays per replicate
LARGE_MOMENTS = {"kind": "moments", "replications": 3, "seed": 4,
                 "channel": {"n_cells": 65536, "alpha": 0.5, "fading": "rayleigh"}}


def minor_faults(fn) -> int:
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class TestReplicateHeap:
    @pytest.fixture(autouse=True)
    def unset_heap(self):
        # the thresholds are set once per process: forget that, so that each
        # test's first run looks mallopt up again, and so does the next run
        # after a test that put in a stand-in
        harness._tune_heap.cache_clear()
        yield
        harness._tune_heap.cache_clear()

    @glibc_only
    def test_later_replicates_fault_no_pages(self):
        # each replicate frees about 8 MB of channel, Gram and scratch arrays,
        # which glibc's default thresholds handed back to the kernel, so every
        # replicate faulted 1888 pages in again
        worker = harness._gram_worker(wyner(65536, 1, 0.5, 0.5, "rayleigh"),
                                      lambda a: [trace_moment(a, p) for p in (1, 2, 3)])
        harness._tune_heap()
        faults = [minor_faults(lambda: worker(derive_stream(0, r))) for r in range(5)]
        assert max(faults[1:]) <= 50, faults

    @glibc_only
    def test_a_second_run_faults_no_pages(self, tmp_path):
        # the heap a run freed stays with the process for the next run: a
        # trim at the end of each run made the next one fault about 900 pages
        config = ExperimentConfig.from_dict({**LARGE_MOMENTS, "out_dir": str(tmp_path / "out")})
        faults = [minor_faults(lambda: run_experiment(config)) for _ in range(3)]
        assert max(faults[1:]) <= 50, faults

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mallopt_result,calls_made", [
        (1, ["lookup", *TUNE_CALLS]), (None, ["lookup"]), (0, ["lookup", TUNE_CALLS[0]]),
    ], ids=["set", "not found", "mallopt refuses"])
    def test_allocator_set_once_per_process(self, tmp_path, monkeypatch, two_cpus, jobs,
                                            mallopt_result, calls_made):
        # three runs, one lookup; a refused threshold sets nothing else
        calls = []
        monkeypatch.setattr(harness, "_glibc_malloc", spy_malloc(calls, mallopt_result))
        config = ExperimentConfig.from_dict(MULTI_GROUP["capacity_vs_N"](tmp_path))
        for _ in range(3):
            run_experiment(config, jobs=jobs)
        assert calls == calls_made

    @pytest.mark.parametrize("lookup", ["not found", "mallopt refuses"])
    def test_same_bytes_without_the_allocator_settings(self, tmp_path, lookup):
        # the inactive side runs in a fresh process: in this one, the settings
        # of any earlier run would still hold
        def files(out):
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        data = moments_config(tmp_path)
        run_experiment(ExperimentConfig.from_dict({**data, "out_dir": str(tmp_path / "active")}))
        code = """
import json, sys
import bandspec as bs
from bandspec import harness
calls = []
def refusing(param, value):
    calls.append(param)
    return 0
harness._glibc_malloc = (lambda: None) if sys.argv[1] == "not found" else (lambda: refusing)
bs.run_experiment(bs.ExperimentConfig.from_dict(json.loads(sys.argv[2])))
print(calls)
"""
        src = Path(harness.__file__).resolve().parents[1]
        inactive = {**data, "out_dir": str(tmp_path / "inactive")}
        run = subprocess.run([sys.executable, "-c", code, lookup, json.dumps(inactive)],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, check=True)
        # a refused threshold sets nothing else
        assert run.stdout.strip() == ("[]" if lookup == "not found" else "[-3]")
        assert files(tmp_path / "inactive") == files(tmp_path / "active")


def readme_formula_flags() -> dict:
    """Each row of README's ``closed-form`` table: formula -> its flags."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index("| `--formula` | flags | rows |") + 2:])
    return {cells[1].strip(" `"): re.findall(r"--[a-z0-9-]+", cells[2])
            for cells in (row.split("|") for row in rows)}


README_FORMULA_FLAGS = readme_formula_flags()


class TestCli:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_kind_subcommand_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spectrum_config(tmp_path)))
        assert main(["moments", str(path)]) == 2

    def test_spectrum_run_and_overrides(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spectrum_config(tmp_path, replications=2)))
        out = tmp_path / "cli_out"
        code = main(["spectrum", str(path), "--seed", "7", "--out", str(out),
                     "--emit-gnuplot"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert any(line.endswith("shannon.csv") for line in printed)
        assert (out / "shannon.gp").exists()
        meta = (out / "shannon.csv").read_text().splitlines()[:3]
        assert any("master_seed=7" in line for line in meta)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_override_outside_uint64_exits_2(self, tmp_path, capsys, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spectrum_config(tmp_path)))
        assert main(["spectrum", str(path), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == "config error: seed must lie in [0, 2^64)\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_negative_jobs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spectrum_config(tmp_path)))
        assert main(["spectrum", str(path), "--jobs", "-3"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_closed_form_subcommand(self, capsys):
        assert main(["closed-form", "--formula", "wyner-nonfading",
                     "--power", "10", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "quantity,value"
        name, value = out[1].split(",")
        assert name == "capacity_nats"
        assert float(value) == pytest.approx(wyner_capacity_nonfading(10.0, 0.5))

    def test_closed_form_high_snr_rician_is_exact(self, capsys):
        assert main(["closed-form", "--formula", "high-snr",
                     "--fading-a", "rician:nu=0.8,s2=0.36"]) == 0
        values = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
        # -(ln 0.64 + E1(0.64/0.36)) / ln 2
        assert float(values["l_inf"]) == pytest.approx(0.5474991770458118, abs=1e-12)

    def test_closed_form_moments(self, capsys):
        assert main(["closed-form", "--formula", "limiting-moments",
                     "--fading-a", "rayleigh", "--alpha", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["M2"]) == pytest.approx(4.5)

    # formula -> (every flag of its README row, each away from its default,
    # and the closed_forms rows they must print)
    CLOSED_FORMS = {
        "wyner-nonfading": (["--power", "10", "--alpha", "0.5"], lambda: [
            ("capacity_nats", closed_forms.wyner_capacity_nonfading(10.0, 0.5))]),
        "wyner-large-k": (["--power", "10", "--alpha", "0.5", "--m2", "2", "--mu", "0.3"], lambda: [
            ("capacity_nats", closed_forms.wyner_capacity_large_k(10.0, 0.5, 2.0, 0.3))]),
        # the symmetric uplink of --k, --alpha and --fading-a (default rayleigh)
        "limiting-moments": (["--k", "2", "--alpha", "0.3", "--fading-a", "rician:nu=0.3+0.4j,s2=0.5"],
                             lambda: zip(("M1", "M2", "M3"), closed_forms.walk_moments(
                                 wyner(3, 2, 0.3, 0.3, rician(0.3 + 0.4j, 0.5))))),
        "exp-integral": (["--x", "0.7"], lambda: [("E1", closed_forms.exp_integral(0.7))]),
        "narula-pdf": (["--x", "3", "--pbar", "5"], lambda: [
            ("pdf", closed_forms.narula_stationary_pdf(3.0, 5.0))]),
        "narula-capacity": (["--pbar", "5"], lambda: [
            ("capacity_nats", closed_forms.narula_capacity(5.0))]),
        "low-snr": (["--k", "2", "--alpha", "0.5", "--fading-a", "rician:nu=0.8,s2=0.36"], lambda: zip(
            ("eb_n0_min", "s0"), closed_forms.low_snr_params(wyner(3, 2, 0.5, 0.5, rician(0.8, 0.36))))),
        "high-snr": (["--fading-a", "rician:nu=0.8,s2=0.36", "--fading-b", "rayleigh"],
                     lambda: zip(("s_inf", "l_inf"), closed_forms.high_snr_params(
                         parse_spec_tag("rician:nu=0.8,s2=0.36"), parse_spec_tag("rayleigh")))),
        "mp-cdf": (["--x", "1.5", "--k", "2", "--sigma2", "3"], lambda: [
            ("cdf", closed_forms.marchenko_pastur_cdf(1.5, 2, 3.0))]),
    }

    @pytest.mark.parametrize("formula", list(README_FORMULA_FLAGS))
    def test_closed_form_prints_exact_values(self, capsys, formula):
        flags, expected = self.CLOSED_FORMS[formula]
        assert sorted(flags[::2]) == sorted(README_FORMULA_FLAGS[formula])
        assert main(["closed-form", "--formula", formula, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["quantity,value"] + [
            f"{name},{format(value, '.17g')}" for name, value in expected()
        ]

    @pytest.mark.parametrize("flags", [
        ["high-snr", "--fading-a", "nope"],
        ["narula-capacity", "--pbar", "0"],
        ["mp-cdf", "--k", "0"],
        ["exp-integral", "--x", "-1"],
        # the first ended in a ZeroDivisionError (exit 1); the others printed
        # s0 = 2, -inf, nan, nan, nan and cdf 0
        ["low-snr", "--k", "0"],
        ["low-snr", "--k", "-2"],
        ["wyner-nonfading", "--power", "-1"],
        ["wyner-nonfading", "--power", "nan"],
        ["narula-capacity", "--pbar", "nan"],
        ["narula-capacity", "--pbar", "inf"],
        ["mp-cdf", "--x", "nan"],
    ])
    def test_closed_form_bad_flags_exit_2(self, capsys, flags):
        assert main(["closed-form", "--formula", *flags]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("formula", list(README_FORMULA_FLAGS))
    def test_closed_form_reads_only_its_readme_flags(self, capsys, formula):
        (sub,) = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = [flag for a in sub.choices["closed-form"]._actions for flag in a.option_strings
                 if flag not in ("-h", "--help", "--formula")]
        for flag in set(flags) - set(README_FORMULA_FLAGS[formula]):
            value = "rayleigh" if flag.startswith("--fading") else "2"
            assert main(["closed-form", "--formula", formula, flag, value]) == 2, flag
            assert f"does not read {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,unread", [
        # each printed its formula's answer and exited 0
        (["low-snr", "--m2", "4", "--alpha", "0.5"], "--m2"),
        (["wyner-nonfading", "--pbar", "7", "--fading-a", "nope"], "--pbar, --fading-a"),
        (["high-snr", "--k", "2"], "--k"),
        (["mp-cdf", "--alpha", "nan"], "--alpha"),
        (["wyner-nonfading", "--pbar", "7"], "--pbar"),
    ], ids=["low-snr --m2", "wyner-nonfading --pbar --fading-a", "high-snr --k", "mp-cdf --alpha",
            "wyner-nonfading --pbar"])
    def test_closed_form_unread_flag_exits_2(self, capsys, flags, unread):
        # as a config field that its kind does not read
        assert main(["closed-form", "--formula", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {flags[0]} does not read {unread}: leave it out\n"
        assert captured.out == ""

    def test_all_replicates_failing_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(a, rho):
            raise PivotError("forced failure")

        monkeypatch.setattr(harness, "log_ldl_shifted", explode)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(capacity_p_config(tmp_path)))
        assert main(["capacity", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_group_exits_3_after_every_group_ran(
        self, tmp_path, monkeypatch, capsys, caplog, two_cpus, jobs
    ):
        # every replicate of the first N fails: the other N still run (a
        # forked worker's calls never reach this process), and no file is made
        sizes = []

        def flaky(a, rho):
            sizes.append(a.n)
            if a.n == 8:
                raise PivotError("forced failure")
            return log_ldl_shifted(a, rho)

        monkeypatch.setattr(harness, "log_ldl_shifted", flaky)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MULTI_GROUP["capacity_vs_N"](tmp_path)))
        with caplog.at_level(logging.WARNING, logger="bandspec.harness"):
            assert main(["capacity", str(path), "--jobs", str(jobs)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: 3 of 3 replicates failed numerically in group 0\n")
        assert [record.getMessage() for record in caplog.records] == [
            f"dropped replicate {r} (stream key seed=5, index={harness._stream_index(0, r)}): "
            "PivotError('forced failure')" for r in range(3)]
        assert list(tmp_path.iterdir()) == [path]
        if jobs == 1:
            assert sorted(set(sizes)) == [8, 12, 16]

    @pytest.mark.parametrize("command,kind,nu,code", [
        ("moments", "moments", "1e60", 3), ("extreme-snr", "extreme_snr", "1e100", 0)])
    def test_large_rician_mean(self, tmp_path, capsys, caplog, command, kind, nu, code):
        # both ended in an OverflowError traceback (exit 1): at 1e60 trace(A^3)
        # overflows in every replicate, at 1e100 the reference's E|h|^4 does
        data = {**CONFIGS[kind](tmp_path),
                "channel": {"n_cells": 8, "fading": f"rician:nu={nu},s2=1"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with caplog.at_level(logging.WARNING, logger="bandspec.harness"):
            assert main([command, str(path)]) == code
        if code == 3:
            assert "numerical failure" in capsys.readouterr().err
            assert [record.getMessage().split(": ", 1)[1] for record in caplog.records] == [
                "FloatingPointError('trace(A^3) / n = inf is not finite')"] * 2
            assert list(tmp_path.iterdir()) == [path]
        else:
            lines = (tmp_path / "ext" / "extreme_snr.csv").read_text().splitlines()[4:]
            rows = {line.split(",")[0]: line.split(",")[1:] for line in lines}
            assert [rows[name][1] for name in ("eb_n0_min", "s0")] == ["nan", "nan"]
            assert all(np.isfinite(float(estimate)) for estimate, _ in rows.values())

    def test_non_finite_spectrum_exits_3(self, tmp_path, capsys, caplog):
        # a finite band (diagonal up to 1.5e308) whose eigensolve returns inf:
        # the histogram raised ValueError, a traceback and exit 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "spectrum", "replications": 2,
                                    "out_dir": str(tmp_path / "out"),
                                    "channel": {"n_cells": 16, "alpha": 0.5,
                                                "fading": "rician:nu=1e154,s2=1"}}))
        with caplog.at_level(logging.WARNING, logger="bandspec.harness"):
            assert main(["spectrum", str(path)]) == 3
        assert "numerical failure: 2 of 2 replicates failed" in capsys.readouterr().err
        assert [record.getMessage().split(": ", 1)[1] for record in caplog.records] == [
            "LinAlgError('band eigensolve returned a non-finite eigenvalue')"] * 2
        assert list(tmp_path.iterdir()) == [path]

    def test_mp_compare_of_a_huge_scale(self, tmp_path):
        # E|h|^2 = 1e300 + 1: the Marchenko-Pastur CDF formed terms of order
        # 1e600 and wrote a nan ks_distance with exit 0
        data = {**mp_compare_config(tmp_path),
                "channel": {"n_cells": 32, "fading": "rician:nu=1e150,s2=1"}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            output = run_experiment(ExperimentConfig.from_dict(data))
        assert all(0 < r.estimate <= 1 for r in output.results)
        assert all(b"nan" not in f.read_bytes() for f in output.files)

    def test_power_profile_at_65536_under_a_2gb_cap(self, tmp_path):
        # python -m bandspec.cli as a process whose address space is capped at
        # 2 GB: the gaps and the profile file are looked up along the band, where
        # a dense lcm x lcm*K grid at N = 65536 would take 32 GiB
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

        def run(n_grid):
            out = tmp_path / "-".join(map(str, n_grid))
            path = out.with_suffix(".json")
            path.write_text(json.dumps(
                {**power_profile_config(tmp_path), "n_grid": n_grid, "out_dir": str(out)}))
            src = Path(harness.__file__).resolve().parents[1]
            done = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "bandspec.cli",
                 "power-profile", str(path)], env={**os.environ, "PYTHONPATH": str(src)},
                preexec_fn=cap, capture_output=True, text=True)
            return done.returncode, done.stderr, out

        def rows(path):
            return [line.split(",") for line in path.read_text().splitlines()[4:]]

        code, err, out = run([16, 65536])
        assert code == 0, err
        assert [row[1] for row in rows(out / "power_profile.csv")] == ["0.75", "0.75"]
        code, err, out = run([65536])
        assert code == 0, err
        assert len(rows(out / "profile_n65536.csv")) == 65536 + 2 * 65535
        # a config error's exit code passes through sys.exit, and nothing is written
        code, err, out = run([1, 2])
        assert code == 2 and err.startswith("config error: power_profile channel: "), err
        assert not out.exists()

    def test_failing_chain_exits_3(self, tmp_path, capsys, caplog):
        # the second chain's tap powers overflow; it used to end in a traceback
        # and exit 1, and then to leave the first chain's samples file behind
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "narula", "p_grid": [1.0, 1e200], "n_steps": 2000,
                                    "burn_in": 10, "out_dir": str(tmp_path / "out")}))
        with caplog.at_level(logging.WARNING, logger="bandspec.harness"):
            assert main(["narula", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"dropped replicate 0 (stream key seed=0, index={harness._stream_index(1, 0)}): "
            "PivotError(")
        assert not (tmp_path / "out").exists()


class RecordingConfig(ExperimentConfig):
    """A config that notes each field read while ``recording`` is set."""

    FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
    recording = False

    def __getattribute__(self, name):
        if name in RecordingConfig.FIELDS and object.__getattribute__(self, "recording"):
            object.__getattribute__(self, "__dict__").setdefault("read", set()).add(name)
        return object.__getattribute__(self, name)


class TestDeclarations:
    """Each kind and each formula is declared once; what refers to it agrees."""

    def test_subcommands_cover_exactly_the_kinds(self):
        kinds = [kind for group in cli._SUBCOMMAND_KINDS.values() for kind in group]
        assert sorted(kinds) == sorted(harness.KINDS)

    def test_kind_needs_are_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(harness._COMMON) == COMMON_FIELDS
        assert set(NON_DEFAULT) == names - COMMON_FIELDS  # the unread-field cases cover them all
        for kind in harness._RUNNERS.values():
            assert set(kind.needs) <= set(kind.reads) <= names - COMMON_FIELDS

    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_runner_reads_its_declared_fields(self, tmp_path, monkeypatch, kind):
        entry = harness._RUNNERS[kind]

        def recorded(config, *closures):
            config.recording = True
            try:
                return entry.run(config, *closures)
            finally:
                config.recording = False

        monkeypatch.setitem(harness._RUNNERS, kind, entry._replace(run=recorded))
        config = RecordingConfig.from_dict(CONFIGS[kind](tmp_path))
        run_experiment(config)
        assert config.read - COMMON_FIELDS == set(entry.reads)

    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_runner_returns_tables_and_writes_nothing(self, tmp_path, kind):
        config = ExperimentConfig.from_dict(CONFIGS[kind](tmp_path))

        def replicate(workers, count):
            return harness._replicate_map(config.seed, 1, workers, count)

        results, tables = harness._RUNNERS[kind].run(config, replicate)
        assert list(tmp_path.iterdir()) == []
        for name, names, columns in tables:
            assert len(names) == len(columns)
            assert len({len(column) for column in columns}) == 1
        # run_experiment writes exactly these tables, in this order
        output = run_experiment(config)
        assert [path.name for path in output.files] == [name for name, _, _ in tables]
        assert repr(output.results) == repr(tuple(results))

    def test_formulas_are_argparse_choices(self):
        (sub,) = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        (formula,) = [a for a in sub.choices["closed-form"]._actions if a.dest == "formula"]
        assert list(formula.choices) == list(cli._FORMULAS) == list(README_FORMULA_FLAGS)
