import json

import numpy as np
import pytest

import bandspec.harness as harness
from bandspec import (
    AllReplicatesFailedError,
    ConfigError,
    ExperimentConfig,
    PivotError,
    derive_stream,
    fit_high_snr_offset_extrapolated,
    fit_high_snr_params,
    fit_low_snr_params,
    run_experiment,
    wyner_capacity_nonfading,
)
from bandspec.cli import main


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

    def test_hash_distinguishes_rician_phase(self, tmp_path):
        def rician_config(nu):
            return ExperimentConfig.from_dict(spectrum_config(
                tmp_path,
                channel={"n_cells": 32, "alpha": 0.5, "fading": f"rician:nu={nu},s2=0.5"},
            ))

        with_phase = rician_config("0.3+0.4j")
        assert with_phase.sha256() != rician_config("0.3").sha256()
        assert ExperimentConfig.from_dict(with_phase.to_dict()).sha256() == with_phase.sha256()

    @pytest.mark.parametrize(
        "patch",
        [
            {"kind": "nope"},
            {"p_grid": [2.0, 1.0]},
            {"replications": 0},
            {"channel": None},
            {"bogus_field": 1},
            {"channel": {"n_cells": 2, "alpha": 0.5, "fading": "rayleigh"}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, patch):
        data = spectrum_config(tmp_path)
        data.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)


    @pytest.mark.parametrize("field", ["p_grid", "low_p", "high_p"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_powers_rejected(self, tmp_path, field, bad):
        data = spectrum_config(tmp_path, kind="extreme_snr")
        data[field] = [bad, 1e7]
        with pytest.raises(ConfigError):
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


class TestCsvWriter:
    """``_write_csv`` writes the bytes of the per-value rule below."""

    @staticmethod
    def expected(columns, rows, meta):
        def fmt(value):
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            if isinstance(value, (float, np.floating)):
                return format(float(value), ".17g")
            return str(value)

        lines = [f"# {k}={v}\n" for k, v in meta.items()] + [",".join(columns) + "\n"]
        lines += [",".join(fmt(v) for v in row) + "\n" for row in rows]
        return "".join(lines)

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 1025, 3000])
    def test_bytes_match_per_value_rule(self, tmp_path, n_rows):
        floats = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1,
                  np.float32(0.1), np.float64(-2.5)]
        ints = [np.int64(-7), True, 2**63 + 5, 0, np.uint64(2**64 - 1)]
        normals = np.random.default_rng(n_rows).standard_normal(n_rows)
        rows = [
            (i, floats[i % len(floats)], normals[i], ints[i % len(ints)], f"q{i}")
            for i in range(n_rows)
        ]
        columns = ("i", "odd_float", "normal", "odd_int", "label")
        meta = {"experiment": "writer", "master_seed": 1}
        path = harness._write_csv(tmp_path / "t.csv", columns, iter(rows), meta)
        assert path.read_text() == self.expected(columns, rows, meta)

    @pytest.mark.parametrize("where", [0, 1023, 1024, 2999])
    def test_mixed_int_and_float_column(self, tmp_path, where):
        # a float among ints must never go through %d
        column = [3] * 3000
        column[where] = 2.5
        rows = [(v, np.int64(i)) for i, v in enumerate(column)]
        path = harness._write_csv(tmp_path / "m.csv", ("v", "i"), rows, {})
        assert path.read_text().splitlines()[1 + where] == f"2.5,{where}"
        assert path.read_text() == self.expected(("v", "i"), rows, {})


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

    def test_jobs_do_not_change_bytes(self, tmp_path):
        data = spectrum_config(tmp_path, replications=6)
        data["channel"]["fading"] = "rayleigh"
        out_a = run_experiment(ExperimentConfig.from_dict(
            {**data, "out_dir": str(tmp_path / "a")}), jobs=1)
        out_b = run_experiment(ExperimentConfig.from_dict(
            {**data, "out_dir": str(tmp_path / "b")}), jobs=4)
        for fa, fb in zip(out_a.files, out_b.files):
            assert fa.read_bytes() == fb.read_bytes()

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

    def test_histogram_bins_hold_negative_roundoff(self):
        rows = harness._histogram_rows(np.array([-1e-17, 0.5, 1.0]), 4)
        assert rows[0][0] == -1e-17
        assert sum(count for _, _, count, _ in rows) == 3
        assert rows[-1][3] == 1.0
        # nonnegative spectra keep bins anchored at zero
        assert harness._histogram_rows(np.array([0.5, 1.0]), 4)[0][0] == 0.0

    def test_all_replicates_failing_raises(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise PivotError("forced failure")

        monkeypatch.setattr(harness, "eigenvalues", explode)
        config = ExperimentConfig.from_dict(spectrum_config(tmp_path))
        with pytest.raises(AllReplicatesFailedError):
            run_experiment(config)


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
                     "--m2", "1", "--m4", "2", "--m6", "6", "--alpha", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["M2"]) == pytest.approx(4.5)
