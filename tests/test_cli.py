"""End-to-end tests for the command line interface.

Each test drives ``main`` in-process against a throwaway output directory
and cross-checks the artifacts against the library functions the commands
wrap, so a drift between the CLI and the library surfaces here.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import platform
import sys
import warnings
from pathlib import Path

import dataclasses

import dpqlsim.dataio
import numpy as np
import oracles
import pytest

from dpqlsim.bbr_kinetics import ground_state_residence_lifetime, leave_probability_per_cycle
from dpqlsim.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from dpqlsim.dataio import (
    config_casts,
    config_to_mapping,
    format_number,
    read_dataset_csv,
    sha256_digest,
    write_dataset_csv,
)
from dpqlsim.hmm_detector import default_params
from dpqlsim.run_statistics import find_longest_run, observed_run_significance
from dpqlsim.spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    thermal_population,
)
from dpqlsim.sweep_dynamics import SweepConfig, landau_zener_oracle
from dpqlsim.trajectory_sim import ExperimentConfig

# Closed-form transfer for the default coupling and ramp rate, reported by
# the sweep command next to the integrated map.
LZ_DEFAULT = 0.9987339488777311


def write_keyvalues(path, mapping: dict) -> None:
    """``key = value`` lines, floats formatted as the CSV writers format them."""
    cells = {k: format_number(v) if isinstance(v, float) else v for k, v in mapping.items()}
    path.write_text("".join(f"{k} = {v}\n" for k, v in cells.items()))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def strict_load(path: Path) -> dict:
    """Parse RFC 8259 JSON, refusing the NaN and Infinity extensions."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name} in {path}")

    return json.loads(path.read_text(), parse_constant=refuse)


def load_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def assert_no_output(out_dir: Path) -> None:
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory) -> Path:
    """One hour of labeled default-condition data, shared by analyze tests."""
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--hours", "1", "--seed", "55", "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestThermal:
    def test_default_temperature_table(self, tmp_path):
        assert main(["thermal", "--out", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "thermal_populations.csv")
        assert header == [
            "state", "v", "two_omega", "two_J", "energy_percm", "population_300K",
        ]
        assert len(rows) == 280
        assert sum(float(r[5]) for r in rows) == pytest.approx(1.0, rel=1e-8)

    def test_populations_match_library(self, tmp_path):
        code = main(["thermal", "-T", "300", "-T", "450", "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "thermal_populations.csv")
        assert header[-2:] == ["population_300K", "population_450K"]
        ground = next(
            r for r in rows if (int(r[1]), int(r[2]), int(r[3])) == (0, 3, 3)
        )
        constants = MolecularConstants()
        assert float(ground[5]) == pytest.approx(
            thermal_population(ROT_GROUND, constants, 300.0), rel=1e-9
        )
        assert float(ground[6]) == pytest.approx(
            thermal_population(ROT_GROUND, constants, 450.0), rel=1e-9
        )

    def test_prints_ground_population(self, tmp_path, capsys):
        assert main(["thermal", "-T", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert "P(ground rotational) = 0.415937" in capsys.readouterr().out


class TestLifetime:
    def test_table_matches_library(self, tmp_path):
        code = main(
            ["lifetime", "--t-min", "300", "--t-max", "450", "--t-points", "2",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "lifetime_vs_temperature.csv")
        assert header == [
            "temperature_K", "residence_lifetime_s", "thermal_ground_population",
        ]
        assert [float(r[0]) for r in rows] == [300.0, 450.0]
        constants = MolecularConstants()
        for row, T in zip(rows, [300.0, 450.0]):
            tau = ground_state_residence_lifetime(constants, T)
            assert float(row[1]) == pytest.approx(tau, rel=1e-9)
            pop = thermal_population(ROT_GROUND, constants, T)
            assert float(row[2]) == pytest.approx(pop, rel=1e-9)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t-points", "0"],
            ["--t-min", "-10"],
            ["--t-min", "400", "--t-max", "300"],
        ],
    )
    def test_bad_range_is_usage_error(self, extra, tmp_path, capsys):
        assert main(["lifetime", *extra, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--t-min", "--t-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_bound_is_usage_error(self, flag, value, tmp_path, capsys):
        # Rejected before np.linspace, which warns on an infinite span.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["lifetime", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:]}={value}," in err
        assert "np.float64" not in err

    def test_no_departure_channels_names_the_temperature(self, tmp_path, capsys):
        # At 1 mK no photon pumps the lowest level and it cannot decay.
        argv = ["lifetime", "--t-min", "1e-3", "--t-max", "1", "--t-points", "2",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "no departure channels at T = 0.001 K" in capsys.readouterr().err


class TestSimulate:
    def test_dataset_and_manifest(self, tmp_path):
        argv = ["simulate", "--hours", "0.05", "--seed", "11", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        rows = read_dataset_csv(tmp_path / "dataset.csv")
        assert len(rows) == 4500  # 0.05 h of 40 ms cycles
        assert all(r[3] is not None for r in rows)
        assert {r[1] for r in rows} <= {0, 1}
        manifest = load_manifest(tmp_path)
        assert manifest["command"] == argv
        assert manifest["seed"] == 11
        assert manifest["config"]["experiment"]["rng_seed"] == 11
        # Every field, and nothing else.
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(fields) == 6
        assert set(manifest["config"]["experiment"]) == fields
        assert manifest["outputs"]["dataset.csv"] == sha256_digest(
            tmp_path / "dataset.csv"
        )

    def test_deterministic_given_seed(self, tmp_path):
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        for d, seed in zip(dirs, ("3", "3", "4")):
            code = main(
                ["simulate", "--hours", "0.02", "--seed", seed, "--out", str(d)]
            )
            assert code == EXIT_OK
        digests = [load_manifest(d)["outputs"]["dataset.csv"] for d in dirs]
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    def test_golden_digests(self, tmp_path, monkeypatch):
        # Seeded outputs are a contract: a faster simulator, decoder, pmf or
        # quantile must reproduce these bytes.  The dataset and decoded
        # digests were recorded with the per-record dataset implementation
        # that preceded the columnar one; the bins, runs and lifetime ones
        # with scipy's gammaln, ndtri_exp and expm; the thermal and sweep ones
        # with the csv.writer table writer.  The reports name the
        # dataset, so the commands run with relative paths.
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--paper-defaults", "--hours", "0.05", "--seed", "7"]
        assert main([*argv, "--out", "sim"]) == EXIT_OK
        dataset = Path("sim", "dataset.csv")
        for mode in ("hmm", "bins", "runs"):
            assert main(["analyze", str(dataset), "--mode", mode, "--out", mode]) == EXIT_OK
        assert main(["lifetime", "--paper-defaults", "--out", "lifetime"]) == EXIT_OK
        thermal = ["thermal", "--paper-defaults", "-T", "1", "-T", "300", "-T", "450"]
        assert main([*thermal, "--out", "thermal"]) == EXIT_OK
        assert main(["sweep", "--paper-defaults", "--out", "sweep"]) == EXIT_OK
        digests = {
            "sim/dataset.csv":
                "50c1d1ef538d76dbb7eb2c66c025c0ea58237c0952b34967a12f66cabe72393b",
            "hmm/decoded.csv":
                "0682161c783c95143352717daa7109df2910e5a51e1d0ad12997c819cf9a9347",
            "bins/bins.csv":
                "8acb1eb94cc78dfa335f81d43ff955d74d22e9de4f6467f29aae0efedc2df9d9",
            "runs/report.json":
                "fe37900f616be8769f7712887afb0e6e5c0d6e56da7884a9b8dd4e604c6fa737",
            "lifetime/lifetime_vs_temperature.csv":
                "6344fd223a83274de7033479183bb36a479008199c5683ee1f1f7e9510773455",
            "thermal/thermal_populations.csv":
                "739c15e64945d80409eb99da8d4297299a1a2f1d514b3e5af2c91c4e8f05888e",
            "sweep/transfer_map.csv":
                "72acbb4ff46eb839aa61bdc70d673fd664ad2e72dbeb7a9e5454d4eb935528a5",
        }
        assert {name: sha256_digest(Path(name)) for name in digests} == digests

    def test_golden_digest_two_hours(self, tmp_path):
        # The 0.05 h stream above comes out the same under a kernel that
        # fires one jump per cycle at most; this 2 h stream does not.
        argv = ["simulate", "--paper-defaults", "--hours", "2", "--seed", "7"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert sha256_digest(tmp_path / "dataset.csv") == (
            "d60ae809ed39b003808ca7395c46921ab454ca3bbb68d76a80f0d64f5215cf17"
        )

    def test_two_hour_cells_take_no_fallback(self, tmp_path, monkeypatch):
        # Every index and time cell of the stream above comes from the
        # column kernels: none is handed to format_number, and the file is
        # the one whose digest test_golden_digest_two_hours pins.
        def refuse(x):
            raise AssertionError(f"format_number({x!r}) called")

        monkeypatch.setattr(dpqlsim.dataio, "format_number", refuse)
        argv = ["simulate", "--paper-defaults", "--hours", "2", "--seed", "7"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert sha256_digest(tmp_path / "dataset.csv") == (
            "d60ae809ed39b003808ca7395c46921ab454ca3bbb68d76a80f0d64f5215cf17"
        )

    @pytest.mark.parametrize("seed, visits", [("416", 5), ("7", 0)])
    def test_manifest_counts_match_dataset(self, tmp_path, seed, visits):
        # Seed 416 starts in the ground level, which counts as a visit, and
        # enters it four more times; seed 7 never visits it.
        argv = ["simulate", "--paper-defaults", "--hours", "0.01", "--seed", seed]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        hidden = [r[3] for r in read_dataset_csv(tmp_path / "dataset.csv")]
        rises = sum(b == 1 and (k == 0 or hidden[k - 1] == 0) for k, b in enumerate(hidden))
        assert rises == visits and hidden[0] == (seed == "416")
        counts = load_manifest(tmp_path)["counts"]
        assert counts == {"cycles": 900, "ground_cycles": sum(hidden), "ground_visits": visits}

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # Refused by ExperimentConfig before --out is created; numpy's own
        # message named neither the flag nor the value.
        out = tmp_path / "out"
        argv = ["simulate", "--hours", "0.01", "--seed", "-1", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "rng_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_hours_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--hours", "0", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "--hours" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["inf", "nan", "-inf"])
    def test_non_finite_hours_is_usage_error(self, tmp_path, capsys, hours):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # "--hours=-inf": argparse reads a bare "-inf" as an option.
            code = main(["simulate", f"--hours={hours}", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--hours must be finite and positive, got {hours}" in err
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("hours", ["1e-9", "5.5e-6"])
    def test_hours_below_one_cycle_is_usage_error(self, tmp_path, capsys, hours):
        # 3.6 us and 19.8 ms both round to no 40 ms cycle: refused before
        # an empty stream is written.
        code = main(["simulate", "--hours", hours, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--hours {float(hours):g} rounds to zero cycles of 0.04 s" in err
        assert not (tmp_path / "dataset.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "hours, message",
        [
            ("1e12", "--hours 1e+12 is 9e+16 cycles of 0.04 s, too many to hold in memory"),
            ("1e300", "--hours 1e+300 is 9e+304 cycles of 0.04 s, too many to hold"),
        ],
    )
    def test_stream_too_long_to_hold_is_usage_error(self, tmp_path, capsys, hours, message):
        # 2.9e18 bytes of uniforms, past any address space, fail at once;
        # 1e300 h is refused before any allocation.  No --out is left behind.
        out = tmp_path / "out"
        assert main(["simulate", "--hours", hours, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_hours_rounding_to_one_cycle_simulates_it(self, tmp_path, capsys):
        # 0.0252 s is nearer one 40 ms cycle than none.
        assert main(["simulate", "--hours", "7e-6", "--out", str(tmp_path)]) == EXIT_OK
        assert "simulated 1 cycles" in capsys.readouterr().out
        assert len(read_dataset_csv(tmp_path / "dataset.csv")) == 1

    def test_removed_config_keys_are_usage_errors(self, tmp_path, capsys):
        # The first four keys were validated but configured nothing; the
        # stream length comes from --hours alone; Omega = 3/2 is the lower
        # manifold.
        removed = ("thermalization_wait", "ramp_fidelity_1", "ramp_fidelity_2",
                   "shelving_fidelity", "experiments_per_trial", "trial_duration_cap",
                   "omega_half_lower")
        cfg = tmp_path / "config.txt"
        cfg.write_text("".join(f"{key} = 0.9\n" for key in removed))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--hours", "0.01", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(key in err for key in removed)
        assert_no_output(out)

    def test_trial_duration_cap_is_usage_error(self, tmp_path, capsys):
        # Retired: a shorter stream is a shorter --hours.
        cfg = tmp_path / "config.txt"
        cfg.write_text("trial_duration_cap = 1.0\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--hours", "0.01", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown config keys: trial_duration_cap" in capsys.readouterr().err
        assert_no_output(out)

    def test_temperature_override_recorded(self, tmp_path):
        code = main(
            ["simulate", "--hours", "0.01", "--seed", "2", "--temperature", "450",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        manifest = load_manifest(tmp_path)
        assert manifest["config"]["experiment"]["temperature"] == 450.0

    def test_temperature_where_thermal_energy_underflows(self, tmp_path, capsys):
        # Below ~3.6e-301 K, k_B T underflows to 0.0 and the field is that
        # of T = 0: the stream is simulated, while the detector rates and the
        # lifetime find no way out of the ground level, as at T = 0.
        sim = tmp_path / "sim"
        argv = ["simulate", "--hours", "0.01", "--temperature", "1e-302", "--out", str(sim)]
        assert main(argv) == EXIT_OK
        cfg = tmp_path / "config.txt"
        cfg.write_text("temperature = 1e-302\n")
        bins = ["analyze", str(sim / "dataset.csv"), "--mode", "bins", "--config", str(cfg)]
        lifetime = ["lifetime", "--t-min", "1e-302", "--t-max", "1e-302", "--t-points", "1"]
        for argv in (bins, lifetime):
            capsys.readouterr()
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == EXIT_USAGE
            assert "no departure channels at T = 1e-302 K" in capsys.readouterr().err
            assert_no_output(tmp_path / argv[0])


class TestAnalyzeBins:
    def test_byte_order_mark_dataset_reads_as_without(self, sim_dir, tmp_path):
        # Excel's "CSV UTF-8" starts a file with one.
        head = b"".join((sim_dir / "dataset.csv").read_bytes().splitlines(keepends=True)[:2001])
        bins = []
        for name, raw in (("plain", head), ("marked", codecs.BOM_UTF8 + head)):
            (tmp_path / f"{name}.csv").write_bytes(raw)
            argv = ["analyze", str(tmp_path / f"{name}.csv"), "--mode", "bins",
                    "--out", str(tmp_path / name)]
            assert main(argv) == EXIT_OK
            bins.append((tmp_path / name / "bins.csv").read_bytes())
        assert bins[0] == bins[1]

    def test_bins_output(self, sim_dir, tmp_path):
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "bins",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "bins.csv")
        assert header == [
            "dark_count", "observed_bins", "predicted_bins",
            "predicted_band_low", "predicted_band_high", "noise_only_bins",
        ]
        assert [int(r[0]) for r in rows] == list(range(21))
        n_bins = 90000 // 20
        # Observed counts are offset-averaged, so their total is the mean
        # number of complete windows over the 20 phases, not exactly n_bins.
        mean_windows = sum((90000 - off) // 20 for off in range(20)) / 20
        assert sum(float(r[1]) for r in rows) == pytest.approx(mean_windows, rel=1e-6)
        assert sum(float(r[2]) for r in rows) == pytest.approx(n_bins, rel=1e-6)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mode"] == "bins"
        assert report["n_records"] == 90000
        assert report["n_bins"] == n_bins
        constants = MolecularConstants()
        assert report["p_ground"] == pytest.approx(
            thermal_population(ROT_GROUND, constants, 300.0), rel=1e-12
        )
        assert report["p_leave"] == pytest.approx(
            leave_probability_per_cycle(constants, 300.0, 0.04, collision_rate=0.008),
            rel=1e-12,
        )

    def test_custom_window(self, sim_dir, tmp_path):
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "bins",
             "--window", "10", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "bins.csv")
        assert len(rows) == 11
        assert json.loads((tmp_path / "report.json").read_text())["window"] == 10

    def test_window_2000_gives_finite_predictions(self, sim_dir, tmp_path):
        # C(2000, k) overflows a float for most k: the pmfs stay in log space.
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "bins",
             "--window", "2000", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "bins.csv")
        assert len(rows) == 2001
        predicted = np.array([[float(v) for v in r[2:]] for r in rows])
        assert np.isfinite(predicted).all() and predicted.min() >= 0.0
        assert predicted[:, 0].sum() == pytest.approx(90000 // 2000, rel=1e-9)

    def test_window_longer_than_stream_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "dataset.csv"
        write_dataset_csv(data, *oracles.dataset_columns(
            [(k, k % 2, 0.04 * (k + 1), 0) for k in range(19)]
        ))
        argv = ["analyze", str(data), "--mode", "bins"]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "--window 20 is longer than the stream (19 records)" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert not (out / "manifest.json").exists()
        # A window that fits once is one bin.
        assert main([*argv, "--window", "19", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["n_bins"] == 1
        # Refused before a histogram of window + 1 entries (745 GiB here) is made.
        assert main([*argv, "--window", "100000000000", "--out", str(out)]) == EXIT_USAGE
        assert "--window 100000000000 is longer than the stream" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "20"])
    def test_refused_window_leaves_no_new_out_dir(self, tmp_path, capsys, window):
        # --window 0 is refused before the dataset is read and --window 20
        # after it (19 records); neither leaves the directories it made.
        data = tmp_path / "dataset.csv"
        write_dataset_csv(data, *oracles.dataset_columns(
            [(k, k % 2, 0.04 * (k + 1), 0) for k in range(19)]
        ))
        argv = ["analyze", str(data), "--mode", "bins", "--window", window]
        assert main([*argv, "--out", str(tmp_path / "new" / "out")]) == EXIT_USAGE
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main([*argv, "--out", str(kept)]) == EXIT_USAGE
        assert kept.is_dir() and not any(kept.iterdir())

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_is_usage_error(self, sim_dir, tmp_path, capsys, window):
        # Refused before the dataset is read, naming the flag.
        argv = ["analyze", str(sim_dir / "dataset.csv"), "--mode", "bins", f"--window={window}"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert f"--window >= 1, got --window={window}" in capsys.readouterr().err
        assert_no_output(tmp_path / "out")


class TestAnalyzeRuns:
    def test_report_matches_library(self, sim_dir, tmp_path):
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "runs",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        outcomes = np.array(
            [r[1] for r in read_dataset_csv(sim_dir / "dataset.csv")], dtype=np.int8
        )
        expected = observed_run_significance(outcomes, 0.03)
        length, start = find_longest_run(outcomes)
        assert report["longest_run"] == length
        assert report["longest_run_start"] == start
        assert report["x"] == length
        assert report["z"] == pytest.approx(expected.z, rel=1e-12)
        assert report["p_value"] == pytest.approx(expected.p_value, rel=1e-12)
        assert report["log10_p"] == pytest.approx(expected.log10_p, rel=1e-12)
        assert not (tmp_path / "bins.csv").exists()

    def test_underflowing_p_value_reports_log10_p(self, tmp_path):
        # 30000 noise cycles with a 300-cycle dark run: p ~ 1e-457 at the
        # default p_dark = 0.03 is below the float range.
        outcomes = (np.random.default_rng(5).random(30000) < 0.03).astype(int)
        outcomes[999:1301] = [0] + [1] * 300 + [0]
        data = tmp_path / "dataset.csv"
        rows = [(i, int(o), 0.04 * i, None) for i, o in enumerate(outcomes)]
        write_dataset_csv(data, *oracles.dataset_columns(rows))
        code = main(["analyze", str(data), "--mode", "runs", "--out", str(tmp_path / "runs")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        expected = observed_run_significance(outcomes, 0.03)
        assert report["x"] == 300
        assert report["p_value"] == 0.0
        assert report["log10_p"] == pytest.approx(expected.log10_p, rel=1e-12)
        assert report["log10_p"] < -450.0
        assert report["z"] == pytest.approx(expected.z, rel=1e-12)


    def test_all_bright_stream_reports_null_z(self, tmp_path):
        # No dark run at all: p = 1 and z = -inf, which strict JSON has no
        # literal for; the report writes null.
        data = tmp_path / "dataset.csv"
        rows = [(i, 0, 0.04 * (i + 1), None) for i in range(500)]
        write_dataset_csv(data, *oracles.dataset_columns(rows))
        out = tmp_path / "runs"
        assert main(["analyze", str(data), "--mode", "runs", "--out", str(out)]) == EXIT_OK
        for name in ("report.json", "manifest.json"):
            strict_load(out / name)
        report = strict_load(out / "report.json")
        assert report["x"] == 0 and report["p_value"] == 1.0
        assert report["z"] is None

    def test_noise_free_model_reports_null_log10_p(self, tmp_path):
        # With p_bright_noise = 0 no dark run can come from noise: p = 0
        # exactly, and strict JSON writes its log10 p and z as null.
        data = tmp_path / "dataset.csv"
        rows = [(i, int(i in (40, 41)), 0.04 * (i + 1), None) for i in range(100)]
        write_dataset_csv(data, *oracles.dataset_columns(rows))
        cfg = tmp_path / "config.txt"
        cfg.write_text("p_bright_noise = 0\n")
        out = tmp_path / "runs"
        argv = ["analyze", str(data), "--mode", "runs", "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        for name in ("report.json", "manifest.json"):
            strict_load(out / name)
        report = strict_load(out / "report.json")
        assert report["x"] == 2 and report["p_value"] == 0.0
        assert report["log10_p"] is None and report["z"] is None


class TestAnalyzeHmm:
    def test_decoded_and_metrics(self, sim_dir, tmp_path):
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "decoded.csv")
        assert header == ["index", "outcome", "predicted_state", "posterior"]
        assert len(rows) == 90000
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["predicted_signal_records"] == sum(int(r[2]) for r in rows)
        assert report["log_likelihood"] < 0.0
        metrics = report["metrics"]
        assert set(metrics) == {
            "precision", "recall", "f1",
            "correct_positive", "incorrect_positive", "incorrect_negative",
        }
        assert 0.0 <= metrics["f1"] <= 1.0

    def test_decoded_episodes_count_runs(self, tmp_path):
        # Two dark runs long enough to decode as signal, one from record 0.
        data = tmp_path / "dataset.csv"
        outcome = [1] * 30 + [0] * 300 + [1] * 30 + [0] * 300
        rows = [(i, o, 0.04 * (i + 1), None) for i, o in enumerate(outcome)]
        write_dataset_csv(data, *oracles.dataset_columns(rows))
        out = tmp_path / "hmm"
        assert main(["analyze", str(data), "--mode", "hmm", "--out", str(out)]) == EXIT_OK
        _, decoded = read_csv(out / "decoded.csv")
        assert decoded[0][2] == "1" and decoded[-1][2] == "0"
        assert load_manifest(out)["counts"] == {"decoded_episodes": 2}

    def test_two_hour_posteriors_match_scalar_oracle(self, tmp_path):
        # The chunked smoother against the scalar loops it replaced, on the
        # 2 h seed-7 stream: every 10-digit posterior cell is the same.
        argv = ["simulate", "--paper-defaults", "--hours", "2", "--seed", "7"]
        assert main([*argv, "--out", str(tmp_path / "sim")]) == EXIT_OK
        dataset = str(tmp_path / "sim" / "dataset.csv")
        assert main(["analyze", dataset, "--mode", "hmm", "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv(tmp_path / "decoded.csv")
        constants = MolecularConstants()
        params = default_params(
            p_b=0.03,
            p_d=0.72,
            p_s=leave_probability_per_cycle(constants, 300.0, 0.04, collision_rate=0.008),
            p_g=thermal_population(ROT_GROUND, constants, 300.0),
        )
        obs = np.array([int(r[1]) for r in rows], dtype=np.int8)
        assert obs.size == 180000
        expected = oracles.posteriors_scalar(params, obs).tolist()
        differ = [
            (k, row[3], format_number(x))
            for k, (row, x) in enumerate(zip(rows, expected))
            if row[3] != format_number(x)
        ]
        assert not differ

    def test_params_file_matches_default_decode(self, sim_dir, tmp_path):
        constants = MolecularConstants()
        params = default_params(
            p_b=0.03,
            p_d=0.72,
            p_s=leave_probability_per_cycle(
                constants, 300.0, 0.04, collision_rate=0.008
            ),
            p_g=thermal_population(ROT_GROUND, constants, 300.0),
        )
        params_path = tmp_path / "hmm_params.txt"
        write_keyvalues(params_path, params.to_mapping())
        dataset = str(sim_dir / "dataset.csv")
        d_default = tmp_path / "default"
        d_file = tmp_path / "file"
        assert main(
            ["analyze", dataset, "--mode", "hmm", "--out", str(d_default)]
        ) == EXIT_OK
        assert main(
            ["analyze", dataset, "--mode", "hmm", "--params", str(params_path),
             "--out", str(d_file)]
        ) == EXIT_OK
        _, rows_a = read_csv(d_default / "decoded.csv")
        _, rows_b = read_csv(d_file / "decoded.csv")
        # 10-digit file rounding must not flip any decoded label.
        assert [r[2] for r in rows_a] == [r[2] for r in rows_b]

    def test_unlabeled_dataset_skips_metrics(self, sim_dir, tmp_path):
        rows = read_dataset_csv(sim_dir / "dataset.csv")[:2000]
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled_rows = [(i, o, t, None) for i, o, t, _ in rows]
        write_dataset_csv(unlabeled, *oracles.dataset_columns(unlabeled_rows))
        code = main(
            ["analyze", str(unlabeled), "--mode", "hmm", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_records"] == 2000
        assert "metrics" not in report

    def test_index_past_int64_is_data_error(self, tmp_path, capsys):
        # Indices run up to 2**63 - 1 and on past it; the first one past it,
        # on line 27, is refused before anything is decoded or written.
        data = tmp_path / "dataset.csv"
        lines = [f"{2**63 - 25 + k},{k % 3 // 2},{0.04 * (k + 1):.10g},NA" for k in range(50)]
        data.write_text("index,outcome,time_s,hidden\n" + "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["analyze", str(data), "--mode", "hmm", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data}: line 27: index must fit in int64, got '{2**63}'" in err
        assert_no_output(out)

    def test_one_na_label_skips_metrics_and_indices_pass_through(self, sim_dir, tmp_path):
        # A single NA leaves the whole stream unlabeled; decoded.csv echoes
        # the file's own indices, which need not count from 0.
        rows = read_dataset_csv(sim_dir / "dataset.csv")[:2000]
        shifted = tmp_path / "shifted.csv"
        write_dataset_csv(
            shifted,
            *oracles.dataset_columns(
                [(i + 7, o, t, None if i == 1234 else h) for i, o, t, h in rows]
            ),
        )
        assert main(["analyze", str(shifted), "--mode", "hmm", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert "metrics" not in report
        _, decoded = read_csv(tmp_path / "decoded.csv")
        assert [int(r[0]) for r in decoded] == list(range(7, 2007))

    def test_bad_params_file_is_usage_error(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "bad_params.txt"
        write_keyvalues(bad, {"trans_00": 0.9})
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--params", str(bad), "--out", str(tmp_path)]
        )
        assert code == EXIT_USAGE
        assert "bad_params.txt" in capsys.readouterr().err


    def test_nan_params_file_exits_before_writing(self, sim_dir, tmp_path, capsys):
        params = tmp_path / "nan_params.txt"
        mapping = default_params().to_mapping()
        mapping["trans_00"] = math.nan
        write_keyvalues(params, mapping)
        out = tmp_path / "out"
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--params", str(params), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "trans entries must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_params_key_exits_before_writing(self, sim_dir, tmp_path, capsys):
        # Config files already refuse an unknown key; a params file does too.
        params = tmp_path / "params.txt"
        write_keyvalues(params, {**default_params().to_mapping(), "trans_02": 5})
        out = tmp_path / "out"
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--params", str(params), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "params.txt" in err and "unknown HMM parameter keys: trans_02" in err
        assert not (out / "decoded.csv").exists()

    def test_malformed_params_file_names_its_path_once(self, sim_dir, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("trans_00 0.9\n")
        out = tmp_path / "out"
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--params", str(params), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {params}: line 1: expected 'key = value', got 'trans_00 0.9'\n"
        assert_no_output(out)

    def test_bad_params_value_names_its_key(self, sim_dir, tmp_path, capsys):
        # As a config file does: "key 'temperature': ..." for a bad value.
        params = tmp_path / "params.txt"
        write_keyvalues(params, {**default_params().to_mapping(), "emit_01": "abc"})
        out = tmp_path / "out"
        code = main(
            ["analyze", str(sim_dir / "dataset.csv"), "--mode", "hmm",
             "--params", str(params), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "params.txt: key 'emit_01': could not convert string to float: 'abc'" in err
        assert_no_output(out)

class TestAnalyzeErrors:
    def test_missing_dataset_file(self, tmp_path, capsys):
        code = main(
            ["analyze", str(tmp_path / "absent.csv"), "--mode", "runs",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,outcome,time_s,hidden\n0,2,0.04,0\n")
        code = main(
            ["analyze", str(bad), "--mode", "runs", "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_csv_error_is_data_error(self, tmp_path, capsys):
        # An unclosed quote takes in the rest of the file, past csv's field limit.
        bad = tmp_path / "bad.csv"
        body = "".join(f"{k},0,{0.04 * k:.2f},0\n" for k in range(1, 20001))
        bad.write_text('index,outcome,time_s,hidden\n0,1,0.04,"NA\n' + body)
        code = main(["analyze", str(bad), "--mode", "runs", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"index,outcome,time_s,hidden\n0,1,0.04,NA\xff\n")
        out = tmp_path / "out"
        code = main(["analyze", str(bad), "--mode", "runs", "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}: line 2: " in err and "0xff" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("mode", ["bins", "runs", "hmm"])
    def test_stream_without_records_is_data_error(self, tmp_path, capsys, mode):
        data = tmp_path / "dataset.csv"
        write_dataset_csv(data, *oracles.dataset_columns([]))
        assert read_dataset_csv(data) == []
        out = tmp_path / mode
        code = main(["analyze", str(data), "--mode", mode, "--out", str(out)])
        assert code == EXIT_DATA
        assert "no records" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("mode", ["runs", "hmm"])
    def test_window_below_one_is_usage_error_in_every_mode(self, sim_dir, tmp_path, capsys, mode):
        # Modes that take no bins still refuse a window below one, as bins mode does.
        out = tmp_path / "out"
        argv = ["analyze", str(sim_dir / "dataset.csv"), "--mode", mode, "--window", "0"]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "analyze needs --window >= 1, got --window=0" in capsys.readouterr().err
        assert_no_output(out)

    def test_unknown_mode_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.csv", "--mode", "histogram", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestSweep:
    def test_transfer_map_and_report(self, tmp_path):
        code = main(
            ["sweep", "--omega-min-khz", "430", "--omega-max-khz", "470",
             "--omega-points", "3", "--threshold", "0.9", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "transfer_map.csv")
        assert header == ["omega_mol_Hz", "g_q_Hz", "transfer_probability"]
        assert [float(r[0]) for r in rows] == pytest.approx([430e3, 450e3, 470e3])
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0 + 1e-9
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["threshold"] == 0.9
        assert report["landau_zener_transfer"] == pytest.approx(LZ_DEFAULT, rel=1e-9)
        lo, hi = report["window_Hz"]
        assert lo == pytest.approx(430e3)
        assert hi == pytest.approx(470e3)
        manifest = load_manifest(tmp_path)
        assert set(manifest["outputs"]) == {"transfer_map.csv", "report.json"}

    def test_config_coupling_reaches_sweep(self, tmp_path):
        g_half = MolecularConstants().g_q_ground / 2.0
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"g_q_ground = {g_half!r}\n")
        code = main(
            ["sweep", "--config", str(cfg), "--omega-min-khz", "450",
             "--omega-max-khz", "460", "--omega-points", "1", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        expected = landau_zener_oracle(g_half, SweepConfig().ramp_rate)
        assert report["landau_zener_transfer"] == pytest.approx(expected, rel=1e-12)
        assert report["landau_zener_transfer"] < LZ_DEFAULT - 0.1
        _, rows = read_csv(tmp_path / "transfer_map.csv")
        assert float(rows[0][1]) == pytest.approx(g_half / (2.0 * np.pi))

    def test_bad_grid_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--omega-points", "0", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "sweep needs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--omega-min-khz", "--omega-max-khz"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bound_is_usage_error(self, flag, value, tmp_path, capsys):
        # Rejected before np.linspace, which warns on an infinite span.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", f"{flag}={value}", "--omega-points", "3", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:]}={value}," in err
        assert not (tmp_path / "transfer_map.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "1.5"])
    def test_threshold_outside_unit_interval_is_usage_error(self, tmp_path, capsys, value):
        # Refused before the sweep runs: no transfer map, no manifest.
        argv = ["sweep", f"--threshold={value}", "--omega-points", "3"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "0 <= threshold <= 1" in err and f"threshold={value}" in err
        assert_no_output(tmp_path / "out")


class TestConfigAndManifest:
    def test_config_file_honored(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("temperature = 450\ncollision_rate = 0\n")
        out = tmp_path / "out"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, _ = read_csv(out / "thermal_populations.csv")
        assert header[-1] == "population_450K"
        manifest = load_manifest(out)
        assert manifest["config"]["experiment"]["temperature"] == 450.0
        assert manifest["config"]["experiment"]["collision_rate"] == 0.0

    def test_molecular_override_recorded(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("B_e = 0.8\n")
        out = tmp_path / "out"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = load_manifest(out)
        assert manifest["config"]["molecular"]["B_e"] == 0.8
        # The rest of the constants stay at their defaults.
        defaults = config_to_mapping(MolecularConstants())
        assert manifest["config"]["molecular"]["omega_e"] == defaults["omega_e"]

    def test_byte_order_mark_config_loads(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_bytes(codecs.BOM_UTF8 + b"B_e = 0.8\n")
        out = tmp_path / "out"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert load_manifest(out)["config"]["molecular"]["B_e"] == 0.8

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("tempreture = 450\n")
        assert main(["thermal", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "tempreture" in capsys.readouterr().err

    def test_retired_omega_mol_key_rejected(self, tmp_path, capsys):
        # The sweep grid sets the molecular frequency per point, so a config
        # file that still pins omega_mol is stale and must say so.
        cfg = tmp_path / "config.txt"
        cfg.write_text("omega_mol = 2827433.388\n")
        argv = ["sweep", "--config", str(cfg), "--omega-points", "3", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "omega_mol" in capsys.readouterr().err
        assert not (tmp_path / "transfer_map.csv").exists()

    @pytest.mark.parametrize(
        "body, line, message",
        [
            (b"temperature = 300\ncycle 0.04\n", 2, "expected 'key = value', got 'cycle 0.04'"),
            (b"cycle = 0.04\ncycle = 0.05\n", 2, "duplicate key 'cycle'"),
            (b"cycle = 0.04\n# caf\xff\n", 2, "byte 0xff is not UTF-8"),
        ],
    )
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, body, line, message):
        # A config file is no dataset: exit 2, naming the file once and the line.
        cfg = tmp_path / "config.txt"
        cfg.write_bytes(body)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--hours", "0.01", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: line {line}: {message}\n"
        assert_no_output(out)

    def test_form_feed_stays_inside_its_config_line(self, tmp_path, capsys):
        # The bad value is the one on line 1, named by its key; no line 2 is
        # made up from the text after the form feed.
        cfg = tmp_path / "config.txt"
        cfg.write_bytes(b"temperature = 300\x0cbogus\nrng_seed = 1\n")
        out = tmp_path / "out"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: key 'temperature': ") and "line" not in err
        assert_no_output(out)

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("temperature = -5\n")
        assert main(["thermal", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("collision_rate", "nan"), ("collision_rate", "inf"), ("cycle", "inf"),
         ("cycle", "nan"), ("temperature", "inf"),
         ("p_bright_noise", "nan"), ("B_e", "nan"), ("omega_e", "inf"), ("A_so", "nan"),
         ("g_q_ground", "inf"), ("g_q_ground", "nan"), ("mu_vib_scale", "inf"),
         ("mu_rot_scale", "nan"), ("rng_seed", "-2")],
    )
    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        # Refused when the config is read: nothing is simulated or written.
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--hours", "0.01", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"{key} must " in capsys.readouterr().err
        assert_no_output(out)

    def test_paper_defaults_ignores_config(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("not_a_key = 1\n")
        code = main(
            ["thermal", "--config", str(cfg), "--paper-defaults", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK

    # A non-default value for every config key.  Seed 416 enters the ground
    # level within 0.01 h, so the detection fidelity shows in the stream.
    BASE = {"rng_seed": 416}
    NON_DEFAULT = {
        "cycle": 0.05, "p_bright_noise": 0.2, "detection_fidelity": 0.4,
        "collision_rate": 1.0, "temperature": 450.0, "rng_seed": 417,
        "omega_e": 600.0, "A_so": 100.0, "B_e": 0.4,
        "g_q_ground": 1e4, "v_max": 0, "J_count": 20, "mu_vib_scale": 2.0,
        "mu_rot_scale": 5.0,
    }
    RUNS = (
        ["simulate", "--hours", "0.01"],
        ["thermal"],
        ["lifetime", "--t-points", "2"],
        ["sweep", "--omega-min-khz", "440", "--omega-max-khz", "460", "--omega-points", "3"],
    )

    @classmethod
    def output_digests(cls, out: Path, config: dict) -> dict:
        """Digests of every output of the four commands run on ``config``."""
        path = out / "config.txt"
        write_keyvalues(path, config)
        digests = {}
        for argv in cls.RUNS:
            assert main([*argv, "--config", str(path), "--out", str(out / argv[0])]) == EXIT_OK
            for name, digest in load_manifest(out / argv[0])["outputs"].items():
                digests[f"{argv[0]}/{name}"] = digest
        return digests

    @pytest.fixture(scope="class")
    def base_digests(self, tmp_path_factory):
        return self.output_digests(tmp_path_factory.mktemp("base"), self.BASE)

    @pytest.mark.parametrize(
        "key", [*config_casts(ExperimentConfig), *config_casts(MolecularConstants)]
    )
    def test_every_config_key_reaches_an_output(self, tmp_path, base_digests, key):
        # A key that changes no output byte configures nothing and should go.
        value = self.NON_DEFAULT[key]
        cls = ExperimentConfig if key in config_casts(ExperimentConfig) else MolecularConstants
        assert self.BASE.get(key, getattr(cls(), key)) != value
        digests = self.output_digests(tmp_path, {**self.BASE, key: value})
        assert digests.keys() == base_digests.keys()
        assert [name for name in digests if digests[name] != base_digests[name]]

    def test_manifest_structure(self, tmp_path):
        argv = ["thermal", "-T", "300", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        manifest = load_manifest(tmp_path)
        assert set(manifest) == {
            "command", "version", "seed", "config", "outputs", "environment",
        }
        assert manifest["command"] == argv
        assert manifest["seed"] is None
        assert set(manifest["config"]) == {"molecular", "experiment"}
        assert manifest["config"]["molecular"] == config_to_mapping(MolecularConstants())
        digest = manifest["outputs"]["thermal_populations.csv"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")

    def test_manifest_environment(self, tmp_path):
        assert main(["thermal", "-T", "300", "--out", str(tmp_path)]) == EXIT_OK
        env = load_manifest(tmp_path)["environment"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": sys.platform,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }


class TestParser:
    def test_no_subcommand_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("dpqlsim ")
