"""The benchmark workloads: ``stream``, ``train`` and ``maps``.

Each workload has a ``setup`` (the first-use table builds it needs, timed as
set-up), a ``run`` (one timed pass, split into a simulate and an analyze
stage) and a ``check`` (output checks that hold for any seed, run after the
timed pass; it may return digests of outputs it verified, which later
passes of the run receive back as ``verified``).  Inputs are drawn from the
benchmark seed; the program only sees the CLI arguments made from it.
README.md in this directory gives the reason for each workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

import dpqlsim
import dpqlsim.cli
from calibration import Calibrated

# Residence lifetime at 300 K: -1/G_gg of the rate matrix, 3.977 s rounded.
LIFETIME_300K_S = 3.976992662
LIFETIME_RTOL = 1e-6
# Edges of the transfer > 0.99 window on the 410-490 kHz grid, in kHz.
SWEEP_WINDOW_KHZ = (424.0, 478.0)
LZ_TOLERANCE = 0.01
# Kinetics temperature grid; rethermalization_time is known to raise
# IntegrationError at 450 K and 500 K, and the grid keeps both.
TEMPERATURES_K = tuple(200.0 + 50.0 * k for k in range(9))


class Ledger:
    """Operations attempted, their failures, stage timings and output checks.

    ``measured`` holds each stage's seconds as measured; ``timings`` the same
    at reference machine speed (calibration.py); ``kernel_s`` the mean
    calibration kernel time of each stage.
    """

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.measured: dict[str, float] = {}
        self.timings: dict[str, float] = {}
        self.kernel_s: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        with Calibrated() as timed:
            yield
        self.measured[name] = self.measured.get(name, 0.0) + timed.measured_s
        self.timings[name] = self.timings.get(name, 0.0) + timed.reported_s
        self.kernel_s[name] = timed.kernel_s

    def _record(self, name: str, ok: bool, detail: str = "", kind: str = "op") -> None:
        self.ops.append({"name": name, "kind": kind, "ok": bool(ok), "detail": detail})

    def call(self, name: str, fn, *args, **kwargs):
        """Run one library operation; an exception marks it failed, returns None."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the ledger must keep going and report it
            self._record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self._record(name, True)
        return result

    def cli(self, name: str, argv: list[str]) -> bool:
        """Run one ``dpqlsim`` command in-process; a non-zero exit is a failure."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dpqlsim.cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits on bad flags
            self._record(name, False, f"{type(exc).__name__}: {exc}")
            return False
        self._record(name, code == 0, "" if code == 0 else f"exit {code}: {err.getvalue().strip()}")
        return code == 0

    def check(self, name: str, fn) -> None:
        """Record an output check; ``fn`` returns (passed, detail)."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a missing or unreadable output is a wrong output
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self._record(name, ok, detail, kind="check")


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


# --------------------------------------------------------------------- stream


class Stream:
    """CLI pipeline at 300 K: simulate two hours, then analyze three ways."""

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.sim_seed = random.Random(seed).randrange(1, 2**31)
        self.hours = 2.0 * scale
        self.dir = workdir
        self.dataset = workdir / "sim" / "dataset.csv"

    def setup(self) -> None:
        c, cfg = dpqlsim.MolecularConstants(), dpqlsim.ExperimentConfig()
        dpqlsim.TrajectoryDynamics.for_config(cfg, c)
        dpqlsim.leave_probability_per_cycle(
            c, cfg.temperature, cfg.cycle, collision_rate=cfg.collision_rate
        )

    def run(self, ledger: Ledger) -> None:
        common = ["--paper-defaults"]
        with ledger.stage("simulate_s"):
            ledger.cli("cli simulate", ["simulate", *common, "--hours", repr(self.hours),
                                        "--seed", str(self.sim_seed),
                                        "--out", str(self.dir / "sim")])
        with ledger.stage("analyze_s"):
            for mode in ("bins", "runs", "hmm"):
                ledger.cli(f"cli analyze {mode}", ["analyze", str(self.dataset), *common,
                                                   "--mode", mode,
                                                   "--out", str(self.dir / mode)])

    def check(self, ledger: Ledger, verified: dict | None) -> dict | None:
        """Full checks, or, once a pass of this run passed them, byte equality.

        Every pass of a run gets the same inputs, so a later pass must write
        the very files already verified; comparing digests keeps the
        reference simulation and decode out of every pass but the first.
        """
        outputs = {"dataset.csv": self.dataset, "decoded.csv": self.dir / "hmm" / "decoded.csv"}
        if verified is None:
            before = sum(not op["ok"] for op in ledger.ops)
            ledger.check("dataset CSV round-trips to the simulated arrays", self._round_trip)
            ledger.check("decoded.csv posteriors equal library forward_backward", self._decoded)
            if sum(not op["ok"] for op in ledger.ops) > before:
                return None
            return {name: _sha256(path) for name, path in outputs.items()}
        for name, path in outputs.items():
            ledger.check(f"{name} identical to the verified pass",
                         lambda path=path, name=name: (_sha256(path) == verified[name], name))
        return verified

    def _reference(self):
        config = replace(dpqlsim.ExperimentConfig(), rng_seed=self.sim_seed)
        return config, dpqlsim.simulate_hours(config, self.hours)

    def _round_trip(self):
        config, ref = self._reference()
        rows = dpqlsim.read_dataset_csv(self.dataset)
        index, outcome, time_s, hidden = (np.array(col) for col in zip(*rows))
        expected_time = config.cycle * np.arange(1, len(ref.records) + 1)
        ok = (
            len(rows) == len(ref.records)
            and np.array_equal(index, np.arange(len(rows)))
            and np.array_equal(outcome, ref.outcomes())
            and np.array_equal(hidden.astype(np.int8), ref.hidden_labels())
            and np.allclose(time_s, expected_time, rtol=1e-9, atol=0.0)
        )
        return ok, f"{len(rows)} rows"

    def _decoded(self):
        c, cfg = dpqlsim.MolecularConstants(), dpqlsim.ExperimentConfig()
        params = dpqlsim.default_params(
            p_b=cfg.p_bright_noise,
            p_d=cfg.detection_fidelity,
            p_s=dpqlsim.leave_probability_per_cycle(
                c, cfg.temperature, cfg.cycle, collision_rate=cfg.collision_rate
            ),
            p_g=dpqlsim.thermal_population(dpqlsim.ROT_GROUND, c, cfg.temperature),
        )
        with open(self.dir / "hmm" / "decoded.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            _, outcome, state, posterior = (np.array(col) for col in zip(*reader))
        ref = dpqlsim.forward_backward(params, outcome.astype(np.int8))
        ok = np.array_equal(state.astype(np.int8), ref.states) and np.allclose(
            posterior.astype(float), ref.posteriors, rtol=1e-9, atol=0.0
        )
        return ok, f"{len(outcome)} records"


# ----------------------------------------------------------------------- maps


class Maps:
    """Deterministic physics: CLI sweep and lifetime maps, rethermalization."""

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        # The physics here takes no random input; the seed only orders the
        # rethermalization calls.  The sweep grid stays at 410-490 kHz in
        # 2 kHz steps, where the window edges are pinned; the transfer ripples
        # near both edges, so on a shifted or coarser grid they move by more
        # than one step.
        self.temperatures = random.Random(seed).sample(TEMPERATURES_K, len(TEMPERATURES_K))
        self.points = max(3, round(41 * scale))
        self.step_khz = 80.0 / (self.points - 1)
        self.dir = workdir

    def setup(self) -> None:
        dpqlsim.build_einstein_coefficients(dpqlsim.MolecularConstants())

    def run(self, ledger: Ledger) -> None:
        common = ["--paper-defaults"]
        with ledger.stage("simulate_s"):
            ledger.cli("cli sweep", [
                "sweep", *common,
                "--omega-min-khz", "410", "--omega-max-khz", "490",
                "--omega-points", str(self.points), "--threshold", "0.99",
                "--out", str(self.dir / "sweep"),
            ])
        with ledger.stage("analyze_s"):
            ledger.cli("cli lifetime", [
                "lifetime", *common,
                "--t-min", repr(TEMPERATURES_K[0]), "--t-max", repr(TEMPERATURES_K[-1]),
                "--t-points", str(len(TEMPERATURES_K)), "--out", str(self.dir / "lifetime"),
            ])
            c = dpqlsim.MolecularConstants()
            for T in self.temperatures:
                ledger.call(f"rethermalization_time {T:g} K", dpqlsim.rethermalization_time, c, T)

    def check(self, ledger: Ledger, verified: dict | None) -> None:
        ledger.check("300 K lifetime is 3.977 s to 1e-6 relative", self._lifetime)
        ledger.check("sweep window matches [424, 478] kHz to one grid step", self._window)
        ledger.check("nominal transfer within 0.01 of Landau-Zener", self._landau_zener)

    def _lifetime(self):
        with open(self.dir / "lifetime" / "lifetime_vs_temperature.csv", newline="") as fh:
            rows = {float(r["temperature_K"]): float(r["residence_lifetime_s"])
                    for r in csv.DictReader(fh)}
        tau = rows[300.0]
        return abs(tau - LIFETIME_300K_S) <= LIFETIME_RTOL * LIFETIME_300K_S, f"{tau!r} s"

    def _window(self):
        report = json.loads((self.dir / "sweep" / "report.json").read_text())
        lo, hi = (w / 1e3 for w in report["window_Hz"])
        ok = all(abs(got - want) <= self.step_khz
                 for got, want in zip((lo, hi), SWEEP_WINDOW_KHZ))
        return ok, f"[{lo:.3f}, {hi:.3f}] kHz, grid step {self.step_khz:g} kHz"

    def _landau_zener(self):
        cfg = dpqlsim.SweepConfig()
        transfer = dpqlsim.evolve_sweep(cfg)
        oracle = dpqlsim.landau_zener_oracle(cfg.g_q, cfg.ramp_rate)
        return math.isclose(transfer, oracle, rel_tol=0.0, abs_tol=LZ_TOLERANCE), (
            f"transfer {transfer:.5f}, Landau-Zener {oracle:.5f}"
        )


# ---------------------------------------------------------------------- train


class Train:
    """Library-only detector training and evaluation at 450 K.

    An ensemble of short trials, a 4 h labelled training stream, supervised
    estimates, a fixed number of Baum-Welch iterations from them, then
    Viterbi, forward-backward and ``evaluate`` on a held-out stream.  No CSV
    and no CLI.
    """

    TEMPERATURE_K = 450.0
    BAUM_WELCH_ITERATIONS = 4

    # A third of 1 h streams at 450 K hold no ground-level record, so
    # roughly one 4 h stream in a hundred holds none; supervised estimation
    # needs both hidden states, so training streams are added until one does.
    MAX_TRAINING_STREAMS = 5

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        seeds = random.Random(seed)
        base = replace(dpqlsim.ExperimentConfig(), temperature=self.TEMPERATURE_K)
        self.ensemble, self.heldout = (
            replace(base, rng_seed=seeds.randrange(1, 2**31)) for _ in range(2)
        )
        self.training = [replace(base, rng_seed=seeds.randrange(1, 2**31))
                         for _ in range(self.MAX_TRAINING_STREAMS)]
        self.trials = max(2, round(20 * scale))
        self.trial_hours = 0.5
        self.training_hours = 4.0 * scale
        self.heldout_hours = 0.25 * scale
        self.history: list[float] | None = None

    def setup(self) -> None:
        c = dpqlsim.MolecularConstants()
        dpqlsim.TrajectoryDynamics.for_config(self.heldout, c)

    def run(self, ledger: Ledger) -> None:
        with ledger.stage("simulate_s"):
            ledger.call("ensemble_ground_occupancy", dpqlsim.ensemble_ground_occupancy,
                        self.ensemble, self.trials, self.trial_hours)
            training = []
            for config in self.training:
                stream = ledger.call("simulate_hours training", dpqlsim.simulate_hours,
                                     config, self.training_hours)
                if stream is None:
                    break
                training.append(stream)
                if any(d.hidden_labels().any() for d in training):
                    break
            heldout = ledger.call("simulate_hours held-out", dpqlsim.simulate_hours,
                                  self.heldout, self.heldout_hours)
        with ledger.stage("analyze_s"):
            if heldout is None or not training:
                return
            supervised = ledger.call("estimate_params_supervised",
                                     dpqlsim.estimate_params_supervised, training)
            if supervised is None:
                return
            outcomes = heldout.outcomes()
            fitted = ledger.call("baum_welch", dpqlsim.baum_welch, outcomes, supervised,
                                 max_iter=self.BAUM_WELCH_ITERATIONS, tol=0.0)
            if fitted is None:
                return
            params, self.history = fitted
            path = ledger.call("viterbi", dpqlsim.viterbi, params, outcomes)
            ledger.call("forward_backward", dpqlsim.forward_backward, params, outcomes)
            if path is not None:
                ledger.call("evaluate", dpqlsim.evaluate, path, heldout.hidden_labels())

    def check(self, ledger: Ledger, verified: dict | None) -> None:
        ledger.check("Baum-Welch log-likelihood never decreases", self._monotone)

    def _monotone(self):
        history = self.history or []
        drops = [b - a for a, b in zip(history, history[1:])
                 if b < a - 1e-9 * abs(a)]
        ok = len(history) == self.BAUM_WELCH_ITERATIONS and not drops
        return ok, f"{len(history)} iterations, log-likelihood {history}"


WORKLOADS = {"stream": Stream, "train": Train, "maps": Maps}
