"""Command-line workflows tying the simulator modules together.

Subcommands
-----------
thermal    thermal level populations at one or more temperatures
lifetime   ground-level residence lifetime across a temperature range
simulate   labeled Monte Carlo measurement stream
analyze    dataset analysis: bins | runs | hmm
sweep      trap-frequency sweep transfer map and high-fidelity window

Every command writes flat CSV/JSON files into --out plus a manifest.json
recording the command line, the full config snapshot, the seed, the tool
version, the environment (Python and numpy versions, platform, machine and
CPU count) and a sha256 digest of every output, so a rerun can be checked
for byte-identical results.  Each subcommand binds its ``cmd_*`` handler
on its parser; the handler takes ``(args, constants, config, out_dir)``,
checks its own flags, and returns its outputs and its added manifest
fields (``simulate`` and ``analyze --mode hmm`` add ``counts``).  A command
that fails before it writes leaves no --out directory that it made.  Exit codes:
0 success, 2 usage or config errors, 3 data-format errors (a dataset with
no records is one), 4 numerical failures.  JSON files are strict RFC 8259:
an infinite run z-score is written as null.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from argparse import ArgumentParser, Namespace
from dataclasses import asdict, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .bbr_kinetics import (
    IntegrationError,
    ground_state_residence_lifetime,
    leave_probability_per_cycle,
)
from .dataio import (
    DataFormatError,
    _read_columns,
    config_casts,
    config_from_mapping,
    config_to_mapping,
    read_keyvalues,
    sha256_digest,
    write_table,
)
from .hmm_detector import (
    HmmParams,
    default_params,
    evaluate,
    forward_backward,
    write_decoded_csv,
)
from .run_statistics import (
    NoiseSignalModel,
    bin_value_distribution,
    find_longest_run,
    observed_run_significance,
)
from .spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    enumerate_levels,
    level_code,
    level_energy,
    thermal_distribution,
    thermal_population,
)
from .sweep_dynamics import SweepConfig, landau_zener_oracle, transfer_window_map
from .trajectory_sim import ExperimentConfig, _cycles_in, disjoint_bin_counts, simulate_hours

__all__ = [
    "UsageError",
    "load_config",
    "cmd_thermal",
    "cmd_lifetime",
    "cmd_simulate",
    "cmd_analyze",
    "cmd_sweep",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_TWO_PI = 2.0 * math.pi


class UsageError(ValueError):
    """Bad flags or config content; maps to exit code 2."""


_CONSTANT_KEYS = frozenset(config_casts(MolecularConstants))
_EXPERIMENT_KEYS = frozenset(config_casts(ExperimentConfig))


def load_config(path: str | Path | None) -> tuple[MolecularConstants, ExperimentConfig]:
    """Split one key-value config file into molecular and experiment parts.

    No file gives the built-in values of every constant.
    """
    if path is None:
        return MolecularConstants(), ExperimentConfig()
    try:
        mapping = read_keyvalues(path)
    except DataFormatError as exc:  # it names the file and the line
        raise UsageError(str(exc)) from None
    constant_part = {k: v for k, v in mapping.items() if k in _CONSTANT_KEYS}
    experiment_part = {k: v for k, v in mapping.items() if k in _EXPERIMENT_KEYS}
    unknown = set(mapping) - _CONSTANT_KEYS - _EXPERIMENT_KEYS
    if unknown:
        raise UsageError(
            f"{path}: unknown config keys: {', '.join(sorted(unknown))}"
        )
    try:
        constants = config_from_mapping(MolecularConstants, constant_part)
        config = config_from_mapping(ExperimentConfig, experiment_part)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc
    return constants, config


def _write_json(path: Path, obj: Mapping[str, object]) -> Path:
    """Write ``obj`` as strict RFC 8259 JSON, keys sorted, two-space indent."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _write_manifest(
    out_dir: Path,
    argv: Sequence[str],
    constants: MolecularConstants,
    config: ExperimentConfig,
    seed: int | None,
    outputs: Mapping[str, Path],
    extra: Mapping[str, object],
) -> Path:
    manifest = {
        "command": list(argv),
        "version": __version__,
        "seed": seed,
        "config": {
            "molecular": config_to_mapping(constants),
            "experiment": config_to_mapping(config),
        },
        "outputs": {name: sha256_digest(p) for name, p in sorted(outputs.items())},
        # No platform.platform(): it scans the interpreter binary for a libc
        # version, milliseconds per call.
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": sys.platform,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }
    manifest.update(extra)
    return _write_json(out_dir / "manifest.json", manifest)


def cmd_thermal(
    args: Namespace, constants: MolecularConstants, config: ExperimentConfig, out_dir: Path
) -> tuple[dict[str, Path], dict[str, object]]:
    """Thermal population table: one row per level, one column per T."""
    temperatures = args.temperature or [config.temperature]
    states = enumerate_levels(constants)
    populations = [thermal_distribution(constants, T) for T in temperatures]
    header = ["state", "v", "two_omega", "two_J", "energy_percm"] + [
        f"population_{T:g}K" for T in temperatures
    ]
    columns = [
        np.array([s.label() for s in states], "S"),
        *np.array([(s.v, s.two_omega, s.two_J) for s in states]).T,
        np.array([level_energy(s, constants) for s in states]),
        *populations,
    ]
    path = out_dir / "thermal_populations.csv"
    write_table(path, header, columns)
    ground = level_code(ROT_GROUND, constants)
    for T, p in zip(temperatures, populations):
        print(f"T={T:g} K: P(ground rotational) = {p[ground]:.6f}")
    return {"thermal_populations.csv": path}, {}


def cmd_lifetime(
    args: Namespace, constants: MolecularConstants, config: ExperimentConfig, out_dir: Path
) -> tuple[dict[str, Path], dict[str, object]]:
    """Residence lifetime and thermal occupancy across temperatures."""
    # The chain is False for a NaN bound, so NaN never reaches linspace.
    if not 0 < args.t_min <= args.t_max < math.inf or args.t_points < 1:
        raise UsageError(
            "lifetime needs finite 0 < t-min <= t-max and t-points >= 1, got "
            f"t-min={args.t_min!r}, t-max={args.t_max!r}, t-points={args.t_points}"
        )
    temperatures = np.linspace(args.t_min, args.t_max, args.t_points).tolist()
    rows = [(T, ground_state_residence_lifetime(constants, T),
             thermal_population(ROT_GROUND, constants, T)) for T in temperatures]
    path = out_dir / "lifetime_vs_temperature.csv"
    header = ("temperature_K", "residence_lifetime_s", "thermal_ground_population")
    write_table(path, header, np.array(rows).T)
    for T, tau, pop in rows:
        print(f"T={T:g} K: lifetime = {tau:.3f} s, thermal ground population = {pop:.6f}")
    return {"lifetime_vs_temperature.csv": path}, {}


def cmd_simulate(
    args: Namespace, constants: MolecularConstants, config: ExperimentConfig, out_dir: Path
) -> tuple[dict[str, Path], dict[str, object]]:
    """Labeled Monte Carlo stream covering ``--hours`` of wall-clock time."""
    try:
        n_cycles = _cycles_in(args.hours, config.cycle)
    except ValueError as exc:  # its message starts with the argument, "hours"
        raise UsageError(f"--{exc}") from None
    try:
        dataset = simulate_hours(config, args.hours, constants)
    except MemoryError:
        raise UsageError(f"--hours {args.hours:g} is {n_cycles:g} cycles of "
                         f"{config.cycle:g} s, too many to hold in memory") from None
    path = out_dir / "dataset.csv"
    dataset.to_csv(path)
    print(
        f"simulated {dataset.outcome.size} cycles ({args.hours:g} h), "
        f"ground occupancy {dataset.ground_occupancy():.6f}"
    )
    labels = dataset.hidden  # a ground visit is a run of ground labels
    visits = int(np.count_nonzero(np.diff(labels, prepend=np.int8(0)) > 0))
    counts = {"cycles": labels.size, "ground_cycles": int(labels.sum()), "ground_visits": visits}
    return {"dataset.csv": path}, {"counts": counts}


def _detector_rates(constants: MolecularConstants, config: ExperimentConfig) -> dict[str, float]:
    """Detector rates p_b, p_d, p_s (per-cycle leave probability), p_g (occupancy)."""
    p_g = thermal_population(ROT_GROUND, constants, config.temperature)
    p_s = leave_probability_per_cycle(
        constants,
        config.temperature,
        config.cycle,
        collision_rate=config.collision_rate,
    )
    return dict(p_b=config.p_bright_noise, p_d=config.detection_fidelity, p_s=p_s, p_g=p_g)


def cmd_analyze(
    args: Namespace, constants: MolecularConstants, config: ExperimentConfig, out_dir: Path
) -> tuple[dict[str, Path], dict[str, object]]:
    """Analyze a measurement stream: histogram, run test, or HMM decode."""
    dataset_path, mode, params_path, window = args.dataset, args.mode, args.params, args.window
    if window < 1:
        raise UsageError(f"analyze needs --window >= 1, got --window={window}")
    index, outcomes, _, hidden = _read_columns(dataset_path)
    if not outcomes.size:
        raise DataFormatError("dataset holds no records", source=str(dataset_path))
    labels = None if (hidden < 0).any() else hidden
    outputs: dict[str, Path] = {}
    extra: dict[str, object] = {}
    report: dict[str, object] = {
        "mode": mode,
        "dataset": str(dataset_path),
        "n_records": int(outcomes.size),
    }
    if mode == "bins":
        n_bins = outcomes.size // window
        if n_bins < 1:  # before any array of window + 1 entries is made
            raise UsageError(
                f"--window {window} is longer than the stream ({outcomes.size} records)"
            )
        p_d, p_b = config.detection_fidelity, config.p_bright_noise
        if not p_d > p_b:  # the bin model tells darks of the ground level from noise
            raise UsageError(f"analyze --mode bins needs detection_fidelity > p_bright_noise, "
                             f"got detection_fidelity = {p_d!r}, p_bright_noise = {p_b!r}")
        rates = _detector_rates(constants, config)
        p_g = rates.pop("p_g")
        observed = disjoint_bin_counts(outcomes, window)
        model = NoiseSignalModel(**rates, bin=window)
        predicted = bin_value_distribution(n_bins, model, p_g)
        noise_only = bin_value_distribution(n_bins, model, 0.0)
        path = out_dir / "bins.csv"
        # With no spread in p_g, the band columns of the file are the prediction.
        header = ("dark_count", "observed_bins", "predicted_bins", "predicted_band_low",
                  "predicted_band_high", "noise_only_bins")
        columns = (np.arange(window + 1), observed, predicted, predicted, predicted, noise_only)
        write_table(path, header, columns)
        outputs["bins.csv"] = path
        report.update(
            window=window, n_bins=n_bins, p_ground=p_g, p_leave=rates["p_s"],
            observed_mean_darks=float(outcomes.mean() * window),
        )
    elif mode == "runs":
        result = observed_run_significance(outcomes, config.p_bright_noise)
        length, start = find_longest_run(outcomes)
        report.update(result.to_json_dict())
        report.update(longest_run=length, longest_run_start=start)
        print(
            f"longest dark run: {length} (start {start}), "
            f"Z = {result.z:.3f}, p = {result.p_value:.6g} "
            f"(log10 p = {result.log10_p:.3f})"
        )
    elif mode == "hmm":
        if params_path is not None:
            try:
                params = HmmParams.from_mapping(read_keyvalues(params_path))
            except DataFormatError as exc:  # it names the file and the line
                raise UsageError(str(exc)) from None
            except ValueError as exc:
                raise UsageError(f"{params_path}: {exc}") from exc
        else:
            params = default_params(**_detector_rates(constants, config))
        decoded = forward_backward(params, outcomes)
        path = out_dir / "decoded.csv"
        write_decoded_csv(path, outcomes, decoded, indices=index)
        outputs["decoded.csv"] = path
        report.update(
            log_likelihood=decoded.log_likelihood,
            predicted_signal_records=int(decoded.states.sum()),
        )
        # An episode is a run of predicted signal records.
        states = decoded.states
        episodes = int(states[0]) + int(np.count_nonzero(states[1:] > states[:-1]))
        extra["counts"] = {"decoded_episodes": episodes}
        if labels is not None:
            metrics = evaluate(decoded.states, labels)
            report["metrics"] = asdict(metrics)
            print(
                f"precision {metrics.precision:.4f}, recall {metrics.recall:.4f}, "
                f"F1 {metrics.f1:.4f}"
            )
    else:
        raise UsageError(f"unknown analyze mode {mode!r}")
    outputs["report.json"] = _write_json(out_dir / "report.json", report)
    return outputs, extra


def cmd_sweep(
    args: Namespace, constants: MolecularConstants, config: ExperimentConfig, out_dir: Path
) -> tuple[dict[str, Path], dict[str, object]]:
    """Transfer map over molecular frequencies plus the window report."""
    lo, hi, points = args.omega_min_khz, args.omega_max_khz, args.omega_points
    threshold = args.threshold
    # Each chain is False for a NaN, as in lifetime.
    if not (0 < lo < hi < math.inf and points >= 1 and 0 <= threshold <= 1):
        raise UsageError(
            "sweep needs finite 0 < omega-min-khz < omega-max-khz, omega-points >= 1 "
            f"and 0 <= threshold <= 1, got omega-min-khz={lo!r}, omega-max-khz={hi!r}, "
            f"omega-points={points}, threshold={threshold!r}"
        )
    cfg = SweepConfig(g_q=constants.g_q_ground)
    grid = _TWO_PI * 1e3 * np.linspace(lo, hi, points)
    window_map = transfer_window_map(cfg, grid, threshold=threshold)
    path = out_dir / "transfer_map.csv"
    omega_hz = window_map.omega_mol_values / _TWO_PI
    columns = omega_hz, np.full_like(omega_hz, window_map.g_q / _TWO_PI), window_map.transfer
    write_table(path, ("omega_mol_Hz", "g_q_Hz", "transfer_probability"), columns)
    report = {
        "threshold": threshold,
        "window_Hz": (
            None
            if window_map.window is None
            else [w / _TWO_PI for w in window_map.window]
        ),
        "landau_zener_transfer": landau_zener_oracle(cfg.g_q, cfg.ramp_rate),
    }
    report_path = _write_json(out_dir / "report.json", report)
    if window_map.window is None:
        print("no grid point clears the transfer threshold")
    else:
        lo, hi = (w / _TWO_PI / 1e3 for w in window_map.window)
        print(f"transfer > {threshold:g} window: [{lo:.1f}, {hi:.1f}] kHz")
    return {"transfer_map.csv": path, "report.json": report_path}, {}


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="dpqlsim",
        description="Dipole-phonon logic desk simulator and analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"dpqlsim {__version__}")
    common = ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key-value config file")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument(
        "--paper-defaults",
        action="store_true",
        help="ignore --config and pin every constant to the built-in defaults",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thermal = sub.add_parser(
        "thermal", parents=[common], help="thermal populations per level"
    )
    p_thermal.add_argument(
        "--temperature",
        "-T",
        type=float,
        action="append",
        metavar="K",
        help="temperature in kelvin (repeatable)",
    )
    p_thermal.set_defaults(run=cmd_thermal)

    p_life = sub.add_parser(
        "lifetime", parents=[common], help="residence lifetime vs temperature"
    )
    p_life.add_argument("--t-min", type=float, default=200.0, metavar="K")
    p_life.add_argument("--t-max", type=float, default=600.0, metavar="K")
    p_life.add_argument("--t-points", type=int, default=5, metavar="N")
    p_life.set_defaults(run=cmd_lifetime)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo measurement stream"
    )
    p_sim.add_argument("--hours", type=float, required=True, metavar="H")
    p_sim.add_argument("--seed", type=int, metavar="N", help="RNG seed override")
    p_sim.add_argument(
        "--temperature", type=float, metavar="K", help="override the BBR temperature"
    )
    p_sim.set_defaults(run=cmd_simulate)

    p_an = sub.add_parser("analyze", parents=[common], help="analyze a dataset")
    p_an.add_argument("dataset", metavar="DATASET.CSV")
    p_an.add_argument("--mode", choices=("bins", "runs", "hmm"), required=True)
    p_an.add_argument("--params", metavar="PATH", help="HMM parameter file (key-value)")
    p_an.add_argument("--window", type=int, default=20, metavar="N", help="bin size")
    p_an.set_defaults(run=cmd_analyze)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="trap-frequency sweep transfer map"
    )
    p_sweep.add_argument("--omega-min-khz", type=float, default=400.0, metavar="KHZ")
    p_sweep.add_argument("--omega-max-khz", type=float, default=500.0, metavar="KHZ")
    p_sweep.add_argument("--omega-points", type=int, default=51, metavar="N")
    p_sweep.add_argument("--threshold", type=float, default=0.99, metavar="P")
    p_sweep.set_defaults(run=cmd_sweep)
    return parser


def _run(args: Namespace, argv: Sequence[str]) -> int:
    constants, config = load_config(None if args.paper_defaults else args.config)
    seed = getattr(args, "seed", None)  # a simulate flag
    if seed is not None:
        config = replace(config, rng_seed=seed)
    if args.command == "simulate" and args.temperature is not None:
        config = replace(config, temperature=args.temperature)
    out_dir = Path(args.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs, extra = args.run(args, constants, config, out_dir)
    except BaseException:
        # A handler refuses its flags before it writes, so a refused command
        # leaves no directory behind that it made; one with files stays.
        for directory in created:
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    manifest = _write_manifest(out_dir, argv, constants, config, seed, outputs, extra)
    print(f"wrote {len(outputs)} output file(s) + {manifest.name} in {out_dir}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, argv)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IntegrationError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
