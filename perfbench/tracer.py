"""Spans around calls into dpqlsim's public functions, installed from outside.

The tracer wraps every public function of the eight ``dpqlsim`` modules and
the ``TrajectoryDynamics`` constructor, then rebinds each wrapped name in
every ``dpqlsim`` namespace that holds it, the defining module included, so
calls made through ``from .x import f``, ``x.f`` and the package all pass
through one wrapper.  Nothing under ``src/`` is edited.

A span records its name, start, end and the span that caused it; a layer's
self time is its spans' durations minus the time their child spans cover.
Spans stay in memory and are reduced to per-layer metrics by
:func:`layer_metrics` when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

MODULES = (
    "cli",
    "spectroscopy",
    "bbr_kinetics",
    "trajectory_sim",
    "dataio",
    "hmm_detector",
    "run_statistics",
    "sweep_dynamics",
)

# Public helpers evaluated once per level pair, matrix entry or CSV cell.  A
# span around each would cost more than the work it times and bury the
# layer numbers, so their time counts toward the calling span instead.
ELEMENT_HELPERS = frozenset(
    {
        "spectroscopy.level_energy",
        "spectroscopy.degeneracy",
        "bbr_kinetics.photon_occupation",
        "bbr_kinetics.planck_energy_density",
        "dataio.format_number",
        "run_statistics.binom_noise_pmf",
        "run_statistics.signal_bin_pmf",
        "sweep_dynamics.jc_coupling_matrix",
        "trajectory_sim.step_hidden_state",
        "trajectory_sim.emit_measurement",
    }
)


@dataclass(eq=False)
class Span:
    name: str
    module: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    ok: bool = False
    units: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _file_rows(span: Span, args: dict, result) -> None:
    with open(args["path"], "rb") as fh:
        data = fh.read()
    span.units["rows"] = max(data.count(b"\n") - 1, 0)
    span.units["bytes"] = len(data)


def _ground_visits(labels) -> int:
    if len(labels) == 0:
        return 0
    return int(labels[0] == 1) + int(((labels[1:] == 1) & (labels[:-1] == 0)).sum())


def _simulated(span: Span, args: dict, result) -> None:
    span.units["cycles"] = len(result.records)
    span.units["ground_visits"] = _ground_visits(result.hidden_labels())


def _records(key: str):
    def measure(span: Span, args: dict, result) -> None:
        span.units["records"] = len(args[key])

    return measure


def _supervised(span: Span, args: dict, result) -> None:
    span.units["records"] = sum(
        len(item.records) if hasattr(item, "records") else len(item[0])
        for item in args["datasets"]
    )


def _baum_welch(span: Span, args: dict, result) -> None:
    span.units["iterations"] = len(result[1])
    span.units["record_iterations"] = len(args["observations"]) * len(result[1])


# Unit counts taken from a call's arguments or result once it returns.
MEASURES = {
    "trajectory_sim.simulate_trial": _simulated,
    "trajectory_sim.disjoint_bin_counts": _records("values"),
    "dataio.write_dataset_csv": _file_rows,
    "dataio.write_table": _file_rows,
    "dataio.read_dataset_csv": lambda span, args, result: span.units.update(rows=len(result)),
    "dataio.sha256_digest": lambda span, args, result: span.units.update(
        bytes=os.path.getsize(args["path"])
    ),
    "hmm_detector.forward_backward": _records("observations"),
    "hmm_detector.write_decoded_csv": _records("observations"),
    "hmm_detector.viterbi": _records("observations"),
    "hmm_detector.estimate_params_supervised": _supervised,
    "hmm_detector.baum_welch": _baum_welch,
    "sweep_dynamics.transfer_window_map": lambda span, args, result: span.units.update(
        points=int(result.transfer.size)
    ),
}


class Tracer:
    """Collects spans for one process; ``enabled`` False passes calls through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[Span] = []
        self._lifetime = None
        self._lifetime_start = (0, 0)

    def install(self) -> None:
        """Wrap the public functions and rebind them in every dpqlsim namespace."""
        import dpqlsim  # noqa: F401  (loads every module)

        self._lifetime = sys.modules["dpqlsim.bbr_kinetics"].ground_state_residence_lifetime
        info = self._lifetime.cache_info()
        self._lifetime_start = (info.hits, info.misses)
        originals, wrappers = [], {}
        for short in MODULES:
            module = sys.modules[f"dpqlsim.{short}"]
            for name in module.__all__:
                fn = getattr(module, name)
                qualified = f"{short}.{name}"
                if qualified in ELEMENT_HELPERS or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(fn) or hasattr(fn, "cache_info"):
                    originals.append(fn)  # keeps each id unique while in use
                    wrappers[id(fn)] = self._wrap(short, qualified, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "dpqlsim" or mod_name.startswith("dpqlsim."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

        dynamics = sys.modules["dpqlsim.trajectory_sim"].TrajectoryDynamics
        dynamics.__init__ = self._wrap(
            "trajectory_sim", "trajectory_sim.TrajectoryDynamics", dynamics.__init__
        )

    def lifetime_cache(self) -> tuple[int, int]:
        """(hits, misses) of the residence-lifetime cache since install."""
        info = self._lifetime.cache_info()
        return info.hits - self._lifetime_start[0], info.misses - self._lifetime_start[1]

    def _wrap(self, module: str, name: str, fn):
        measure = MEASURES.get(name)
        signature = inspect.signature(fn) if measure is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, module, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)
            span.ok = not (name == "cli.main" and result != 0)
            if measure is not None:
                measuring = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                measure(span, bound.arguments, result)
                if span.parent is not None:
                    # The tracer's own counting is not the caller's work.
                    span.parent.child_s += time.perf_counter() - measuring
            return result

        return wrapper


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one process's spans to the per-layer metrics of BENCHMARK.json."""
    by_name: dict[str, list[Span]] = {}
    self_s = dict.fromkeys(MODULES, 0.0)
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        self_s[span.module] += span.self_s

    def spans(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, ())]

    def seconds(*names: str) -> float:
        return sum(s.duration for s in spans(*names))

    def units(key: str, *names: str) -> int:
        return sum(s.units.get(key, 0) for s in spans(*names))

    def per_call(name: str) -> float:
        return _ratio(seconds(name), len(spans(name)))

    def per_unit(key: str, *names: str) -> float:
        return _ratio(seconds(*names), units(key, *names), 1e9)

    out = {f"{module}.self_s": self_s[module] for module in MODULES}

    commands = spans("cli.main")
    out["cli.commands"] = len(commands)
    out["cli.failed"] = sum(not s.ok for s in commands)

    out["spectroscopy.thermal_distribution.calls"] = len(spans("spectroscopy.thermal_distribution"))
    out["spectroscopy.thermal_distribution.s"] = seconds("spectroscopy.thermal_distribution")

    out["bbr_kinetics.build_rate_matrix.calls"] = len(spans("bbr_kinetics.build_rate_matrix"))
    out["bbr_kinetics.build_rate_matrix.s"] = seconds("bbr_kinetics.build_rate_matrix")
    hits, misses = tracer.lifetime_cache()
    out["bbr_kinetics.lifetime.calls"] = hits + misses
    out["bbr_kinetics.lifetime.cache_hits"] = hits
    out["bbr_kinetics.lifetime.s_per_call"] = per_call(
        "bbr_kinetics.ground_state_residence_lifetime"
    )
    out["bbr_kinetics.rethermalization.s_per_call"] = per_call("bbr_kinetics.rethermalization_time")

    # Simulation spans minus their children (the dynamics-table build).
    simulate = "trajectory_sim.simulate_trial"
    out["trajectory_sim.cycles"] = units("cycles", simulate)
    out["trajectory_sim.ns_per_cycle"] = _ratio(
        sum(s.self_s for s in spans(simulate)), out["trajectory_sim.cycles"], 1e9
    )
    out["trajectory_sim.ground_visits"] = units("ground_visits", "trajectory_sim.simulate_trial")
    out["trajectory_sim.dynamics_build_s"] = seconds("trajectory_sim.TrajectoryDynamics")
    out["trajectory_sim.bin_counts.ns_per_record"] = per_unit(
        "records", "trajectory_sim.disjoint_bin_counts"
    )

    writes = ("dataio.write_dataset_csv", "dataio.write_table")
    out["dataio.write.rows"] = units("rows", *writes)
    out["dataio.write.ns_per_row"] = per_unit("rows", *writes)
    out["dataio.read.rows"] = units("rows", "dataio.read_dataset_csv")
    out["dataio.read.ns_per_row"] = per_unit("rows", "dataio.read_dataset_csv")
    out["dataio.bytes_written"] = units("bytes", *writes)
    out["dataio.digest.ns_per_byte"] = per_unit("bytes", "dataio.sha256_digest")

    fb = "hmm_detector.forward_backward"
    out["hmm_detector.forward_backward.records"] = units("records", fb)
    out["hmm_detector.forward_backward.ns_per_record"] = per_unit("records", fb)
    out["hmm_detector.write_decoded.ns_per_row"] = per_unit(
        "records", "hmm_detector.write_decoded_csv"
    )
    out["hmm_detector.viterbi.ns_per_record"] = per_unit("records", "hmm_detector.viterbi")
    out["hmm_detector.supervised.ns_per_record"] = per_unit(
        "records", "hmm_detector.estimate_params_supervised"
    )
    bw = "hmm_detector.baum_welch"
    out["hmm_detector.baum_welch.iterations"] = units("iterations", bw)
    out["hmm_detector.baum_welch.ns_per_record_iter"] = per_unit("record_iterations", bw)

    out["run_statistics.significance.s"] = seconds("run_statistics.observed_run_significance")
    out["run_statistics.bin_model.s"] = seconds("run_statistics.bin_value_distribution")

    sweep = "sweep_dynamics.transfer_window_map"
    out["sweep_dynamics.points"] = units("points", sweep)
    out["sweep_dynamics.s_per_point"] = _ratio(seconds(sweep), out["sweep_dynamics.points"])
    return out
