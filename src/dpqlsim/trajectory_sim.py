"""Monte Carlo simulation of the experiment loop.

Each cycle the hidden rovibrational state takes one exact stochastic step
(collisional re-thermalization, else a draw from the one-cycle blackbody
propagator), then a bright/dark outcome is emitted: dark with the
detection fidelity when the molecule occupies the rotational ground level,
dark with the noise floor otherwise.  Measurement never alters the state.

Exactly four uniform variates are drawn per cycle in a fixed order
(collision gate, jump gate / collision resample, jump target, emission),
so datasets are bit-reproducible from (config, seed) and insensitive to
which branches fire.  Drawn up front, they let the simulator skip from
event to event (Gillespie, J. Phys. Chem. 81:2340, 1977), scanning a buffer
of candidate jump cycles that one numpy compare fills per 1024 cycles, so
its Python work scales with jumps and collisions, not cycles.  A stream is
held as columns: one int8 outcome array and one int8 ground-level label
array, with cycle k ending at ``(k + 1) * cycle`` seconds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dataio
from .bbr_kinetics import _expm, build_rate_matrix
from .spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    _level_table,
    level_code,
    thermal_distribution,
)

__all__ = [
    "ExperimentConfig",
    "TrialDataset",
    "TrajectoryDynamics",
    "simulate_trial",
    "simulate_hours",
    "ensemble_ground_occupancy",
    "disjoint_bin_counts",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the simulated experiment loop.

    The length of a stream is not a knob here: :func:`simulate_trial`
    takes it as a cycle count and :func:`simulate_hours` (``dpqlsim
    simulate --hours``) as a wall-clock time.  Every field is a
    config-file key of the same name.
    """

    cycle: float = 0.040
    p_bright_noise: float = 0.03
    detection_fidelity: float = 0.72
    collision_rate: float = 0.008
    temperature: float = 300.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # Each check is a chain of comparisons, all False for a NaN.
        for name in ("cycle", "temperature"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        rate = self.collision_rate
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"collision_rate must be finite and >= 0, got {rate!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed!r}")
        for name in ("p_bright_noise", "detection_fidelity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """Labeled measurement stream plus the config that made it.

    ``outcome[k]`` is 0 (bright) or 1 (dark) for cycle k, which ends at
    ``(k + 1) * config.cycle`` seconds.  ``hidden[k]`` is 1 when the
    molecule sits in the rotational ground level after that cycle's
    hidden-state step, else 0; that post-step level is the one that emits
    the cycle's outcome, so a visit that starts and ends inside one cycle
    is never labeled.  Both columns are stored as read-only int8 copies.
    """

    outcome: np.ndarray
    hidden: np.ndarray
    config: ExperimentConfig

    def __post_init__(self) -> None:
        for name in ("outcome", "hidden"):
            column = np.asarray(getattr(self, name))
            if column.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not ((column == 0) | (column == 1)).all():
                raise ValueError(f"{name} values must be 0 or 1")
            column = column.astype(np.int8)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.outcome.size != self.hidden.size:
            raise ValueError(
                f"{self.outcome.size} outcomes but {self.hidden.size} hidden labels"
            )

    @property
    def records(self) -> Sequence[tuple[int, int, float, int]]:
        """The stream as dataset CSV rows over its CSV ``columns``, built on access."""
        n = self.outcome.size
        times = np.arange(1, n + 1) * self.config.cycle
        return dataio._Rows(np.arange(n), self.outcome, times, self.hidden)

    def outcomes(self) -> np.ndarray:
        return self.outcome.copy()

    def hidden_labels(self) -> np.ndarray:
        return self.hidden.copy()

    def ground_occupancy(self) -> float:
        """Fraction of cycles spent in the rotational ground level."""
        return float(self.hidden.mean())

    def to_csv(self, path) -> None:
        dataio.write_dataset_csv(path, *self.records.columns)


class TrajectoryDynamics:
    """Precomputed stochastic-step tables for one (constants, config) pair.

    Levels are indexed by level code.  The radiative generator R (zero on
    the Omega = 1/2 levels) has R pi = 0 and zero column sums, so it
    commutes with collisions at rate gamma and the exact propagator of a
    cycle dt is exp(-gamma dt) exp(R dt) + (1 - exp(-gamma dt)) pi 1^T: a
    collision gate, then a draw from the level's column of exp(R dt), whose
    diagonal is ``stay_prob`` and the rest the dense ``jump_cum`` row.  So
    in-cycle round trips such as ground -> v = 1 -> ground count; at 300 K
    the v = 1 levels leave at up to 6.4 /s (5.25 /s for v = 1, J = 3/2), up
    to 0.26 per 40 ms cycle.  The simulator applies :meth:`step_code` at
    events only, a jump at the first cycle whose gate clears ``stay_prob``;
    only cycles whose gate clears ``stay_floor``, the lowest radiative
    ``stay_prob`` (1.0 with none), can hold one.
    """

    def __init__(self, constants: MolecularConstants, *, temperature: float,
                 cycle: float, collision_rate: float):
        self.collision_prob = -math.expm1(-collision_rate * cycle)

        self.constants = constants
        self.states: tuple[RoVibState, ...] = _level_table(constants)[0]
        self.ground_code = level_code(ROT_GROUND, constants)

        self.thermal_cum = np.cumsum(thermal_distribution(constants, temperature))
        self.thermal_cum[-1] = 1.0  # guard the top edge against roundoff

        # Radiative level i is level code i, so a draw from a jump row (its
        # column clipped at 0 against Pade roundoff) is the target code.
        n_states = len(self.states)
        self.stay_prob = np.ones(n_states)
        self.jump_cum: list[list[float] | None] = [None] * n_states
        generator = build_rate_matrix(constants, temperature).generator
        for code, column in enumerate(_expm(generator * cycle).T):
            self.stay_prob[code] = column[code]
            weights = np.clip(column, 0.0, None)
            weights[code] = 0.0
            targets = np.flatnonzero(weights)
            if targets.size:
                cum = np.cumsum(weights / weights.sum())
                cum[targets[-1]:] = 1.0  # no draw lands past the last target
                self.jump_cum[code] = cum.tolist()
        radiative = [p for p, cum in zip(self.stay_prob, self.jump_cum) if cum is not None]
        self.stay_floor = float(min(radiative, default=1.0))

    @classmethod
    def for_config(
        cls, config: ExperimentConfig, constants: MolecularConstants | None = None
    ) -> "TrajectoryDynamics":
        return _dynamics_cached(
            constants or MolecularConstants(), temperature=config.temperature,
            cycle=config.cycle, collision_rate=config.collision_rate,
        )

    def sample_thermal_code(self, u: float) -> int:
        return int(np.searchsorted(self.thermal_cum, u, side="right"))

    def step_code(self, code: int, u_collision: float, u_gate: float, u_target: float) -> int:
        """Advance one cycle; u_gate doubles as the resample variate on
        collision cycles (all variates are drawn regardless of branch)."""
        if u_collision < self.collision_prob:
            return self.sample_thermal_code(u_gate)
        cum = self.jump_cum[code]
        if cum is None or u_gate < self.stay_prob[code]:
            return code
        return bisect_right(cum, u_target)


_dynamics_cached = lru_cache(maxsize=16)(TrajectoryDynamics)
_CANDIDATE_BLOCK = 1024  # cycles gathered per refill of the jump-candidate buffer


def _hidden_walk(dyn: TrajectoryDynamics, rng: np.random.Generator,
                 n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """(ground_labels, uniforms) of one stream, bit for bit a per-cycle ``step_code`` loop."""
    code = dyn.sample_thermal_code(rng.random())
    u = rng.random((n_cycles, 4))
    gate = u[:, 1]
    collided = np.flatnonzero(u[:, 0] < dyn.collision_prob)
    resampled = np.searchsorted(dyn.thermal_cum, gate[collided], side="right").tolist()
    stops = zip(collided.tolist() + [n_cycles], resampled + [None])
    stop, fresh = next(stops)  # the next collision and its thermal code, or the end
    cums, stays = dyn.jump_cum, dyn.stay_prob.tolist()
    labels = np.zeros(n_cycles, dtype=np.int8)
    # Candidates: the cycles below `filled` whose gate clears stay_floor; pos[i] is the
    # first not yet passed, and a sentinel at `filled` with an infinite gate ends each scan.
    pos, gates, targets, filled, i = [0], [math.inf], [], 0, 0
    k = start = 0  # labels are written below k, jumps are searched from start
    while True:
        event = stop
        if cums[code] is not None:
            stay, j = stays[code], i
            while True:
                while gates[j] < stay:  # the same >= that step_code leaves for a jump
                    j += 1
                if pos[j] < filled or pos[j] >= stop:  # anything but the sentinel before stop
                    break
                lo = max(start, filled)  # gather the next block
                filled = min(lo + _CANDIDATE_BLOCK, n_cycles)
                hits = np.flatnonzero(gate[lo:filled] >= dyn.stay_floor) + lo
                pos, gates = hits.tolist() + [filled], gate[hits].tolist() + [math.inf]
                targets, i, j = u[hits, 2].tolist(), 0, 0
            if pos[j] < stop:
                event = pos[j]
        if code == dyn.ground_code:
            labels[k:event] = 1
        if event == n_cycles:
            break
        if event == stop:  # a collision, even on a candidate cycle
            i = bisect_right(pos, stop, i, len(pos) - 1)  # drop candidates up to it
            code = fresh
            stop, fresh = next(stops)
        else:
            code = bisect_right(cums[code], targets[j])
            i = j + 1
        k, start = event, event + 1
    return labels, u


def _simulate_arrays(config: ExperimentConfig, constants: MolecularConstants,
                     rng: np.random.Generator, n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, ground_labels) int8 arrays, bit for bit a per-cycle ``step_code`` loop."""
    labels, u = _hidden_walk(TrajectoryDynamics.for_config(config, constants), rng, n_cycles)
    dark = u[:, 3] < config.p_bright_noise
    in_ground = np.flatnonzero(labels)
    dark[in_ground] = u[in_ground, 3] < config.detection_fidelity
    return dark.view(np.int8), labels


def simulate_trial(
    config: ExperimentConfig, n_cycles: int, constants: MolecularConstants | None = None
) -> TrialDataset:
    """One labeled trial of ``n_cycles`` cycles, deterministic in (config, seed).

    The initial hidden state is a thermal draw, as if the molecule had
    equilibrated with the blackbody field before the trial; each cycle then
    steps the state and emits an outcome.
    """
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles!r}")
    constants = constants or MolecularConstants()
    rng = np.random.default_rng(config.rng_seed)
    outcomes, labels = _simulate_arrays(config, constants, rng, n_cycles)
    return TrialDataset(outcomes, labels, config)


def _cycles_in(hours: float, cycle: float) -> int:
    """Whole cycles of ``cycle`` seconds in ``hours``; ValueError below one."""
    cycles = hours * 3600.0 / cycle
    if not 0.0 < cycles < math.inf:  # False for a NaN too
        raise ValueError(f"hours must be finite and positive, got {hours!r}")
    n_cycles = round(cycles)
    if n_cycles < 1:
        raise ValueError(f"hours {hours:g} rounds to zero cycles of {cycle:g} s")
    return n_cycles


def simulate_hours(
    config: ExperimentConfig, hours: float, constants: MolecularConstants | None = None
) -> TrialDataset:
    """Convenience wrapper sizing one trial to a wall-clock duration."""
    return simulate_trial(config, _cycles_in(hours, config.cycle), constants)


def ensemble_ground_occupancy(
    config: ExperimentConfig,
    n_trials: int,
    hours: float,
    constants: MolecularConstants | None = None,
) -> np.ndarray:
    """Ground-level occupancy fraction of ``n_trials`` independent runs.

    Each run covers ``hours`` of wall-clock time with its own RNG stream
    spawned from the config seed, so the ensemble is reproducible yet the
    streams are statistically independent.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_cycles = _cycles_in(hours, config.cycle)
    dyn = TrajectoryDynamics.for_config(config, constants)
    children = np.random.SeedSequence(config.rng_seed).spawn(n_trials)
    return np.array([_hidden_walk(dyn, np.random.default_rng(child), n_cycles)[0].mean()
                     for child in children])


def disjoint_bin_counts(
    values: Sequence[int] | np.ndarray, window: int = 20
) -> np.ndarray:
    """Histogram of dark counts over disjoint windows, offset-averaged.

    Splits the stream into consecutive windows at every starting offset
    0..window-1, histograms the per-window dark counts, and averages the
    histograms.  Returns an array of length window + 1 whose k-th entry is
    the mean number of windows containing exactly k darks.  Every start s
    with s + window <= n is a window of offset s mod window, so the summed
    histograms are one histogram of all sliding-window sums.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    cum = np.concatenate(([0], np.cumsum(np.asarray(values, dtype=np.int64))))
    counts = np.bincount(cum[window:] - cum[:-window], minlength=window + 1)
    return counts[: window + 1] / window
