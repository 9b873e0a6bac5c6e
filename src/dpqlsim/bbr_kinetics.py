"""Blackbody-driven rovibrational kinetics of the trapped molecular ion.

Builds the radiative master equation over the Omega = 3/2 level set (the
fine-structure gap is electric-dipole forbidden, so Omega = 1/2 levels
never couple radiatively): Einstein A coefficients from rigid-rotor line
strengths, the rate-matrix generator with Planck photon occupations,
population evolution, and the derived timescales (ground-state residence
lifetime, re-thermalization time, per-cycle leave probability).  The
generator, filled from cached per-pair arrays, is time independent, so no
ODE is integrated: populations come from the matrix exponential of one
grid step, a numpy degree-13 Pade approximant with scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005), and the residence
lifetime from its ground-level diagonal entry.

Line strengths use the Hoenl-London factors of a Pi-state branch with
fixed Omega.  Absolute rates hinge on two dipole scales that are not
independently known; the vibrational dipole is calibrated so the lowest
rotational level of v = 1 decays at ``VIB_DECAY_TARGET`` (5 per second)
and the rotational dipole sits ``mu_rot_scale`` (default one order of
magnitude) above the vibrational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dataio import _check_at_least, _check_nonnegative
from .spectroscopy import (
    BOLTZMANN_K,
    LIGHT_C,
    PLANCK_H,
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    _boltzmann,
    _check_temperature,
    _level_table,
    degeneracy,
    level_code,
    most_probable_rotational_state,
    thermal_population,
)

__all__ = [
    "VIB_DECAY_TARGET",
    "IntegrationError",
    "EinsteinCoefficients",
    "RateMatrix",
    "PopulationTrajectory",
    "photon_occupation",
    "radiative_levels",
    "build_einstein_coefficients",
    "build_rate_matrix",
    "restricted_boltzmann",
    "evolve_populations",
    "ground_state_residence_lifetime",
    "rethermalization_time",
    "leave_probability_per_cycle",
]

#: Aggregate spontaneous decay rate, s^-1, of the lowest v = 1 level; the
#: vibrational dipole is calibrated against this anchor.
VIB_DECAY_TARGET = 5.0

# Radiative transitions act only inside this fine-structure manifold.
_RADIATIVE_TWO_OMEGA = 3

# Vacuum permittivity, F/m (CODATA 2022).
_EPSILON_0 = 8.8541878188e-12

# 16 pi^3 / (3 eps0 h c^3): A = _A_PREFACTOR * nu^3 * mu^2 * S / (2J_u + 1)
_A_PREFACTOR = 16.0 * math.pi**3 / (3.0 * _EPSILON_0 * PLANCK_H * LIGHT_C**3)

# cm^-1 to Hz.
_HZ_PER_CM = LIGHT_C * 100.0

# Numerator coefficients of the degree-13 Pade approximant to exp, and the
# largest 1-norm it takes at double precision (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# Rethermalization snapshots per block; the crossing is at 55-362 s at 200-600 K.
_RETHERM_BLOCK = 64


class IntegrationError(RuntimeError):
    """A numerical result failed a check; carries the last trusted time.

    It signals a failed invariant.  From the kinetics that is a snapshot
    sum off one, or a population below zero, by more than the tolerance;
    from the sweep, a final state whose norm is off one by more than 1e-6
    or is not finite.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(f"{message} (last valid time {last_time:.6g} s)")
        self.last_time = last_time


def photon_occupation(nu: float, T: float) -> float:
    """Mean thermal photon number at frequency nu; zero at T = 0."""
    if not nu > 0.0:
        raise ValueError(f"frequency must be positive, got {nu!r}")
    _check_temperature(T, zero_ok=True)
    if BOLTZMANN_K * T == 0.0:  # T = 0, or T below ~3.6e-301 K, where k_B T underflows
        return 0.0
    x = PLANCK_H * nu / (BOLTZMANN_K * T)
    if x > 700.0:  # expm1 would overflow; occupation underflows to zero
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def radiative_levels(c: MolecularConstants) -> list[RoVibState]:
    """The radiatively coupled basis: all Omega = 3/2 levels, v then n order.

    These are the first ``(v_max + 1) * J_count`` level codes, so a level's
    code is also its index in the rate matrix.
    """
    return list(_level_table(c)[0][: (c.v_max + 1) * c.J_count])


def _honl_london_pair(two_J_hi: int, two_omega: int) -> float:
    # P/R-type line strength for the pair (J_hi, J_hi - 1) at fixed Omega.
    J, O = two_J_hi / 2.0, two_omega / 2.0
    return (J * J - O * O) / J


def _honl_london_q(two_J: int, two_omega: int) -> float:
    # Q-type line strength (J -> J) at fixed Omega.
    J, O = two_J / 2.0, two_omega / 2.0
    return (2.0 * J + 1.0) * O * O / (J * (J + 1.0))


@dataclass(frozen=True, eq=False)
class EinsteinCoefficients:
    """Einstein A coefficients of the radiative pairs, one array entry per pair.

    ``upper`` and ``lower`` hold the level codes of each (upper, lower)
    pair, ``A`` its spontaneous rate in s^-1 and ``frequencies`` its
    transition frequency in Hz; stimulated rates follow from A and the
    photon occupation at each frequency.  ``mu_vib`` and ``mu_rot`` are the
    calibrated transition dipoles in C m.
    """

    constants: MolecularConstants
    upper: np.ndarray
    lower: np.ndarray
    A: np.ndarray
    frequencies: np.ndarray
    mu_vib: float
    mu_rot: float

    def total_decay_rate(self, upper: RoVibState) -> float:
        """Sum of spontaneous rates out of one level."""
        code = level_code(upper, self.constants)
        return sum(self.A[self.upper == code].tolist())


def _vibrational_channels(n_upper: int, J_count: int) -> list[tuple[int, float]]:
    """(lower n, line strength) pairs for emission from (v+1, n_upper)."""
    two_J_u = _RADIATIVE_TWO_OMEGA + 2 * n_upper
    channels = [(n_upper, _honl_london_q(two_J_u, _RADIATIVE_TWO_OMEGA))]
    if n_upper + 1 < J_count:  # lower level with J one above
        channels.append(
            (n_upper + 1, _honl_london_pair(two_J_u + 2, _RADIATIVE_TWO_OMEGA))
        )
    if n_upper >= 1:  # lower level with J one below
        channels.append((n_upper - 1, _honl_london_pair(two_J_u, _RADIATIVE_TWO_OMEGA)))
    return channels


@lru_cache(maxsize=16)
def build_einstein_coefficients(c: MolecularConstants) -> EinsteinCoefficients:
    """Construct the radiative coefficient tables for the level set.

    The vibrational dipole is fixed by requiring that the total spontaneous
    rate out of (v = 1, lowest rotational level) equals ``VIB_DECAY_TARGET``
    times ``mu_vib_scale`` squared; the rotational dipole is
    ``mu_rot_scale`` times the vibrational one.  Both knobs default to the
    anchored calibration.
    """
    # Calibration: decay channels of (v=1, n=0) depend only on omega_e, B_e.
    base_rate = 0.0
    for n_low, strength in _vibrational_channels(0, c.J_count):
        gap_cm = c.omega_e - c.B_e * n_low * (n_low + 1)
        nu = gap_cm * _HZ_PER_CM
        base_rate += _A_PREFACTOR * nu**3 * strength / (_RADIATIVE_TWO_OMEGA + 1)
    mu_vib = math.sqrt(VIB_DECAY_TARGET / base_rate) * c.mu_vib_scale
    mu_rot = c.mu_rot_scale * mu_vib

    states, energies = _level_table(c)[:2]
    energies = energies.tolist()  # Python floats keep nu**3 a scalar power
    pairs = []  # (upper code, lower code, A, frequency)

    def code(v: int, n: int) -> int:  # the radiative codes run v, then n
        return v * c.J_count + n

    def add_pair(u: int, l: int, strength: float, mu: float):
        nu = (energies[u] - energies[l]) * _HZ_PER_CM
        pairs.append((u, l, _A_PREFACTOR * nu**3 * mu**2 * strength / degeneracy(states[u]), nu))

    for v in range(c.v_max + 1):
        # Pure rotational lines within one vibrational level, Delta J = -1.
        for n in range(1, c.J_count):
            upper = code(v, n)
            strength = _honl_london_pair(states[upper].two_J, _RADIATIVE_TWO_OMEGA)
            add_pair(upper, code(v, n - 1), strength, mu_rot)
        # Vibrational band v -> v-1 with P, Q, R rotational structure.
        if v >= 1:
            for n_u in range(c.J_count):
                for n_l, strength in _vibrational_channels(n_u, c.J_count):
                    add_pair(code(v, n_u), code(v - 1, n_l), strength, mu_vib)

    table = np.array(pairs, dtype=float).reshape(-1, 4)
    upper, lower = table[:, :2].T.astype(np.intp)
    return EinsteinCoefficients(
        constants=c, upper=upper, lower=lower, A=table[:, 2].copy(),
        frequencies=table[:, 3].copy(), mu_vib=mu_vib, mu_rot=mu_rot,
    )


@dataclass(frozen=True)
class RateMatrix:
    """Master-equation generator dp/dt = G p over the radiative level set.

    Columns sum to zero (probability conservation) and all off-diagonal
    entries are non-negative; the Boltzmann distribution at the field
    temperature is stationary by detailed balance.
    """

    generator: np.ndarray
    constants: MolecularConstants
    temperature: float

    def __post_init__(self) -> None:
        gen = self.generator
        n = len(radiative_levels(self.constants))
        if gen.shape != (n, n):
            raise ValueError(f"generator shape {gen.shape} does not match {n} levels")
        if not np.isfinite(gen).all():
            raise ValueError("generator has non-finite entries")
        off = gen.copy()
        np.fill_diagonal(off, 0.0)
        if off.min() < 0.0:
            raise ValueError("negative off-diagonal rate in generator")
        scale = np.abs(np.diag(gen)).max() or 1.0
        residual = np.abs(gen.sum(axis=0)).max() / scale
        if residual > 1e-12:
            raise ValueError(f"generator columns sum to {residual:.3e} relative, expected 0")


def build_rate_matrix(c: MolecularConstants, T: float) -> RateMatrix:
    """Generator combining spontaneous decay with thermal pumping at T.

    For each allowed pair the downward rate is A (1 + n_bar) and the upward
    rate A n_bar g_u / g_l, with n_bar the Planck occupation at the pair
    frequency; T = 0 leaves only spontaneous decay.  T must be finite.
    """
    _check_temperature(T, zero_ok=True)
    co = build_einstein_coefficients(c)
    upper, lower, A = co.upper, co.lower, co.A
    g = _level_table(c)[2]  # the doublet factor cancels in g_u / g_l
    # Scalar occupations: np.expm1 differs from math.expm1 in the last bit.
    n_bar = np.array([photon_occupation(nu, T) for nu in co.frequencies.tolist()])
    n = len(radiative_levels(c))
    gen = np.zeros((n, n))
    gen[lower, upper] = A * (1.0 + n_bar)
    gen[upper, lower] = A * n_bar * g[upper] / g[lower]
    np.fill_diagonal(gen, -gen.sum(axis=0))
    return RateMatrix(generator=gen, constants=c, temperature=T)


def restricted_boltzmann(c: MolecularConstants, T: float) -> np.ndarray:
    """Boltzmann probabilities conditioned on the radiative set, by level code.

    This is the exact stationary vector of :func:`build_rate_matrix` at the
    same temperature.  T must be finite and positive.
    """
    boltz = _boltzmann(c, T)[: (c.v_max + 1) * c.J_count]
    return boltz / boltz.sum()


@dataclass(frozen=True)
class PopulationTrajectory:
    """Time-resolved populations over the radiative level set."""

    times: np.ndarray
    constants: MolecularConstants
    populations: np.ndarray  # shape (n_levels, n_times), renormalized
    norm_drift: np.ndarray  # raw snapshot sums minus one

    def population_of(self, state: RoVibState) -> np.ndarray:
        """Population of one level at every snapshot time."""
        if state.two_omega != _RADIATIVE_TWO_OMEGA:
            raise ValueError(f"{state.label()} is not in the radiative level set")
        return self.populations[level_code(state, self.constants)]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by degree-13 Pade scaling and squaring (Higham 2005).

    General in ``a``: no symmetry or detailed balance is assumed.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # (v - u)^-1 (v + u), written so that u = 0 gives the identity exactly.
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def _checked_blocks(
    m: RateMatrix, p: np.ndarray, times: np.ndarray, dt: float, tol: float, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Propagate ``p`` by exp(G dt) over ``times``, ``block`` snapshots at a time.

    Yields (renormalized populations, raw sums minus one) per block once the
    checks of :func:`evolve_populations` pass on it; no block runs ahead.
    """
    step = _expm(m.generator * dt)
    for k0 in range(0, len(times), block):
        raw = np.empty((len(p), min(block, len(times) - k0)))
        for k in range(raw.shape[1]):
            raw[:, k] = p
            p = step @ p
        drift = raw.sum(axis=0) - 1.0
        worst = int(np.abs(drift).argmax())
        if not abs(drift[worst]) <= tol:  # True for a NaN too
            raise IntegrationError(f"normalization drifted by {drift[worst]:.3e}",
                                   last_time=float(times[k0 + worst]))
        if not raw.min() >= -tol:
            k = int(np.unravel_index(raw.argmin(), raw.shape)[1])
            raise IntegrationError(
                f"population dipped to {raw.min():.3e}", last_time=float(times[k0 + k])
            )
        cleaned = np.clip(raw, 0.0, None)
        cleaned /= cleaned.sum(axis=0, keepdims=True)
        yield cleaned, drift


def evolve_populations(
    m: RateMatrix,
    p0: np.ndarray,
    duration: float,
    tol: float = 1e-8,
    *,
    snapshots: int = 201,
) -> PopulationTrajectory:
    """Propagate dp/dt = G p from ``p0`` over ``duration`` seconds.

    ``p0`` holds probabilities over the radiative level codes: one
    non-negative entry per level, summing to one within 1e-9; else
    ValueError.  The generator is time independent, so each snapshot
    follows from the last through the propagator exp(G dt) of the uniform
    grid step, taken as a numpy degree-13 Pade approximant with scaling
    and squaring; it needs no detailed-balance weights, so T = 0 works
    too.  The result is checked as an invariant: :class:`IntegrationError`
    is raised if a snapshot sum drifts from one by more than ``tol`` or a
    population falls below -tol.
    """
    _check_nonnegative("duration", duration)
    _check_at_least("tol", tol, 0)
    _check_at_least("snapshots", snapshots)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (len(m.generator),):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({len(m.generator)},)")
    if not (p0 >= 0.0).all():  # False for a NaN too
        raise ValueError("p0 entries must be non-negative numbers")
    if abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError(f"p0 sums to {p0.sum()!r}, expected 1 within 1e-9")
    times = np.linspace(0.0, duration, snapshots)
    dt = duration / max(snapshots - 1, 1)
    # One block: every snapshot is checked before any is returned.
    [(populations, drift)] = _checked_blocks(m, p0, times, dt, tol, snapshots)
    return PopulationTrajectory(
        times=times,
        constants=m.constants,
        populations=populations,
        norm_drift=drift,
    )


@lru_cache(maxsize=64)
def ground_state_residence_lifetime(c: MolecularConstants, T: float) -> float:
    """1/e time for leaving the rotational ground level, in seconds.

    Only first departures from (v = 0, Omega = 3/2, J = 3/2) count, so the
    return paths into that level are ignored.  With inflow removed the
    ground survival is exactly exp(G_gg t), and the lifetime is -1/G_gg
    with no fit.
    """
    m = build_rate_matrix(c, T)
    g = level_code(ROT_GROUND, c)
    gamma = -m.generator[g, g]
    if gamma <= 0.0:
        raise ValueError(f"ground level has no departure channels at T = {T:g} K")
    return float(1.0 / gamma)


def rethermalization_time(c: MolecularConstants, T: float) -> float:
    """Time for the ground-level population to reach 63 % of thermal.

    Starting from unit occupation of the most probable rotational level at
    T, evolves the full generator on a 1 s grid and returns the first time
    the (v = 0, J = 3/2) population crosses 0.63 of its stationary value
    within the radiative set, or raises ValueError if that takes over 600 s.
    Snapshots are propagated and checked 64 at a time up to the block that
    crosses; later ones are not computed, so they are not checked either.
    """
    m = build_rate_matrix(c, T)
    p0 = np.zeros(len(m.generator))
    p0[level_code(most_probable_rotational_state(c, T), c)] = 1.0
    g = level_code(ROT_GROUND, c)
    target = 0.63 * restricted_boltzmann(c, T)[g]
    times = np.linspace(0.0, 600.0, 601)
    pg = np.empty(0)
    for pops, _ in _checked_blocks(m, p0, times, 1.0, 1e-8, _RETHERM_BLOCK):
        pg = np.append(pg, pops[g])
        above = np.nonzero(pg >= target)[0]
        if above.size:
            break
    else:
        raise ValueError(f"ground population did not reach {target:.3e} within 600 s")
    k = int(above[0])
    if k == 0:
        return 0.0
    # Linear interpolation between the bracketing snapshots.
    t0, t1 = times[k - 1], times[k]
    f0, f1 = pg[k - 1], pg[k]
    return float(t0 + (target - f0) / (f1 - f0) * (t1 - t0))


def leave_probability_per_cycle(
    c: MolecularConstants,
    T: float,
    cycle: float,
    *,
    collision_rate: float = 0.0,
) -> float:
    """Probability of leaving the rotational ground level in one cycle.

    Radiative departures happen at the inverse residence lifetime; an
    optional collisional channel adds ``collision_rate`` times the chance
    that a re-thermalizing collision lands outside the ground level.
    """
    if not cycle > 0.0:
        raise ValueError(f"cycle must be positive, got {cycle!r}")
    _check_nonnegative("collision_rate", collision_rate)
    gamma = 1.0 / ground_state_residence_lifetime(c, T)
    if collision_rate > 0.0:
        gamma += collision_rate * (1.0 - thermal_population(ROT_GROUND, c, T))
    return float(-math.expm1(-gamma * cycle))
