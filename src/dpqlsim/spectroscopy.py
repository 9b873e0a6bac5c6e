"""Level structure and thermal populations of a trapped CaO+ molecular ion.

The electronic ground term is a 2-Pi state split by spin-orbit coupling
into Omega = 3/2 and Omega = 1/2 fine-structure manifolds, each carrying a
harmonic vibrational ladder and a rigid-rotor rotational ladder.  Energies
are expressed in cm^-1 as

    E(v, Omega, n) = omega_e * v + A_so * [Omega = 1/2]
                     + B_e * n * (n + 1)

where ``n`` counts rotational quanta above the floor of a manifold; the
floor level has J = Omega, so a level with n quanta carries J = Omega + n.
The global minimum of the truncated set sits at zero energy.

The Omega-doublet parity splitting (hundreds of kHz) lies some seven
orders of magnitude below k_B T and is dropped from thermal energies; the
two parity components instead contribute a uniform statistical factor of
two that cancels in every population ratio.

A level's integer code is its position in :func:`enumerate_levels`:
Omega = 3/2 first, then v, then n, so the radiatively coupled Omega = 3/2
manifold is the prefix of the first ``(v_max + 1) * J_count`` codes and
(v = 0, Omega = 3/2) the first ``J_count``.  :func:`level_code` is the one
map from a level to its code; populations are float arrays indexed by it.

Half-integer angular momenta are stored doubled (``two_J`` = 2J,
``two_omega`` = 2*Omega) so quantum-number arithmetic stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataio import _check_at_least, _check_nonnegative, _check_positive

__all__ = [
    "KB_CM",
    "PARITY_DOUBLET",
    "RoVibState",
    "MolecularConstants",
    "ROT_GROUND",
    "level_code",
    "level_energy",
    "degeneracy",
    "enumerate_levels",
    "partition_function",
    "thermal_population",
    "manifold_population",
    "thermal_distribution",
    "most_probable_rotational_state",
]

# SI defining constants (exact since 2019), written out rather than read
# from scipy.constants, whose import costs more than the rest of the module.
PLANCK_H = 6.62607015e-34  # J s
LIGHT_C = 299792458.0  # m/s
BOLTZMANN_K = 1.380649e-23  # J/K

# Boltzmann constant expressed in cm^-1 per kelvin.
KB_CM = BOLTZMANN_K / (PLANCK_H * LIGHT_C * 100.0)

# Each (v, Omega, J) level is a near-degenerate parity doublet; the factor is
# uniform across the level set and cancels in all population ratios.
PARITY_DOUBLET = 2


@dataclass(frozen=True)
class RoVibState:
    """One rovibrational level (v, Omega, J), both parity components.

    Parameters
    ----------
    v : int
        Vibrational quantum number, >= 0.
    two_omega : int
        Doubled fine-structure projection; 1 or 3 for Omega = 1/2 or 3/2.
    two_J : int
        Doubled total angular momentum; odd and >= two_omega.
    """

    v: int
    two_omega: int
    two_J: int

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError(f"vibrational quantum number must be >= 0, got v={self.v}")
        if self.two_omega not in (1, 3):
            raise ValueError(f"two_omega must be 1 or 3, got {self.two_omega}")
        if self.two_J % 2 == 0 or self.two_J < self.two_omega:
            raise ValueError(
                f"two_J must be an odd integer >= two_omega, got two_J={self.two_J}"
            )

    @property
    def J(self) -> float:
        return self.two_J / 2.0

    @property
    def omega(self) -> float:
        return self.two_omega / 2.0

    @property
    def rotational_quanta(self) -> int:
        """Rotational quanta above the manifold floor (J = Omega + quanta)."""
        return (self.two_J - self.two_omega) // 2

    def label(self) -> str:
        """Compact text key with doubled half-integers, e.g. ``v0.O3.J35``."""
        return f"v{self.v}.O{self.two_omega}.J{self.two_J}"


#: Detection target of the experiment: the lowest level of the Omega = 3/2
#: manifold, J = 3/2 in the vibrational ground state.
ROT_GROUND = RoVibState(v=0, two_omega=3, two_J=3)


@dataclass(frozen=True)
class MolecularConstants:
    """Spectroscopic constants plus truncation and dipole calibration knobs.

    Units: ``omega_e``, ``A_so`` and ``B_e`` in cm^-1; ``g_q_ground`` (the
    vacuum Rabi coupling to the phonon mode) in rad/s, which ``dpqlsim
    sweep`` takes as its coupling.  The molecular Omega-doublet frequency
    is not a constant here: the sweep grid sets it per point.

    Every field is a config-file key of the same name (see
    :func:`dataio.config_from_mapping`).

    ``mu_vib_scale`` multiplies the vibrational transition dipole used by
    the radiative-rate builder and ``mu_rot_scale`` sets the rotational
    dipole relative to the vibrational one.  Omega = 3/2 is always the
    lower manifold; the upper one sits ``A_so`` above it.
    """

    omega_e: float = 634.0
    A_so: float = 130.0
    B_e: float = 0.37
    g_q_ground: float = 2 * math.pi * 2.6e3
    v_max: int = 1
    J_count: int = 70
    mu_vib_scale: float = 1.0
    mu_rot_scale: float = 10.0

    def __post_init__(self) -> None:
        for name in ("omega_e", "A_so", "B_e", "mu_vib_scale", "mu_rot_scale"):
            _check_positive(name, getattr(self, name))
        _check_nonnegative("g_q_ground", self.g_q_ground)
        _check_at_least("v_max", self.v_max, 0)
        _check_at_least("J_count", self.J_count)


def _check_temperature(T: float, *, zero_ok: bool = False) -> None:
    """Reject T unless it is a finite number > 0, or >= 0 with ``zero_ok``."""
    if not (isinstance(T, (int, float)) and 0.0 <= T < math.inf and (T > 0.0 or zero_ok)):
        bound = ">=" if zero_ok else ">"
        raise ValueError(f"temperature must be a finite number {bound} 0, got {T!r}")


def _check_in_truncation(state: RoVibState, c: MolecularConstants) -> None:
    if state.v > c.v_max:
        raise ValueError(f"v={state.v} exceeds the truncation v_max={c.v_max}")
    if state.rotational_quanta >= c.J_count:
        raise ValueError(
            f"rotational level {state.rotational_quanta} outside the "
            f"{c.J_count}-level truncation"
        )


def level_energy(state: RoVibState, c: MolecularConstants) -> float:
    """Energy of a level in cm^-1, relative to the lowest level of the set.

    Within one fine-structure manifold consecutive rotational levels are
    spaced by 2 * B_e * (n + 1) where n is the lower level's quantum count;
    the vibrational gap is omega_e and the fine-structure gap A_so.
    """
    _check_in_truncation(state, c)
    n = state.rotational_quanta
    fine = c.A_so if state.two_omega == 1 else 0.0
    return c.omega_e * state.v + fine + c.B_e * n * (n + 1)


def degeneracy(state: RoVibState) -> int:
    """Statistical weight 2J+1 of a single parity component of the level."""
    return state.two_J + 1


def enumerate_levels(c: MolecularConstants) -> list[RoVibState]:
    """All levels of the truncated set, the lower Omega = 3/2 manifold first.

    Within each manifold the order is v ascending, then rotational quanta
    ascending, so a level of one manifold sits ``v * J_count + n`` into it.
    """
    return [RoVibState(v=v, two_omega=omega2, two_J=omega2 + 2 * n)
            for omega2 in (3, 1) for v in range(c.v_max + 1) for n in range(c.J_count)]


@lru_cache(maxsize=32)
def _level_table(c: MolecularConstants):
    """Cached (states, energies, weights, code of each state) of the full set.

    The arrays are indexed by level code; ``weights`` holds the doublet
    weight ``PARITY_DOUBLET * (2J + 1)``.
    """
    states = tuple(enumerate_levels(c))
    energies = np.array([level_energy(s, c) for s in states])
    weights = np.array([PARITY_DOUBLET * degeneracy(s) for s in states], dtype=float)
    return states, energies, weights, dict(zip(states, range(len(states))))


def level_code(state: RoVibState, c: MolecularConstants) -> int:
    """Code of a level: its index in every population array of the set.

    ValueError for a level outside the truncation.
    """
    code = _level_table(c)[3].get(state)
    if code is None:
        _check_in_truncation(state, c)  # every level inside it has a code
    return code


def _boltzmann(c: MolecularConstants, T: float) -> np.ndarray:
    """Unnormalized Boltzmann factors g_i exp(-E_i / k_B T), by level code."""
    _check_temperature(T)
    _, energies, weights, _ = _level_table(c)
    with np.errstate(over="ignore"):  # below ~1e-308 K, E / k_B T is inf and its factor 0
        return weights * np.exp(-energies / (KB_CM * T))


def partition_function(c: MolecularConstants, T: float) -> float:
    """Z = sum of g_i exp(-E_i / k_B T) over the truncated level set."""
    return float(np.sum(_boltzmann(c, T)))


def thermal_population(state: RoVibState, c: MolecularConstants, T: float) -> float:
    """Boltzmann probability of one level (both parity components) at T."""
    return float(thermal_distribution(c, T)[level_code(state, c)])


def manifold_population(
    c: MolecularConstants,
    T: float,
    *,
    v: int | None = None,
    two_omega: int | None = None,
) -> float:
    """Thermal probability summed over all levels matching the filters.

    Conditional marginals follow by ratio, e.g. P(Omega = 3/2 | v = 0) =
    ``manifold_population(c, T, v=0, two_omega=3) / manifold_population(c,
    T, v=0)``.
    """
    keep = [(v is None or s.v == v) and (two_omega is None or s.two_omega == two_omega)
            for s in _level_table(c)[0]]
    return sum(thermal_distribution(c, T)[keep].tolist(), 0.0)  # Python floats, code order


def thermal_distribution(c: MolecularConstants, T: float) -> np.ndarray:
    """Boltzmann probabilities of the truncated level set, indexed by level code."""
    boltz = _boltzmann(c, T)
    return boltz / boltz.sum()


def most_probable_rotational_state(c: MolecularConstants, T: float) -> RoVibState:
    """Most populated rotational level within (v = 0, Omega = 3/2).

    Those are the first ``J_count`` level codes; the argmax keeps the first
    of equal weights.
    """
    return _level_table(c)[0][int(np.argmax(_boltzmann(c, T)[: c.J_count]))]
