"""Avoided-crossing dynamics of the dipole-phonon coupling.

A single excitation-conserving doublet {|f, 0>, |e, 1>} of the
Jaynes-Cummings interaction suffices for a ground-state-cooled mode: the
2x2 Hamiltonian carries detuning +-(omega_mol - omega_q)/2 on the
diagonal and g_q/2 off the diagonal.  A linear sweep of the trap
frequency omega_q through resonance transfers population between the
diabatic states.  One batched propagator evolves every point of a
molecular-frequency grid at once with the exponential midpoint (second-order
Magnus) rule, whose 2x2 step matrices have a closed form (Blanes et al.,
Phys. Rep. 470:151, 2009); the analytic Landau-Zener formula serves as an
independent oracle for it.

Also includes the off-resonant carrier excitation bound used to estimate
how much a strong far-detuned drive leaks into the excited state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bbr_kinetics import IntegrationError
from .dataio import _check_at_least, _check_nonnegative, _check_probability
from .spectroscopy import MolecularConstants

__all__ = [
    "SweepConfig",
    "TransferWindowMap",
    "jc_coupling_matrix",
    "evolve_sweep",
    "landau_zener_oracle",
    "transfer_window_map",
    "offres_carrier_excitation",
]

_TWO_PI = 2.0 * math.pi

#: Largest propagator step, s; the sweep is split into equal steps no
#: longer.  On the 410-490 kHz window grid, halving it moves no transfer by
#: more than 3.4e-10 (the error falls as dt^4 there).
DEFAULT_TIME_STEP = 1e-6

# Time steps per tree product: bounds the scratch arrays at _BLOCK times
# the grid size while keeping the Python loop over blocks short.
_BLOCK = 256


@dataclass(frozen=True)
class SweepConfig:
    """Linear trap-frequency sweep parameters (all angular frequencies).

    Defaults: sweep from 2 pi x 492 kHz down to 2 pi x 410 kHz at
    2 pi x 10 kHz per ms, with the molecular resonance at 2 pi x 450 kHz
    and the vacuum Rabi coupling ``MolecularConstants.g_q_ground``.
    """

    omega_start: float = _TWO_PI * 492e3
    omega_end: float = _TWO_PI * 410e3
    ramp_rate: float = _TWO_PI * 10e3 / 1e-3
    omega_mol: float = _TWO_PI * 450e3
    g_q: float = MolecularConstants.g_q_ground

    def __post_init__(self) -> None:
        if not self.ramp_rate > 0.0:
            raise ValueError(f"ramp_rate must be positive, got {self.ramp_rate!r}")
        if self.omega_start == self.omega_end:
            raise ValueError("omega_start and omega_end must differ")
        _check_at_least("g_q", self.g_q, 0)

    @property
    def duration(self) -> float:
        return abs(self.omega_end - self.omega_start) / self.ramp_rate

    @property
    def direction(self) -> float:
        return 1.0 if self.omega_end > self.omega_start else -1.0

    def omega_q(self, t: float) -> float:
        """Instantaneous trap frequency at time t into the sweep."""
        return self.omega_start + self.direction * self.ramp_rate * t


def jc_coupling_matrix(omega_q: float, cfg: SweepConfig) -> np.ndarray:
    """2x2 Hamiltonian (rad/s) in the {|f,0>, |e,1>} basis at fixed omega_q."""
    delta = cfg.omega_mol - omega_q
    return np.array(
        [[0.5 * delta, 0.5 * cfg.g_q], [0.5 * cfg.g_q, -0.5 * delta]]
    )


def _su2_product(x, y):
    """x @ y for SU(2) matrices held as their first columns (a, b).

    A matrix of SU(2) is [[a, -conj(b)], [b, conj(a)]], so its first column
    fixes it and a product needs four complex multiplications.
    """
    xa, xb = x
    ya, yb = y
    return xa * ya - np.conj(xb) * yb, xb * ya + np.conj(xa) * yb


def _propagate(
    cfg: SweepConfig, omega_mol: np.ndarray, g_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-frame sweep propagator on a grid of (omega_mol, g_q) points.

    Exponential midpoint rule: over each step the Hamiltonian
    H = hz sigma_z + hx sigma_x is frozen at the step midpoint, and
    exp(-i H dt) = cos(r dt) I - i sin(r dt) / r (hz sigma_z + hx sigma_x)
    with r = hypot(hz, hx).  Steps are combined by a tree product in blocks
    of ``_BLOCK``, each block multiplying into the running total, so the
    scratch arrays stay at ``_BLOCK`` times the grid size.  Returns the
    propagator's first column, the final amplitudes of |f, 0> and |e, 1>.
    """
    omega_mol, g_q = np.broadcast_arrays(omega_mol, g_q)
    n_steps = max(1, math.ceil(cfg.duration / DEFAULT_TIME_STEP))
    dt = cfg.duration / n_steps
    slope = cfg.direction * cfg.ramp_rate
    d0 = omega_mol - cfg.omega_start
    hx = 0.5 * g_q
    total = (np.ones(d0.shape, complex), np.zeros(d0.shape, complex))
    for first in range(0, n_steps, _BLOCK):
        t_mid = (np.arange(first, min(first + _BLOCK, n_steps)) + 0.5) * dt
        hz = 0.5 * (d0 - slope * t_mid.reshape((-1,) + (1,) * d0.ndim))
        r_dt = np.hypot(hz, hx) * dt
        sin_over_r = dt * np.sinc(r_dt / math.pi)  # finite at r = 0
        a, b = np.cos(r_dt) - 1j * sin_over_r * hz, -1j * sin_over_r * hx
        # Pair neighbours, the later step on the left, until one is left.
        while len(a) > 1:
            even = len(a) - len(a) % 2
            pair = _su2_product((a[1:even:2], b[1:even:2]), (a[:even:2], b[:even:2]))
            a, b = (np.concatenate((p, rest[even:])) for p, rest in zip(pair, (a, b)))
        total = _su2_product((a[0], b[0]), total)
    drift = float(np.max(np.abs(np.abs(total[0]) ** 2 + np.abs(total[1]) ** 2 - 1.0)))
    if not drift <= 1e-6:  # also catches NaN
        raise IntegrationError(
            f"norm drifted by {drift:.3g} during the sweep", last_time=cfg.duration
        )
    return total


def evolve_sweep(cfg: SweepConfig) -> float:
    """Transfer probability |<e,1|psi(end)>|^2 of the swept crossing."""
    return float(abs(_propagate(cfg, np.asarray(cfg.omega_mol), np.asarray(cfg.g_q))[1]) ** 2)


def landau_zener_oracle(g_q: float, ramp_rate: float) -> float:
    """Analytic transfer probability 1 - exp(-2 pi (g_q/2)^2 / ramp_rate)."""
    _check_at_least("g_q", g_q, 0)
    if not ramp_rate > 0.0:
        raise ValueError(f"ramp_rate must be positive, got {ramp_rate!r}")
    return -math.expm1(-_TWO_PI * (0.5 * g_q) ** 2 / ramp_rate)


@dataclass(frozen=True)
class TransferWindowMap:
    """Transfer probabilities over an omega_mol grid at the configured coupling.

    ``transfer[i]`` is the probability at ``omega_mol_values[i]``.
    ``window`` is the omega_mol interval from the first to the last grid
    point with transfer above the threshold, or None when none clears it.
    """

    omega_mol_values: np.ndarray
    g_q: float
    transfer: np.ndarray
    threshold: float
    window: tuple[float, float] | None


def transfer_window_map(
    cfg: SweepConfig, omega_mol_values: Sequence[float], *, threshold: float = 0.99
) -> TransferWindowMap:
    """Evaluate the sweep over a grid and report the high-fidelity window.

    ``omega_mol_values`` are angular frequencies; the coupling is ``cfg.g_q``.
    """
    wm = np.asarray(list(omega_mol_values), dtype=float)
    if wm.size == 0:
        raise ValueError("the omega_mol grid must be nonempty")
    _check_probability("threshold", threshold)
    _, amp_e = _propagate(cfg, wm, np.asarray(cfg.g_q))
    transfer = np.abs(amp_e) ** 2
    above = np.nonzero(transfer > threshold)[0]
    window = None
    if above.size:
        window = (float(wm[above[0]]), float(wm[above[-1]]))
    return TransferWindowMap(
        omega_mol_values=wm, g_q=cfg.g_q, transfer=transfer, threshold=threshold,
        window=window,
    )


def offres_carrier_excitation(
    rabi: float, detuning: float, pulse: float, carrier_noise: float
) -> float:
    """Worst-case off-resonant excitation of a strong detuned drive.

    Maximizes the two-level excitation Omega^2 / (Omega^2 + Delta^2) *
    sin^2(sqrt(Omega^2 + Delta^2) t / 2) over pulse times up to ``pulse``
    and over carrier offsets within +-``carrier_noise`` of the nominal
    detuning.  All frequencies are angular.
    """
    if not abs(detuning) > 0.0:
        raise ValueError(f"detuning must be a nonzero number, got {detuning!r}")
    _check_nonnegative("rabi", rabi)
    _check_nonnegative("carrier_noise", carrier_noise)
    if not pulse > 0.0:
        raise ValueError(f"pulse must be positive, got {pulse!r}")
    if rabi == 0.0:
        return 0.0
    best = 0.0
    for offset in np.linspace(-carrier_noise, carrier_noise, 181):
        delta = detuning + offset
        general_rabi = math.hypot(rabi, delta)
        envelope = math.sin(min(0.5 * general_rabi * pulse, 0.5 * math.pi)) ** 2
        best = max(best, (rabi / general_rabi) ** 2 * envelope)
    return best
