"""Swept avoided crossing: numerics against the analytic crossing formula."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dpqlsim import sweep_dynamics
from dpqlsim.bbr_kinetics import IntegrationError
from dpqlsim.spectroscopy import MolecularConstants
from dpqlsim.sweep_dynamics import (
    DEFAULT_TIME_STEP,
    SweepConfig,
    _propagate,
    evolve_sweep,
    jc_coupling_matrix,
    landau_zener_oracle,
    offres_carrier_excitation,
    transfer_window_map,
)

TWO_PI = 2.0 * math.pi

# Frozen from an independent run of the interaction-picture integration.
TRANSFER_DEFAULT = 0.9984286498078534
LZ_DEFAULT = 0.9987339488777311
OFFRES_EXAMPLE = 0.047957087287819486

# The CLI window map of the benchmark (41 points) and the acceptance grid
# of criterion 5 (81 points), 410-490 kHz.
MAPS_GRID = TWO_PI * 1e3 * np.linspace(410.0, 490.0, 41)
CRITERION_5_GRID = TWO_PI * 1e3 * np.arange(410.0, 491.0, 1.0)


def dop853_amplitudes(cfg, omega_mol_values, frame="rotating"):
    """Adaptive DOP853 oracle for the final (|f,0>, |e,1>) amplitudes.

    The former production path (``rtol=1e-10``, ``atol=1e-12``), batched
    over ``omega_mol_values``.  ``frame='rotating'`` integrates the
    interaction picture of the diagonal detuning, where only the coupling
    remains, dressed with the accumulated phase theta = integral of delta;
    ``frame='fixed'`` integrates the Schroedinger equation of
    ``jc_coupling_matrix``.  The two differ by the diagonal phase
    exp(+-i theta / 2), so their transfer probabilities agree.
    """
    wm = np.asarray(omega_mol_values, dtype=float)
    m = wm.size
    d0 = wm - cfg.omega_start
    slope = cfg.direction * cfg.ramp_rate
    half_g = 0.5 * cfg.g_q

    def rotating(t, y):
        phase = np.exp(1j * (d0 * t - 0.5 * slope * t * t))
        return np.concatenate(
            (-1j * half_g * phase * y[m:], -1j * half_g * np.conj(phase) * y[:m])
        )

    def fixed(t, y):
        half_delta = 0.5 * (d0 - slope * t)
        return np.concatenate(
            (
                -1j * (half_delta * y[:m] + half_g * y[m:]),
                -1j * (half_g * y[:m] - half_delta * y[m:]),
            )
        )

    rhs = {"rotating": rotating, "fixed": fixed}[frame]
    y0 = np.concatenate((np.ones(m), np.zeros(m))).astype(complex)
    sol = solve_ivp(rhs, (0.0, cfg.duration), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    return sol.y[:m, -1], sol.y[m:, -1]


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.omega_start == pytest.approx(TWO_PI * 492e3)
        assert cfg.omega_end == pytest.approx(TWO_PI * 410e3)
        assert cfg.omega_mol == pytest.approx(TWO_PI * 450e3)
        assert cfg.g_q == pytest.approx(TWO_PI * 2.6e3)
        assert cfg.duration == pytest.approx(8.2e-3)
        assert cfg.direction == -1.0

    def test_default_coupling_is_the_molecular_constant(self):
        # The 2 pi x 2.6 kHz coupling is written once, on MolecularConstants.
        assert SweepConfig().g_q == MolecularConstants().g_q_ground == 2.0 * math.pi * 2.6e3

    def test_omega_q_linear(self):
        cfg = SweepConfig()
        assert cfg.omega_q(0.0) == cfg.omega_start
        assert cfg.omega_q(cfg.duration) == pytest.approx(cfg.omega_end)
        mid = cfg.omega_q(cfg.duration / 2)
        assert mid == pytest.approx(0.5 * (cfg.omega_start + cfg.omega_end))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ramp_rate": 0.0},
            {"omega_end": TWO_PI * 492e3},
            {"g_q": -1.0},
            {"g_q": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestCouplingMatrix:
    def test_structure(self):
        cfg = SweepConfig()
        h = jc_coupling_matrix(TWO_PI * 440e3, cfg)
        delta = cfg.omega_mol - TWO_PI * 440e3
        assert h[0, 0] == pytest.approx(0.5 * delta)
        assert h[1, 1] == pytest.approx(-0.5 * delta)
        assert h[0, 1] == h[1, 0] == pytest.approx(0.5 * cfg.g_q)
        assert np.trace(h) == pytest.approx(0.0)

    def test_eigen_gap(self):
        cfg = SweepConfig()
        h = jc_coupling_matrix(cfg.omega_mol, cfg)  # on resonance
        w = np.linalg.eigvalsh(h)
        assert w[1] - w[0] == pytest.approx(cfg.g_q, rel=1e-12)
        h2 = jc_coupling_matrix(TWO_PI * 440e3, cfg)
        delta = cfg.omega_mol - TWO_PI * 440e3
        w2 = np.linalg.eigvalsh(h2)
        assert w2[1] - w2[0] == pytest.approx(math.hypot(delta, cfg.g_q), rel=1e-12)


class TestEvolveSweep:
    def test_default_transfer(self):
        assert evolve_sweep(SweepConfig()) == pytest.approx(TRANSFER_DEFAULT, rel=1e-6)

    def test_frames_agree(self):
        # The two DOP853 oracles: fixed frame against the rotating one.
        cfg = SweepConfig()
        rot = dop853_amplitudes(cfg, [cfg.omega_mol], "rotating")
        fix = dop853_amplitudes(cfg, [cfg.omega_mol], "fixed")
        assert abs(abs(rot[1][0]) ** 2 - abs(fix[1][0]) ** 2) < 1e-8
        assert abs(evolve_sweep(cfg) - abs(fix[1][0]) ** 2) < 1e-8

    def test_norm_conserved(self):
        cfg = SweepConfig()
        amp_f, amp_e = _propagate(cfg, np.asarray(cfg.omega_mol), np.asarray(cfg.g_q))
        assert abs(abs(amp_f) ** 2 + abs(amp_e) ** 2 - 1.0) < 1e-8

    def test_direction_reversal_symmetric(self):
        cfg = SweepConfig()
        rev = replace(cfg, omega_start=cfg.omega_end, omega_end=cfg.omega_start)
        assert rev.direction == 1.0
        assert abs(evolve_sweep(cfg) - evolve_sweep(rev)) < 1e-6

    def test_matches_crossing_formula_strong_coupling(self):
        cfg = SweepConfig()
        assert landau_zener_oracle(cfg.g_q, cfg.ramp_rate) == pytest.approx(
            LZ_DEFAULT, rel=1e-12
        )
        # Finite sweep range keeps the numerics a little below the
        # asymptotic formula.
        assert abs(evolve_sweep(cfg) - LZ_DEFAULT) < 0.01

    def test_matches_crossing_formula_weak_coupling(self):
        cfg = replace(SweepConfig(), g_q=TWO_PI * 400.0)
        oracle = landau_zener_oracle(cfg.g_q, cfg.ramp_rate)
        assert oracle == pytest.approx(0.14607650235438718, rel=1e-12)
        assert abs(evolve_sweep(cfg) - oracle) < 0.01

    def test_zero_coupling_never_transfers(self):
        assert evolve_sweep(replace(SweepConfig(), g_q=0.0)) == 0.0

    def test_transfer_monotone_in_coupling(self):
        values = [
            evolve_sweep(replace(SweepConfig(), g_q=TWO_PI * khz * 1e3))
            for khz in (0.5, 1.0, 2.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_no_crossing_means_no_transfer(self):
        # Resonance 58 kHz outside the swept interval: only off-resonant
        # dressing remains.
        p = evolve_sweep(replace(SweepConfig(), omega_mol=TWO_PI * 550e3))
        assert p < 0.01

    def test_non_finite_input_trips_norm_check(self):
        with pytest.raises(IntegrationError), np.errstate(invalid="ignore"):
            evolve_sweep(replace(SweepConfig(), omega_mol=math.inf))

    def test_crossing_formula_limits(self):
        assert landau_zener_oracle(0.0, 1e9) == 0.0
        # Slow ramp limit is fully adiabatic.
        assert landau_zener_oracle(TWO_PI * 2.6e3, 1e3) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            landau_zener_oracle(-1.0, 1e9)
        with pytest.raises(ValueError):
            landau_zener_oracle(1.0, 0.0)

    def test_nan_coupling_rejected(self):
        with pytest.raises(ValueError, match="g_q must be >= 0, got nan"):
            landau_zener_oracle(math.nan, 1e9)


class TestTransferWindowMap:
    GRID_KHZ = (410.0, 440.0, 475.0, 485.0)

    def grid(self):
        return [TWO_PI * k * 1e3 for k in self.GRID_KHZ]

    def test_window_on_coarse_grid(self):
        m = transfer_window_map(SweepConfig(), self.grid())
        assert m.window is not None
        lo, hi = m.window
        assert lo == pytest.approx(TWO_PI * 440e3)
        assert hi == pytest.approx(TWO_PI * 475e3)
        assert m.transfer.shape == (4,)
        assert np.all((m.transfer >= 0.0) & (m.transfer <= 1.0))
        assert m.transfer[1] > 0.99 and m.transfer[2] > 0.99
        assert m.transfer[0] < 0.99 and m.transfer[3] < 0.99

    def test_columns_are_angular_frequencies(self):
        m = transfer_window_map(SweepConfig(), self.grid()[:2])
        assert m.omega_mol_values / TWO_PI == pytest.approx([410e3, 440e3])
        assert m.g_q / TWO_PI == pytest.approx(2.6e3)
        assert np.all((m.transfer >= 0.0) & (m.transfer <= 1.0))
        assert m.transfer.shape == (2,)

    def test_no_window_without_coupling(self):
        m = transfer_window_map(replace(SweepConfig(), g_q=0.0), self.grid()[:2])
        assert m.window is None
        assert m.transfer.max() == 0.0

    def test_grid_must_be_nonempty(self):
        with pytest.raises(ValueError):
            transfer_window_map(SweepConfig(), [])

    @pytest.mark.parametrize("threshold", [math.nan, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must lie in"):
            transfer_window_map(SweepConfig(), [TWO_PI * 450e3], threshold=threshold)


class TestPropagator:
    def test_matches_dop853_oracle_on_maps_grid(self):
        _, amp_e = dop853_amplitudes(SweepConfig(), MAPS_GRID)
        m = transfer_window_map(SweepConfig(), MAPS_GRID)
        assert np.max(np.abs(m.transfer - np.abs(amp_e) ** 2)) <= 1e-8

    def test_step_doubling(self, monkeypatch):
        # DEFAULT_TIME_STEP is converged: halving it moves no point of the
        # criterion 5 grid (a superset of MAPS_GRID) by more than 1e-9.
        cfg = SweepConfig()
        coarse = transfer_window_map(cfg, CRITERION_5_GRID).transfer
        monkeypatch.setattr(sweep_dynamics, "DEFAULT_TIME_STEP", 0.5 * DEFAULT_TIME_STEP)
        fine = transfer_window_map(cfg, CRITERION_5_GRID).transfer
        assert np.max(np.abs(coarse - fine)) <= 1e-9

    def test_partial_block_matches_sequential_product(self, monkeypatch):
        # 1000 steps is not a multiple of the block size; the oracle
        # multiplies exp(-i H(t_mid) dt) from scipy one step at a time.
        cfg = SweepConfig()
        monkeypatch.setattr(sweep_dynamics, "DEFAULT_TIME_STEP", cfg.duration / 999.5)
        n = math.ceil(cfg.duration / sweep_dynamics.DEFAULT_TIME_STEP)
        assert n == 1000
        dt = cfg.duration / n
        omega_mol = TWO_PI * 1e3 * np.array([430.0, 450.0, 470.0])
        g_q = TWO_PI * np.array([400.0, 2.6e3])
        amp_f, amp_e = _propagate(cfg, omega_mol[:, None], g_q[None, :])
        for i, wm in enumerate(omega_mol):
            for j, g in enumerate(g_q):
                point = replace(cfg, omega_mol=float(wm), g_q=float(g))
                psi = np.array([1.0, 0.0], dtype=complex)
                for k in range(n):
                    h = jc_coupling_matrix(point.omega_q((k + 0.5) * dt), point)
                    psi = expm(-1j * h * dt) @ psi
                assert abs(amp_f[i, j] - psi[0]) < 1e-12
                assert abs(amp_e[i, j] - psi[1]) < 1e-12

    def test_grid_equals_per_point_sweeps(self):
        cfg = SweepConfig()
        omega_mol = TWO_PI * 1e3 * np.array([420.0, 450.0, 480.0])
        g_q = TWO_PI * np.array([400.0, 1.0e3, 2.6e3])
        transfer = np.abs(_propagate(cfg, omega_mol[:, None], g_q[None, :])[1]) ** 2
        for i, wm in enumerate(omega_mol):
            for j, g in enumerate(g_q):
                single = evolve_sweep(replace(cfg, omega_mol=float(wm), g_q=float(g)))
                assert abs(transfer[i, j] - single) <= 1e-14
        # The window map evolves the same points at the configured coupling.
        m = transfer_window_map(replace(cfg, g_q=float(g_q[1])), omega_mol)
        assert np.array_equal(m.transfer, transfer[:, 1])


class TestOffresCarrier:
    def test_example_operating_point(self):
        p = offres_carrier_excitation(
            TWO_PI * 90e3, TWO_PI * 410e3, 45e-6, TWO_PI * 9e3
        )
        assert p == pytest.approx(OFFRES_EXAMPLE, rel=1e-9)

    def test_zero_drive(self):
        assert offres_carrier_excitation(0.0, TWO_PI * 410e3, 45e-6, 0.0) == 0.0

    def test_far_detuning_suppresses(self):
        near = offres_carrier_excitation(TWO_PI * 90e3, TWO_PI * 410e3, 45e-6, 0.0)
        far = offres_carrier_excitation(TWO_PI * 90e3, TWO_PI * 4100e3, 45e-6, 0.0)
        assert far < near / 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            offres_carrier_excitation(1.0, 0.0, 1e-6, 0.0)
        with pytest.raises(ValueError):
            offres_carrier_excitation(-1.0, 1.0, 1e-6, 0.0)
        with pytest.raises(ValueError):
            offres_carrier_excitation(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["rabi", "detuning", "carrier_noise"])
    def test_nan_argument_rejected(self, name):
        kwargs = {"rabi": TWO_PI * 90e3, "detuning": TWO_PI * 410e3, "pulse": 45e-6,
                  "carrier_noise": TWO_PI * 9e3, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            offres_carrier_excitation(**kwargs)
