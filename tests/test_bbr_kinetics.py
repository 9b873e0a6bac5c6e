"""Radiative kinetics: calibration, rate matrix, and derived timescales.

Lifetime anchors were computed independently (direct eigen-decomposition of
the ground-level survival problem and closed-form two-level checks) before
being frozen here.  The module propagates populations with its own numpy
matrix exponential; scipy.linalg.expm and the adaptive DOP853 solves it
replaced stay here as oracles.  The per-pair generator loop and the
full-horizon propagation the array build and the early-stopping
rethermalization replaced are in ``oracles`` and must agree bit for bit, and so must the
nested-loop Einstein pair table that the channel table replaced.
"""

import math
from functools import lru_cache

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import constants as sc
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dpqlsim import bbr_kinetics
from dpqlsim.bbr_kinetics import (
    VIB_DECAY_TARGET,
    IntegrationError,
    build_einstein_coefficients,
    build_rate_matrix,
    evolve_populations,
    ground_state_residence_lifetime,
    leave_probability_per_cycle,
    photon_occupation,
    radiative_levels,
    restricted_boltzmann,
    rethermalization_time,
)
from dpqlsim.spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    degeneracy,
    enumerate_levels,
    level_code,
    level_energy,
    most_probable_rotational_state,
    thermal_population,
)

CONSTANTS = MolecularConstants()

# Independently computed anchors (restricted to the radiative level set).
TAU_300 = 3.9769926619636493
MU_VIB_DEBYE = 0.2502961387959916
TAU_SWEEP = {200.0: 18.901, 300.0: 3.977, 400.0: 1.753, 500.0: 1.038, 600.0: 0.713}
PG_RESTRICTED_300 = 0.006089281901039157
DEBYE = 1e-21 / sc.c

# Oracle settings: a tight adaptive DOP853 solve of the master equation.
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-15
RETHERM_DURATION, RETHERM_SNAPSHOTS = 600.0, 601

NON_FINITE = [math.nan, math.inf, -math.inf]
# Temperatures at which the array-built generator must equal the per-pair
# loop bit for bit.
BIT_GRID = [0.0, 1.0, 4.0, 10.0, 50.0, *np.arange(100.0, 601.0, 5.0).tolist(), 1e4]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def point_mass(state, c=CONSTANTS):
    """Unit population on one level, a vector over the radiative codes."""
    p0 = np.zeros(len(radiative_levels(c)))
    p0[level_code(state, c)] = 1.0
    return p0


def dop853_populations(gen, p0, times):
    """Populations at ``times`` from an adaptive solve of dp/dt = gen p."""
    sol = solve_ivp(
        lambda t, p: gen @ p, (times[0], times[-1]), p0, method="DOP853",
        t_eval=times, rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
    )
    assert sol.success, sol.message
    return sol.y


@lru_cache(maxsize=None)
def rethermalization_oracle(T):
    """DOP853 populations from the argmax level on the rethermalization grid."""
    m = build_rate_matrix(CONSTANTS, T)
    p0 = point_mass(most_probable_rotational_state(CONSTANTS, T))
    times = np.linspace(0.0, RETHERM_DURATION, RETHERM_SNAPSHOTS)
    return times, dop853_populations(m.generator, p0, times)


class TestPlanck:
    def test_occupation_limits(self):
        with pytest.raises(ValueError):
            photon_occupation(0.0, 300.0)
        with pytest.raises(ValueError):
            photon_occupation(1e12, -1.0)
        assert photon_occupation(1e12, 0.0) == 0.0
        # Deep Wien tail: expm1 must not overflow, the occupation underflows.
        assert photon_occupation(1e16, 300.0) == 0.0
        # Low-frequency classical limit n_bar -> kT / h nu.
        nu, T = 11e9, 300.0
        assert photon_occupation(nu, T) == pytest.approx(sc.k * T / (sc.h * nu) - 0.5, rel=1e-3)

    @pytest.mark.parametrize("T", NON_FINITE)
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            photon_occupation(1e12, T)

    @pytest.mark.parametrize("T", [1e-302, 5e-324, np.float64(1e-302), np.float64(5e-324)])
    def test_underflowing_thermal_energy_reads_as_zero_temperature(self, T):
        # Below ~3.6e-301 K, k_B T underflows to 0.0: a Python float would
        # divide by zero, a numpy one warn.  Just above, the occupation is 0.0 too.
        assert photon_occupation(1e12, T) == 0.0
        assert photon_occupation(1e12, 1e-300) == 0.0


class TestEinsteinCoefficients:
    def test_radiative_set_is_upper_manifold(self):
        levels = radiative_levels(CONSTANTS)
        assert len(levels) == 140
        assert all(s.two_omega == 3 for s in levels)

    @pytest.mark.parametrize(
        "c", [CONSTANTS, MolecularConstants(v_max=2, J_count=5)],
        ids=["default", "v_max=2,J_count=5"],
    )
    def test_radiative_levels_are_the_first_codes(self, c):
        levels = enumerate_levels(c)
        radiative = radiative_levels(c)
        assert radiative == levels[: (c.v_max + 1) * c.J_count]
        assert radiative == [s for s in levels if s.two_omega == 3]
        assert [level_code(s, c) for s in levels] == list(range(len(levels)))
        assert len(build_rate_matrix(c, 300.0).generator) == len(radiative)
        assert restricted_boltzmann(c, 300.0).shape == (len(radiative),)
        co = build_einstein_coefficients(c)
        assert max(co.upper.max(), co.lower.max()) == len(radiative) - 1
        # Pair order: the v = 0 rotational lines (n -> n - 1) come first.
        assert co.upper[: c.J_count - 1].tolist() == list(range(1, c.J_count))
        assert co.lower[: c.J_count - 1].tolist() == list(range(c.J_count - 1))

    def test_calibration_anchor_exact(self):
        co = build_einstein_coefficients(CONSTANTS)
        total = co.total_decay_rate(RoVibState(1, 3, 3))
        assert total == pytest.approx(VIB_DECAY_TARGET, rel=1e-12)

    def test_vibrational_dipole_value(self):
        co = build_einstein_coefficients(CONSTANTS)
        assert co.mu_vib / DEBYE == pytest.approx(MU_VIB_DEBYE, rel=2e-6)
        assert co.mu_rot == pytest.approx(10.0 * co.mu_vib, rel=1e-12)

    def test_channel_structure(self):
        co = build_einstein_coefficients(CONSTANTS)
        levels = radiative_levels(CONSTANTS)
        pairs = [(levels[u], levels[l]) for u, l in zip(co.upper.tolist(), co.lower.tolist())]
        # (v=1, n=0) decays via Q and R-type branches only: two channels.
        channels = [pair for pair in pairs if pair[0] == RoVibState(1, 3, 3)]
        lowers = sorted(p[1].two_J for p in channels)
        assert lowers == [3, 5]
        assert all(p[1].v == 0 for p in channels)
        # Pure rotational decay of (v=0, J=5/2) has exactly one channel.
        rot = [pair for pair in pairs if pair[0] == RoVibState(0, 3, 5)]
        assert rot == [(RoVibState(0, 3, 5), RoVibState(0, 3, 3))]

    def test_frequencies_match_energy_gaps(self):
        co = build_einstein_coefficients(CONSTANTS)
        levels = radiative_levels(CONSTANTS)
        for u, l, nu in zip(co.upper[:50], co.lower[:50], co.frequencies[:50].tolist()):
            gap_cm = level_energy(levels[u], CONSTANTS) - level_energy(levels[l], CONSTANTS)
            assert nu == pytest.approx(gap_cm * sc.c * 100.0, rel=1e-12)
            assert nu > 0.0


def random_constants(seed):
    """Constants drawn log-uniformly around the defaults, any truncation."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform([0.0, -3.0, -3.0, -2.0], [4.0, 1.5, 3.0, 3.0])
    return MolecularConstants(
        omega_e=float(scales[0]), B_e=float(scales[1]), mu_vib_scale=float(scales[2]),
        mu_rot_scale=float(scales[3]), J_count=int(rng.integers(1, 90)),
        v_max=int(rng.integers(0, 4)),
    )


# Every small truncation, seeded random sets (some refused), and the refusals:
# overflowing dipole, negative or vanishing gaps, infinite frequencies, and an
# overflowing calibration with no pairs at all.
TABLE_GRID = {
    **{f"J_count={j},v_max={v}": MolecularConstants(J_count=j, v_max=v)
       for j in (1, 2, 3, 70) for v in (0, 1, 3)},
    **{f"random{seed}": random_constants(seed) for seed in range(40)},
    **{",".join(f"{k}={x:g}" for k, x in kw.items()): MolecularConstants(**kw) for kw in (
        dict(mu_vib_scale=1e200), dict(omega_e=1e-300), dict(B_e=1e-300), dict(omega_e=1e300),
        dict(B_e=1e3), dict(J_count=1, v_max=0, omega_e=1e103),
    )},
}


def table_rows(co):
    return sorted(zip(co.upper.tolist(), co.lower.tolist(), co.A.tolist(),
                      co.frequencies.tolist()))


class TestEinsteinTableAgainstLoopOracle:
    @pytest.mark.parametrize("c", TABLE_GRID.values(), ids=TABLE_GRID.keys())
    def test_bit_identical_or_same_refusal(self, c, monkeypatch):
        try:
            oracle = oracles.einstein_table(c)
        except ValueError as err:
            with pytest.raises(ValueError) as info:
                build_einstein_coefficients(c)
            assert str(info.value) == str(err)
            return
        co = build_einstein_coefficients(c)
        assert table_rows(co) == table_rows(oracle)
        assert same_bits([co.mu_vib, co.mu_rot], [oracle.mu_vib, oracle.mu_rot])
        for level in radiative_levels(c):
            assert same_bits(co.total_decay_rate(level), oracle.total_decay_rate(level)), level
        for T in (0.0, 300.0):
            gen = build_rate_matrix(c, T).generator
            with monkeypatch.context() as m:
                m.setattr(bbr_kinetics, "build_einstein_coefficients", lambda _: oracle)
                assert same_bits(gen, build_rate_matrix(c, T).generator), T

    def test_pairs_run_by_upper_level_in_channel_order(self):
        # Codes v * 3 + n.  Each level lists its rotational line, then the
        # band's Q, n + 1 and n - 1 lines, wherever the lower level exists.
        co = build_einstein_coefficients(MolecularConstants(v_max=1, J_count=3))
        assert list(zip(co.upper.tolist(), co.lower.tolist())) == [
            (1, 0), (2, 1), (3, 0), (3, 1), (4, 3), (4, 1), (4, 2), (4, 0), (5, 4), (5, 2), (5, 1),
        ]


class TestRateMatrix:
    def test_columns_conserve_probability(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        assert np.abs(m.generator.sum(axis=0)).max() < 1e-12

    def test_off_diagonal_nonnegative(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        off = m.generator - np.diag(np.diag(m.generator))
        assert off.min() >= 0.0

    def test_detailed_balance(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        flux = m.generator @ restricted_boltzmann(CONSTANTS, 300.0)
        assert np.abs(flux).max() / np.abs(m.generator).max() < 1e-12

    def test_zero_temperature_pure_decay(self):
        m = build_rate_matrix(CONSTANTS, 0.0)
        g = level_code(ROT_GROUND, CONSTANTS)
        # Nothing pumps out of the lowest level without photons.
        col = m.generator[:, g].copy()
        col[g] = 0.0
        assert np.all(col == 0.0)

    def test_population_of_unknown_state(self):
        traj = evolve_populations(build_rate_matrix(CONSTANTS, 300.0), point_mass(ROT_GROUND), 0.0)
        with pytest.raises(ValueError, match="not in the radiative level set"):
            traj.population_of(RoVibState(0, 1, 1))
        with pytest.raises(ValueError, match="exceeds the truncation"):
            traj.population_of(RoVibState(2, 3, 3))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            build_rate_matrix(CONSTANTS, -1.0)

    @pytest.mark.parametrize("T", NON_FINITE)
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            build_rate_matrix(CONSTANTS, T)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entry_rejected(self, bad):
        m = build_rate_matrix(CONSTANTS, 300.0)
        gen = m.generator.copy()
        gen[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            bbr_kinetics.RateMatrix(gen, m.constants, 300.0)

    @pytest.mark.parametrize(
        "c",
        [CONSTANTS, MolecularConstants(mu_vib_scale=1.7), MolecularConstants(mu_rot_scale=3.0),
         MolecularConstants(v_max=2, J_count=5)],
        ids=["default", "mu_vib_scale", "mu_rot_scale", "v_max=2,J_count=5"],
    )
    def test_array_build_matches_pair_loop_bit_for_bit(self, c):
        for T in BIT_GRID:
            assert same_bits(build_rate_matrix(c, T).generator, oracles.rate_generator(c, T)), T


def as_generator(rates):
    """Keep the off-diagonal rates; each diagonal entry balances its column."""
    off = rates - np.diag(np.diag(rates))
    return off - np.diag(off.sum(axis=0))


def generators(max_levels=6):
    """Small master-equation generators with rates in [0, 50]."""
    return st.integers(1, max_levels).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(0.0, 50.0))
    ).map(as_generator)


class TestMatrixExponential:
    # bbr_kinetics._expm replaced scipy.linalg.expm, which stays the oracle.
    @pytest.mark.parametrize("T", [0.0, 200.0, 300.0, 600.0])
    @pytest.mark.parametrize("dt", [1.0, 3.0])
    def test_matches_scipy_on_the_rate_matrix(self, T, dt):
        # dt = 1 s is the rethermalization grid, 3 s the default 201-point
        # grid over 600 s.
        gen = build_rate_matrix(CONSTANTS, T).generator * dt
        assert np.abs(bbr_kinetics._expm(gen) - expm(gen)).max() <= 1e-13

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(generators())
    def test_matches_scipy_on_small_generators(self, gen):
        step = bbr_kinetics._expm(gen)
        assert np.abs(step - expm(gen)).max() <= 1e-13
        # A stochastic matrix: columns keep their sum of one.
        assert np.abs(step.sum(axis=0) - 1.0).max() <= 1e-13

    def test_zero_matrix_gives_the_identity_exactly(self):
        for n in (1, 5, 140):
            np.testing.assert_array_equal(bbr_kinetics._expm(np.zeros((n, n))), np.eye(n))
        gen = build_rate_matrix(CONSTANTS, 300.0).generator
        np.testing.assert_array_equal(bbr_kinetics._expm(gen * 0.0), np.eye(len(gen)))

    def test_rethermalization_matches_the_scipy_path(self, monkeypatch):
        new = {T: rethermalization_time(CONSTANTS, T) for T in range(200, 601, 50)}
        monkeypatch.setattr(bbr_kinetics, "_expm", expm)
        for T, t63 in new.items():
            assert t63 == pytest.approx(rethermalization_time(CONSTANTS, T), rel=1e-12)


class TestEvolvePopulations:
    def test_stationary_state_is_fixed(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        statn = restricted_boltzmann(CONSTANTS, 300.0)
        traj = evolve_populations(m, statn, 1000.0, snapshots=11)
        dev = np.abs(traj.populations - traj.populations[:, :1]).max()
        assert dev < 1e-6

    def test_snapshots_normalized(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        init = point_mass(ROT_GROUND)
        traj = evolve_populations(m, init, 10.0, snapshots=21)
        assert np.abs(traj.populations.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(traj.norm_drift).max() < 1e-8
        assert traj.populations.min() >= 0.0

    def test_zero_duration_returns_initial(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        init = point_mass(ROT_GROUND)
        traj = evolve_populations(m, init, 0.0, snapshots=5)
        assert traj.population_of(ROT_GROUND)[-1] == 1.0

    def test_relaxes_toward_thermal(self):
        # Slowest generator mode is vibrational with tau ~ 440 s, so allow
        # several of those before comparing pointwise.
        m = build_rate_matrix(CONSTANTS, 300.0)
        init = point_mass(ROT_GROUND)
        traj = evolve_populations(m, init, 1500.0, snapshots=11)
        expected = restricted_boltzmann(CONSTANTS, 300.0)
        assert np.abs(traj.populations[:, -1] - expected).max() < 2e-3

    def test_initial_vector_checked(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        # One entry per level of the whole set, Omega = 1/2 included: wrong shape.
        full = np.zeros(len(enumerate_levels(CONSTANTS)))
        full[0] = 1.0
        with pytest.raises(ValueError, match=r"p0 has shape \(280,\), expected \(140,\)"):
            evolve_populations(m, full, 1.0)
        with pytest.raises(ValueError, match="shape"):
            evolve_populations(m, point_mass(ROT_GROUND)[None, :], 1.0)
        for bad in (-1e-3, math.nan):
            p0 = point_mass(ROT_GROUND)
            p0[1] = bad
            with pytest.raises(ValueError, match="non-negative"):
                evolve_populations(m, p0, 1.0)
        for scale in (0.5, 1.0 + 2e-9):
            with pytest.raises(ValueError, match="expected 1 within 1e-9"):
                evolve_populations(m, scale * point_mass(ROT_GROUND), 1.0)
        # Within the tolerance, a list, and ints pass.
        traj = evolve_populations(m, (1.0 + 5e-10) * point_mass(ROT_GROUND), 0.0, snapshots=2)
        assert traj.population_of(ROT_GROUND).tolist() == [1.0, 1.0]
        ints = point_mass(ROT_GROUND).astype(int)
        for p0 in (ints, ints.tolist()):
            traj = evolve_populations(m, p0, 0.0, snapshots=2)
            assert traj.population_of(ROT_GROUND).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("snapshots", [0, -1])
    def test_no_snapshot_rejected(self, snapshots):
        m = build_rate_matrix(CONSTANTS, 300.0)
        with pytest.raises(ValueError, match=f"snapshots must be >= 1, got {snapshots}"):
            evolve_populations(m, point_mass(ROT_GROUND), 1.0, snapshots=snapshots)

    @pytest.mark.parametrize(
        "name, value",
        [("duration", math.nan), ("duration", math.inf), ("tol", math.nan), ("tol", -1e-8)],
    )
    def test_non_finite_duration_or_bad_tol_rejected(self, name, value):
        m = build_rate_matrix(CONSTANTS, 300.0)
        kwargs = {"duration": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            evolve_populations(m, point_mass(ROT_GROUND), **kwargs)

    def test_nan_population_trips_the_norm_check(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        p = point_mass(ROT_GROUND)
        p[0] = math.nan
        blocks = bbr_kinetics._checked_blocks(m, p, np.zeros(2), 1.0, 1e-8, 2)
        with pytest.raises(IntegrationError, match="normalization drifted by nan"):
            next(blocks)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_impossible_tolerance_raises(self):
        m = build_rate_matrix(CONSTANTS, 300.0)
        init = point_mass(ROT_GROUND)
        with pytest.raises((IntegrationError, ValueError)):
            evolve_populations(m, init, 10.0, tol=1e-60)

    def test_zero_temperature_cascade(self):
        # At T = 0 only spontaneous decay acts: no detailed balance, and the
        # rotational ground level only fills.
        m = build_rate_matrix(CONSTANTS, 0.0)
        traj = evolve_populations(m, point_mass(RoVibState(1, 3, 11)), 100.0, snapshots=51)
        ground = traj.population_of(ROT_GROUND)
        assert ground[0] == 0.0 and np.all(np.diff(ground) >= 0.0) and ground[-1] > 0.0
        assert np.abs(traj.norm_drift).max() < 1e-12
        expected = dop853_populations(m.generator, point_mass(RoVibState(1, 3, 11)), traj.times)
        assert np.abs(traj.populations - expected).max() <= 1e-9

    def test_matches_full_propagation_bit_for_bit(self):
        # The demo's run: J = 11/2 at 300 K over 200 s in 401 snapshots.
        m = build_rate_matrix(CONSTANTS, 300.0)
        p0 = point_mass(RoVibState(0, 3, 11))
        traj = evolve_populations(m, p0, 200.0, snapshots=401)
        times, pops, drift = oracles.evolve_populations(m.generator, p0, 200.0, 401)
        assert same_bits(traj.times, times)
        assert same_bits(traj.populations, pops)
        assert same_bits(traj.norm_drift, drift)

    @pytest.mark.parametrize("T", [300.0, 450.0, 500.0])
    def test_matches_dop853_oracle(self, T):
        m = build_rate_matrix(CONSTANTS, T)
        start = point_mass(most_probable_rotational_state(CONSTANTS, T))
        traj = evolve_populations(
            m, start, RETHERM_DURATION, snapshots=RETHERM_SNAPSHOTS
        )
        times, expected = rethermalization_oracle(T)
        np.testing.assert_array_equal(traj.times, times)
        assert np.abs(traj.populations - expected).max() <= 1e-9


class TestResidenceLifetime:
    def test_room_temperature_anchor(self):
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        assert tau == pytest.approx(TAU_300, rel=1e-9)

    def test_first_departure_is_nearly_exponential(self):
        # Without return paths the survival is a pure multi-channel
        # exponential, so the fitted rate equals the total outflow rate.
        m = build_rate_matrix(CONSTANTS, 300.0)
        g = level_code(ROT_GROUND, CONSTANTS)
        gamma = -m.generator[g, g]
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        assert tau == pytest.approx(1.0 / gamma, rel=1e-6)

    def test_inflow_stripped_survival_oracle(self):
        # The definition the closed form replaces: evolve with the return
        # paths into the ground level removed and watch its population.
        m = build_rate_matrix(CONSTANTS, 300.0)
        g = level_code(ROT_GROUND, CONSTANTS)
        gen = m.generator.copy()
        gen[g, :] = 0.0
        gen[g, g] = m.generator[g, g]
        p0 = np.zeros(len(m.generator))
        p0[g] = 1.0
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        times = np.linspace(0.0, 5.0 * tau, 161)
        survival = dop853_populations(gen, p0, times)[g]
        assert np.abs(survival - np.exp(-times / tau)).max() <= 1e-9

    @pytest.mark.parametrize("T", NON_FINITE)
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            ground_state_residence_lifetime(CONSTANTS, T)

    @pytest.mark.parametrize("T", [0.0, 1e-3, 1e-302, np.float64(1e-302)])
    def test_no_departure_channels_names_the_temperature(self, T):
        # Without photons the lowest level is neither pumped nor able to decay.
        with pytest.raises(ValueError, match=f"no departure channels at T = {T:g} K$"):
            ground_state_residence_lifetime(CONSTANTS, T)

    def test_temperature_sweep(self):
        temperatures = sorted(TAU_SWEEP)
        taus = [ground_state_residence_lifetime(CONSTANTS, T) for T in temperatures]
        assert taus == pytest.approx([TAU_SWEEP[T] for T in temperatures], rel=1e-3)
        assert taus == sorted(taus, reverse=True)


class TestRethermalization:
    def test_room_temperature_timescale(self):
        t63 = rethermalization_time(CONSTANTS, 300.0)
        assert t63 == pytest.approx(141.77, rel=1e-3)
        assert 100.0 < t63 < 300.0

    @pytest.mark.parametrize("T", [450.0, 500.0])
    def test_hot_field_matches_dop853_oracle(self, T):
        # Same 1 s grid and linear interpolation as rethermalization_time,
        # applied to the oracle's ground population.
        t63 = rethermalization_time(CONSTANTS, T)
        assert math.isfinite(t63)
        times, pops = rethermalization_oracle(T)
        g = level_code(ROT_GROUND, CONSTANTS)
        pg = pops[g]
        target = 0.63 * restricted_boltzmann(CONSTANTS, T)[g]
        k = int(np.nonzero(pg >= target)[0][0])
        expected = times[k - 1] + (target - pg[k - 1]) / (pg[k] - pg[k - 1]) * (
            times[k] - times[k - 1]
        )
        assert t63 == pytest.approx(expected, rel=1e-6)

    def test_low_J_start_overshoots_thermal(self):
        # Cascading down from J=11/2 parks excess population in the ground
        # level before the slow vibrational ladder re-equilibrates it.
        m = build_rate_matrix(CONSTANTS, 300.0)
        traj = evolve_populations(m, point_mass(RoVibState(0, 3, 11)), 200.0, snapshots=401)
        peak = traj.population_of(ROT_GROUND).max()
        assert peak == pytest.approx(0.04176, rel=1e-3)
        assert peak > 5.0 * PG_RESTRICTED_300

    def test_restricted_thermal_ground_population(self):
        pg = restricted_boltzmann(CONSTANTS, 300.0)[level_code(ROT_GROUND, CONSTANTS)]
        assert pg == pytest.approx(PG_RESTRICTED_300, rel=1e-9)

    @pytest.mark.parametrize("T", [0.0, *NON_FINITE])
    def test_restricted_boltzmann_needs_finite_positive_temperature(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
            restricted_boltzmann(CONSTANTS, T)

    @pytest.mark.parametrize("T", NON_FINITE)
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number"):
            rethermalization_time(CONSTANTS, T)

    def test_early_stop_matches_full_horizon_bit_for_bit(self):
        for T in range(190, 601, 25):
            t63 = rethermalization_time(CONSTANTS, float(T))
            assert same_bits(t63, oracles.rethermalization_time(CONSTANTS, float(T))), T

    @pytest.mark.parametrize("T", [150.0, 175.0])
    def test_no_crossing_within_horizon(self, T):
        with pytest.raises(ValueError, match=r"did not reach .* within 600 s"):
            rethermalization_time(CONSTANTS, T)

    def test_norm_leak_before_the_crossing_raises(self, monkeypatch):
        # Losing 2e-10 of the norm per 1 s step breaks the 1e-8 tolerance
        # after 50 steps, in the first block and long before the crossing.
        exact = bbr_kinetics._expm
        monkeypatch.setattr(bbr_kinetics, "_expm", lambda a: (1.0 - 2e-10) * exact(a))
        with pytest.raises(IntegrationError, match="normalization drifted") as info:
            rethermalization_time(CONSTANTS, 300.0)
        assert 50.0 <= info.value.last_time < 141.77

    def test_norm_leak_after_the_crossing_is_not_seen(self, monkeypatch):
        # Snapshots after the crossing block are never computed, so a leak
        # that breaks the tolerance only at 500 s no longer raises.
        t63 = rethermalization_time(CONSTANTS, 300.0)
        exact = bbr_kinetics._expm
        monkeypatch.setattr(bbr_kinetics, "_expm", lambda a: (1.0 - 2e-11) * exact(a))
        assert rethermalization_time(CONSTANTS, 300.0) == pytest.approx(t63, rel=1e-9)


class TestLeaveProbability:
    def test_radiative_only_matches_lifetime(self):
        p = leave_probability_per_cycle(CONSTANTS, 300.0, 0.040)
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        assert p == pytest.approx(-math.expm1(-0.040 / tau), rel=1e-12)
        assert p == pytest.approx(0.010007440061260439, rel=1e-9)

    def test_collisions_add_departure_channel(self):
        p = leave_probability_per_cycle(CONSTANTS, 300.0, 0.040, collision_rate=0.008)
        assert p == pytest.approx(0.010322901436444635, rel=1e-9)
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        pg = thermal_population(ROT_GROUND, CONSTANTS, 300.0)
        gamma = 1.0 / tau + 0.008 * (1.0 - pg)
        assert p == pytest.approx(-math.expm1(-gamma * 0.040), rel=1e-12)

    def test_hotter_field_leaves_faster(self):
        p300 = leave_probability_per_cycle(CONSTANTS, 300.0, 0.040, collision_rate=0.008)
        p450 = leave_probability_per_cycle(CONSTANTS, 450.0, 0.040, collision_rate=0.008)
        assert p450 == pytest.approx(0.03025002198900763, rel=1e-9)
        assert p450 > 2.5 * p300

    @pytest.mark.parametrize("T", NON_FINITE)
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            leave_probability_per_cycle(CONSTANTS, T, 0.04)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_collision_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="collision_rate must be finite and >= 0"):
            leave_probability_per_cycle(CONSTANTS, 300.0, 0.04, collision_rate=rate)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            leave_probability_per_cycle(CONSTANTS, 300.0, 0.0)
        with pytest.raises(ValueError):
            leave_probability_per_cycle(CONSTANTS, 300.0, 0.04, collision_rate=-1.0)
