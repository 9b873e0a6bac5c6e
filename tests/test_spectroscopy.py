"""Level structure, partition function, and thermal population tests.

Frozen reference numbers come from an independent script that builds the
doublet ladder directly from the spectroscopic constants and sums the
Boltzmann weights with no shared code.
"""

import inspect
import math

import numpy as np
import oracles
import pytest

from dpqlsim.dataio import config_from_mapping, config_to_mapping
from dpqlsim.spectroscopy import (
    KB_CM,
    PARITY_DOUBLET,
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    degeneracy,
    enumerate_levels,
    level_code,
    level_energy,
    manifold_population,
    most_probable_rotational_state,
    partition_function,
    thermal_distribution,
    thermal_population,
)

C = MolecularConstants()

# Independent-oracle anchors (Boltzmann sums over the explicit ladder).
Z_300 = 1970.7895
Z_450 = 3380.9193
PG_300 = 0.0040593
PG_450 = 0.0023662


class TestRoVibState:
    def test_ground_identity(self):
        assert ROT_GROUND == RoVibState(v=0, two_omega=3, two_J=3)
        assert ROT_GROUND.J == 1.5
        assert ROT_GROUND.omega == 1.5
        assert ROT_GROUND.rotational_quanta == 0
        assert ROT_GROUND.label() == "v0.O3.J3"
        assert RoVibState(0, 3, 35).label() == "v0.O3.J35"

    def test_rotational_quanta_counts_above_manifold_floor(self):
        assert RoVibState(0, 3, 9).rotational_quanta == 3
        assert RoVibState(0, 1, 9).rotational_quanta == 4

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            RoVibState(v=-1, two_omega=3, two_J=3)
        with pytest.raises(ValueError):
            RoVibState(v=0, two_omega=5, two_J=5)
        with pytest.raises(ValueError):
            RoVibState(v=0, two_omega=3, two_J=4)  # even two_J
        with pytest.raises(ValueError):
            RoVibState(v=0, two_omega=3, two_J=1)  # J below Omega


class TestEnergyLadder:
    def test_ground_energy_zero(self):
        assert level_energy(ROT_GROUND, C) == 0.0

    def test_fine_structure_gap(self):
        lower = RoVibState(0, 3, 3)
        upper = RoVibState(0, 1, 1)
        assert level_energy(upper, C) - level_energy(lower, C) == pytest.approx(130.0)

    def test_vibrational_gap(self):
        a = RoVibState(0, 3, 3)
        b = RoVibState(1, 3, 3)
        assert level_energy(b, C) - level_energy(a, C) == pytest.approx(634.0)

    def test_first_rotational_gap(self):
        # ladder spacing 2 B (n + 1): J = 3/2 -> 5/2 sits 2 B above the floor
        a = RoVibState(0, 3, 3)
        b = RoVibState(0, 3, 5)
        assert level_energy(b, C) - level_energy(a, C) == pytest.approx(2 * 0.37)

    def test_energy_additive_in_quanta(self):
        s = RoVibState(1, 1, 21)
        n = s.rotational_quanta
        expected = 634.0 + 130.0 + 0.37 * n * (n + 1)
        assert level_energy(s, C) == pytest.approx(expected)

    def test_truncation_rejected(self):
        with pytest.raises(ValueError):
            level_energy(RoVibState(2, 3, 3), C)
        with pytest.raises(ValueError):
            level_energy(RoVibState(0, 3, 3 + 2 * 70), C)

    def test_degeneracy(self):
        assert degeneracy(ROT_GROUND) == 4
        assert degeneracy(RoVibState(0, 3, 35)) == 36
        assert PARITY_DOUBLET == 2


class TestEnumerateLevels:
    def test_full_count(self):
        # 2 manifolds x 2 vibrational levels x 70 rotational quanta
        assert len(enumerate_levels(C)) == 280

    def test_takes_the_constants_alone(self):
        # One manifold or one v is a slice of the listing (see radiative_levels).
        assert list(inspect.signature(enumerate_levels).parameters) == ["c"]

    def test_order_is_manifold_then_v_then_quanta(self):
        levels = enumerate_levels(C)
        keys = [(-s.two_omega, s.v, s.rotational_quanta) for s in levels]
        assert keys == sorted(keys) and len(set(keys)) == 280
        assert all(s.two_omega == 3 for s in levels[:140])

    def test_order_starts_at_ground(self):
        assert enumerate_levels(C)[0] == ROT_GROUND

    def test_energies_within_manifold_increase(self):
        levels = enumerate_levels(C)[: C.J_count]  # v = 0, Omega = 3/2
        energies = [level_energy(s, C) for s in levels]
        assert all(b > a for a, b in zip(energies, energies[1:]))


class TestPartitionFunction:
    def test_frozen_anchors(self):
        assert partition_function(C, 300.0) == pytest.approx(Z_300, rel=1e-6)
        assert partition_function(C, 450.0) == pytest.approx(Z_450, rel=1e-6)

    @pytest.mark.parametrize("T", [1e-3, 1e-310, np.float64(1e-310), 5e-324])
    def test_low_temperature_limit(self, T):
        # T -> 0+: only the ground level survives, weight = parity doublet x (2J+1);
        # below ~1e-308 K, E / k_B T overflows to inf, without a warning.
        assert partition_function(C, T) == pytest.approx(8.0)

    def test_monotone_in_temperature(self):
        zs = [partition_function(C, t) for t in (100.0, 200.0, 300.0, 400.0)]
        assert all(b > a for a, b in zip(zs, zs[1:]))

    def test_invalid_temperature(self):
        for bad in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError):
                partition_function(C, bad)

    def test_kb_cm_value(self):
        # k_B in wavenumber units
        assert KB_CM == pytest.approx(0.695034800, rel=1e-8)


class TestThermalPopulation:
    def test_ground_anchor_300(self):
        assert thermal_population(ROT_GROUND, C, 300.0) == pytest.approx(PG_300, rel=1e-4)

    def test_ground_anchor_450(self):
        assert thermal_population(ROT_GROUND, C, 450.0) == pytest.approx(PG_450, rel=1e-4)

    def test_boltzmann_ratio(self):
        a, b = ROT_GROUND, RoVibState(0, 3, 5)
        ratio = thermal_population(b, C, 300.0) / thermal_population(a, C, 300.0)
        expected = (degeneracy(b) / degeneracy(a)) * math.exp(
            -(level_energy(b, C) - level_energy(a, C)) / (KB_CM * 300.0)
        )
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_manifold_marginals_300(self):
        assert manifold_population(C, 300.0, v=0) == pytest.approx(0.9544, abs=2e-4)
        p_lower_given_v0 = manifold_population(C, 300.0, v=0, two_omega=3) / manifold_population(
            C, 300.0, v=0
        )
        assert p_lower_given_v0 == pytest.approx(0.66663, abs=2e-4)

    def test_manifold_marginals_450(self):
        assert manifold_population(C, 450.0, v=0) == pytest.approx(0.8836, abs=2e-4)
        p_lower_given_v0 = manifold_population(C, 450.0, v=0, two_omega=3) / manifold_population(
            C, 450.0, v=0
        )
        assert p_lower_given_v0 == pytest.approx(0.61615, abs=2e-4)


class TestThermalDistribution:
    def test_normalized(self):
        d = thermal_distribution(C, 300.0)
        assert d.shape == (len(enumerate_levels(C)),)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_pointwise(self):
        d = thermal_distribution(C, 300.0)
        for s in (ROT_GROUND, RoVibState(1, 1, 11), RoVibState(0, 3, 35)):
            assert d[level_code(s, C)] == thermal_population(s, C, 300.0)

    def test_marginal_consistency(self):
        d = thermal_distribution(C, 450.0)
        levels = enumerate_levels(C)
        for v, two_omega in ((None, None), (0, None), (0, 1), (1, 3), (None, 1), (2, None)):
            # A Python-float sum in code order, bit for bit.
            total = 0.0
            for s, p in zip(levels, d.tolist()):
                if (v is None or s.v == v) and (two_omega is None or s.two_omega == two_omega):
                    total += p
            assert manifold_population(C, 450.0, v=v, two_omega=two_omega) == total

    def test_argmax_rotational_states(self):
        assert most_probable_rotational_state(C, 300.0).two_J == 35
        assert most_probable_rotational_state(C, 450.0).two_J == 41

    def test_distribution_argmax_matches(self):
        d = thermal_distribution(C, 300.0)
        assert enumerate_levels(C)[int(d.argmax())] == most_probable_rotational_state(C, 300.0)

    @pytest.mark.parametrize(
        "constants",
        [C, MolecularConstants(J_count=1)],
        ids=["default", "J_count_1"],
    )
    @pytest.mark.parametrize("T", [1.0, 50.0, 300.0, 600.0, 2000.0])
    def test_argmax_matches_weight_loop_oracle(self, constants, T):
        expected = oracles.most_probable_rotational_state(constants, T)
        assert most_probable_rotational_state(constants, T) == expected

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_argmax_rejects_bad_temperature(self, T):
        with pytest.raises(ValueError):
            most_probable_rotational_state(C, T)


class TestLevelCode:
    @pytest.mark.parametrize(
        "constants", [C, MolecularConstants(v_max=2, J_count=5)], ids=["default", "v_max=2"]
    )
    def test_code_is_the_listing_position(self, constants):
        levels = enumerate_levels(constants)
        assert [level_code(s, constants) for s in levels] == list(range(len(levels)))
        assert level_code(ROT_GROUND, constants) == 0
        # The Omega = 1/2 manifold follows all Omega = 3/2 levels.
        omega_half = RoVibState(0, 1, 1)
        assert level_code(omega_half, constants) == (constants.v_max + 1) * constants.J_count

    def test_outside_the_truncation_rejected(self):
        with pytest.raises(ValueError, match="v=2 exceeds"):
            level_code(RoVibState(2, 3, 3), C)
        with pytest.raises(ValueError, match="rotational level 70 outside"):
            level_code(RoVibState(0, 3, 143), C)


class TestConfigRoundTrip:
    def test_round_trip_defaults(self):
        assert config_from_mapping(MolecularConstants, config_to_mapping(C)) == C

    def test_round_trip_custom(self):
        custom = MolecularConstants(B_e=0.5, J_count=20, v_max=0)
        mapping = config_to_mapping(custom)
        strings = {k: str(v) for k, v in mapping.items()}
        assert config_from_mapping(MolecularConstants, strings) == custom

    def test_unknown_key_rejected(self):
        # A typo, and omega_half_lower: Omega = 3/2 is always the lower manifold.
        for key in ("bogus", "omega_half_lower"):
            mapping = config_to_mapping(C)
            mapping[key] = 1.0
            with pytest.raises(ValueError, match=key):
                config_from_mapping(MolecularConstants, mapping)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            MolecularConstants(B_e=-0.1)
        with pytest.raises(ValueError):
            MolecularConstants(J_count=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", ["omega_e", "A_so", "B_e", "g_q_ground", "mu_vib_scale", "mu_rot_scale"]
    )
    def test_non_finite_constants_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            MolecularConstants(**{key: value})
