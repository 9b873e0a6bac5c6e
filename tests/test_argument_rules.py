"""The scalar argument rules of ``dataio``, at every library site that states one.

Each site names its argument first in the ValueError, and refuses NaN as well
as the nearest value past its bound.
"""

import math

import pytest

from dpqlsim.bbr_kinetics import (
    build_rate_matrix,
    evolve_populations,
    leave_probability_per_cycle,
    restricted_boltzmann,
)
from dpqlsim.hmm_detector import default_params
from dpqlsim.run_statistics import (
    NoiseSignalModel,
    bin_value_distribution,
    longest_run_cdf,
    observed_run_significance,
    required_run_length,
    significance,
)
from dpqlsim.spectroscopy import MolecularConstants
from dpqlsim.sweep_dynamics import (
    SweepConfig,
    landau_zener_oracle,
    offres_carrier_excitation,
    transfer_window_map,
)
from dpqlsim.trajectory_sim import (
    ExperimentConfig,
    disjoint_bin_counts,
    ensemble_ground_occupancy,
    simulate_trial,
)

NAN, INF, TINY = math.nan, math.inf, 5e-324

# Values each rule refuses: NaN and the nearest values past its bounds.
PROBABILITY = (NAN, -TINY, math.nextafter(1.0, 2.0))
POSITIVE = (NAN, 0.0, INF)
NONNEGATIVE = (NAN, -TINY, INF)
AT_LEAST_ZERO = (NAN, -TINY)
AT_LEAST_ZERO_INT = (NAN, -1)
AT_LEAST_ONE = (NAN, 0)

CONSTANTS = MolecularConstants()
CONFIG = ExperimentConfig()
MODEL = NoiseSignalModel()


def _evolve(**kwargs):
    m, p0 = build_rate_matrix(CONSTANTS, 300.0), restricted_boltzmann(CONSTANTS, 300.0)
    return evolve_populations(m, p0, **{"duration": 1.0, **kwargs})


def _offres(**kwargs):
    return offres_carrier_excitation(**{"rabi": 1.0, "detuning": 1.0, "pulse": 1.0,
                                        "carrier_noise": 0.0, **kwargs})


# (where, argument name, refused values, call with the value)
SITES = [
    *(("MolecularConstants", name, POSITIVE, lambda v, name=name: MolecularConstants(**{name: v}))
      for name in ("omega_e", "A_so", "B_e", "mu_vib_scale", "mu_rot_scale")),
    ("MolecularConstants", "g_q_ground", NONNEGATIVE, lambda v: MolecularConstants(g_q_ground=v)),
    ("MolecularConstants", "v_max", AT_LEAST_ZERO_INT, lambda v: MolecularConstants(v_max=v)),
    ("MolecularConstants", "J_count", AT_LEAST_ONE, lambda v: MolecularConstants(J_count=v)),
    *(("ExperimentConfig", name, POSITIVE, lambda v, name=name: ExperimentConfig(**{name: v}))
      for name in ("cycle", "temperature")),
    ("ExperimentConfig", "collision_rate", NONNEGATIVE,
     lambda v: ExperimentConfig(collision_rate=v)),
    ("ExperimentConfig", "rng_seed", AT_LEAST_ZERO_INT, lambda v: ExperimentConfig(rng_seed=v)),
    *(("ExperimentConfig", name, PROBABILITY, lambda v, name=name: ExperimentConfig(**{name: v}))
      for name in ("p_bright_noise", "detection_fidelity")),
    ("simulate_trial", "n_cycles", AT_LEAST_ONE, lambda v: simulate_trial(CONFIG, v)),
    ("ensemble_ground_occupancy", "n_trials", AT_LEAST_ONE,
     lambda v: ensemble_ground_occupancy(CONFIG, v, 0.001)),
    ("disjoint_bin_counts", "window", AT_LEAST_ONE, lambda v: disjoint_bin_counts([0, 1, 1], v)),
    ("evolve_populations", "duration", NONNEGATIVE, lambda v: _evolve(duration=v)),
    ("evolve_populations", "tol", AT_LEAST_ZERO, lambda v: _evolve(tol=v)),
    ("evolve_populations", "snapshots", AT_LEAST_ONE, lambda v: _evolve(snapshots=v)),
    ("leave_probability_per_cycle", "collision_rate", NONNEGATIVE,
     lambda v: leave_probability_per_cycle(CONSTANTS, 300.0, 0.04, collision_rate=v)),
    *(("NoiseSignalModel", name, PROBABILITY, lambda v, name=name: NoiseSignalModel(**{name: v}))
      for name in ("p_b", "p_d", "p_s")),
    ("NoiseSignalModel", "bin", AT_LEAST_ONE, lambda v: NoiseSignalModel(bin=v)),
    ("bin_value_distribution", "n_bins", AT_LEAST_ONE,
     lambda v: bin_value_distribution(v, MODEL, 0.004)),
    ("bin_value_distribution", "p_g", PROBABILITY,
     lambda v: bin_value_distribution(100, MODEL, v)),
    ("significance", "n", AT_LEAST_ZERO_INT, lambda v: significance(v, 0, 0.03)),
    ("significance", "p_dark", PROBABILITY, lambda v: significance(100, 5, v)),
    ("longest_run_cdf", "p_dark", PROBABILITY, lambda v: longest_run_cdf(100, 5, v)),
    ("observed_run_significance", "p_dark", PROBABILITY,
     lambda v: observed_run_significance([1, 1, 0], v)),
    ("observed_run_significance/dark-free", "p_dark", PROBABILITY,
     lambda v: observed_run_significance([0, 0, 0], v)),
    ("observed_run_significance/empty", "p_dark", PROBABILITY,
     lambda v: observed_run_significance([], v)),
    ("required_run_length", "n", AT_LEAST_ONE, lambda v: required_run_length(v, 0.03, 4.1)),
    *(("default_params", name, PROBABILITY, lambda v, name=name: default_params(**{name: v}))
      for name in ("p_b", "p_d", "p_s")),
    ("SweepConfig", "g_q", AT_LEAST_ZERO, lambda v: SweepConfig(g_q=v)),
    ("landau_zener_oracle", "g_q", AT_LEAST_ZERO, lambda v: landau_zener_oracle(v, 1.0)),
    ("transfer_window_map", "threshold", PROBABILITY,
     lambda v: transfer_window_map(SweepConfig(), [2 * math.pi * 450e3], threshold=v)),
    ("offres_carrier_excitation", "rabi", NONNEGATIVE, lambda v: _offres(rabi=v)),
    ("offres_carrier_excitation", "carrier_noise", NONNEGATIVE,
     lambda v: _offres(carrier_noise=v)),
]


@pytest.mark.parametrize(
    "name, value, call",
    [pytest.param(name, value, call, id=f"{where}.{name}={value!r}")
     for where, name, values, call in SITES for value in values],
)
def test_refused_value_names_its_argument(name, value, call):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name} must ")
