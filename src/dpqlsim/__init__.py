"""Desk-scale simulator and analysis toolkit for dipole-phonon logic.

The package models a trapped molecular ion whose lowest rotational level
serves as a qubit resource: thermal level populations, blackbody-driven
rotational kinetics, Monte Carlo measurement streams, trap-frequency
sweep transfer, dark-run significance statistics, and hidden-Markov
detection of ground-level episodes.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .spectroscopy import (
    KB_CM,
    PARITY_DOUBLET,
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    StateDistribution,
    degeneracy,
    enumerate_levels,
    level_energy,
    manifold_population,
    most_probable_rotational_state,
    partition_function,
    thermal_distribution,
    thermal_population,
)
from .dataio import (
    DATASET_HEADER,
    DataFormatError,
    read_dataset_csv,
    read_keyvalues,
    sha256_digest,
    write_dataset_csv,
    write_keyvalues,
    write_table,
)
from .bbr_kinetics import (
    VIB_DECAY_TARGET,
    EinsteinCoefficients,
    IntegrationError,
    PopulationTrajectory,
    RateMatrix,
    build_einstein_coefficients,
    build_rate_matrix,
    evolve_populations,
    ground_state_residence_lifetime,
    leave_probability_per_cycle,
    lifetime_temperature_sweep,
    photon_occupation,
    radiative_levels,
    restricted_boltzmann,
    rethermalization_time,
)
from .trajectory_sim import (
    ExperimentConfig,
    TrajectoryDynamics,
    TrialDataset,
    disjoint_bin_counts,
    ensemble_ground_occupancy,
    simulate_hours,
    simulate_trial,
)
from .sweep_dynamics import (
    SweepConfig,
    TransferWindowMap,
    evolve_sweep,
    jc_coupling_matrix,
    landau_zener_oracle,
    offres_carrier_excitation,
    transfer_window_map,
)
from .run_statistics import (
    BinValuePrediction,
    NoiseSignalModel,
    SignificanceResult,
    bin_value_distribution,
    find_longest_run,
    longest_run_cdf,
    noise_pmf,
    observed_run_significance,
    required_run_length,
    signal_pmf,
    significance,
)
from .hmm_detector import (
    STATE_NAMES,
    DecodedSeries,
    DetectionMetrics,
    EstimationError,
    HmmParams,
    baum_welch,
    default_params,
    estimate_params_supervised,
    evaluate,
    forward_backward,
    viterbi,
    write_decoded_csv,
)

# Every name imported above; the submodules bound as attributes stay out.
__all__ = ["__version__"] + [
    name
    for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
