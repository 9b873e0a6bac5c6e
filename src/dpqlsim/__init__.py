"""Desk-scale simulator and analysis toolkit for dipole-phonon logic.

The package models a trapped molecular ion whose lowest rotational level
serves as a qubit resource: thermal level populations, blackbody-driven
rotational kinetics, Monte Carlo measurement streams, trap-frequency
sweep transfer, dark-run significance statistics, and hidden-Markov
detection of ground-level episodes.
"""

__version__ = "0.1.0"

from . import bbr_kinetics, dataio, hmm_detector, run_statistics
from . import spectroscopy, sweep_dynamics, trajectory_sim
from .spectroscopy import *  # noqa: F401,F403
from .dataio import *  # noqa: F401,F403
from .bbr_kinetics import *  # noqa: F401,F403
from .trajectory_sim import *  # noqa: F401,F403
from .sweep_dynamics import *  # noqa: F401,F403
from .run_statistics import *  # noqa: F401,F403
from .hmm_detector import *  # noqa: F401,F403

# The public names of the seven library modules; the CLI is not re-exported.
__all__ = ["__version__"] + [
    name
    for module in (spectroscopy, dataio, bbr_kinetics, trajectory_sim, sweep_dynamics,
                   run_statistics, hmm_detector)
    for name in module.__all__
]
