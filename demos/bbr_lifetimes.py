"""
Blackbody-driven lifetimes of the ground rotational level
=========================================================

The detector relies on the molecule staying in the ground rotational
level long enough to measure it many times.  Blackbody radiation sets
that clock.  This script builds the radiative rate model, checks its
calibration, and extracts the residence lifetime as a function of the
environment temperature.
"""

import numpy as np

from dpqlsim.bbr_kinetics import (
    build_einstein_coefficients,
    build_rate_matrix,
    evolve_populations,
    ground_state_residence_lifetime,
    leave_probability_per_cycle,
    rethermalization_time,
    restricted_boltzmann,
)
from dpqlsim.spectroscopy import ROT_GROUND, MolecularConstants, RoVibState, level_code

constants = MolecularConstants()

# The vibrational dipole moment is calibrated so the full v=1 level
# decays at 5 per second, the experimentally known aggregate rate.
co = build_einstein_coefficients(constants)
print(f"calibrated mu_vib = {co.mu_vib:.4e} C m")
print(f"v=1 aggregate decay = {co.total_decay_rate(RoVibState(1, 3, 3)):.4f} /s")

# Residence lifetime: start in the ground level, remove the return
# paths, and time the first departure.
print("\nground-level residence lifetime vs temperature:")
for T in (200.0, 300.0, 400.0, 500.0, 600.0):
    tau = ground_state_residence_lifetime(constants, T)
    print(f"  {T:5.0f} K  ->  {tau:7.3f} s")

# Per-measurement-cycle leave probability, radiative plus collisions.
for T in (300.0, 450.0):
    p_s = leave_probability_per_cycle(constants, T, 0.040, collision_rate=0.008)
    print(f"p_s({T:g} K, 40 ms cycle) = {p_s:.5f}")

# How long until a freshly prepared high-J molecule looks thermal again?
t63 = rethermalization_time(constants, 300.0)
print(f"\nrethermalization (63% of thermal ground population): {t63:.1f} s")

# The approach is not monotone: population cascading down the ladder
# overshoots the stationary ground-level value before settling.  Populations
# are vectors over the radiative levels, indexed by level code.
m = build_rate_matrix(constants, 300.0)
start = RoVibState(0, 3, 11)
p0 = np.zeros(len(m.generator))
p0[level_code(start, constants)] = 1.0
traj = evolve_populations(m, p0, 200.0, snapshots=401)
pg = traj.population_of(ROT_GROUND)
peak_idx = int(pg.argmax())
stationary = restricted_boltzmann(constants, 300.0)[level_code(ROT_GROUND, constants)]
print(f"starting from J = {start.two_J}/2: ground population peaks at "
      f"{pg[peak_idx]:.4f} (t = {traj.times[peak_idx]:.0f} s), "
      f"stationary value {stationary:.4f}")
