"""
Adiabatic transfer through the avoided crossing
===============================================

Sweeping the trap frequency through resonance with the molecular
doublet swaps a phonon into the molecule.  Here we propagate the
two-level dynamics for the nominal sweep, compare against the
closed-form crossing formula, and map how far the molecular frequency
can drift before transfer degrades.
"""

import math

import numpy as np

from dpqlsim.sweep_dynamics import (
    SweepConfig,
    evolve_sweep,
    landau_zener_oracle,
    offres_carrier_excitation,
    transfer_window_map,
)

TWO_PI = 2.0 * math.pi
cfg = SweepConfig()
print(f"sweep: {cfg.omega_start / TWO_PI / 1e3:.0f} -> "
      f"{cfg.omega_end / TWO_PI / 1e3:.0f} kHz at "
      f"{cfg.ramp_rate / TWO_PI / 1e6:.0f} kHz/ms, "
      f"coupling g = {cfg.g_q / TWO_PI / 1e3:.1f} kHz")

numeric = evolve_sweep(cfg)
closed = landau_zener_oracle(cfg.g_q, cfg.ramp_rate)
print(f"numeric transfer:      {numeric:.6f}")
print(f"closed-form estimate:  {closed:.6f}")

# Slower coupling, worse transfer: the crossing formula tracks the
# propagation well into the diabatic regime.
print("\ntransfer vs coupling strength:")
for g_khz in (0.4, 1.0, 2.6):
    c = SweepConfig(g_q=TWO_PI * g_khz * 1e3)
    print(f"  g = {g_khz:3.1f} kHz: numeric {evolve_sweep(c):.4f}, "
          f"closed form {landau_zener_oracle(c.g_q, c.ramp_rate):.4f}")

# Coarse window map: which molecular frequencies still transfer well
# with the sweep fixed?  (The propagator evolves a whole grid at once, so
# a 1 kHz grid also takes well under a second; the coarse one below keeps
# the printout short.)
grid = TWO_PI * 1e3 * np.arange(412.0, 489.0, 4.0)
wm = transfer_window_map(cfg, grid, threshold=0.99)
print("\nomega_mol (kHz)  transfer")
for omega, p in zip(wm.omega_mol_values, wm.transfer):
    marker = " <- window" if wm.window and wm.window[0] <= omega <= wm.window[1] else ""
    print(f"  {omega / TWO_PI / 1e3:7.0f}       {p:.4f}{marker}")
if wm.window:
    lo, hi = (w / TWO_PI / 1e3 for w in wm.window)
    print(f"transfer > 0.99 window: [{lo:.0f}, {hi:.0f}] kHz on this grid")

# Reading out the phonon afterward uses a strongly detuned sideband
# pulse; its worst-case off-resonant excitation stays below 5%.
eps = offres_carrier_excitation(TWO_PI * 90e3, TWO_PI * 410e3, 45e-6, TWO_PI * 9e3)
print(f"\nworst-case off-resonant excitation during readout: {eps:.4f}")
