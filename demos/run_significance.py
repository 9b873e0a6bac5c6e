"""
How long a dark run counts as a detection?
==========================================

A molecule parked in the ground level produces consecutive dark
cycles; detector noise produces short scattered ones.  The longest-run
statistic turns "how many darks in a row" into a significance level.
"""

from dpqlsim.run_statistics import (
    NoiseSignalModel,
    bin_value_distribution,
    longest_run_cdf,
    required_run_length,
    significance,
)

P_DARK = 0.03  # per-cycle dark probability from noise alone

# Exact tail probabilities for a short stream.
print("P(longest dark run <= x) in 1000 noise cycles:")
for x in range(1, 8):
    print(f"  x = {x}: {longest_run_cdf(1000, x, P_DARK):.6f}")

# Observing a run of length x: one-sided significance.
print("\nsignificance of an observed longest run (n = 1000):")
for x in (3, 4, 5, 7):
    r = significance(1000, x, P_DARK)
    print(f"  run >= {x}: p = {r.p_value:.3e}, Z = {r.z:.2f}")

# Planning: how long must a run be to claim Z = 4.1 in a full dataset?
for n in (30000, 180000):
    need = required_run_length(n, P_DARK, 4.1)
    print(f"n = {n:6d}: need a run of {need.x} darks "
          f"(gives Z = {need.z:.2f})")

# The same machinery predicts the dark-count histogram per 20-cycle
# bin, splitting noise-only bins from bins that caught a ground visit.
model = NoiseSignalModel(p_b=P_DARK, p_d=0.72, p_s=0.015)
# The band brackets the prediction between p_g minus and plus its sigma.
P_G, P_G_SIGMA = 0.0047, 0.0030
counts = bin_value_distribution(4500, model, P_G)
low = bin_value_distribution(4500, model, P_G - P_G_SIGMA)
high = bin_value_distribution(4500, model, P_G + P_G_SIGMA)
print("\npredicted bins by dark count (4500 bins, with signal):")
for k in range(9):
    lo, hi = sorted((low[k], high[k]))
    print(f"  {k} darks: {counts[k]:9.2f}  [{lo:.2f}, {hi:.2f}]")
tail = counts[9:].sum()
print(f"  >= 9:    {tail:9.2f}   (noise alone would leave this empty)")
