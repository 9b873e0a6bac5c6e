"""Acceptance checks: one test per headline criterion.

Each test evaluates its criterion end to end at the stated tolerance,
records a PASS/FAIL line for the terminal summary (see conftest), and then
asserts, so a red criterion is visible both in the test outcome and in the
one-line report.  Tolerances are pinned here on purpose; loosening one to
make a check pass defeats the point of the suite.  Criterion 8 also has a
control test showing that its bridged-gap sub-check fails on a stream
without the simulator's fast return channel.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import oracles
import pytest
from conftest import record_acceptance

from dpqlsim.bbr_kinetics import (
    build_einstein_coefficients,
    build_rate_matrix,
    evolve_populations,
    ground_state_residence_lifetime,
    leave_probability_per_cycle,
    restricted_boltzmann,
    rethermalization_time,
)
from dpqlsim.hmm_detector import (
    default_params,
    estimate_params_supervised,
    evaluate,
    forward_backward,
)
from dpqlsim.run_statistics import (
    NoiseSignalModel,
    longest_run_cdf,
    noise_pmf,
    observed_run_significance,
    required_run_length,
    signal_pmf,
    significance,
)
from dpqlsim.spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    manifold_population,
    most_probable_rotational_state,
    thermal_population,
)
from dpqlsim.sweep_dynamics import (
    SweepConfig,
    evolve_sweep,
    landau_zener_oracle,
    offres_carrier_excitation,
    transfer_window_map,
)
from dpqlsim.trajectory_sim import (
    ExperimentConfig,
    ensemble_ground_occupancy,
    simulate_hours,
)

TWO_PI = 2.0 * math.pi


def _finish(number: int, checks: list[tuple[str, bool]], detail: str) -> None:
    record_acceptance(number, all(ok for _, ok in checks), detail)
    failed = [label for label, ok in checks if not ok]
    assert not failed, f"criterion {number}: failed sub-checks: {failed}"


def test_criterion_1_thermal_anchors():
    t0 = time.perf_counter()
    c = MolecularConstants()
    p_v0 = manifold_population(c, 300.0, v=0)
    p_omega = manifold_population(c, 300.0, v=0, two_omega=3) / p_v0
    pg300 = thermal_population(ROT_GROUND, c, 300.0)
    pg450 = thermal_population(ROT_GROUND, c, 450.0)
    argmax = most_probable_rotational_state(c, 300.0)
    elapsed = time.perf_counter() - t0
    checks = [
        ("P(v=0) = 0.95 +- 0.01", abs(p_v0 - 0.95) <= 0.01),
        ("P(Omega=3/2 | v=0) = 0.65 +- 0.02", abs(p_omega - 0.65) <= 0.02),
        ("ground population 300 K = 0.47% +- 0.09%", abs(pg300 - 0.0047) <= 0.0009),
        ("ground population 450 K = 0.28% +- 0.06%", abs(pg450 - 0.0028) <= 0.0006),
        ("argmax rotational level J = 35/2 at 300 K", argmax.two_J == 35),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _finish(
        1,
        checks,
        f"P(v=0)={p_v0:.4f}, P(O|v=0)={p_omega:.4f}, pg={pg300:.5f}/{pg450:.5f}, "
        f"argmax J={argmax.two_J}/2, {elapsed:.2f} s",
    )


def test_criterion_2_kinetics_anchors():
    t0 = time.perf_counter()
    c = MolecularConstants()
    decay = build_einstein_coefficients(c).total_decay_rate(RoVibState(1, 3, 3))
    tau300 = ground_state_residence_lifetime(c, 300.0)
    t_retherm = rethermalization_time(c, 300.0)  # starts from the J=35/2 argmax
    ps300 = leave_probability_per_cycle(c, 300.0, 0.04, collision_rate=0.008)
    ps450 = leave_probability_per_cycle(c, 450.0, 0.04, collision_rate=0.008)
    checks = [
        ("calibrated v=1 aggregate decay = 5 /s", abs(decay - 5.0) <= 5e-9),
        ("residence lifetime 300 K = 4 s +- 50%", 2.0 <= tau300 <= 6.0),
        ("rethermalization from argmax = 200 s +- 50%", 100.0 <= t_retherm <= 300.0),
        ("p_s(300 K, 40 ms) = 0.015 +- 0.005", 0.010 <= ps300 <= 0.020),
        ("p_s(450 K, 40 ms) = 0.035 +- 0.010", 0.025 <= ps450 <= 0.045),
    ]
    _finish(
        2,
        checks,
        f"decay={decay:.6f}/s, tau={tau300:.3f} s, retherm={t_retherm:.1f} s, "
        f"p_s={ps300:.5f}/{ps450:.5f}, {time.perf_counter() - t0:.1f} s",
    )


def test_criterion_3_stationarity():
    t0 = time.perf_counter()
    c = MolecularConstants()
    m = build_rate_matrix(c, 300.0)
    colsum = float(np.abs(m.generator.sum(axis=0)).max())
    traj = evolve_populations(m, restricted_boltzmann(c, 300.0), 1000.0, snapshots=2)
    start = traj.populations[:, 0]
    end = traj.populations[:, -1]
    drift = float((np.abs(end - start) / start).max())
    checks = [
        ("per-level drift over 1000 s within 1%", drift <= 0.01),
        ("generator columns sum to zero within 1e-12", colsum <= 1e-12),
    ]
    _finish(
        3,
        checks,
        f"max relative drift={drift:.2e}, max column sum={colsum:.2e}, "
        f"{time.perf_counter() - t0:.1f} s",
    )


def test_criterion_4_monte_carlo_occupancy():
    t0 = time.perf_counter()
    base = ExperimentConfig(rng_seed=1)
    occ300 = ensemble_ground_occupancy(base, 100, 2.0)
    occ450 = ensemble_ground_occupancy(replace(base, temperature=450.0), 100, 2.0)
    elapsed = time.perf_counter() - t0

    def two_sample_ok(occ: np.ndarray, ref_mean: float, ref_sd: float) -> bool:
        # Both the simulated ensemble and the reference ensemble carry
        # sampling error, so the gate combines the two SEMs.
        gate = 2.0 * math.sqrt((occ.std(ddof=1) ** 2 + ref_sd**2) / occ.size)
        return abs(float(occ.mean()) - ref_mean) <= gate

    checks = [
        ("300 K: mean within 2 SEM of 0.42% (sigma 0.30%)",
         two_sample_ok(occ300, 0.0042, 0.0030)),
        ("450 K: mean within 2 SEM of 0.20% (sigma 0.14%)",
         two_sample_ok(occ450, 0.0020, 0.0014)),
        ("runtime <= 30 min", elapsed <= 1800.0),
    ]
    _finish(
        4,
        checks,
        f"300 K {occ300.mean():.5f}+-{occ300.std(ddof=1):.5f}, "
        f"450 K {occ450.mean():.5f}+-{occ450.std(ddof=1):.5f} over 100x2 h, "
        f"{elapsed:.0f} s",
    )


def test_criterion_5_sweep_anchors():
    t0 = time.perf_counter()
    cfg = SweepConfig()
    transfer = evolve_sweep(cfg)
    grid = TWO_PI * 1e3 * np.arange(410.0, 491.0, 1.0)
    wm = transfer_window_map(cfg, grid, threshold=0.99)
    assert wm.window is not None
    lo_khz = wm.window[0] / TWO_PI / 1e3
    hi_khz = wm.window[1] / TWO_PI / 1e3

    # Landau-Zener comparison where the crossing sits well inside the sweep
    # (>= 2 ms from either end, about eight traversal times).
    lz = landau_zener_oracle(cfg.g_q, cfg.ramp_rate)
    duration = (cfg.omega_start - cfg.omega_end) / cfg.ramp_rate
    margin = 2e-3
    lz_dev = 0.0
    for omega, mapped in zip(wm.omega_mol_values.tolist(), wm.transfer.tolist()):
        t_cross = (cfg.omega_start - omega) / cfg.ramp_rate
        if margin <= t_cross <= duration - margin:
            lz_dev = max(lz_dev, abs(mapped - lz))

    offres = offres_carrier_excitation(
        TWO_PI * 90e3, TWO_PI * 410e3, 45e-6, TWO_PI * 9e3
    )
    elapsed = time.perf_counter() - t0
    checks = [
        ("transfer >= 0.99 at defaults", transfer >= 0.99),
        ("window low edge within 5 kHz of 420 kHz", abs(lo_khz - 420.0) <= 5.0),
        ("window high edge within 5 kHz of 482 kHz", abs(hi_khz - 482.0) <= 5.0),
        ("interior sweep vs Landau-Zener within 0.01", lz_dev <= 0.01),
        ("off-resonant excitation = 0.044 +- 0.004", abs(offres - 0.044) <= 0.004),
        ("runtime < 1 min", elapsed < 60.0),
    ]
    _finish(
        5,
        checks,
        f"transfer={transfer:.5f}, window=[{lo_khz:.0f}, {hi_khz:.0f}] kHz, "
        f"max LZ dev={lz_dev:.4f}, offres={offres:.4f}, {elapsed:.0f} s",
    )


def test_criterion_6_run_statistics():
    t0 = time.perf_counter()
    r4 = significance(1000, 4, 0.03)
    r7 = significance(1000, 7, 0.03)

    def brute(n: int, x: int, p: float) -> float:
        total = 0.0
        for seq in itertools.product((0, 1), repeat=n):
            run = best = 0
            for s in seq:
                run = run + 1 if s else 0
                best = max(best, run)
            if best <= x:
                total += p ** sum(seq) * (1 - p) ** (n - sum(seq))
        return total

    enum_dev = max(
        abs(longest_run_cdf(n, x, p) - brute(n, x, p))
        for n, x, p in [(12, 4, 0.03), (10, 2, 0.1), (9, 3, 0.5)]
    )
    method_dev = max(
        abs(oracles.longest_run_cdf(n, x, 0.03) - longest_run_cdf(n, x, 0.03))
        for n in (50, 125, 200)
        for x in (1, 3, 6)
    )
    elapsed = time.perf_counter() - t0
    checks = [
        ("x=4 at n=1000, p=0.03 gives Z >= 3", r4.z >= 3.0),
        ("x=7 at n=1000, p=0.03 gives Z >= 5", r7.z >= 5.0),
        ("CDF matches exhaustive enumeration (n <= 12) to 1e-12", enum_dev <= 1e-12),
        ("recursion and automaton agree (n <= 200) to 1e-12", method_dev <= 1e-12),
        ("runtime seconds", elapsed < 30.0),
    ]
    _finish(
        6,
        checks,
        f"Z(x=4)={r4.z:.3f}, Z(x=7)={r7.z:.3f}, enum dev={enum_dev:.1e}, "
        f"method dev={method_dev:.1e}, {elapsed:.1f} s",
    )


def test_criterion_7_bin_model():
    t0 = time.perf_counter()
    model = NoiseSignalModel(p_b=0.03, p_d=0.72, p_s=0.015)
    q_noise = noise_pmf(model)
    q_signal = signal_pmf(model)
    norm_err = max(abs(q_noise.sum() - 1.0), abs(q_signal.sum() - 1.0))

    # Independent sampling oracle for the signal-bin distribution: draw the
    # residence length, then darks from the two binomial segments.
    n_mc = 10_000_000
    rng = np.random.default_rng(424242)
    lengths = np.minimum(rng.geometric(model.p_s, n_mc), model.bin)
    darks = rng.binomial(lengths, model.p_d) + rng.binomial(
        model.bin - lengths, model.p_b
    )
    counts = np.bincount(darks, minlength=model.bin + 1)
    se = np.sqrt(n_mc * q_signal * (1.0 - q_signal))
    mc_dev = float(
        (np.abs(counts - n_mc * q_signal) / np.where(se > 0, se, 1.0)).max()
    )

    # Noise-only bins of labeled simulated data against the noise curve.
    ds = simulate_hours(ExperimentConfig(rng_seed=31), 2.0)
    obs, lab = ds.outcomes(), ds.hidden_labels()
    n_bins = obs.size // model.bin
    windows = obs[: n_bins * model.bin].reshape(n_bins, model.bin)
    labels = lab[: n_bins * model.bin].reshape(n_bins, model.bin)
    quiet = ~labels.any(axis=1)
    n_quiet = int(quiet.sum())
    observed = np.bincount(windows[quiet].sum(axis=1), minlength=model.bin + 1)
    se_n = np.sqrt(n_quiet * q_noise * (1.0 - q_noise))
    noise_dev = float(
        (np.abs(observed - n_quiet * q_noise) / np.where(se_n > 0, se_n, 1.0)).max()
    )
    checks = [
        ("both bin pmfs normalize within 1e-9", norm_err <= 1e-9),
        ("signal pmf within 3 SE of 1e7-bin Monte Carlo", mc_dev <= 3.0),
        ("noise-only data within 3 SE of noise curve", noise_dev <= 3.0),
    ]
    _finish(
        7,
        checks,
        f"norm err={norm_err:.1e}, signal MC max dev={mc_dev:.2f} SE, "
        f"noise curve max dev={noise_dev:.2f} SE over {n_quiet} bins, "
        f"{time.perf_counter() - t0:.1f} s",
    )


# Criterion 8 scores a two-state decoder on a simulator that has a third
# path the decoder cannot represent: nearly every departure from the ground
# level is a blackbody jump to v = 1, and v = 1, J = 3/2 falls back to the
# ground level within a few cycles (pinned in test_trajectory_sim).  The
# smoother bridges those short gaps, so it labels the next visit "ground"
# from its first cycle: recall rises above 0.99 and the false positives
# sit inside bridged gaps.  Streams drawn from the decoder's own two-state
# chain give recall 0.973-0.995 and no bridged false positives.
PRECISION_ANCHOR = 0.98
#: Mean held-out recall over 24 independent 10 h streams (rng_seed 1..24,
#: seed 202 left out) decoded by the criterion-8 detector: 0.9938, sample
#: sd 0.0022, range 0.9902-0.9984, rounded to 0.994.  Reproduce with
#: ``PYTHONPATH=src python tests/recall_ensemble.py``.
RECALL_CENTRE = 0.994
#: F1 = 2PR / (P + R) at the precision anchor and the recall centre.
F1_CENTRE = 2.0 * PRECISION_ANCHOR * RECALL_CENTRE / (PRECISION_ANCHOR + RECALL_CENTRE)
HELD_OUT_HOURS = 10.0


def criterion_8_detector():
    """Criterion 8's decoder: supervised fit to a labeled 24 h stream."""
    return estimate_params_supervised(
        [simulate_hours(ExperimentConfig(rng_seed=105), 24.0)]
    )


def bridged_false_positive_share(states: np.ndarray, labels: np.ndarray) -> float:
    """Share of false-positive cycles that fill a whole gap between visits.

    A gap is a run of off-ground labels with a ground-level visit on both
    sides; it is bridged when the decoder calls every cycle of it ground.
    Returns 0.0 when there are no false positives.
    """
    edges = np.diff(labels.astype(np.int8))
    starts = np.nonzero(edges == -1)[0] + 1
    ends = np.nonzero(edges == 1)[0] + 1
    if starts.size:
        ends = ends[ends > starts[0]]
    bridged = sum(end - start for start, end in zip(starts, ends) if states[start:end].all())
    false_pos = int(np.sum((states == 1) & (labels == 0)))
    return bridged / false_pos if false_pos else 0.0


def two_state_stream(params, n: int, rng: np.random.Generator):
    """(outcomes, labels) drawn from the decoder's own two-state chain."""
    labels = np.empty(n, dtype=np.int8)
    state = int(rng.random() < params.initial[1])
    k = 0
    while k < n:
        stay = int(rng.geometric(params.trans[state, 1 - state]))
        labels[k : k + stay] = state
        k += stay
        state = 1 - state
    outcomes = (rng.random(n) < params.emit[labels, 1]).astype(np.int8)
    return outcomes, labels


@pytest.fixture(scope="module")
def trained_detector():
    return criterion_8_detector()


def test_criterion_8_hmm_anchors(trained_detector):
    t0 = time.perf_counter()
    params = trained_detector
    p_b_rec = float(params.emit[0, 1])
    p_d_rec = float(params.emit[1, 1])

    held = simulate_hours(ExperimentConfig(rng_seed=202), HELD_OUT_HOURS)
    obs, labels = held.outcomes(), held.hidden_labels()
    states = forward_backward(params, obs).states
    metrics = evaluate(states, labels)
    bridged = bridged_false_positive_share(states, labels)

    run = np.array([0] * 40 + [1] * 15 + [0] * 40)
    posterior = float(forward_backward(default_params(), run).posteriors[40:55].mean())

    ideal_cfg = replace(
        ExperimentConfig(rng_seed=303), p_bright_noise=0.0, detection_fidelity=1.0
    )
    ideal_params = estimate_params_supervised([simulate_hours(ideal_cfg, 100.0)])
    mismatch = evaluate(forward_backward(ideal_params, obs).states, labels)
    checks = [
        ("recovered noise emission 0.03 +- 0.01", abs(p_b_rec - 0.03) <= 0.01),
        ("recovered signal emission 0.72 +- 0.01", abs(p_d_rec - 0.72) <= 0.01),
        ("held-out precision 0.98 +- 0.02", 0.96 <= metrics.precision <= 1.0),
        (f"held-out recall {RECALL_CENTRE} +- 0.02",
         abs(metrics.recall - RECALL_CENTRE) <= 0.02),
        (f"held-out F1 {F1_CENTRE:.4f} +- 0.02", abs(metrics.f1 - F1_CENTRE) <= 0.02),
        ("bridged gaps hold >= 1/2 of false positives", bridged >= 0.5),
        ("posterior over 15-dark run 0.998 +- 0.005", abs(posterior - 0.998) <= 0.005),
        ("fidelity-mismatch F1 < 0.5", mismatch.f1 < 0.5),
    ]
    _finish(
        8,
        checks,
        f"emissions=({p_b_rec:.5f}, {p_d_rec:.5f}), "
        f"P/R/F1={metrics.precision:.4f}/{metrics.recall:.4f}/{metrics.f1:.4f}, "
        f"bridged FP share={bridged:.3f}, run posterior={posterior:.4f}, "
        f"mismatch F1={mismatch.f1:.3f}, {time.perf_counter() - t0:.1f} s",
    )


def test_criterion_8_bridging_check_fails_without_return_channel(trained_detector):
    # The bridged-gap sub-check must be able to fail: a stream from the
    # decoder's own two-state chain has no fast return, so its false
    # positives sit at visit edges rather than in bridged gaps.
    n = int(round(HELD_OUT_HOURS * 3600.0 / ExperimentConfig().cycle))
    obs, labels = two_state_stream(trained_detector, n, np.random.default_rng(808))
    states = forward_backward(trained_detector, obs).states
    assert evaluate(states, labels).incorrect_positive > 0
    assert bridged_false_positive_share(states, labels) < 0.5


def test_criterion_9_end_to_end_detection():
    t0 = time.perf_counter()
    req30k = required_run_length(30000, 0.03, 4.1)
    req180k = required_run_length(180000, 0.03, 4.1)

    # Half an hour of this seed stays noise-only, so the injected run is the
    # one real event in the stream.
    ds = simulate_hours(ExperimentConfig(rng_seed=77), 0.5)
    outcomes = ds.outcomes()
    natural_ground = int(ds.hidden_labels().sum())
    outcomes[12000:12011] = 1
    runs = observed_run_significance(outcomes, 0.03)
    decoded = forward_backward(default_params(), outcomes)
    coverage = int(decoded.states[12000:12011].sum())
    posterior = float(decoded.posteriors[12000:12011].mean())
    checks = [
        ("solver reports x for Z = 4.1 at n = 30000", req30k.z >= 4.1),
        ("solver reports x for Z = 4.1 at n = 180000", req180k.z >= 4.1),
        ("stream is noise-only before injection", natural_ground == 0),
        ("injected 11-dark run reaches Z >= 4.1", runs.z >= 4.1),
        ("decoder covers >= 9 of 11 injected cycles", coverage >= 9),
        ("mean posterior over injection >= 0.95", posterior >= 0.95),
    ]
    _finish(
        9,
        checks,
        f"x(30000)={req30k.x} (Z={req30k.z:.2f}), x(180000)={req180k.x} "
        f"(Z={req180k.z:.2f}), injected Z={runs.z:.2f}, coverage={coverage}/11, "
        f"posterior={posterior:.4f}, {time.perf_counter() - t0:.1f} s",
    )
