"""Monte Carlo loop: reproducibility, emission branches, state marginals."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import oracles
import pytest
import scipy.linalg
from scipy import stats

from dpqlsim import trajectory_sim
from dpqlsim.bbr_kinetics import build_rate_matrix, radiative_levels
from dpqlsim.dataio import (
    config_from_mapping,
    config_to_mapping,
    read_dataset_csv,
)
from dpqlsim.spectroscopy import (
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    level_code,
    thermal_distribution,
)
from dpqlsim.trajectory_sim import (
    ExperimentConfig,
    TrajectoryDynamics,
    TrialDataset,
    disjoint_bin_counts,
    ensemble_ground_occupancy,
    simulate_hours,
    simulate_trial,
)

CONSTANTS = MolecularConstants()


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.cycle == 0.040
        assert cfg.p_bright_noise == 0.03
        assert cfg.detection_fidelity == 0.72

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cycle": 0.0},
            {"p_bright_noise": -0.1},
            {"detection_fidelity": 1.5},
            {"collision_rate": -1.0},
            {"temperature": 0.0},
            {"rng_seed": -1},
            # A NaN passes any check written as a comparison it must fail.
            *({key: value} for value in (math.nan, math.inf, -math.inf)
              for key in ("cycle", "p_bright_noise", "detection_fidelity", "collision_rate",
                          "temperature")),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must"):
            ExperimentConfig(**kwargs)

    def test_mapping_round_trip(self):
        cfg = ExperimentConfig(cycle=0.05, rng_seed=3)
        back = config_from_mapping(ExperimentConfig, config_to_mapping(cfg))
        assert back == cfg
        assert len(config_to_mapping(ExperimentConfig())) == 6

    def test_mapping_casts_strings(self):
        cfg = config_from_mapping(
            ExperimentConfig, {"cycle": "0.04", "rng_seed": "9"}
        )
        assert cfg.cycle == 0.04
        assert cfg.rng_seed == 9

    def test_unknown_key_rejected(self):
        # A typo; four keys that configured nothing; and experiments_per_trial
        # and trial_duration_cap, as the stream length comes from --hours.
        for key in ("cyclee", "thermalization_wait", "ramp_fidelity_1", "ramp_fidelity_2",
                    "shelving_fidelity", "experiments_per_trial", "trial_duration_cap"):
            with pytest.raises(ValueError, match=key):
                config_from_mapping(ExperimentConfig, {key: "0.5"})


class TestRecordsAndDatasets:
    def test_record_validation(self):
        cfg = ExperimentConfig()
        ok = np.zeros(2, dtype=np.int8)
        with pytest.raises(ValueError):
            TrialDataset(np.array([0, 2]), ok, cfg)
        with pytest.raises(ValueError):
            TrialDataset(ok, np.array([5, 0]), cfg)
        with pytest.raises(ValueError):
            TrialDataset(ok.reshape(1, 2), ok, cfg)

    def test_columns_must_match_in_length(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError):
            TrialDataset(np.zeros(3), np.zeros(2), cfg)
        assert len(TrialDataset(np.zeros(1), np.zeros(1), cfg).records) == 1

    def test_csv_round_trip(self, tmp_path):
        ds = simulate_trial(ExperimentConfig(rng_seed=4), 50)
        path = tmp_path / "trial.csv"
        ds.to_csv(path)
        back = read_dataset_csv(path)
        assert len(back) == 50
        for a, b in zip(back, ds.records):
            assert (a[0], a[1], a[3]) == (b[0], b[1], b[3])
            # Timestamps round through the shared 10-digit float format.
            assert a[2] == pytest.approx(b[2], rel=1e-9)

    # (n_cycles, seed): short, long and one-cycle streams, at seeds drawn
    # once and frozen here.
    ROUND_TRIP_CASES = [
        (1, 0), (1, 91), (2, 5), (3, 17), (7, 23), (20, 8), (64, 404), (101, 77),
        (500, 12), (999, 3), (2500, 65), (4096, 29), (9000, 250), (29, 1), (1, 2),
        (50, 44), (60, 10), (308, 31), (40, 9),
    ]

    @pytest.mark.parametrize("n, seed", ROUND_TRIP_CASES)
    def test_randomized_round_trip(self, tmp_path, n, seed):
        cfg = ExperimentConfig(
            rng_seed=seed,
            # A cold bath with fast collisions puts ~42 % of cycles in the
            # ground level, so even short streams carry both labels.
            temperature=2.0, collision_rate=25.0,
        )
        ds = simulate_trial(cfg, n)
        rows = list(ds.records)
        size = ds.outcomes().size
        assert len(ds.records) == len(rows) == size == ds.hidden_labels().size
        assert ds.records[-1] == rows[-1]
        assert ds.records[-size] == rows[0]
        assert rows[-1][0] == size - 1
        with pytest.raises(IndexError):
            ds.records[size]
        path = tmp_path / "trial.csv"
        ds.to_csv(path)
        back = read_dataset_csv(path)
        assert [(i, o, h) for i, o, _, h in back] == [(i, o, h) for i, o, _, h in rows]
        assert [f"{t:.10g}" for _, _, t, _ in back] == [f"{t:.10g}" for _, _, t, _ in rows]

        outcomes, labels = ds.outcomes(), ds.hidden_labels()
        outcomes[:] = 1 - outcomes
        labels[:] = 1 - labels
        assert np.array_equal(ds.outcomes(), 1 - outcomes)
        assert np.array_equal(ds.hidden_labels(), 1 - labels)
        assert list(ds.records) == rows


class TestSimulateTrial:
    def test_deterministic_in_seed(self):
        cfg = ExperimentConfig(rng_seed=11)
        a, b = simulate_trial(cfg, 2000), simulate_trial(cfg, 2000)
        assert np.array_equal(a.outcomes(), b.outcomes())
        assert np.array_equal(a.hidden_labels(), b.hidden_labels())
        c = simulate_trial(replace(cfg, rng_seed=12), 2000)
        assert not np.array_equal(a.outcomes(), c.outcomes())

    def test_record_times_and_indices(self):
        ds = simulate_trial(ExperimentConfig(rng_seed=0), 5)
        assert [index for index, _, _, _ in ds.records] == [0, 1, 2, 3, 4]
        times = [time_s for _, _, time_s, _ in ds.records]
        assert times == [(k + 1) * 0.04 for k in range(5)]
        assert [ds.records[k][2] for k in range(5)] == times

    def test_simulate_hours_sizes_trial(self):
        ds = simulate_hours(ExperimentConfig(rng_seed=2), 0.1)
        assert len(ds.records) == 9000
        assert ds.records[-1][2] == pytest.approx(360.0)
        with pytest.raises(ValueError):
            simulate_hours(ExperimentConfig(), 0.0)

    def test_stream_needs_a_cycle(self):
        with pytest.raises(ValueError, match="n_cycles must be >= 1"):
            simulate_trial(ExperimentConfig(), 0)
        with pytest.raises(ValueError, match="rounds to zero cycles of 0.04 s"):
            simulate_hours(ExperimentConfig(), 0.4 * 0.04 / 3600.0)

    def test_room_temperature_statistics(self):
        # 0.5 h at the default operating point; frozen-seed stream, windows
        # sized several sigma wide for the implied binomials.
        ds = simulate_hours(replace(ExperimentConfig(), rng_seed=1), 0.5)
        labels, outcomes = ds.hidden_labels(), ds.outcomes()
        noise = outcomes[labels == 0]
        assert abs(noise.mean() - 0.03) < 0.003
        assert 0.001 < ds.ground_occupancy() < 0.012
        assert abs(outcomes.mean() - 0.033) < 0.005

    def test_emission_branches_with_collisional_mixing(self):
        # Cold thermal bath plus fast collisions: the hidden label is close
        # to an iid draw of the 2 K thermal ground weight (0.4159), giving
        # both emission branches tens of thousands of samples.
        cfg = ExperimentConfig(
            temperature=2.0, collision_rate=25.0, rng_seed=7,
        )
        ds = simulate_trial(cfg, 100000)
        labels, outcomes = ds.hidden_labels(), ds.outcomes()
        assert abs(ds.ground_occupancy() - 0.4159) < 0.01
        assert abs(outcomes[labels == 1].mean() - 0.72) < 0.01
        assert abs(outcomes[labels == 0].mean() - 0.03) < 0.003

    def test_degenerate_emission_probabilities(self):
        base = ExperimentConfig(rng_seed=3)
        dark_never = simulate_trial(
            replace(base, p_bright_noise=0.0, detection_fidelity=0.0), 500
        )
        assert not dark_never.outcomes().any()
        dark_always = simulate_trial(
            replace(base, p_bright_noise=1.0, detection_fidelity=1.0), 500
        )
        assert dark_always.outcomes().all()


class TestDynamics:
    def test_collision_probability(self):
        dyn = TrajectoryDynamics.for_config(ExperimentConfig())
        assert dyn.collision_prob == pytest.approx(-math.expm1(-0.008 * 0.040), rel=1e-12)

    def test_ground_stay_probability_matches_lifetime(self):
        # The stay probability is the propagator's diagonal entry.  It is
        # above the survival exp(-dt / tau) because leave-and-return paths
        # inside the cycle only add to it.
        from dpqlsim.bbr_kinetics import ground_state_residence_lifetime

        dyn = TrajectoryDynamics.for_config(ExperimentConfig())
        g = dyn.ground_code
        exact = _radiative_step(300.0)[g, g]
        assert dyn.stay_prob[g] == pytest.approx(exact, rel=0.0, abs=1e-12)
        tau = ground_state_residence_lifetime(CONSTANTS, 300.0)
        assert dyn.stay_prob[g] >= math.exp(-0.040 / tau)

    @pytest.mark.parametrize(
        "c, T, cycle",
        [(CONSTANTS, 300.0, 0.040), (CONSTANTS, 450.0, 0.1),
         (MolecularConstants(v_max=2, J_count=5), 300.0, 0.040)],
        ids=["300K", "450K", "v_max=2,J_count=5"],
    )
    def test_tables_match_state_keyed_build_bit_for_bit(self, c, T, cycle):
        dyn = TrajectoryDynamics(c, temperature=T, cycle=cycle, collision_rate=0.008)
        stay_prob, jump_cum, thermal_cum = oracles.dynamics_tables(c, T, cycle)
        assert dyn.stay_prob.tobytes() == stay_prob.tobytes()
        assert dyn.thermal_cum.tobytes() == thermal_cum.tobytes()
        assert len(dyn.jump_cum) == len(jump_cum)
        for got, want in zip(dyn.jump_cum, jump_cum):
            assert (got is None and want is None) or (
                np.array(got).tobytes() == np.array(want).tobytes()
            )
        assert dyn.states[dyn.ground_code] == ROT_GROUND

    @pytest.mark.parametrize(
        "c, T",
        [(CONSTANTS, 200.0), (CONSTANTS, 450.0), (MolecularConstants(v_max=1, J_count=1), 300.0),
         (MolecularConstants(v_max=0, J_count=1), 300.0)],
        ids=["200K", "450K", "v_max=1,J_count=1", "no radiative level"],
    )
    def test_stay_floor_is_the_lowest_radiative_stay_probability(self, c, T):
        # The simulator's jump candidates are the cycles whose gate clears
        # stay_floor, so a floor above any radiative stay_prob would miss
        # that level's jumps.
        dyn = TrajectoryDynamics(c, temperature=T, cycle=0.040, collision_rate=0.008)
        stay_prob, jump_cum, _ = oracles.dynamics_tables(c, T, 0.040)
        radiative = [p for p, cum in zip(stay_prob.tolist(), jump_cum) if cum is not None]
        assert type(dyn.stay_floor) is float
        assert dyn.stay_floor == min(radiative, default=1.0)

    @pytest.mark.parametrize(
        "c, T",
        [(CONSTANTS, 200.0), (CONSTANTS, 300.0), (CONSTANTS, 450.0), (CONSTANTS, 600.0),
         (MolecularConstants(v_max=2, J_count=5), 300.0)],
        ids=["200K", "300K", "450K", "600K", "v_max=2,J_count=5"],
    )
    def test_one_cycle_matrix_is_the_exact_propagator(self, c, T):
        # The simulator's one-cycle matrix (collision gate, then a table
        # draw) against scipy's expm of the full generator.
        dyn = TrajectoryDynamics(c, temperature=T, cycle=0.040, collision_rate=0.008)
        step = _per_cycle_matrix(dyn)
        pi, exact = _exact_kernel(dyn, T, collision_rate=0.008, cycle=0.040)
        assert np.abs(step - exact).max() <= 1e-12
        assert np.abs(pi @ step - pi).max() <= 1e-14

    def test_lower_manifold_frozen_without_collisions(self):
        # The fine-structure gap is radiatively closed, so without
        # collisions an Omega = 1/2 state cannot move at all.
        cfg = ExperimentConfig(collision_rate=0.0)
        dyn = TrajectoryDynamics.for_config(cfg)
        start = level_code(RoVibState(0, 1, 1), CONSTANTS)
        assert dyn.jump_cum[start] is None
        rng = np.random.default_rng(5)
        code = start
        for u in rng.random((500, 3)):
            code = dyn.step_code(code, u[0], u[1], u[2])
            assert code == start

    def test_one_cycle_marginal_stays_thermal(self):
        # Push a 60k ensemble 25 cycles from a thermal draw; the marginal
        # must stay thermal.  Gates: per-level exact binomial p-values
        # (tiny levels included), total variation against the 280-level
        # thermal vector (sampling noise alone gives ~0.018 here), and the
        # upper-manifold aggregate within 3 sigma.
        cfg = ExperimentConfig()
        dyn = TrajectoryDynamics.for_config(cfg)
        n, steps = 60000, 25
        rng = np.random.default_rng(908)
        codes = np.searchsorted(dyn.thermal_cum, rng.random(n), side="right")
        for _ in range(steps):
            u = rng.random((n, 3))
            new = codes.copy()
            collide = u[:, 0] < dyn.collision_prob
            new[collide] = np.searchsorted(
                dyn.thermal_cum, u[collide, 1], side="right"
            )
            rest = ~collide
            for code in np.unique(codes[rest]):
                cum = dyn.jump_cum[code]
                if cum is None:
                    continue
                mask = rest & (codes == code) & (u[:, 1] >= dyn.stay_prob[code])
                if mask.any():
                    new[mask] = np.searchsorted(cum, u[mask, 2], side="right")
            codes = new

        counts = np.bincount(codes, minlength=len(dyn.states))
        probs = thermal_distribution(CONSTANTS, 300.0)
        tvd = 0.5 * np.abs(counts / n - probs).sum()
        assert tvd < 0.03
        p_min = min(
            stats.binomtest(int(k), n, p).pvalue
            for k, p in zip(counts, probs)
            if p > 0.0
        )
        assert p_min > 1e-5
        upper = np.array([s.two_omega == 3 for s in dyn.states])
        frac = counts[upper].sum() / n
        expected = probs[upper].sum()
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(frac - expected) < 3.0 * se


def _table_weights(dyn: TrajectoryDynamics, code: int) -> np.ndarray:
    """Jump-target weights of one level, read back from its dense cumulative row."""
    weights = np.zeros(len(dyn.states))
    cum = dyn.jump_cum[code]
    weights[: len(cum)] = np.diff(cum, prepend=0.0)
    return weights


def _radiative_step(T: float) -> np.ndarray:
    """scipy's exp(G * 40 ms) of the radiative generator, column-stochastic."""
    return scipy.linalg.expm(build_rate_matrix(CONSTANTS, T).generator * 0.040)


def _step_weights(dyn: TrajectoryDynamics, state: RoVibState) -> np.ndarray:
    """Normalized off-diagonal 300 K propagator column of one level, in dyn's codes."""
    levels = radiative_levels(CONSTANTS)
    i = levels.index(state)
    column = _radiative_step(300.0)[:, i].copy()
    column[i] = 0.0
    weights = np.zeros(len(dyn.states))
    for k, level in enumerate(levels):
        weights[level_code(level, CONSTANTS)] = column[k] / column.sum()
    return weights


def _oracle_weights(dyn: TrajectoryDynamics, state: RoVibState) -> np.ndarray:
    """Jump-target weights from the 300 K generator column, in dyn's codes."""
    m = build_rate_matrix(CONSTANTS, 300.0)
    levels = radiative_levels(CONSTANTS)
    i = levels.index(state)
    column = m.generator[:, i].copy()
    column[i] = 0.0
    weights = np.zeros(len(dyn.states))
    for k, level in enumerate(levels):
        weights[level_code(level, CONSTANTS)] = column[k] / -m.generator[i, i]
    return weights


def _exact_kernel(dyn: TrajectoryDynamics, T: float, collision_rate: float,
                  cycle: float) -> tuple[np.ndarray, np.ndarray]:
    """(thermal pi, row-stochastic scipy expm(Q cycle)) in dyn's level codes,
    Q being the radiative rates on the Omega = 3/2 levels plus collisions
    that re-thermalize at ``collision_rate``."""
    n = len(dyn.states)
    pi = thermal_distribution(dyn.constants, T)
    codes = [level_code(s, dyn.constants) for s in radiative_levels(dyn.constants)]
    gen = collision_rate * (np.outer(pi, np.ones(n)) - np.eye(n))
    gen[np.ix_(codes, codes)] += build_rate_matrix(dyn.constants, T).generator
    return pi, scipy.linalg.expm(gen * cycle).T


def _per_cycle_matrix(dyn: TrajectoryDynamics) -> np.ndarray:
    """Row-stochastic one-cycle transition matrix of the simulator's step."""
    n = len(dyn.states)
    thermal = np.diff(dyn.thermal_cum, prepend=0.0)
    keep = 1.0 - dyn.collision_prob
    step = dyn.collision_prob * np.tile(thermal, (n, 1))
    for code in range(n):
        if dyn.jump_cum[code] is None:
            step[code, code] += keep
        else:
            step[code, code] += keep * dyn.stay_prob[code]
            step[code] += keep * (1.0 - dyn.stay_prob[code]) * _table_weights(dyn, code)
    return step


class TestReturnChannel:
    """The v = 1 round trip that brings a departed molecule straight back.

    Nearly every blackbody jump out of the ground level lands in v = 1,
    and v = 1, J = 3/2 decays back to the ground level at the ~5 /s of
    criterion 2, so many gaps between ground-level visits last only a few
    cycles.  The two-state HMM decoder cannot represent that channel.
    """

    V1_J32 = RoVibState(1, 3, 3)

    def test_ground_jumps_land_in_v1(self):
        # The table is the exact one-cycle row; the first jump out of the
        # ground level follows the generator's rate ratios.
        dyn = TrajectoryDynamics.for_config(ExperimentConfig())
        table = _table_weights(dyn, dyn.ground_code)
        assert np.allclose(table, _step_weights(dyn, ROT_GROUND), rtol=0.0, atol=1e-12)
        v1 = np.array([s.v == 1 for s in dyn.states])
        assert _oracle_weights(dyn, ROT_GROUND)[v1].sum() >= 0.99

    def test_v1_j32_returns_to_ground(self):
        dyn = TrajectoryDynamics.for_config(ExperimentConfig())
        table = _table_weights(dyn, level_code(self.V1_J32, CONSTANTS))
        assert np.allclose(table, _step_weights(dyn, self.V1_J32), rtol=0.0, atol=1e-12)
        oracle = _oracle_weights(dyn, self.V1_J32)
        assert oracle[dyn.ground_code] == pytest.approx(0.60, abs=0.005)

    def test_out_rates_within_docstring_bound(self):
        # The out-rates quoted in the TrajectoryDynamics docstring, per cycle.
        out_rates = -np.diag(build_rate_matrix(CONSTANTS, 300.0).generator) * 0.040
        assert out_rates.max() <= 0.26
        v1_j32 = radiative_levels(CONSTANTS).index(self.V1_J32)
        assert out_rates[v1_j32] == pytest.approx(0.21, abs=0.005)

    def test_quick_return_share_matches_absorbing_chain(self):
        # Exact share of departures from the ground level that are back
        # within 10 cycles: start from the one-cycle departure distribution
        # and make the ground level absorbing.
        dyn = TrajectoryDynamics.for_config(ExperimentConfig())
        step = _per_cycle_matrix(dyn)
        ground = dyn.ground_code
        mass = step[ground].copy()
        mass[ground] = 0.0
        mass /= mass.sum()
        expected = 0.0
        for _ in range(10):
            expected += mass @ step[:, ground]
            mass = mass @ step
            mass[ground] = 0.0

        # Simulated gaps: every departure with 10 cycles of stream left is
        # one Bernoulli trial, so a gap still open at the end of the stream
        # counts only once it is known to be long.
        labels = simulate_hours(ExperimentConfig(rng_seed=41), 10.0).hidden_labels()
        departures = np.nonzero(np.diff(labels) == -1)[0] + 1
        departures = departures[departures + 10 < labels.size]
        back = [labels[k : k + 11].any() for k in departures]
        share = float(np.mean(back))
        se = math.sqrt(expected * (1.0 - expected) / len(back))
        assert 0.35 <= expected <= 0.45
        assert abs(share - expected) <= 3.0 * se


def _share_central_moments(step: np.ndarray, pi: np.ndarray, g: int, n: int) -> list[float]:
    """Exact central moments 0-4 of the ground share over n stationary steps.

    With S the ground count, E[exp(t (S - n pi_g))] = pi^T (P D(t))^n 1,
    D(t) = diag(exp(t h)) and h = 1{ground} - pi_g; the power is taken by
    squaring on its Taylor coefficients in t, truncated after t^4.
    """
    h = -pi[g] * np.ones(len(pi))
    h[g] += 1.0
    base = [step * h**k / math.factorial(k) for k in range(5)]

    def times(x, y):
        return [sum(x[i] @ y[k - i] for i in range(k + 1)) for k in range(5)]

    power, m = None, n
    while m:
        if m & 1:
            power = base if power is None else times(power, base)
        m >>= 1
        if m:
            base = times(base, base)
    return [math.factorial(k) * float(pi @ power[k].sum(axis=1)) / n**k for k in range(5)]


def _run_both(config: ExperimentConfig, n: int, seed, constants=CONSTANTS,
              make_rng=np.random.default_rng):
    """(event-driven, per-cycle oracle) results for one seed, plus the next
    uniform each RNG gives afterwards, which shows the draws consumed."""
    runs = []
    for simulate in (trajectory_sim._simulate_arrays, oracles.simulate_arrays):
        rng = make_rng(seed)
        outcomes, labels = simulate(config, constants, rng, n)
        runs.append((outcomes, labels, rng.random()))
    return runs


def _assert_bit_equal(config: ExperimentConfig, n: int, seed, constants=CONSTANTS,
                      make_rng=np.random.default_rng) -> np.ndarray:
    (outcomes, labels, after), (outcomes_0, labels_0, after_0) = _run_both(
        config, n, seed, constants, make_rng)
    assert outcomes.dtype == labels.dtype == np.int8
    assert outcomes.shape == labels.shape == (n,)
    assert np.array_equal(outcomes, outcomes_0), (config, n, seed)
    assert np.array_equal(labels, labels_0), (config, n, seed)
    assert after == after_0
    return labels


class _StubGenerator:
    """An RNG stand-in serving set draws: the initial scalar, then the
    (n, 4) uniform block, then 0.5 for any later scalar."""

    def __init__(self, draws):
        first, self._block = draws
        self._scalars = [first, 0.5]

    def random(self, size=None):
        if size is None:
            return self._scalars.pop(0)
        assert size == self._block.shape
        return self._block.copy()


def _thermal_draw(dyn: TrajectoryDynamics, code: int) -> float:
    """A collision or initial variate that lands on ``code``."""
    lo = dyn.thermal_cum[code - 1] if code else 0.0
    u = float(lo + dyn.thermal_cum[code]) / 2
    assert dyn.sample_thermal_code(u) == code
    return u


def _stub_draws(dyn: TrajectoryDynamics, code: int, n: int, gates: dict, collisions=()):
    """Draws starting in ``code`` for n cycles that neither collide nor jump,
    but for the given gates (cycle -> value) and collision cycles."""
    block = np.full((n, 4), 0.5)
    block[:, 1] = 0.0
    for k, gate in gates.items():
        block[k, 1] = gate
    for k in collisions:
        block[k, 0] = 0.0
    return _thermal_draw(dyn, code), block


class TestEventDrivenAgainstOracle:
    """The event-driven simulator against the per-cycle loop it replaced."""

    # Short streams (0, 1 and 2 cycles), odd ones and long ones, so that
    # events fall near both ends of a stream and far from them.
    LENGTHS = (0, 1, 2, 63, 64, 65, 1023, 1024, 1025, 2049, 4097)

    @pytest.mark.parametrize("temperature", [200.0, 300.0, 450.0, 600.0])
    @pytest.mark.parametrize("collision_rate", [0.0, 0.008, 1e3])
    def test_lengths_temperatures_and_collision_rates(self, temperature, collision_rate):
        config = ExperimentConfig(temperature=temperature, collision_rate=collision_rate)
        seeds = random.Random(f"{temperature}/{collision_rate}")
        for n in self.LENGTHS:
            for _ in range(3):
                _assert_bit_equal(config, n, seeds.randrange(2**63))

    def test_collision_every_cycle(self):
        # At 1e3 /s a 40 ms cycle is a collision but for e^-40: every cycle
        # is an event, and the ground level is resampled about once in 250.
        config = ExperimentConfig(collision_rate=1e3)
        assert TrajectoryDynamics.for_config(config).collision_prob == 1.0
        labels = _assert_bit_equal(config, 4097, 5)
        assert labels.any()

    @pytest.mark.parametrize("detection_fidelity", [0.0, 1.0])
    @pytest.mark.parametrize("p_bright_noise", [0.0, 1.0])
    @pytest.mark.parametrize("collision_rate", [0.008, 1e3])
    def test_emission_extremes(self, detection_fidelity, p_bright_noise, collision_rate):
        config = ExperimentConfig(detection_fidelity=detection_fidelity,
                                  p_bright_noise=p_bright_noise, collision_rate=collision_rate)
        seeds = random.Random(f"{detection_fidelity}/{p_bright_noise}/{collision_rate}")
        for n in (1, 65, 4097):
            _assert_bit_equal(config, n, seeds.randrange(2**63))

    @pytest.mark.parametrize("temperature", [300.0, 450.0, 600.0])
    def test_long_streams(self, temperature):
        # Half an hour holds hundreds of jumps; at 1 /s collisions also cut
        # most search windows short and make ground visits common.
        seeds = random.Random(f"long/{temperature}")
        visits = 0
        for collision_rate in (0.008, 1.0):
            config = ExperimentConfig(temperature=temperature, collision_rate=collision_rate)
            for _ in range(2):
                labels = _assert_bit_equal(config, 45000, seeds.randrange(2**63))
                visits += int(np.count_nonzero(np.diff(labels, prepend=0) == 1))
        assert visits > 0

    @pytest.mark.parametrize(
        "temperature, collision_rate", [(300.0, 0.008), (300.0, 1.0), (600.0, 0.0), (600.0, 10.0)]
    )
    def test_watched_levels(self, monkeypatch, temperature, collision_rate):
        # The labels show only the rarely occupied ground level, so an event
        # taken at the wrong cycle elsewhere would mostly go unseen.  Both
        # simulators read the cached tables' ground_code: relabelling busy
        # levels as ground in turn makes every event into or out of them show.
        config = ExperimentConfig(temperature=temperature, collision_rate=collision_rate)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        by_weight = np.argsort(-np.diff(dyn.thermal_cum, prepend=0.0)).tolist()
        radiative = [c for c in by_weight if dyn.jump_cum[c] is not None][:5]
        collisional = [c for c in by_weight if dyn.jump_cum[c] is None][:1]
        seeds = random.Random(f"watched/{temperature}/{collision_rate}")
        watched_cycles = 0
        for code in radiative + collisional:
            monkeypatch.setattr(dyn, "ground_code", code)
            for n in (1, 2, 65, 20000, 20000, 20000):
                watched_cycles += int(_assert_bit_equal(config, n, seeds.randrange(2**63)).sum())
        assert watched_cycles > 1000

    def test_event_on_the_last_cycle(self, monkeypatch):
        # At 1e3 /s every cycle, the last one included, is a collision; watch
        # the most populated level (2.3 % at 300 K) so that some of many
        # one- and two-cycle streams end by entering it.
        config = ExperimentConfig(collision_rate=1e3)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        busiest = int(np.argmax(np.diff(dyn.thermal_cum, prepend=0.0)))
        monkeypatch.setattr(dyn, "ground_code", busiest)
        ends = [_assert_bit_equal(config, n, seed)[-1] for seed in range(300) for n in (1, 2)]
        assert sum(ends) > 0

    @pytest.mark.parametrize("collision_rate", [0.0, 5.0, 1e3])
    def test_no_radiative_level(self, collision_rate):
        # Only collisions move the state, and stay_floor is 1.0.
        constants = MolecularConstants(v_max=0, J_count=1)
        config = ExperimentConfig(collision_rate=collision_rate)
        seeds = random.Random(f"no radiative level/{collision_rate}")
        for n in (1, 1025, 4097):
            _assert_bit_equal(config, n, seeds.randrange(2**63), constants)

    # The stub streams below put their events near the start of a stream
    # and far into it.
    @pytest.mark.parametrize("at", [1, 1023, 1024, 2048])
    def test_gate_equal_to_stay_floor(self, monkeypatch, at):
        # The floor level jumps on a gate equal to stay_floor, the lowest
        # gate the candidate list keeps, and not on the float below it.
        config = ExperimentConfig(collision_rate=0.008)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        floor_code = dyn.stay_prob.tolist().index(dyn.stay_floor)
        gates = {at - 1: np.nextafter(dyn.stay_floor, 0.0), at: dyn.stay_floor}
        draws = _stub_draws(dyn, floor_code, at + 5, gates)
        monkeypatch.setattr(dyn, "ground_code", floor_code)
        labels = _assert_bit_equal(config, at + 5, draws, make_rng=_StubGenerator)
        assert labels.tolist() == [1] * at + [0] * 5

    @pytest.mark.parametrize("jump", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 1025, 4097])
    def test_every_cycle_a_candidate(self, n, jump):
        # Every gate equals stay_floor, which the ground level stays on, so
        # its scan passes each candidate of the stream and stops at the end
        # of the list; or, with a jump gate on the last cycle, leaves there.
        config = ExperimentConfig(collision_rate=0.008)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        stay = dyn.stay_prob[dyn.ground_code]
        assert dyn.stay_floor < stay
        gates = dict.fromkeys(range(n), dyn.stay_floor)
        if jump:
            gates[n - 1] = stay
        draws = _stub_draws(dyn, dyn.ground_code, n, gates)
        labels = _assert_bit_equal(config, n, draws, make_rng=_StubGenerator)
        assert labels.tolist() == [1] * (n - jump) + [0] * jump

    @pytest.mark.parametrize("at", [2, 1023, 1024, 2048])
    def test_gate_equal_to_stay_prob(self, at):
        # The ground level passes two candidates, one at stay_floor and one a
        # float below its own stay_prob, and jumps on a gate equal to it.
        config = ExperimentConfig(collision_rate=0.008)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        stay = dyn.stay_prob[dyn.ground_code]
        assert stay > dyn.stay_floor
        gates = {at - 2: dyn.stay_floor, at - 1: np.nextafter(stay, 0.0), at: stay}
        draws = _stub_draws(dyn, dyn.ground_code, at + 5, gates)
        labels = _assert_bit_equal(config, at + 5, draws, make_rng=_StubGenerator)
        assert labels.tolist() == [1] * at + [0] * 5

    @pytest.mark.parametrize("at", [2, 1023, 1024, 2048])
    @pytest.mark.parametrize("onto", ["jump gate", "floor level"])
    def test_collision_on_a_candidate_cycle(self, monkeypatch, at, onto):
        # From the ground level, a collision whose gate would also be a jump
        # takes the resample branch.  A collision into the floor level must
        # drop the candidate at stay_floor two cycles before it, which that
        # level would otherwise take as a jump back in time.
        config = ExperimentConfig(collision_rate=0.008)
        dyn = TrajectoryDynamics.for_config(config, CONSTANTS)
        floor_code = dyn.stay_prob.tolist().index(dyn.stay_floor)
        gate = 0.995 if onto == "jump gate" else _thermal_draw(dyn, floor_code)
        landed = dyn.sample_thermal_code(gate)
        assert landed != dyn.ground_code
        if onto == "jump gate":
            assert gate >= dyn.stay_prob[dyn.ground_code]
        draws = _stub_draws(dyn, dyn.ground_code, at + 5, {at - 2: dyn.stay_floor, at: gate},
                            collisions=[at])
        monkeypatch.setattr(dyn, "ground_code", landed)
        labels = _assert_bit_equal(config, at + 5, draws, make_rng=_StubGenerator)
        assert labels.tolist() == [0] * at + [1] * 5

    def test_trial_and_ensemble(self, monkeypatch):
        trial = ExperimentConfig(rng_seed=17, temperature=450.0)
        ensemble = ExperimentConfig(rng_seed=18, temperature=450.0)
        new_trial = simulate_trial(trial, 3086)
        new_fractions = ensemble_ground_occupancy(ensemble, 4, 0.25)
        monkeypatch.setattr(trajectory_sim, "_simulate_arrays", oracles.simulate_arrays)
        old_trial = simulate_trial(trial, 3086)
        assert np.array_equal(new_trial.outcome, old_trial.outcome)
        assert np.array_equal(new_trial.hidden, old_trial.hidden)
        # The ensemble walks the hidden state alone: compare it with the
        # oracle's labels of the same spawned streams.
        children = np.random.SeedSequence(ensemble.rng_seed).spawn(4)
        n_cycles = round(0.25 * 3600.0 / ensemble.cycle)
        old_fractions = [oracles.simulate_arrays(ensemble, CONSTANTS, np.random.default_rng(child),
                                                 n_cycles)[1].mean() for child in children]
        assert np.array_equal(new_fractions, old_fractions)
        assert new_fractions.dtype == np.float64


class TestEnsemble:
    def test_spawned_streams_reproducible_and_distinct(self):
        # Ground visits are bursty (one expected entry every ~15 min), so
        # the trials need to be long enough to tell the streams apart.
        cfg = ExperimentConfig(rng_seed=21)
        a = ensemble_ground_occupancy(cfg, 3, 1.0)
        b = ensemble_ground_occupancy(cfg, 3, 1.0)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) > 1

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            ensemble_ground_occupancy(ExperimentConfig(), 0, 1.0)

    @pytest.mark.parametrize(
        ("hours", "match"),
        [
            (0.0, "finite and positive"),
            (-1.0, "finite and positive"),
            (math.nan, "finite and positive"),
            (math.inf, "finite and positive"),
            (0.4 * 0.04 / 3600.0, "rounds to zero cycles"),
        ],
    )
    def test_requires_at_least_one_cycle(self, hours, match):
        # Checked before any stream is drawn: no NaN fractions, no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ensemble_ground_occupancy(ExperimentConfig(), 2, hours)
            with pytest.raises(ValueError, match=match):
                simulate_hours(ExperimentConfig(), hours)

    @pytest.mark.parametrize("temperature", [300.0, 450.0])
    def test_ground_share_mean_and_sd_match_the_kernel(self, temperature):
        # 100 streams of 2 h against the exact moments of an n-cycle ground
        # share under the kernel P = expm(Q dt), row-stochastic, with
        # A = P - 1 pi^T and the fundamental matrix Z = (I - A)^-1: the mean
        # is pi_g, and with C(k) = pi_g (A^k)_gg the variance is
        # (n pi_g (1 - pi_g) + 2 sum_{k<n} (n - k) C(k)) / n^2, where
        # sum_{k=1}^{n-1} (n - k) A^k = n (Z - I) - A (I - A^n) Z^2.
        cfg = ExperimentConfig(rng_seed=60, temperature=temperature)
        dyn = TrajectoryDynamics.for_config(cfg)
        n_states, g, n = len(dyn.states), dyn.ground_code, 180000
        pi, step = _exact_kernel(dyn, temperature, cfg.collision_rate, cfg.cycle)
        a = step - np.outer(np.ones(n_states), pi)
        ident = np.eye(n_states)
        z = np.linalg.inv(ident - a)
        lagged = n * (z - ident) - a @ (ident - np.linalg.matrix_power(a, n)) @ z @ z
        mean = pi[g]
        var = (n * mean * (1.0 - mean) + 2.0 * mean * lagged[g, g]) / n**2
        moments = _share_central_moments(step, pi, g, n)
        assert moments[2] == pytest.approx(var, rel=1e-9)

        shares = ensemble_ground_occupancy(cfg, 100, 2.0)
        size = shares.size
        assert abs(shares.mean() - mean) <= 3.0 * math.sqrt(var / size)
        # The sample variance's standard error from the share's exact fourth
        # moment.  The plug-in fourth moment of the 100 shares is no gate: the
        # share is heavy-tailed (kurtosis 5.6 at 300 K), and an ensemble that
        # misses the tail understates its variance and that moment together.
        se_var = math.sqrt((moments[4] - var**2 * (size - 3) / (size - 1)) / size)
        assert abs(shares.var(ddof=1) - var) <= 3.0 * se_var

    def test_one_cycle_trials(self):
        fractions = ensemble_ground_occupancy(ExperimentConfig(), 3, 0.6 * 0.04 / 3600.0)
        assert fractions.shape == (3,)
        assert set(fractions.tolist()) <= {0.0, 1.0}


class TestBinning:
    def test_disjoint_counts_hand_example(self):
        out = disjoint_bin_counts([1, 0, 0, 1], window=2)
        assert np.allclose(out, [0.5, 1.0, 0.0])

    def test_disjoint_counts_total_windows(self):
        rng = np.random.default_rng(0)
        arr = (rng.random(997) < 0.1).astype(int)
        out = disjoint_bin_counts(arr, window=20)
        assert out.shape == (21,)
        # Mean number of windows across offsets.
        expected = sum((997 - off) // 20 for off in range(20)) / 20
        assert out.sum() == pytest.approx(expected)

    def test_disjoint_counts_short_stream(self):
        assert np.allclose(disjoint_bin_counts([1, 0], window=20), np.zeros(21))

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 19, 20, 21, 100, 1999, 2000])
    def test_matches_offset_loop_bit_for_bit(self, window):
        rng = np.random.default_rng(window)
        for n in sorted({0, 1, window - 1, window, window + 1, 2 * window + 3, 997, 4001}):
            values = (rng.random(n) < 0.2).astype(np.int8)
            got = disjoint_bin_counts(values, window)
            want = oracles.disjoint_bin_counts(values, window)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n

    def test_two_hour_stream_matches_offset_loop_bit_for_bit(self):
        outcome = simulate_hours(ExperimentConfig(rng_seed=7), 2.0).outcome
        for window in (20, 2000):
            got = disjoint_bin_counts(outcome, window)
            assert got.tobytes() == oracles.disjoint_bin_counts(outcome, window).tobytes()
