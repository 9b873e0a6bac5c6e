"""Hidden-Markov detection layer.

Small-sequence behavior is checked against exhaustive path enumeration,
which is exact for a two-state chain on short streams.
"""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpqlsim.dataio import format_number, read_keyvalues
from dpqlsim.hmm_detector import (
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
    _fused_filters,
    _smooth,
)
from dpqlsim.trajectory_sim import ExperimentConfig, simulate_hours


def write_keyvalues(path, mapping: dict) -> None:
    """``key = value`` lines, floats formatted as the CSV writers format them."""
    cells = {k: format_number(v) if isinstance(v, float) else v for k, v in mapping.items()}
    path.write_text("".join(f"{k} = {v}\n" for k, v in cells.items()))


def brute_force_posteriors(params, obs):
    """Exact joint enumeration over all hidden paths."""
    n = len(obs)
    total = 0.0
    marg = np.zeros(n)
    best_prob, best_path = -1.0, None
    for path in itertools.product((0, 1), repeat=n):
        prob = params.initial[path[0]] * params.emit[path[0], obs[0]]
        for t in range(1, n):
            prob *= params.trans[path[t - 1], path[t]] * params.emit[path[t], obs[t]]
        total += prob
        for t in range(n):
            if path[t] == 1:
                marg[t] += prob
        if prob > best_prob:
            best_prob, best_path = prob, path
    return marg / total, math.log(total), np.array(best_path)


class TestHmmParams:
    def test_row_sums_enforced(self):
        with pytest.raises(ValueError):
            HmmParams(
                trans=np.array([[0.9, 0.2], [0.1, 0.9]]),
                emit=np.array([[0.97, 0.03], [0.28, 0.72]]),
                initial=np.array([0.5, 0.5]),
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            HmmParams(
                trans=np.array([[1.1, -0.1], [0.1, 0.9]]),
                emit=np.array([[0.97, 0.03], [0.28, 0.72]]),
                initial=np.array([0.5, 0.5]),
            )

    def test_initial_shape(self):
        with pytest.raises(ValueError):
            HmmParams(
                trans=np.eye(2),
                emit=np.array([[0.97, 0.03], [0.28, 0.72]]),
                initial=np.array([1.0, 0.0, 0.0]),
            )

    def test_mapping_round_trip(self):
        p = default_params()
        back = HmmParams.from_mapping(p.to_mapping())
        assert np.allclose(back.trans, p.trans)
        assert np.allclose(back.emit, p.emit)
        assert np.allclose(back.initial, p.initial)
        assert list(p.to_mapping()) == [
            "trans_00", "trans_01", "trans_10", "trans_11",
            "emit_00", "emit_01", "emit_10", "emit_11", "initial_0", "initial_1",
        ]
        assert list(p.to_mapping().values()) == [
            *p.trans.ravel().tolist(), *p.emit.ravel().tolist(), *p.initial.tolist()
        ]

    def test_mapping_value_error_names_the_key(self):
        m = {**default_params().to_mapping(), "emit_01": "abc"}
        with pytest.raises(ValueError, match="^key 'emit_01': could not convert"):
            HmmParams.from_mapping(m)

    @pytest.mark.parametrize("key", list(default_params().to_mapping()))
    def test_mapping_missing_key(self, key):
        m = default_params().to_mapping()
        del m[key]
        with pytest.raises(ValueError, match=f"^missing HMM parameter key '{key}'$"):
            HmmParams.from_mapping(m)

    @pytest.mark.parametrize("extra", [["trans_02"], ["initial_2", "emit"]])
    def test_mapping_rejects_unknown_keys(self, extra):
        m = {**default_params().to_mapping(), **dict.fromkeys(extra, 0.0)}
        keys = ", ".join(sorted(extra))
        with pytest.raises(ValueError, match=f"^unknown HMM parameter keys: {keys}$"):
            HmmParams.from_mapping(m)

    def test_mapping_rejects_broken_rows(self):
        m = default_params().to_mapping()
        m["emit_10"] = 0.5  # row now sums to 1.22
        with pytest.raises(ValueError):
            HmmParams.from_mapping(m)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["trans_00", "emit_11", "initial_1"])
    def test_non_finite_entries_rejected(self, key, value):
        name = key.split("_")[0]
        m = default_params().to_mapping()
        m[key] = value
        with pytest.raises(ValueError, match=f"^{name} "):
            HmmParams.from_mapping(m)
        p = default_params()
        arrays = {"trans": p.trans.copy(), "emit": p.emit.copy(), "initial": p.initial.copy()}
        arrays[name].flat[-1 if key.endswith("1") else 0] = value
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            HmmParams(**arrays)

    def test_keyvalue_file_round_trip(self, tmp_path):
        path = tmp_path / "hmm.kv"
        p = default_params()
        write_keyvalues(path, p.to_mapping())
        back = HmmParams.from_mapping(read_keyvalues(path))
        assert np.allclose(back.trans, p.trans, atol=1e-9)
        assert np.allclose(back.emit, p.emit, atol=1e-9)


class TestDefaultParams:
    def test_structure(self):
        p = default_params()
        assert p.emit[0, 1] == pytest.approx(0.03)
        assert p.emit[1, 1] == pytest.approx(0.72)
        assert p.trans[1, 0] == pytest.approx(0.015)
        assert p.initial[1] == pytest.approx(0.0047)

    def test_entry_rate_balances_occupancy(self):
        # Stationary signal weight of the chain equals the thermal p_g.
        p = default_params()
        entry, exit_ = p.trans[0, 1], p.trans[1, 0]
        assert entry == pytest.approx(0.0047 * 0.015 / (1.0 - 0.0047), rel=1e-12)
        assert entry / (entry + exit_) == pytest.approx(0.0047, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_params(p_b=-0.1)
        with pytest.raises(ValueError):
            default_params(p_g=1.0)


class TestForwardBackward:
    def test_against_exhaustive_enumeration(self):
        p = default_params(p_b=0.1, p_d=0.7, p_s=0.1, p_g=0.2)
        obs = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        exact_marg, exact_ll, _ = brute_force_posteriors(p, obs)
        d = forward_backward(p, obs)
        assert np.allclose(d.posteriors, exact_marg, atol=1e-12)
        assert d.log_likelihood == pytest.approx(exact_ll, abs=1e-10)

    def test_posteriors_are_probabilities(self):
        d = forward_backward(default_params(), [0, 1] * 30)
        assert np.all((d.posteriors >= 0.0) & (d.posteriors <= 1.0))
        assert d.states.dtype == np.int8

    def test_empty_stream(self):
        d = forward_backward(default_params(), [])
        assert d.states.size == 0
        assert d.posteriors.size == 0
        assert d.log_likelihood == 0.0

    def test_impossible_sequence(self):
        p = HmmParams(
            trans=default_params().trans,
            emit=np.array([[1.0, 0.0], [1.0, 0.0]]),  # dark impossible
            initial=np.array([0.9953, 0.0047]),
        )
        with pytest.raises(ValueError):
            forward_backward(p, [0, 0, 1])

    def test_invalid_observations(self):
        with pytest.raises(ValueError):
            forward_backward(default_params(), [0, 2])
        with pytest.raises(ValueError):
            forward_backward(default_params(), np.zeros((2, 2), dtype=int))

    def test_all_bright_stays_quiet(self):
        d = forward_backward(default_params(), np.zeros(20, dtype=int))
        assert float(d.posteriors.max()) == pytest.approx(2.8571882337758397e-05, rel=1e-9)
        assert not d.states.any()

    def test_uniform_emission_returns_stationary_prior(self):
        # With uninformative emissions and the stationary initial vector
        # the posterior is the prior at every record.
        base = default_params()
        p = HmmParams(
            trans=base.trans,
            emit=np.array([[0.5, 0.5], [0.5, 0.5]]),
            initial=base.initial,
        )
        d = forward_backward(p, [0, 1, 1, 0, 1])
        assert np.allclose(d.posteriors, 0.0047, atol=1e-9)

    @pytest.mark.parametrize("run_length,mean_posterior", [(10, 0.993601), (15, 0.995734)])
    def test_dark_run_posterior(self, run_length, mean_posterior):
        # Mean smoothed posterior over an embedded dark run; the edge
        # records carry the ambiguity about exactly when the episode
        # started and ended.
        obs = np.array([0] * 40 + [1] * run_length + [0] * 40)
        d = forward_backward(default_params(), obs)
        run = d.posteriors[40 : 40 + run_length]
        assert float(run.mean()) == pytest.approx(mean_posterior, abs=2e-6)
        assert float(run.min()) == pytest.approx(0.969361, abs=2e-6)
        assert run.max() > 0.9999


class TestViterbi:
    def test_against_exhaustive_enumeration(self):
        p = default_params(p_b=0.1, p_d=0.7, p_s=0.1, p_g=0.2)
        obs = np.array([0, 1, 1, 0, 1, 1, 1, 0])
        _, _, exact_path = brute_force_posteriors(p, obs)
        assert np.array_equal(viterbi(p, obs), exact_path)

    def test_dark_segment_covered_exactly(self):
        obs = np.array([0] * 20 + [1] * 15 + [0] * 20)
        path = viterbi(default_params(), obs)
        flagged = np.nonzero(path)[0]
        assert flagged.min() == 20 and flagged.max() == 34
        assert flagged.size == 15

    def test_isolated_dark_ignored(self):
        obs = np.array([0] * 10 + [1] + [0] * 10)
        assert not viterbi(default_params(), obs).any()

    def test_empty_stream(self):
        assert viterbi(default_params(), []).size == 0

    def test_noise_only_stream_has_no_detections(self):
        rng = np.random.default_rng(99)
        noise = (rng.random(20000) < 0.03).astype(int)
        p = default_params()
        assert viterbi(p, noise).sum() == 0
        assert forward_backward(p, noise).states.sum() == 0


class TestSupervisedEstimation:
    def test_recovers_simulator_rates(self):
        ds = simulate_hours(replace(ExperimentConfig(), rng_seed=55), 1.0)
        est = estimate_params_supervised([ds])
        assert abs(est.emit[0, 1] - 0.03) < 0.005
        assert abs(est.emit[1, 1] - 0.72) < 0.05
        assert 0.003 < est.trans[1, 0] < 0.03

    def test_accepts_plain_pairs(self):
        obs = np.array([0, 1, 1, 0, 0])
        labels = np.array([0, 1, 1, 0, 0])
        est = estimate_params_supervised([(obs, labels)])
        assert est.emit[1, 1] > est.emit[0, 1]

    def test_missing_state_named_in_error(self):
        obs = np.array([0, 0, 1, 0])
        labels = np.zeros(4, dtype=int)
        with pytest.raises(EstimationError) as err:
            estimate_params_supervised([(obs, labels)])
        assert STATE_NAMES[1] in str(err.value)

    def test_unlabeled_dataset_rejected(self):
        ds = simulate_hours(ExperimentConfig(rng_seed=1), 0.01)
        stripped = [(ds.outcomes(), None)]
        with pytest.raises((EstimationError, Exception)):
            estimate_params_supervised(stripped)

    def test_no_data_rejected(self):
        with pytest.raises(EstimationError):
            estimate_params_supervised([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_params_supervised([(np.zeros(3, dtype=int), np.zeros(4, dtype=int))])

    def test_na_and_out_of_range_values_rejected(self):
        # A dataset's NA label reads as -1; np.add.at would wrap it to the
        # signal row, and an outcome of 2 would fail as an IndexError.
        obs = [0, 1, 1, 0, 0, 1, 0, 0]
        labels = [0, -1, -1, 0, 0, 1, 0, 0]
        with pytest.raises(ValueError, match="^labels must be 0 or 1, got -1$"):
            estimate_params_supervised([(obs, labels)])
        with pytest.raises(ValueError, match="^observations must be 0 or 1, got 2$"):
            estimate_params_supervised([([0, 2, 1, 0], [0, 1, 1, 0])])

    def test_error_shrinks_with_more_data(self):
        # Deterministic seeds; the 8x larger corpus must estimate the
        # emission rates more accurately on average.
        def mean_error(hours):
            errs = []
            for seed in (60, 61, 66):
                ds = simulate_hours(replace(ExperimentConfig(), rng_seed=seed), hours)
                est = estimate_params_supervised([ds])
                errs.append(
                    abs(est.emit[1, 1] - 0.72) + abs(est.emit[0, 1] - 0.03)
                )
            return float(np.mean(errs))

        assert mean_error(8.0) < mean_error(1.0)


@st.composite
def labelled_pairs(draw):
    """One to four (observations, labels) streams, empty and 1-record ones
    included; a signal share of 0 or 1 leaves a hidden state unseen."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([0, 1]) | st.integers(2, 400))
        p_signal = draw(st.sampled_from([0.0, 0.02, 0.5, 1.0]))
        p_dark = draw(_prob)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        labels = (rng.random(n) < p_signal).astype(np.int8)
        pairs.append(((rng.random(n) < p_dark).astype(np.int8), labels))
    return pairs


class TestSupervisedCountsAgainstOracle:
    """The bincount fit against the np.add.at counts, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(labelled_pairs())
    def test_bit_identical(self, pairs):
        try:
            counts = oracles.supervised_counts(pairs)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as got:
                estimate_params_supervised(pairs)
            assert str(got.value) == str(exc)
            return
        est = estimate_params_supervised(pairs)
        for have, count in zip((est.trans, est.emit, est.initial), counts):
            smoothed = count + 1.0
            want = smoothed / smoothed.sum(axis=-1, keepdims=True)
            assert np.array_equal(_bits(have), _bits(want))

    @pytest.mark.parametrize("pairs", [
        [], [(np.zeros(0, np.int8), np.zeros(0, np.int8))],
        [(np.array([0, 1, 1]), np.zeros(3, np.int8)), (np.array([1]), np.zeros(1, np.int8))],
        [(np.array([1, 1]), np.ones(2, np.int8))],
    ])
    def test_same_errors(self, pairs):
        with pytest.raises(EstimationError) as want:
            oracles.supervised_counts(pairs)
        with pytest.raises(EstimationError) as got:
            estimate_params_supervised(pairs)
        assert str(got.value) == str(want.value)


def loop_baum_welch(obs, params, max_iter, tol):
    """Per-record EM loop: the reference for the shared smoother and the
    contracted transition count."""
    obs = np.asarray(obs, dtype=np.int8)
    n = obs.size
    history = []
    for _ in range(max_iter):
        trans, emit = params.trans, params.emit
        alpha = np.empty((n, 2))
        scale = np.empty(n)
        a = params.initial * emit[:, obs[0]]
        scale[0] = a.sum()
        alpha[0] = a / scale[0]
        for t in range(1, n):
            a = (alpha[t - 1] @ trans) * emit[:, obs[t]]
            scale[t] = a.sum()
            alpha[t] = a / scale[t]
        history.append(float(np.log(scale).sum()))
        beta = np.empty((n, 2))
        beta[n - 1] = 1.0
        for t in range(n - 2, -1, -1):
            beta[t] = trans @ (emit[:, obs[t + 1]] * beta[t + 1]) / scale[t + 1]
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        xi_sum = np.zeros((2, 2))
        for t in range(n - 1):
            xi_sum += (
                alpha[t][:, None]
                * trans
                * (emit[:, obs[t + 1]] * beta[t + 1])[None, :]
                / scale[t + 1]
            )
        new_trans = xi_sum / gamma[:-1].sum(axis=0)[:, None]
        emit_num = np.zeros((2, 2))
        for o in (0, 1):
            emit_num[:, o] = gamma[obs == o].sum(axis=0)
        new_emit = emit_num / gamma.sum(axis=0)[:, None]
        params = HmmParams(
            trans=new_trans / new_trans.sum(axis=1, keepdims=True),
            emit=new_emit / new_emit.sum(axis=1, keepdims=True),
            initial=gamma[0] / gamma[0].sum(),
        )
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            break
    return params, history


class TestBaumWelch:
    def synthetic_stream(self, n=1500, seed=17):
        truth = default_params(p_b=0.03, p_d=0.7, p_s=0.02, p_g=0.2)
        rng = np.random.default_rng(seed)
        obs = np.empty(n, dtype=int)
        s = 1
        for t in range(n):
            obs[t] = rng.random() < truth.emit[s, 1]
            if s == 0:
                s = int(rng.random() < truth.trans[0, 1])
            else:
                s = int(rng.random() >= truth.trans[1, 0])
        return obs

    def test_likelihood_monotone_and_improves(self):
        obs = self.synthetic_stream()
        start = default_params(p_b=0.05, p_d=0.5, p_s=0.05, p_g=0.2)
        refined, history = baum_welch(obs, start, max_iter=25)
        assert len(history) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        assert history[-1] > history[0] + 1.0
        # The refined fidelity moves from the deliberately wrong 0.5
        # toward the generating 0.7.
        assert abs(refined.emit[1, 1] - 0.7) < abs(0.5 - 0.7)

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            baum_welch([1], default_params())

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_matches_loop_oracle(self, tol):
        obs = self.synthetic_stream()
        start = default_params(p_b=0.05, p_d=0.5, p_s=0.05, p_g=0.2)
        refined, history = baum_welch(obs, start, max_iter=12, tol=tol)
        expected, expected_history = loop_baum_welch(obs, start, 12, tol)
        for name in ("trans", "emit", "initial"):
            np.testing.assert_allclose(
                getattr(refined, name), getattr(expected, name), rtol=1e-10, atol=0.0
            )
        assert len(history) == len(expected_history)
        np.testing.assert_allclose(history, expected_history, rtol=1e-9, atol=0.0)

    def test_converged_input_is_stable(self):
        obs = self.synthetic_stream(n=800)
        start = default_params(p_b=0.03, p_d=0.7, p_s=0.02, p_g=0.2)
        refined, history = baum_welch(obs, start, max_iter=30, tol=1e-9)
        # Started at the generating parameters: little room to move.
        assert abs(refined.emit[1, 1] - 0.7) < 0.1


class TestEvaluate:
    def test_perfect_prediction(self):
        m = evaluate([0, 1, 1, 0], [0, 1, 1, 0])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.correct_positive == 2
        assert m.incorrect_positive == 0
        assert m.incorrect_negative == 0

    def test_counts(self):
        m = evaluate([1, 1, 0, 0], [1, 0, 1, 0])
        assert m.correct_positive == 1
        assert m.incorrect_positive == 1
        assert m.incorrect_negative == 1
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.5)
        assert m.f1 == pytest.approx(0.5)

    def test_f1_between_precision_and_recall(self):
        m = evaluate([1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 0, 0])
        assert min(m.precision, m.recall) <= m.f1 <= max(m.precision, m.recall)

    def test_empty_positive_edge_cases(self):
        quiet = evaluate([0, 0], [0, 0])
        assert (quiet.precision, quiet.recall, quiet.f1) == (1.0, 1.0, 1.0)
        missed = evaluate([0, 0], [0, 1])
        assert missed.precision == 0.0
        assert missed.recall == 0.0
        assert missed.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([0, 1], [0, 1, 0])

    def test_na_and_out_of_range_values_rejected(self):
        # An NA truth label (-1) would drop its record from every count.
        with pytest.raises(ValueError, match="^truth must be 0 or 1, got -1$"):
            evaluate([1, 1, 0], [-1, 1, 0])
        with pytest.raises(ValueError, match="^predictions must be 0 or 1, got 2$"):
            evaluate([2, 1, 0], [1, 1, 0])
        with pytest.raises(ValueError, match="^predictions must be one-dimensional$"):
            evaluate([[1, 0]], [1, 0])


class TestDecodedCsv:
    def test_round_trip(self, tmp_path):
        obs = np.array([0] * 5 + [1] * 6 + [0] * 5)
        decoded = forward_backward(default_params(), obs)
        path = tmp_path / "decoded.csv"
        write_decoded_csv(path, obs, decoded)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,outcome,predicted_state,posterior"
        assert len(lines) == 17
        cells = lines[6].split(",")
        assert cells[0] == "5" and cells[1] == "1"
        assert 0.0 <= float(cells[3]) <= 1.0

    def test_custom_indices(self, tmp_path):
        obs = np.array([0, 1])
        decoded = forward_backward(default_params(), obs)
        path = tmp_path / "decoded.csv"
        write_decoded_csv(path, obs, decoded, indices=[100, 101])
        assert path.read_text().splitlines()[1].startswith("100,")

    def test_length_mismatch(self, tmp_path):
        obs = np.array([0, 1, 0])
        decoded = forward_backward(default_params(), obs[:2])
        with pytest.raises(ValueError):
            write_decoded_csv(tmp_path / "x.csv", obs, decoded)


# Probabilities that make entries vanish or rows symmetric come up often,
# so zero-probability paths and exact Viterbi ties are exercised.
# Nonzero draws stay above 1e-9, so ten-record products cannot underflow.
_prob = st.sampled_from([0.0, 0.5, 1.0, 0.03, 0.72]) | st.floats(1e-9, 1.0)


@st.composite
def hmm_params(draw):
    def row():
        p = draw(_prob)
        return [1.0 - p, p]

    return HmmParams(
        trans=np.array([row(), row()]),
        emit=np.array([row(), row()]),
        initial=np.array(row()),
    )


@st.composite
def streams(draw, max_size=2000):
    n = draw(st.integers(1, max_size))
    p_dark = draw(_prob)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(n) < p_dark).astype(np.int8)


def _outcome(fn, *args):
    """fn(*args), or the ValueError message it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_forward_backward_peak_memory():
    # Eight stream-length float rows: the shared forward and backward state
    # buffer (4), the forward normalizers, w (2) and one temporary.  A kept
    # backward normalizer or state buffer would add a ninth.
    n = 180000
    obs = (np.random.default_rng(9).random(n) < 0.05).astype(np.int8)
    forward_backward(default_params(), obs[:100])
    tracemalloc.start()
    try:
        forward_backward(default_params(), obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 8 * n


class TestScalarKernelsAgainstOracle:
    """The scalar forward-backward and Viterbi loops against the numpy-loop oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hmm_params(), streams())
    def test_viterbi_path_identical(self, params, obs):
        assert np.array_equal(viterbi(params, obs), oracles.viterbi(params, obs))

    def test_viterbi_ties_go_to_state_zero(self):
        flat = HmmParams(trans=np.full((2, 2), 0.5), emit=np.full((2, 2), 0.5),
                         initial=np.full(2, 0.5))
        obs = np.array([0, 1, 1, 0, 1])
        assert not viterbi(flat, obs).any()
        assert np.array_equal(viterbi(flat, obs), oracles.viterbi(flat, obs))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hmm_params(), streams())
    def test_smoothing_matches_oracle(self, params, obs):
        expected = _outcome(oracles.forward_backward, params, obs)
        got = _outcome(forward_backward, params, obs)
        if isinstance(expected, str):
            assert got == expected  # the same "impossible" error
            return
        posteriors, log_likelihood = expected
        assert np.all((got.posteriors >= 0.0) & (got.posteriors <= 1.0))
        assert np.allclose(got.posteriors, posteriors, rtol=0.0, atol=1e-12)
        assert got.log_likelihood == pytest.approx(log_likelihood, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hmm_params(), streams(max_size=10))
    def test_log_likelihood_matches_brute_force(self, params, obs):
        # Exact rational sum over all paths, so no product underflows.
        trans, emit, initial = (
            [[Fraction(x) for x in row] for row in np.atleast_2d(m).tolist()]
            for m in (params.trans, params.emit, params.initial)
        )
        total = Fraction(0)
        for path in itertools.product((0, 1), repeat=obs.size):
            prob = initial[0][path[0]] * emit[path[0]][obs[0]]
            for t in range(1, obs.size):
                prob *= trans[path[t - 1]][path[t]] * emit[path[t]][obs[t]]
            total += prob
        if total == 0:
            with pytest.raises(ValueError, match="impossible"):
                forward_backward(params, obs)
            return
        exact_ll = math.log(total.numerator) - math.log(total.denominator)
        got = forward_backward(params, obs).log_likelihood
        assert got == pytest.approx(exact_ll, rel=1e-12, abs=1e-12)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _chunked_or_error(params, obs):
    """The chunked passes as (alpha, scale, r, backward scale), or the
    ValueError message; numpy warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            alpha, scale, r, _ = _smooth(params, obs)
            back_scale = _fused_filters(params, obs)[2]
        except ValueError as exc:
            return str(exc)
    return alpha.T, scale, r.T, back_scale[::-1]


def _scalar_or_error(params, obs):
    try:
        alpha, _, scale = oracles.smooth_scalar(params, obs)
        r, back_scale = oracles.backward_scalar(params, obs)
    except ValueError as exc:
        return str(exc)
    return alpha, scale, r, back_scale


def _assert_bit_identical(params, obs):
    expected = _scalar_or_error(params, obs)
    got = _chunked_or_error(params, obs)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected  # the same "impossible" error
        return
    for name, want, have in zip(("alpha", "scale", "r", "back_scale"), expected, got):
        assert np.array_equal(_bits(have), _bits(want)), name


@st.composite
def chunked_streams(draw):
    """Lengths 1-5, where the chunking degenerates, up to many chunks."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5]) | st.integers(6, 6000))
    p_dark = draw(_prob)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(n) < p_dark).astype(np.int8)


class TestChunkedFilterBitExact:
    """The chunked forward and backward passes against the scalar loops, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hmm_params(), chunked_streams())
    def test_matches_scalar_loops(self, params, obs):
        _assert_bit_identical(params, obs)

    # Chunks hold b = isqrt(n - 1) + 1 records.  n = 4161 has n - 1 = 64 b
    # (b = 65), so its last chunk is full, and n = 4162 puts one record past
    # it; n = 1500 has b = 39, under _WARMUP = 64.  b = 39 and 65 end on a
    # part-filled panel of _PANEL = 32 offsets, and n = 9121 (b = 96 = 3 x 32)
    # on a full one.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 1500, 4097, 4161, 4162, 9121, 20000])
    def test_lengths(self, n):
        obs = (np.random.default_rng(n).random(n) < 0.1).astype(np.int8)
        _assert_bit_identical(default_params(), obs)

    @pytest.mark.parametrize("p_dark", [0.0, 0.3, 1.0])
    def test_identity_transitions_never_forget(self, p_dark):
        # The state never coalesces, so every chunk is redone to its end.
        params = HmmParams(
            trans=np.eye(2), emit=np.array([[0.97, 0.03], [0.28, 0.72]]),
            initial=np.array([0.6, 0.4]),
        )
        obs = (np.random.default_rng(5).random(3000) < p_dark).astype(np.int8)
        _assert_bit_identical(params, obs)

    def test_zero_entries(self):
        # State 0 never emits a dark and state 1 never a bright, so every
        # speculative chunk that starts from the wrong state divides 0 by 0.
        params = HmmParams(
            trans=np.array([[0.9, 0.1], [0.0, 1.0]]),
            emit=np.array([[1.0, 0.0], [0.0, 1.0]]),
            initial=np.array([1.0, 0.0]),
        )
        obs = np.r_[np.zeros(1500, np.int8), np.ones(2500, np.int8)]
        _assert_bit_identical(params, obs)
        assert np.array_equal(forward_backward(params, obs).states, obs)

    @pytest.mark.parametrize("where", [0, 1, 56, 2999])
    def test_impossible_sequence_raises_scalar_message(self, where):
        # A dark from a model that never emits one: in record 0, in chunk 0,
        # at the first seam (chunks of 55 records start at 1 + 55 c) and in
        # the last record.
        params = HmmParams(
            trans=np.array([[0.99, 0.01], [0.02, 0.98]]),
            emit=np.array([[1.0, 0.0], [1.0, 0.0]]),
            initial=np.array([0.5, 0.5]),
        )
        obs = np.zeros(3000, np.int8)
        obs[where] = 1
        expected = _scalar_or_error(params, obs)
        assert expected == "observation sequence impossible under the model"
        _assert_bit_identical(params, obs)
        with pytest.raises(ValueError, match="^observation sequence impossible"):
            forward_backward(params, obs)
