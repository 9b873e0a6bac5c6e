"""Bin-count models and exact longest-run significance."""

import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtri_exp
from scipy.stats import binom, norm

from dpqlsim import run_statistics
from dpqlsim.run_statistics import (
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
from dpqlsim.trajectory_sim import disjoint_bin_counts

# Frozen from independent evaluations of the exact run-length automaton.
Z_1000_4 = 4.070291517361775
Z_1000_7 = 6.071911800009298


class TestNoiseSignalModel:
    def test_defaults(self):
        m = NoiseSignalModel()
        assert (m.p_b, m.p_d, m.p_s, m.bin) == (0.03, 0.72, 0.015, 20)
        # The occupancy is an argument of bin_value_distribution, not a field.
        assert [f.name for f in dataclasses.fields(m)] == ["p_b", "p_d", "p_s", "bin"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_b": -0.1},
            {"p_d": 1.2},
            {"p_s": 2.0},
            {"p_b": 0.5, "p_d": 0.4},  # fidelity below the noise floor
            {"bin": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSignalModel(**kwargs)


class TestBinPmfs:
    def test_noise_zero_count(self):
        m = NoiseSignalModel()
        assert noise_pmf(m)[0] == pytest.approx(0.97**20, rel=1e-12)

    def test_pmfs_normalized(self):
        m = NoiseSignalModel()
        assert noise_pmf(m).sum() == pytest.approx(1.0, abs=1e-9)
        assert signal_pmf(m).sum() == pytest.approx(1.0, abs=1e-9)

    def test_signal_pmf_two_cycle_hand_computation(self):
        # bin=2, p_b=0.1, p_d=0.6, p_s=0.5: residence 1 cycle w.p. 0.5
        # (conv of Bern(0.6) and Bern(0.1)), else both cycles at 0.6.
        m = NoiseSignalModel(p_b=0.1, p_d=0.6, p_s=0.5, bin=2)
        pmf = signal_pmf(m)
        expected = 0.5 * np.array([0.36, 0.58, 0.06]) + 0.5 * np.array([0.16, 0.48, 0.36])
        assert np.allclose(pmf, expected, atol=1e-12)

    def test_signal_pmf_against_direct_sampling(self):
        # Independent sampling of the generative story: geometric ground
        # residence capped at the bin, darks from the two binomials.
        m = NoiseSignalModel()
        pmf = signal_pmf(m)
        rng = np.random.default_rng(5150)
        n = 200000
        stay = np.minimum(rng.geometric(m.p_s, n), m.bin)
        darks = rng.binomial(stay, m.p_d) + rng.binomial(m.bin - stay, m.p_b)
        counts = np.bincount(darks, minlength=m.bin + 1)
        expected = n * pmf
        se = np.sqrt(np.maximum(expected * (1.0 - pmf), 1e-12))
        assert np.abs(counts - expected).max() > 0.0
        assert (np.abs(counts - expected) / se).max() < 4.0

    def test_signal_shifted_right_of_noise(self):
        m = NoiseSignalModel()
        k = np.arange(m.bin + 1)
        assert (signal_pmf(m) * k).sum() > (noise_pmf(m) * k).sum() + 1.0


class TestBinValueDistribution:
    def test_counts_sum_to_n_bins(self):
        counts = bin_value_distribution(5000, NoiseSignalModel(), p_g=0.004)
        assert counts.sum() == pytest.approx(5000.0, rel=1e-9)
        assert counts.shape == (21,)

    def test_validation(self):
        m = NoiseSignalModel()
        with pytest.raises(ValueError):
            bin_value_distribution(0, m, 0.01)
        for p_g in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="p_g must lie in"):
                bin_value_distribution(10, m, p_g)


def brute_force_run_cdf(n: int, x: int, p: float) -> float:
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        run = best = 0
        for b in bits:
            run = run + 1 if b else 0
            best = max(best, run)
        if best <= x:
            k = sum(bits)
            total += p**k * (1.0 - p) ** (n - k)
    return total


class TestLongestRunCdf:
    def test_against_exhaustive_enumeration(self):
        for n, x, p in [(8, 2, 0.3), (10, 0, 0.1), (12, 4, 0.5), (9, 3, 0.03)]:
            exact = brute_force_run_cdf(n, x, p)
            assert longest_run_cdf(n, x, p) == pytest.approx(exact, abs=1e-12)
            assert oracles.longest_run_cdf(n, x, p) == pytest.approx(exact, abs=1e-12)

    def test_automaton_matches_recursion_at_scale(self):
        for n in (50, 117, 200):
            for x in (1, 3, 6):
                a = longest_run_cdf(n, x, 0.03)
                r = oracles.longest_run_cdf(n, x, 0.03)
                assert a == pytest.approx(r, abs=1e-12)

    def test_edge_cases(self):
        assert longest_run_cdf(0, 0, 0.3) == 1.0
        assert longest_run_cdf(5, 5, 0.3) == pytest.approx(1.0, abs=1e-12)
        assert longest_run_cdf(5, 2, 0.0) == 1.0

    def test_long_streams_skip_the_dense_automaton(self, monkeypatch):
        # Both points are closed-form exact (a single run fits, or the
        # double-counted terms sit far below 2^-53), so neither may build
        # the (x + 2)^2 automaton: at x = 29999 it would take 7.2 GB.
        def refuse(n, x, p_dark):
            raise AssertionError(f"dense automaton requested for n={n}, x={x}")

        monkeypatch.setattr(run_statistics, "_automaton_row", refuse)
        assert longest_run_cdf(30000, 29999, 0.05) == 1.0
        assert longest_run_cdf(30000, 10000, 0.05) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            longest_run_cdf(5, 6, 0.3)
        with pytest.raises(ValueError):
            longest_run_cdf(-1, 0, 0.3)
        with pytest.raises(ValueError):
            longest_run_cdf(5, 2, 1.5)


class TestGaussianConversion:
    def test_against_complementary_error_function(self):
        # The one-sided z of SignificanceResult, upper tail p = erfc(z / sqrt 2) / 2.
        for n, x, p_dark in [(2, 0, 0.5), (100, 2, 0.1), (1000, 4, 0.03), (1000, 6, 0.03),
                             (30000, 12, 0.05)]:
            result = significance(n, x, p_dark)
            assert 0.0 < result.p_value < 1.0
            assert 0.5 * erfc(result.z / math.sqrt(2.0)) == pytest.approx(
                result.p_value, rel=1e-10
            )


class TestSignificance:
    def test_frozen_thresholds(self):
        assert significance(1000, 4, 0.03).z == pytest.approx(Z_1000_4, rel=1e-12)
        assert significance(1000, 7, 0.03).z == pytest.approx(Z_1000_7, rel=1e-12)

    def test_p_value_consistent_with_cdf(self):
        p = significance(1000, 4, 0.03).p_value
        assert p == pytest.approx(1.0 - longest_run_cdf(1000, 4, 0.03), rel=1e-9)

    @pytest.mark.parametrize("log_p", [1e-300, 0.5, math.inf, math.nan])
    def test_positive_or_nan_log_p_rejected(self, log_p):
        with pytest.raises(ValueError, match="log_p must be <= 0"):
            SignificanceResult(n=10, x=2, p_dark=0.03, log_p=log_p)

    def test_fields_derive_from_log_p(self):
        ok = SignificanceResult(n=10, x=0, p_dark=0.03, log_p=0.0)
        assert (ok.p_value, ok.log10_p, ok.z) == (1.0, 0.0, -math.inf)
        # Below the float range the p-value reads 0.0; log10_p and z stay finite.
        tiny = SignificanceResult(n=10, x=2, p_dark=0.03, log_p=-1000.0)
        assert tiny.p_value == 0.0
        assert tiny.log10_p == -1000.0 / math.log(10.0)
        assert 44.0 < tiny.z < 45.0
        result = significance(1000, 4, 0.03)
        assert result.p_value == math.exp(result.log_p)
        assert result.log10_p == result.log_p / math.log(10.0)

    def test_json_dict(self):
        d = significance(1000, 4, 0.03).to_json_dict()
        assert d["n"] == 1000 and d["x"] == 4
        assert set(d) == {"n", "x", "p_dark", "p_value", "log10_p", "z"}
        assert d["log10_p"] == pytest.approx(math.log10(d["p_value"]), rel=1e-12)

    @pytest.mark.parametrize("n, x, p_dark", [(100, 100, 0.03), (5, 3, 0.0)])
    def test_zero_exceedance(self, n, x, p_dark):
        # No run can pass the whole stream, and p_dark = 0 allows no dark:
        # either way the exceedance is exactly 0.
        result = significance(n, x, p_dark)
        assert (result.p_value, result.log10_p, result.z) == (0.0, -math.inf, math.inf)
        d = result.to_json_dict()
        assert d["p_value"] == 0.0 and d["log10_p"] is None and d["z"] is None
        json.dumps(d, allow_nan=False)

    def test_impossible_event_from_log_p(self):
        ok = SignificanceResult(n=5, x=3, p_dark=0.0, log_p=-math.inf)
        assert (ok.p_value, ok.log10_p, ok.z) == (0.0, -math.inf, math.inf)
        assert ok == significance(5, 3, 0.0)


def loop_longest_run(outcomes):
    """Per-record walk: the reference for the run-length pass."""
    best_len, best_start = 0, 0
    run_len, run_start = 0, 0
    for i, value in enumerate(outcomes):
        if value == 1:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    return best_len, best_start


class TestObservedRuns:
    def test_find_longest_run(self):
        assert find_longest_run([0, 1, 1, 1, 0, 1, 1]) == (3, 1)
        assert find_longest_run([1, 1, 0, 1, 1]) == (2, 0)  # first run wins ties
        assert find_longest_run([0, 1, 1, 0, 1, 1, 0, 1]) == (2, 1)
        assert find_longest_run([]) == (0, 0)
        assert find_longest_run([1, 1, 1]) == (3, 0)
        assert find_longest_run([0, 0]) == (0, 0)

    def test_find_longest_run_matches_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(0, 60))
            outcomes = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.int8)
            assert find_longest_run(outcomes) == loop_longest_run(outcomes), trial
        for outcomes in ([], [1] * 40, [0] * 40, [1, 1, 0, 1, 1, 0, 1, 1]):
            assert find_longest_run(np.array(outcomes, dtype=np.int8)) == (
                loop_longest_run(outcomes)
            )

    def test_observed_significance_exceedance_convention(self):
        outcomes = [0] * 100 + [1] * 5 + [0] * 95
        result = observed_run_significance(outcomes, 0.03)
        assert result.x == 5
        # P(run >= 5) is the exceedance of a threshold one below.
        assert result.p_value == pytest.approx(
            significance(200, 4, 0.03).p_value, rel=1e-12
        )

    def test_no_dark_at_all(self):
        result = observed_run_significance([0] * 50, 0.03)
        assert result.p_value == 1.0
        assert result.z == -math.inf

    @pytest.mark.parametrize(
        "call, stream, message",
        [
            (lambda v: disjoint_bin_counts(v, 1), [0, 2, 1], "values must be 0 or 1, got 2"),
            (lambda v: disjoint_bin_counts(v, 2), [0, 1, -1, 1], "values must be 0 or 1, got -1"),
            (find_longest_run, [1, 2, 1], "outcomes must be 0 or 1, got 2"),
            (lambda v: observed_run_significance(v, 0.03), [1, 1, -1, 1, 1],
             "outcomes must be 0 or 1, got -1"),
            (lambda v: observed_run_significance(v, 0.03), [1, 0.5],
             "outcomes must be 0 or 1, got 0.5"),
            (find_longest_run, [[0, 1], [1, 0]], "outcomes must be one-dimensional"),
            (lambda v: disjoint_bin_counts(v, 2), [[0, 1]], "values must be one-dimensional"),
        ],
    )
    def test_streams_are_checked(self, call, stream, message):
        # A 2, an NA code -1 or a fraction once read as a dark, a bright or
        # nothing; each now names its argument and the first bad value.
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(stream)


def underflowing_stream(n=30000, run=300, p_dark=0.05, seed=7):
    """A noise stream of n cycles with one dark run of ``run`` cycles."""
    outcomes = (np.random.default_rng(seed).random(n) < p_dark).astype(np.int8)
    outcomes[1000 : 1000 + run] = 1
    outcomes[999] = outcomes[1000 + run] = 0
    return outcomes


def union_log10(n, run, p_dark):
    # Sum over run starts of P(a run of >= ``run`` darks starts here); the
    # overlaps it counts twice are O(p^(2 run)), far below float precision
    # relative to p^run once p^run is tiny.
    return run * math.log10(p_dark) + math.log10(1.0 + (n - run) * (1.0 - p_dark))


class TestLogSpaceSignificance:
    def test_underflowing_p_value_keeps_finite_z(self):
        # p ~ 1e-386 underflows a float: z and log10_p carry the result.
        result = observed_run_significance(underflowing_stream(), 0.05)
        assert result.x == 300
        assert result.p_value == 0.0
        assert result.log10_p == pytest.approx(union_log10(30000, 300, 0.05), rel=1e-12)
        # The scaled automaton, which the closed form stands in for here,
        # also keeps this p-value: its entry carries no p^300 factor.
        automaton = run_statistics._automaton_row(30000, 299, 0.05)[300]
        assert (math.log(automaton) + 300 * math.log(0.05)) / math.log(10.0) == pytest.approx(
            result.log10_p, rel=1e-12
        )
        assert result.z == pytest.approx(
            -ndtri_exp(result.log10_p * math.log(10.0)), rel=1e-12
        )
        assert 40.0 < result.z < math.inf
        d = result.to_json_dict()
        assert d["p_value"] == 0.0 and d["log10_p"] == result.log10_p

    def test_log_path_matches_float_path_where_representable(self):
        for n, x, p in [(1000, 4, 0.03), (30000, 12, 0.05), (200, 0, 0.3)]:
            result = significance(n, x, p)
            assert 10.0**result.log10_p == pytest.approx(result.p_value, rel=1e-12)
            assert result.z == pytest.approx(norm.isf(result.p_value), rel=1e-12)

    def test_closed_form_matches_automaton_for_long_runs(self):
        # With L = x + 1, P(longest >= L) = p^L (1 + (n - L) q) when 2L + 1 > n,
        # and to float precision when n^2 p^L / 2 <= 2^-53; pinned against
        # the scaled automaton for every such x.
        checked = {"fit": 0, "precision": 0}
        for n, p in [(n, p) for n in range(1, 16) for p in (0.03, 0.3, 0.5, 0.9, 1.0)] + [
            (160, 0.3), (120, 0.05)
        ]:
            for x in range(n):
                run = x + 1
                fits_once = 2 * run + 1 > n
                if not fits_once and 0.5 * n * n * p**run > 2.0**-53:
                    continue
                checked["fit" if fits_once else "precision"] += 1
                closed = run_statistics._log_exceedance(n, x, p)
                automaton = run_statistics._automaton_row(n, x, p)[run]
                # Logs, so that subnormal values keep their precision.
                assert abs(closed - (math.log(automaton) + run * math.log(p))) <= 1e-12
        assert checked["fit"] > 400 and checked["precision"] > 80

    def test_p_value_against_enumeration_for_every_x(self):
        # Both paths (automaton and closed form) against the exceedance
        # summed over all 2^n strings, with no 1 - cdf cancellation.
        for n, p in [(9, 0.3), (10, 0.05), (11, 0.8)]:
            exceed = np.zeros(n + 1)
            for bits in itertools.product((0, 1), repeat=n):
                run = best = 0
                for b in bits:
                    run = run + 1 if b else 0
                    best = max(best, run)
                k = sum(bits)
                exceed[:best] += p**k * (1.0 - p) ** (n - k)
            for x in range(n):
                assert significance(n, x, p).p_value == pytest.approx(
                    exceed[x], rel=1e-12, abs=0
                )
            # No run exceeds the stream, where significance has no finite log.
            assert exceed[n] == 0.0 and longest_run_cdf(n, n, p) == 1.0

    def test_long_runs_skip_the_automaton(self, monkeypatch):
        # A dense (n + 1)^2 automaton here would need 7.2 GB.
        def refuse(*args):
            raise AssertionError("automaton built for an all-dark stream")

        monkeypatch.setattr(run_statistics, "_automaton_row", refuse)
        result = observed_run_significance(np.ones(30000, dtype=np.int8), 0.05)
        assert result.x == 30000
        assert result.log10_p == pytest.approx(30000 * math.log10(0.05), rel=1e-12)
        assert math.isfinite(result.z) and result.z > 400.0
        # A 10000-cycle run also fits twice; its (10001)^2 automaton would
        # need 800 MB and hours of matrix products.
        long_run = np.zeros(30000, dtype=np.int8)
        long_run[5000:15000] = 1
        result = observed_run_significance(long_run, 0.05)
        assert result.log10_p == pytest.approx(union_log10(30000, 10000, 0.05), rel=1e-12)

    def test_impossible_run_has_zero_p_value(self):
        # p_dark = 0 makes any dark run impossible under noise: p = 0, z = inf.
        result = observed_run_significance([0, 1, 0], 0.0)
        assert result.x == 1
        assert (result.p_value, result.log10_p, result.z) == (0.0, -math.inf, math.inf)


class TestBinomialPmfOracle:
    # One forward pass over (level, darks) yields both pmfs; scipy's
    # binomial and the residence sum over binomial convolutions are the
    # oracles.  A subnormal entry keeps fewer bits than a normal float, so
    # below 2.2e-308 only an absolute bound holds: at most 2.3e-321 was
    # seen at bin 2000, and SUBNORMAL_ATOL leaves four times that.
    SUBNORMAL_ATOL = 1e-320

    @classmethod
    def check(cls, got, expected):
        normal = expected >= sys.float_info.min
        np.testing.assert_allclose(got[normal], expected[normal], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            got[~normal], expected[~normal], rtol=0, atol=cls.SUBNORMAL_ATOL
        )

    @pytest.mark.parametrize("bin_size", [1, 2, 20, 200, 2000])
    @pytest.mark.parametrize(("p_b", "p_d"), [(0.03, 0.72), (0.0, 1.0)])
    def test_pmfs_match_residence_sum(self, bin_size, p_b, p_d):
        # The residence sum at p_d = p_b is this binomial, so the noise pmf
        # is checked against scipy alone.
        p_s_values = (0.0, 0.0103, 1.0)
        binomial = binom.pmf(np.arange(bin_size + 1), bin_size, p_b)
        signals = oracles.residence_pmfs(p_b, p_d, p_s_values, bin_size)
        for p_s, expected_signal in zip(p_s_values, signals):
            model = NoiseSignalModel(p_b=p_b, p_d=p_d, p_s=p_s, bin=bin_size)
            self.check(noise_pmf(model), binomial)
            self.check(signal_pmf(model), expected_signal)
            if p_b == 0.0:  # every zero is structural, not an underflow
                assert np.array_equal(noise_pmf(model) == 0, binomial == 0)
                assert np.array_equal(signal_pmf(model) == 0, expected_signal == 0)

    @pytest.mark.parametrize("n", [1, 7, 20, 60, 500, 2000])
    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.72])
    def test_noise_matches_scipy_binomial(self, n, p):
        model = NoiseSignalModel(p_b=p, p_d=1.0, bin=n)
        self.check(noise_pmf(model), binom.pmf(np.arange(n + 1), n, p))

    def test_noise_matches_exact_rationals(self):
        # C(n, k) m^k (D - m)^(n - k) / D^n in integers, with p_b = m / D
        # exactly; int / int rounds correctly.
        n = 2000
        m, d = (0.03).as_integer_ratio()
        numerator, exact = (d - m) ** n, []
        for k in range(200):
            exact.append(numerator / d**n)
            numerator = numerator * (n - k) * m // ((k + 1) * (d - m))
        got = noise_pmf(NoiseSignalModel(bin=n))[:200]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)

    def test_degenerate_p_puts_all_mass_on_one_count(self):
        # Exact zeros and ones, no NaN.
        assert noise_pmf(NoiseSignalModel(p_b=0.0, bin=5)).tolist() == [1, 0, 0, 0, 0, 0]
        pinned = NoiseSignalModel(p_b=0.0, p_d=1.0, p_s=0.0, bin=5)
        assert signal_pmf(pinned).tolist() == [0, 0, 0, 0, 0, 1]

    def test_returns_copies_of_the_cached_rows(self):
        model = NoiseSignalModel()
        noise_pmf(model)[:] = 0.0
        signal_pmf(model)[:] = 0.0
        assert noise_pmf(model).sum() == pytest.approx(1.0)
        assert signal_pmf(model).sum() == pytest.approx(1.0)


class TestNormalQuantileOracle:
    # _z_from_log_p replaced scipy.special.ndtri_exp, which stays the oracle.
    @staticmethod
    def check(log_p):
        z = run_statistics._z_from_log_p(log_p)
        expected = -float(ndtri_exp(log_p))
        # Absolute slack only where z crosses 0, near log_p = -log 2.
        assert abs(z - expected) <= 1e-12 * abs(expected) + 1e-15, (log_p, z, expected)

    def test_matches_ndtri_exp_on_a_grid(self):
        for log_p in np.concatenate([-np.logspace(-12, 5, 600), -np.linspace(0.01, 40, 400)]):
            self.check(float(log_p))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(min_value=-1e5, max_value=0.0, exclude_max=True))
    def test_matches_ndtri_exp(self, log_p):
        self.check(log_p)

    def test_near_the_median_and_near_one(self):
        ln2 = math.log(2.0)
        for log_p in (-ln2, math.nextafter(-ln2, 0.0), math.nextafter(-ln2, -1.0),
                      -ln2 * (1 + 1e-9), -ln2 * (1 - 1e-9), -1e-300, -5e-324):
            self.check(log_p)
        assert run_statistics._z_from_log_p(-ln2 * (1 + 1e-9)) > 0.0
        assert run_statistics._z_from_log_p(-ln2 * (1 - 1e-9)) < 0.0
        # p = 1 - 1e-300: the mirror through log(-expm1(y)) keeps the tail.
        assert run_statistics._z_from_log_p(-1e-300) == pytest.approx(-37.0470962993612,
                                                                       rel=1e-13)

    def test_limits(self):
        assert run_statistics._z_from_log_p(0.0) == -math.inf
        assert run_statistics._z_from_log_p(-math.inf) == math.inf
        # No intermediate overflows at the bottom of the float range.
        assert run_statistics._z_from_log_p(-1.7e308) == pytest.approx(
            math.sqrt(2.0) * math.sqrt(1.7e308), rel=1e-12
        )

    def test_round_trip_through_erfc(self):
        # Wherever exp(log_p) does not underflow.
        for log_p in np.concatenate([-np.logspace(-12, math.log10(700.0), 500),
                                     -np.linspace(0.5, 1.0, 101)]):
            z = run_statistics._z_from_log_p(float(log_p))
            p = math.exp(log_p)
            # A relative error e in z moves Q(z) by about z^2 e relatively.
            slack = 4e-16 * max(1.0, z * z)
            assert 0.5 * math.erfc(z / math.sqrt(2.0)) == pytest.approx(p, rel=slack)


class TestRequiredRunLength:
    def test_frozen_thresholds_at_both_dataset_sizes(self):
        small = required_run_length(30000, 0.03, 4.1)
        large = required_run_length(180000, 0.03, 4.1)
        assert small.x == 6
        assert large.x == 6
        assert small.z == pytest.approx(4.843988916770749, rel=1e-9)
        assert large.z == pytest.approx(4.475122929984868, rel=1e-9)

    def test_longer_stream_needs_longer_run(self):
        # More trials produce longer noise runs, so the threshold grows.
        modest = required_run_length(1000, 0.03, 4.1)
        assert modest.x < required_run_length(10**6, 0.03, 4.1).x

    def test_unreachable_target(self):
        # Even 100 darks in 100 trials stay below 40 sigma.
        with pytest.raises(ValueError, match="up to 99 reaches Z = 40"):
            required_run_length(100, 0.03, 40.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_stream_rejected_up_front(self, n):
        # Named as n, not as a search up to x = n - 1 that holds no x.
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            required_run_length(n, 0.03, 4.1)

    def test_nan_target_rejected_up_front(self):
        # Named at once, not after a search that no NaN can end.
        with pytest.raises(ValueError, match="^z_target must be a number, got nan"):
            required_run_length(180000, 0.03, math.nan)
