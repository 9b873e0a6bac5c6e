"""Classical statistics of the measurement stream.

Two bin-level models describe the dark-count distribution of 20-cycle
windows: a pure-noise binomial and a signal model in which the molecule
starts a bin in the rotational ground level, survives there for a
geometric number of cycles, and emits darks at the detection fidelity
while present and at the noise floor afterwards.  Both pmfs come from one
forward pass over (start level, current level, darks so far), the
finite-Markov-chain imbedding of Fu and Koutras (1994): O(bin^2) work and
no factorials.

Significance of an observed run of consecutive darks uses the exact
distribution of the longest success run in independent Bernoulli trials:
a run-length automaton raised to the n-th power (exact at any practical
n), or for long runs the closed form of the union bound over where the
run starts.  Exceedance probabilities are carried as logarithms, so a
p-value below the float range still gives a finite one-sided Gaussian
sigma through the inverse normal quantile of its logarithm.  No scipy is
needed: the quantile comes from Newton's method on the log upper tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "NoiseSignalModel",
    "SignificanceResult",
    "noise_pmf",
    "signal_pmf",
    "bin_value_distribution",
    "longest_run_cdf",
    "significance",
    "find_longest_run",
    "observed_run_significance",
    "required_run_length",
]

_LN10 = math.log(10.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class NoiseSignalModel:
    """Per-bin dark statistics: noise floor, fidelity, departure, bin size.

    ``p_b`` is the dark probability away from the ground level, ``p_d``
    the dark probability in it and ``p_s`` the per-cycle probability of
    leaving it.  The occupancy that mixes the two bin distributions is an
    argument of :func:`bin_value_distribution`.
    """

    p_b: float = 0.03
    p_d: float = 0.72
    p_s: float = 0.015
    bin: int = 20

    def __post_init__(self) -> None:
        for name in ("p_b", "p_d", "p_s"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.p_d <= self.p_b:
            raise ValueError("p_d must exceed p_b")
        if self.bin < 1:
            raise ValueError(f"bin must be >= 1, got {self.bin!r}")


@lru_cache(maxsize=64)
def _bin_pmfs(p_b: float, p_d: float, p_s: float, bin_size: int) -> np.ndarray:
    """Read-only rows (noise pmf, signal pmf) of the dark count in one bin.

    One forward pass over (start level, current level, darks so far).  The
    rows of ``mass`` are outside from outside, outside from ground and
    ground from ground.  Each cycle the current level emits, a dark at p_b
    outside and at p_d in the ground level, and then the ground level is
    left at p_s; outside absorbs.
    """
    mass = np.zeros((3, bin_size + 1))
    mass[:, 0] = (1.0, 0.0, 1.0)
    p_dark = np.array([[p_b], [p_b], [p_d]])
    for _ in range(bin_size):
        dark = mass * p_dark
        mass *= 1.0 - p_dark
        mass[:, 1:] += dark[:, :-1]
        mass[1] += p_s * mass[2]
        mass[2] *= 1.0 - p_s
    pmfs = np.stack((mass[0], mass[1] + mass[2]))
    pmfs.setflags(write=False)
    return pmfs


def noise_pmf(model: NoiseSignalModel) -> np.ndarray:
    """Dark-count pmf of a noise-only bin, indices 0..bin."""
    return _bin_pmfs(model.p_b, model.p_d, model.p_s, model.bin)[0].copy()


def signal_pmf(model: NoiseSignalModel) -> np.ndarray:
    """Dark-count pmf of a bin that starts in the ground level."""
    return _bin_pmfs(model.p_b, model.p_d, model.p_s, model.bin)[1].copy()


def bin_value_distribution(n_bins: int, model: NoiseSignalModel, p_g: float) -> np.ndarray:
    """Predicted dark-count histogram N [(1 - p_g) p_n(k) + p_g p_e(k)], k = 0..bin,
    with ``p_g`` the thermal ground occupancy."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    if not 0.0 <= p_g <= 1.0:
        raise ValueError(f"p_g must lie in [0, 1], got {p_g!r}")
    pmfs = _bin_pmfs(model.p_b, model.p_d, model.p_s, model.bin)
    return n_bins * ((1.0 - p_g) * pmfs[0] + p_g * pmfs[1])


def _log_upper_tail(z: float) -> tuple[float, float]:
    """(log Q(z), phi(z) / Q(z)) for z >= 0, Q the standard normal upper tail."""
    if z < 26.0:
        q = 0.5 * math.erfc(z / _SQRT2)
        return math.log(q), math.exp(-0.5 * z * z - _LOG_SQRT_2PI) / q
    # Mills-ratio series Q(z) = phi(z) / z * (1 + sum_k (-1)^k (2k - 1)!! / z^2k);
    # at z >= 26 its 11th term is below 1e-20.
    inv_z2 = 1.0 / (z * z)
    term, series = 1.0, 0.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv_z2
        series += term
    log_q = -0.5 * z * z - math.log(z) - _LOG_SQRT_2PI + math.log1p(series)
    return log_q, z / (1.0 + series)


def _z_from_log_p(log_p: float) -> float:
    """One-sided Gaussian z whose upper tail is exp(log_p); log_p <= 0.

    Solves log Q(z) = log_p by Newton's method, which converges from the
    right on this concave, decreasing function; p > 1/2 is mirrored to
    -z of 1 - p, so the solve always has z >= 0.
    """
    if log_p == 0.0:
        return -math.inf
    if log_p == -math.inf:
        return math.inf
    if log_p > -math.log(2.0):
        return -_z_from_log_p(math.log(-math.expm1(log_p)))
    # Start from log Q(z) ~ -z^2 / 2 - log(z sqrt(2 pi)) with z^2 ~ -2 log_p,
    # arranged so that no intermediate overflows.
    z = _SQRT2 * math.sqrt(
        max(0.0, -log_p - 0.5 * math.log(-log_p) - math.log(2.0 * math.sqrt(math.pi)))
    )
    for _ in range(100):
        log_q, hazard = _log_upper_tail(z)
        step = (log_q - log_p) / hazard  # d log Q / dz = -hazard
        z += step
        if abs(step) <= 2.0**-52 * z:
            break
    return z


def _check_run_args(n: int, x: int, p_dark: float) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if x < 0 or x > n:
        raise ValueError(f"x must lie in [0, n], got x={x!r} for n={n!r}")
    if not 0.0 <= p_dark <= 1.0:
        raise ValueError(f"p_dark must lie in [0, 1], got {p_dark!r}")


def _automaton_row(n: int, x: int, p_dark: float) -> np.ndarray:
    """Scaled masses w_r = u_r / p^r after n steps from an empty run.

    States r = 0..x hold u_r, the mass whose trailing dark run has length
    r; state x + 1 absorbs once a run of length x + 1 has appeared.  In
    the scaled coordinates a bright sends r to 0 with weight q p^r and a
    dark moves r to r + 1 with weight 1, so no entry exceeds n and the
    vanishing factor p^r of a long run stays out of the matrix.
    """
    size = x + 2
    t = np.zeros((size, size))
    t[: x + 1, 0] = (1.0 - p_dark) * p_dark ** np.arange(x + 1)
    t[np.arange(x + 1), np.arange(1, x + 2)] = 1.0
    t[x + 1, x + 1] = 1.0
    return np.linalg.matrix_power(t, n)[0]


def _log_exceedance(n: int, x: int, p_dark: float) -> float:
    """Natural log of P(longest dark run > x) in n trials; no cancellation.

    A run of L = x + 1 or more darks starts at the first trial or right
    after a bright, so the union bound over its start is p^L (1 + (n - L) q).
    The bound is exact when two such runs cannot fit (2L + 1 > n), and
    exact to float precision when the terms it counts twice, below
    n^2 p^(2L) / 2, are under 2^-53 of it.  Otherwise the scaled automaton
    gives p^L w_L.  Either way p^L is kept as a logarithm.
    """
    run = x + 1
    if run > n or p_dark == 0.0:
        return -math.inf
    log_tail = run * math.log(p_dark)
    if 2 * run + 1 > n or log_tail + math.log(0.5 * n * n) <= math.log(2.0**-53):
        log_mass = math.log1p((n - run) * (1.0 - p_dark))
    else:
        log_mass = math.log(_automaton_row(n, x, p_dark)[run])
    return min(log_tail + log_mass, 0.0)  # rounding may pass 1


def longest_run_cdf(n: int, x: int, p_dark: float) -> float:
    """P(longest dark run in n Bernoulli trials is <= x).

    The complement of the same log-space exceedance that
    :func:`significance` uses.
    """
    _check_run_args(n, x, p_dark)
    return -math.expm1(_log_exceedance(n, x, p_dark))


@dataclass(frozen=True)
class SignificanceResult:
    """Longest-run significance summary for one (n, x) evaluation.

    ``log_p`` is the natural logarithm of the p-value, ``<= 0``; the
    p-value, its decimal logarithm and the one-sided Gaussian ``z`` are
    read from it, so a p-value below the float range reads 0.0 while
    ``log10_p`` and ``z`` stay finite.  An impossible event has log_p -inf,
    p_value 0.0 and z +inf.
    """

    n: int
    x: int
    p_dark: float
    log_p: float

    def __post_init__(self) -> None:
        if not self.log_p <= 0.0:  # False for a NaN too
            raise ValueError(f"log_p must be <= 0, got {self.log_p!r}")

    @property
    def p_value(self) -> float:
        return math.exp(self.log_p)

    @property
    def log10_p(self) -> float:
        return self.log_p / _LN10

    @property
    def z(self) -> float:
        return _z_from_log_p(self.log_p)

    def to_json_dict(self) -> dict[str, object]:
        """Fields for a JSON report; an infinite ``z`` or ``log10_p`` becomes None (null)."""
        return {
            "n": self.n,
            "x": self.x,
            "p_dark": self.p_dark,
            "p_value": self.p_value,
            "log10_p": self.log10_p if math.isfinite(self.log10_p) else None,
            "z": self.z if math.isfinite(self.z) else None,
        }


def significance(n: int, x: int, p_dark: float) -> SignificanceResult:
    """Full significance record for the event 'longest run exceeds x'."""
    _check_run_args(n, x, p_dark)
    return SignificanceResult(n=n, x=x, p_dark=p_dark, log_p=_log_exceedance(n, x, p_dark))


def find_longest_run(outcomes: Sequence[int] | np.ndarray) -> tuple[int, int]:
    """(length, start index) of the longest run of dark outcomes; first wins."""
    dark = np.asarray(outcomes) == 1
    # Padded with brights, the stream changes value at every run's start
    # and one past its end, in alternation.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], dark, [False])).view(np.int8)))
    if edges.size == 0:
        return 0, 0
    lengths = edges[1::2] - edges[::2]
    best = int(np.argmax(lengths))  # argmax keeps the first of equal runs
    return int(lengths[best]), int(edges[2 * best])


def observed_run_significance(
    outcomes: Sequence[int] | np.ndarray,
    p_dark: float,
) -> SignificanceResult:
    """Significance of the longest observed dark run in a stream.

    The p-value is P(longest run >= observed length) under pure noise,
    i.e. the exceedance threshold sits one below the observed length.
    """
    outcomes = np.asarray(outcomes)
    n = int(outcomes.size)
    x_obs, _ = find_longest_run(outcomes)
    if x_obs == 0:
        return SignificanceResult(n=n, x=0, p_dark=p_dark, log_p=0.0)
    inner = significance(n, x_obs - 1, p_dark)
    return replace(inner, x=x_obs)


def required_run_length(n: int, p_dark: float, z_target: float) -> SignificanceResult:
    """Smallest x up to 200 whose exceedance reaches ``z_target`` sigmas at size n.

    No run can exceed x = n, so the search stops at n - 1, and n must be
    at least 1 for the search to hold any x.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if math.isnan(z_target):
        raise ValueError(f"z_target must be a number, got {z_target!r}")
    top = min(n - 1, 200)
    for x in range(top + 1):
        result = significance(n, x, p_dark)
        if result.z >= z_target:
            return result
    raise ValueError(f"no run length up to {top} reaches Z = {z_target} at n = {n}")
