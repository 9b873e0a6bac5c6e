"""Reference implementations that the fast paths in ``src/`` replaced.

Each is the earlier per-cycle or per-record code, kept here only to check
the event-driven simulator, the scalar HMM kernels and the columnar CSV
reader and columnar writers against:

- ``simulate_arrays``: one ``TrajectoryDynamics.step_code`` call per cycle.
- ``smooth`` / ``forward_backward`` / ``viterbi``: numpy 2-vector loops.
- ``smooth_scalar``: the scalar-float forward and backward loops that the
  chunked filter replaced; ``backward_scalar``: a scalar loop of the
  self-normalized backward recursion; ``posteriors_scalar``: posteriors
  from the former.
- ``supervised_counts``: the transition, emission and initial counts of
  labelled streams by ``np.add.at`` scatters, as the supervised fit made
  them before it counted with ``np.bincount``.
- ``read_dataset_csv``: a ``csv.reader`` row loop.
- ``write_dataset_csv`` / ``write_decoded_csv``: ``csv.writer`` writers
  of rows; ``dataset_columns`` turns such rows into the columns that
  ``dataio.write_dataset_csv`` takes.
- ``residence_pmfs``: the dark-count pmf of a bin as a sum over ground
  residence lengths, one convolution of two scipy binomials per length.
- ``longest_run_cdf``: an exact-integer count of strings with a bounded
  dark run, practical for n up to a few hundred.
- ``most_probable_rotational_state``: a loop over the relative Boltzmann
  weights of one manifold.
- ``rate_generator``: the rate-matrix generator from a loop over the
  (upper, lower) level pairs, one scalar pair of entries each.
- ``dynamics_tables``: the simulator's jump and thermal tables, read
  from the one-cycle propagator's columns through a state-to-code dict,
  with the thermal weights built level by level in a dict keyed by
  ``RoVibState`` rather than read from a code-indexed array.
- ``evolve_populations``: every snapshot propagated and checked at once.
- ``rethermalization_time``: the full 600 s horizon, then the first
  crossing; built on the two above.
- ``disjoint_bin_counts``: one reshape and histogram per window offset.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from pathlib import Path

import numpy as np
from scipy.stats import binom

from dpqlsim.bbr_kinetics import (
    IntegrationError,
    _expm,
    build_einstein_coefficients,
    build_rate_matrix,
    photon_occupation,
    radiative_levels,
)
from dpqlsim.dataio import DATASET_HEADER, DataFormatError, format_number
from dpqlsim.hmm_detector import STATE_NAMES, EstimationError
from dpqlsim.spectroscopy import (
    KB_CM,
    ROT_GROUND,
    MolecularConstants,
    RoVibState,
    _check_temperature,
    degeneracy,
    enumerate_levels,
    level_energy,
)
from dpqlsim.trajectory_sim import TrajectoryDynamics


def simulate_arrays(config, constants, rng, n_cycles):
    """(outcomes, ground_labels) int8 arrays, one hidden-state step per cycle."""
    dyn = TrajectoryDynamics.for_config(config, constants)
    code = dyn.sample_thermal_code(rng.random())
    uniforms = rng.random((n_cycles, 4))
    outcomes = np.empty(n_cycles, dtype=np.int8)
    labels = np.empty(n_cycles, dtype=np.int8)
    p_d, p_b = config.detection_fidelity, config.p_bright_noise
    ground = dyn.ground_code
    step = dyn.step_code
    for k in range(n_cycles):
        u = uniforms[k]
        code = step(code, u[0], u[1], u[2])
        in_ground = code == ground
        labels[k] = in_ground
        outcomes[k] = u[3] < (p_d if in_ground else p_b)
    return outcomes, labels


def smooth(params, obs):
    """Scaled forward and backward passes, one numpy step per record."""
    obs = np.asarray(obs, dtype=np.int8)
    trans, emit = params.trans, params.emit
    n = obs.size
    alpha = np.empty((n, 2))
    scale = np.empty(n)
    a = params.initial * emit[:, obs[0]]
    scale[0] = a.sum()
    if scale[0] == 0.0:
        raise ValueError("observation sequence impossible under the model")
    alpha[0] = a / scale[0]
    for t in range(1, n):
        a = (alpha[t - 1] @ trans) * emit[:, obs[t]]
        scale[t] = a[0] + a[1]
        if scale[t] == 0.0:
            raise ValueError("observation sequence impossible under the model")
        alpha[t] = a / scale[t]
    beta = np.empty((n, 2))
    beta[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = trans @ (emit[:, obs[t + 1]] * beta[t + 1]) / scale[t + 1]
    return alpha, beta, scale


def smooth_scalar(params, obs):
    """Scaled forward and backward passes over a nonempty stream, one
    scalar step per record: the smoother that the chunked filter replaced.

    ``alpha[t]`` is the filtered state distribution after record t and
    ``scale[t]`` the predictive probability of that record, so the
    log-likelihood is ``log(scale).sum()``; ``beta`` carries the matching
    scaled backward messages.  The passes are scalar IEEE float loops in a
    fixed operation order with no fused multiply-add, so their bits do not
    depend on the BLAS build.
    """
    (t00, t01), (t10, t11) = params.trans.tolist()
    em = tuple(zip(*params.emit.tolist()))  # em[o] = (emit[0, o], emit[1, o])
    seq = obs.tolist()
    n = len(seq)
    alpha, beta, scale = (array("d", [0.0]) * (k * n) for k in (2, 2, 1))
    x0, x1 = em[seq[0]]
    p0, p1 = params.initial.tolist()
    a0, a1 = p0 * x0, p1 * x1
    for t in range(n):
        if t:
            x0, x1 = em[seq[t]]
            a0, a1 = (p0 * t00 + p1 * t10) * x0, (p0 * t01 + p1 * t11) * x1
        s = a0 + a1
        if s == 0.0:
            raise ValueError("observation sequence impossible under the model")
        p0, p1 = a0 / s, a1 / s
        scale[t], alpha[2 * t], alpha[2 * t + 1] = s, p0, p1
    b0 = b1 = beta[-1] = beta[-2] = 1.0
    for t in range(n - 2, -1, -1):
        x0, x1 = em[seq[t + 1]]
        v0, v1, s = x0 * b0, x1 * b1, scale[t + 1]
        b0, b1 = (t00 * v0 + t01 * v1) / s, (t10 * v0 + t11 * v1) / s
        beta[2 * t], beta[2 * t + 1] = b0, b1
    alpha, beta = (np.frombuffer(buf).reshape(n, 2) for buf in (alpha, beta))
    return alpha, beta, np.frombuffer(scale)


def backward_scalar(params, obs):
    """Self-normalized backward messages, one scalar step per record.

    ``r[t] = normalize(emit[:, o_t] * (trans @ r[t + 1]))`` from
    ``r[n - 1] = normalize(emit[:, o_{n-1}])``; returns ``r`` (n, 2) and the
    normalizers (n,).
    """
    (t00, t01), (t10, t11) = params.trans.tolist()
    em = tuple(zip(*params.emit.tolist()))  # em[o] = (emit[0, o], emit[1, o])
    seq = np.asarray(obs).tolist()
    n = len(seq)
    r, norm = np.empty((n, 2)), np.empty(n)
    b0 = b1 = 1.0
    for t in range(n - 1, -1, -1):
        x0, x1 = em[seq[t]]
        if t < n - 1:
            b0, b1 = t00 * b0 + t01 * b1, t10 * b0 + t11 * b1
        v0, v1 = b0 * x0, b1 * x1
        s = v0 + v1
        if s == 0.0:
            raise ValueError("observation sequence impossible under the model")
        b0, b1 = v0 / s, v1 / s
        r[t], norm[t] = (b0, b1), s
    return r, norm


def posteriors_scalar(params, obs):
    """Posteriors of state 1 through :func:`smooth_scalar`."""
    alpha, beta, _ = smooth_scalar(params, obs)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma[:, 1]


def forward_backward(params, obs):
    """(posteriors of state 1, log-likelihood) through :func:`smooth`."""
    alpha, beta, scale = smooth(params, obs)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma[:, 1], float(np.log(scale).sum())


def supervised_counts(pairs):
    """(trans, emit, initial) float counts of (observations, labels) 0/1 pairs.

    Raises ``EstimationError`` naming a hidden state that never appears in
    the labels, and for no pairs at all, with the supervised fit's messages.
    """
    if not pairs:
        raise EstimationError("no training data supplied")
    trans_counts = np.zeros((2, 2))
    emit_counts = np.zeros((2, 2))
    init_counts = np.zeros(2)
    seen = np.zeros(2, dtype=bool)
    for obs, labels in pairs:
        obs, labels = np.asarray(obs, dtype=np.int8), np.asarray(labels, dtype=np.int8)
        if labels.size == 0:
            continue
        seen |= np.isin((0, 1), labels)
        init_counts[labels[0]] += 1
        np.add.at(emit_counts, (labels, obs), 1.0)
        np.add.at(trans_counts, (labels[:-1], labels[1:]), 1.0)
    for state in (0, 1):
        if not seen[state]:
            raise EstimationError(
                f"hidden state {STATE_NAMES[state]} never observed in the labels"
            )
    return trans_counts, emit_counts, init_counts


def viterbi(params, obs):
    """Log-space Viterbi with numpy 2-vector steps; ties go to state 0."""
    obs = np.asarray(obs, dtype=np.int8)
    n = obs.size
    with np.errstate(divide="ignore"):
        log_trans = np.log(params.trans)
        log_emit = np.log(params.emit)
        log_init = np.log(params.initial)
    delta = log_init + log_emit[:, obs[0]]
    back = np.empty((n, 2), dtype=np.int8)
    for t in range(1, n):
        cand = delta[:, None] + log_trans
        choose1 = cand[1] > cand[0]
        back[t] = choose1
        delta = np.where(choose1, cand[1], cand[0]) + log_emit[:, obs[t]]
    path = np.empty(n, dtype=np.int8)
    path[n - 1] = 1 if delta[1] > delta[0] else 0
    for t in range(n - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def read_dataset_csv(path):
    """Row-by-row ``csv.reader`` parse of a dataset file."""
    path = Path(path)
    source = str(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty dataset file", source=source, line=1) from None
        if tuple(h.strip() for h in header) != DATASET_HEADER:
            raise DataFormatError(
                f"expected header {','.join(DATASET_HEADER)!r}, got {','.join(header)!r}",
                source=source,
                line=1,
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(
                    f"expected 4 columns, got {len(row)}", source=source, line=lineno
                )
            try:
                index = int(row[0])
                outcome = int(row[1])
                time_s = float(row[2])
            except ValueError:
                raise DataFormatError(
                    f"malformed row {row!r}", source=source, line=lineno
                ) from None
            if outcome not in (0, 1):
                raise DataFormatError(
                    f"outcome must be 0 or 1, got {row[1]!r}", source=source, line=lineno
                )
            token = row[3].strip()
            if token not in ("0", "1", "NA"):
                raise DataFormatError(
                    f"hidden must be 0, 1 or NA, got {token!r}", source=source, line=lineno
                )
            rows.append((index, outcome, time_s, None if token == "NA" else int(token)))
    return rows


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def write_dataset_csv(path, rows):
    _write_csv(
        path,
        DATASET_HEADER,
        (
            [i, o, format_number(float(t)), "NA" if h is None else h]
            for i, o, t, h in rows
        ),
    )


def dataset_columns(rows):
    """(index, outcome, time_s, hidden) columns of dataset rows; a None hidden is -1."""
    index, outcome, time_s, hidden = zip(*rows) if rows else ((),) * 4
    return index, outcome, time_s, [-1 if h is None else h for h in hidden]


def write_decoded_csv(path, observations, decoded, *, indices=None):
    obs = np.asarray(observations)
    idx = range(obs.size) if indices is None else indices
    _write_csv(
        path,
        ("index", "outcome", "predicted_state", "posterior"),
        (
            (int(i), int(o), int(s), format_number(float(p)))
            for i, o, s, p in zip(idx, obs, decoded.states, decoded.posteriors)
        ),
    )


def residence_pmfs(p_b, p_d, p_s_values, bin_size):
    """Darks in a bin that starts in the ground level, one row per p_s.

    The molecule stays i cycles with probability (1 - p_s)^(i-1) p_s for
    i < bin, else the whole bin, and emits i cycles at p_d, then the rest
    at p_b; p_d = p_b gives the noise pmf.
    """
    p_s = np.asarray(p_s_values, dtype=float)[:, None]
    pmfs = np.zeros((p_s.shape[0], bin_size + 1))
    stays = np.arange(1, bin_size + 1)
    dark, bright = _binom_rows(stays, p_d), _binom_rows(bin_size - stays, p_b)
    for i, in_ground, after in zip(stays.tolist(), dark, bright):
        weight = (1.0 - p_s) ** (i - 1) * (p_s if i < bin_size else 1.0)
        pmfs += weight * np.convolve(in_ground, after)
    return pmfs


def _binom_rows(trials, p):
    """``binom.pmf(np.arange(n + 1), n, p)`` for each n of ``trials``, from
    one elementwise call over all the (count, n) pairs."""
    sizes = trials + 1
    ends = np.cumsum(sizes)
    counts = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    return np.split(binom.pmf(counts, np.repeat(trials, sizes), p), ends[:-1])


def _recursion_counts(n, x):
    # counts[m][k]: length-m strings with k darks and no dark run longer
    # than x, built by conditioning on the leading run (j darks, then a
    # bright, then any admissible remainder).  Exact integers throughout.
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for m in range(n + 1):
        for k in range(m + 1):
            if m == k:
                counts[m][k] = 1 if m <= x else 0
                continue
            total = 0
            for j in range(min(x, k) + 1):
                total += counts[m - 1 - j][k - j]
            counts[m][k] = total
    return counts


def longest_run_cdf(n, x, p_dark):
    """P(longest dark run in n Bernoulli trials is <= x) from the exact counts."""
    counts = _recursion_counts(n, x)
    q = 1.0 - p_dark
    total = 0.0
    for k in range(n + 1):
        count = counts[n][k]
        if count:
            total += float(count) * p_dark**k * q ** (n - k)
    return total


def most_probable_rotational_state(c: MolecularConstants, T: float) -> RoVibState:
    """Most populated rotational level within (v = 0, lower manifold).

    The doublet factor and the partition function cancel inside one
    manifold, so the argmax needs only relative weights.
    """
    _check_temperature(T)
    omega2 = 3  # Omega = 3/2, the lower manifold
    best_n, best_weight = 0, -math.inf
    for n in range(c.J_count):
        two_J = omega2 + 2 * n
        weight = (two_J + 1) * math.exp(-c.B_e * n * (n + 1) / (KB_CM * T))
        if weight > best_weight:
            best_n, best_weight = n, weight
    return RoVibState(v=0, two_omega=omega2, two_J=omega2 + 2 * best_n)


def rate_generator(c: MolecularConstants, T: float) -> np.ndarray:
    """Rate-matrix generator at T, one pair of entries per (upper, lower) pair."""
    coeffs = build_einstein_coefficients(c)
    levels = radiative_levels(c)  # level codes index the radiative set
    gen = np.zeros((len(levels), len(levels)))
    pairs = zip(coeffs.upper.tolist(), coeffs.lower.tolist(), coeffs.A.tolist(),
                coeffs.frequencies.tolist())
    for iu, il, rate, nu in pairs:
        n_bar = photon_occupation(nu, T)
        gen[il, iu] += rate * (1.0 + n_bar)
        gen[iu, il] += rate * n_bar * degeneracy(levels[iu]) / degeneracy(levels[il])
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=0))
    return gen


def dynamics_tables(c: MolecularConstants, T: float, cycle: float):
    """(stay_prob, jump_cum, thermal_cum) through state lookups."""
    states = enumerate_levels(c)
    code_of = {state: i for i, state in enumerate(states)}
    energies = np.array([level_energy(s, c) for s in states])
    weights = np.array([float(degeneracy(s)) for s in states])
    boltz = weights * np.exp(-energies / (KB_CM * T))
    thermal = dict(zip(states, (boltz / boltz.sum()).tolist()))
    thermal_cum = np.cumsum(np.array([thermal[s] for s in states]))
    thermal_cum[-1] = 1.0
    levels = radiative_levels(c)
    step = _expm(build_rate_matrix(c, T).generator * cycle)
    stay_prob = np.ones(len(states))
    jump_cum = [None] * len(states)
    for i, state in enumerate(levels):
        code = code_of[state]
        stay_prob[code] = step[i, i]
        weights = np.zeros(len(levels))
        for k, target in enumerate(levels):
            if k != i and step[k, i] > 0.0:
                weights[code_of[target]] = step[k, i]
        last = max((k for k in range(len(levels)) if weights[k] > 0.0), default=None)
        if last is not None:
            cum = np.cumsum(weights / weights.sum())
            cum[last:] = 1.0
            jump_cum[code] = cum.tolist()
    return stay_prob, jump_cum, thermal_cum


def evolve_populations(gen, p0, duration, snapshots, tol=1e-8):
    """(times, renormalized populations, norm drift) with every snapshot kept."""
    times = np.linspace(0.0, duration, snapshots)
    step = _expm(gen * (duration / max(snapshots - 1, 1)))
    raw = np.empty((len(p0), snapshots))
    p = p0
    for k in range(snapshots):
        raw[:, k] = p
        p = step @ p
    drift = raw.sum(axis=0) - 1.0
    worst = int(np.abs(drift).argmax())
    if abs(drift[worst]) > tol:
        raise IntegrationError(
            f"normalization drifted by {drift[worst]:.3e}", last_time=float(times[worst])
        )
    if raw.min() < -tol:
        k = int(np.unravel_index(raw.argmin(), raw.shape)[1])
        raise IntegrationError(
            f"population dipped to {raw.min():.3e}", last_time=float(times[k])
        )
    cleaned = np.clip(raw, 0.0, None)
    cleaned /= cleaned.sum(axis=0, keepdims=True)
    return times, cleaned, drift


def rethermalization_time(c: MolecularConstants, T: float) -> float:
    """63 % ground-level crossing from all 601 snapshots of a 600 s run."""
    levels = radiative_levels(c)
    start = most_probable_rotational_state(c, T)
    p0 = np.zeros(len(levels))
    p0[levels.index(start)] = 1.0
    times, pops, _ = evolve_populations(rate_generator(c, T), p0, 600.0, 601)
    energies = np.array([level_energy(s, c) for s in levels])
    weights = np.array([float(degeneracy(s)) for s in levels])
    boltz = weights * np.exp(-energies / (KB_CM * T))
    boltz /= boltz.sum()
    g = levels.index(ROT_GROUND)
    target = 0.63 * boltz.tolist()[g]
    pg = pops[g]
    above = np.nonzero(pg >= target)[0]
    if above.size == 0:
        raise ValueError(f"ground population did not reach {target:.3e} within 600 s")
    k = int(above[0])
    if k == 0:
        return 0.0
    t0, t1 = times[k - 1], times[k]
    f0, f1 = pg[k - 1], pg[k]
    return float(t0 + (target - f0) / (f1 - f0) * (t1 - t0))


def disjoint_bin_counts(values, window=20):
    """Histogram of dark counts averaged over the ``window`` offsets, one pass each."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size < window:
        return np.zeros(window + 1)
    total = np.zeros(window + 1)
    for offset in range(window):
        usable = (arr.size - offset) // window
        if usable == 0:
            continue
        chunk = arr[offset : offset + usable * window].reshape(usable, window)
        counts = chunk.sum(axis=1)
        total += np.bincount(counts, minlength=window + 1)[: window + 1]
    return total / window
