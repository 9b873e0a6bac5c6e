"""Two-hidden-state Markov detection of ground-level episodes.

Hidden state 0 is "outside the rotational ground level" (dark only at the
noise floor), hidden state 1 is "in the ground level" (dark at the
detection fidelity).  Default transition rates derive from the thermal
entry balance and the per-cycle leave probability; defaults for the
emission rows are the noise floor 0.03 and the fidelity 0.72.

Decoding offers scaled forward-backward smoothing (per-record posteriors
plus sequence log-likelihood) and a log-space Viterbi path; ties always
resolve toward the non-signal state so detection stays conservative.
Training is supervised maximum-likelihood counting with add-one smoothing
on labeled simulator output, with Baum-Welch refinement available for
unlabeled streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, isqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataio import _check_binary, _check_probability, _int_column, write_table

__all__ = [
    "STATE_NAMES",
    "EstimationError",
    "HmmParams",
    "DecodedSeries",
    "DetectionMetrics",
    "default_params",
    "forward_backward",
    "viterbi",
    "estimate_params_supervised",
    "baum_welch",
    "evaluate",
    "write_decoded_csv",
]

STATE_NAMES = ("J!=3/2", "J=3/2")
# The keys of an HMM parameter file, in the order of trans, emit and initial, row-major.
_PARAM_KEYS = (*(f"{name}_{i}{j}" for name in ("trans", "emit") for i in (0, 1) for j in (0, 1)),
               "initial_0", "initial_1")


class EstimationError(RuntimeError):
    """Parameter estimation failed (e.g. a hidden state never observed)."""


def _check_finite(name: str, values: np.ndarray) -> None:
    # The range checks below are comparisons, which a NaN passes.
    if not np.isfinite(values).all():
        raise ValueError(f"{name} entries must be finite")


def _check_stochastic(name: str, matrix: np.ndarray, rows: int, cols: int) -> None:
    if matrix.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {matrix.shape}")
    _check_finite(name, matrix)
    if matrix.min() < 0.0:
        raise ValueError(f"{name} entries must be >= 0")
    residual = np.abs(matrix.sum(axis=1) - 1.0).max()
    if residual > 1e-12:
        raise ValueError(f"{name} rows must sum to 1 within 1e-12 (off by {residual:.3e})")


@dataclass(frozen=True)
class HmmParams:
    """Row-stochastic transition, emission and initial probabilities.

    ``trans[i, j]`` moves hidden state i -> j per cycle; ``emit[i, o]``
    emits observation o (0 bright, 1 dark) from state i; ``initial[i]`` is
    the state distribution before the first record.
    """

    trans: np.ndarray
    emit: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=float))
        object.__setattr__(self, "emit", np.asarray(self.emit, dtype=float))
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float))
        _check_stochastic("trans", self.trans, 2, 2)
        _check_stochastic("emit", self.emit, 2, 2)
        if self.initial.shape != (2,):
            raise ValueError(f"initial must have shape (2,), got {self.initial.shape}")
        _check_finite("initial", self.initial)
        if self.initial.min() < 0.0 or abs(self.initial.sum() - 1.0) > 1e-12:
            raise ValueError("initial must be a probability vector within 1e-12")

    def to_mapping(self) -> dict[str, float]:
        values = np.concatenate((self.trans.ravel(), self.emit.ravel(), self.initial))
        return dict(zip(_PARAM_KEYS, values.tolist()))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "HmmParams":
        """Parse the flat key set, renormalizing away file rounding.

        A hand-written file may round its values, so row sums can be off
        by a little; anything worse than 1e-6 is treated as a broken file
        rather than rounding.  A key outside the set raises ValueError,
        and so does a value that is no number, naming its key.
        """
        unknown = sorted(set(mapping) - set(_PARAM_KEYS))
        if unknown:
            raise ValueError(f"unknown HMM parameter keys: {', '.join(unknown)}")

        def grab(key: str) -> float:
            if key not in mapping:
                raise ValueError(f"missing HMM parameter key {key!r}")
            try:
                return float(mapping[key])
            except ValueError as exc:
                raise ValueError(f"key {key!r}: {exc}") from None

        def renormalized(name: str, rows: np.ndarray) -> np.ndarray:
            sums = rows.sum(axis=-1, keepdims=True)
            if np.abs(sums - 1.0).max() > 1e-6:
                raise ValueError(f"{name} rows must sum to 1 within 1e-6")
            return rows / sums

        values = np.array([grab(key) for key in _PARAM_KEYS])
        return cls(
            trans=renormalized("trans", values[:4].reshape(2, 2)),
            emit=renormalized("emit", values[4:8].reshape(2, 2)),
            initial=renormalized("initial", values[8:]),
        )


def default_params(
    p_b: float = 0.03, p_d: float = 0.72, p_s: float = 0.015, p_g: float = 0.0047
) -> HmmParams:
    """Dynamics-derived defaults.

    The entry rate into the ground level balances the thermal occupancy in
    steady state: epsilon = p_g p_s / (1 - p_g); the exit rate is p_s
    itself.  Emission rows are the noise floor and the detection fidelity,
    and the initial vector is the thermal occupancy.
    """
    for name, value in (("p_b", p_b), ("p_d", p_d), ("p_s", p_s)):
        _check_probability(name, value)
    if not 0.0 <= p_g < 1.0:
        raise ValueError(f"p_g must lie in [0, 1), got {p_g!r}")
    entry = p_g * p_s / (1.0 - p_g)
    return HmmParams(
        trans=np.array([[1.0 - entry, entry], [p_s, 1.0 - p_s]]),
        emit=np.array([[1.0 - p_b, p_b], [1.0 - p_d, p_d]]),
        initial=np.array([1.0 - p_g, p_g]),
    )


@dataclass(frozen=True)
class DecodedSeries:
    """Smoothing output: hard states, signal posteriors, log-likelihood."""

    states: np.ndarray
    posteriors: np.ndarray
    log_likelihood: float


@dataclass(frozen=True)
class DetectionMetrics:
    """Per-record detection quality against ground-truth labels."""

    precision: float
    recall: float
    f1: float
    correct_positive: int
    incorrect_positive: int
    incorrect_negative: int


# Records each speculative filter runs before its chunk, so that it enters
# the chunk already bit-equal to the true filter in the common case: a
# normalized 2-state filter forgets its start within a few dozen records.
_WARMUP = 64
# Record offsets that the lane panel holds between copies into the outputs.
_PANEL = 32


def _fused_filters(
    params: HmmParams, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward and backward filters of :func:`_smooth`, stepped side by side.

    Both problems run the normalized 2-state filter ``p_t =
    normalize((p_{t-1} T) * emit[:, o_t])`` from ``p_0 = normalize(start *
    emit[:, o_0])``: the forward one with ``T = trans`` and ``start =
    initial`` over the stream, the backward one with ``T = trans.T`` and
    ``start = (1, 1)`` over the reversed stream.  Returns the states as
    ``states[q, i, t]`` of shape (2, 2, n), problem q in its own record
    order, and the two normalizers (n,) each.  Every record takes the IEEE
    operations of the scalar step in the repair loop, in its order (no fused
    multiply-add), so the bits do not depend on how the stream is cut:

    1. Records 1..n-1 of each problem are cut into k chunks of ``b =
       ceil(sqrt(n))``, the last one padded with brights, so the outputs
       are allocated for ``1 + k b`` records and returned as ``[..., :n]``
       views.  Chunk c of problem q is lane ``q k + c`` of 2k.
    2. All lanes step side by side, one numpy step per record offset, in the
       scalar step's operation order.  A step reads one contiguous row of a
       lane-major (b, 2k) int8 observation matrix, and each transition entry
       is an array over the lanes, so the two problems share every call.
       Chunk 0 starts from ``p_0``, every other chunk from the guess
       ``start``, ``_WARMUP`` records (at most ``b``) before the chunk.
    3. The steps write into a panel of ``_PANEL`` offsets by 2k lanes, which
       is copied into ``[.., c, j]`` views of all k chunks of the outputs
       each time it fills, so no lane-major copy of them is ever made.
    4. The seams are walked in order, per problem.  Each chunk is redone
       with scalar steps from the true end state of the chunk before it,
       until its state equals the speculative one bit for bit; from there
       on the speculative records are exact.
    5. A filter that never forgets (``trans`` the identity) is redone to
       the end of every chunk: still exact, only slower.
    """
    n = obs.size
    b = isqrt(n - 1) + 1
    k = -(-(n - 1) // b)
    size = 1 + k * b  # records 0..n-1, then the padding's
    states, scales = np.empty((2, 2, size)), (np.empty(size), np.empty(size))
    trans, emit = params.trans, params.emit
    em = tuple(zip(*emit.tolist()))  # em[o] = (emit[0, o], emit[1, o])
    problems = [
        (t.tolist(), memoryview(seq), memoryview(states[q].reshape(-1)), memoryview(scales[q]))
        for q, (t, seq) in enumerate(((trans, obs), (trans.T, obs[::-1])))
    ]
    for (p0, p1), (_, seq, flat, sc) in zip((params.initial.tolist(), (1.0, 1.0)), problems):
        x0, x1 = em[seq[0]]
        a0, a1 = p0 * x0, p1 * x1
        s = a0 + a1
        if s == 0.0:
            raise ValueError("observation sequence impossible under the model")
        sc[0], flat[0], flat[size] = s, a0 / s, a1 / s
    if n == 1:
        return states, *scales
    # lanes[j, q k + c] is record 1 + c b + j of problem q; the last chunk is
    # padded with brights, whose steps are copied out only into the padding.
    lanes = np.zeros((2, k * b), np.int8)
    lanes[0, : n - 1] = obs[1:]
    lanes[1, : n - 1] = obs[-2::-1]
    lanes = np.ascontiguousarray(lanes.reshape(2 * k, b).T)
    c00, c01, c10, c11 = np.repeat(np.stack((trans, trans.T)).reshape(2, 4), k, axis=0).T.copy()
    e0, e1 = emit[0].copy(), emit[1].copy()
    tmp, x0, x1 = np.empty(2 * k), np.empty(2 * k), np.empty(2 * k)

    def step(p0, p1, o, a0, a1, s):
        e0.take(o, out=x0, mode="clip")
        e1.take(o, out=x1, mode="clip")
        np.multiply(p0, c00, a0)
        np.multiply(p1, c10, tmp)
        np.add(a0, tmp, a0)
        np.multiply(a0, x0, a0)
        np.multiply(p0, c01, a1)
        np.multiply(p1, c11, tmp)
        np.add(a1, tmp, a1)
        np.multiply(a1, x1, a1)
        np.add(a0, a1, s)
        np.divide(a0, s, a0)
        np.divide(a1, s, a1)

    # The warm-up of chunk c reads the last records of chunk c - 1; the
    # chunk-0 lanes step too, on brights, and are then set to p_0.
    warm = min(_WARMUP, b)
    before = np.zeros((warm, 2, k), np.int8)
    before[:, :, 1:] = lanes[b - warm :].reshape(warm, 2, k)[:, :, :-1]
    p0 = np.repeat((params.initial[0], 1.0), k)
    p1 = np.repeat((params.initial[1], 1.0), k)
    q0, q1, qs = np.empty(2 * k), np.empty(2 * k), np.empty(2 * k)
    panel = np.empty((_PANEL, 3, 2 * k))  # per offset: state 0, state 1, scale
    # Records 1 + c b + j of the chunks c as [.., c, j] views.
    chunk_states = states[:, :, 1:].reshape(2, 2, k, b)
    chunk_scales = [scale[1:].reshape(k, b) for scale in scales]
    # A speculative chunk from a wrong start may divide 0 by 0; its records
    # are redone below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for o in before.reshape(warm, 2 * k):
            step(p0, p1, o, q0, q1, qs)
            p0, q0, p1, q1 = q0, p0, q1, p1
        p0[::k], p1[::k] = states[:, 0, 0], states[:, 1, 0]
        for j0 in range(0, b, _PANEL):
            m = min(_PANEL, b - j0)
            for row, o in zip(panel, lanes[j0 : j0 + m]):
                step(p0, p1, o, *row)
                p0, p1 = row[0], row[1]
            block = panel[:m].reshape(m, 3, 2, k)  # [u, field, q, c] for offset j0 + u
            chunk_states[..., j0 : j0 + m] = block[:, :2].transpose(2, 1, 3, 0)
            for q in (0, 1):
                chunk_scales[q][:, j0 : j0 + m] = block[:, 2, q].T
    for ((t00, t01), (t10, t11)), seq, flat, sc in problems:
        for lo in range(1 + b, n, b):
            p0, p1 = flat[lo - 1], flat[size + lo - 1]
            for t in range(lo, min(lo + b, n)):
                x0, x1 = em[seq[t]]
                a0, a1 = (p0 * t00 + p1 * t10) * x0, (p0 * t01 + p1 * t11) * x1
                s = a0 + a1
                if s == 0.0:
                    raise ValueError("observation sequence impossible under the model")
                p0, p1 = a0 / s, a1 / s
                sc[t] = s
                q0, q1 = flat[t], flat[size + t]
                if (
                    p0 == q0 and p1 == q1
                    and copysign(1.0, p0) == copysign(1.0, q0)
                    and copysign(1.0, p1) == copysign(1.0, q1)
                ):
                    break
                flat[t], flat[size + t] = p0, p1
    states, scales = states[..., :n], [scale[:n] for scale in scales]
    if not (scales[0].all() and scales[1].all()):
        raise ValueError("observation sequence impossible under the model")
    return states, *scales


def _smooth(
    params: HmmParams, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward and backward passes over a nonempty stream, as one :func:`_fused_filters` call.

    The forward filter runs in the chunk lanes 0..k-1 and the backward one in
    lanes k..2k-1 of the same steps; both share one state buffer, of which
    ``alpha`` and ``r`` are views.  The backward normalizers are checked
    for zeros there and dropped here, before ``w`` is formed, so the peak
    stays at eight stream-length float rows.

    The state arrays are rows, shape (2, n).  ``alpha[:, t]`` is the
    filtered state distribution after record t and ``scale[t]`` the
    predictive probability of that record, so the log-likelihood is
    ``log(scale).sum()``.  ``r[:, t]`` is the self-normalized backward
    message ``normalize(emit[:, o_t] * (trans @ r[:, t + 1]))``: the same
    filter on the reversed stream with ``trans`` transposed.  ``w[:, t] =
    alpha[:, t] * (trans @ r[:, t + 1])`` (``alpha[:, -1]`` for the last
    record) is proportional to the posterior state distribution.  ``alpha``
    and ``scale`` carry the bits of the scalar loop
    ``tests/oracles.py::smooth_scalar``, and ``r`` those of
    ``tests/oracles.py::backward_scalar``.
    """
    states, scale = _fused_filters(params, obs)[:2]
    alpha, r = states[0], states[1][:, ::-1]
    (t00, t01), (t10, t11) = params.trans.tolist()
    # w[:, :-1] = trans @ r[:, 1:] in elementwise steps (no BLAS, so no FMA),
    # with one temporary, then times alpha.
    w = np.ones_like(alpha)
    tmp = r[1, 1:] * t01
    np.multiply(r[0, 1:], t00, w[0, :-1])
    w[0, :-1] += tmp
    np.multiply(r[1, 1:], t11, tmp)
    np.multiply(r[0, 1:], t10, w[1, :-1])
    w[1, :-1] += tmp
    w *= alpha
    return alpha, scale, r, w


def forward_backward(
    params: HmmParams, observations: Sequence[int] | np.ndarray
) -> DecodedSeries:
    """Scaled forward-backward smoothing of a bright/dark stream.

    Returns per-record posteriors of the signal state, the hard argmax
    labels (ties to the non-signal state), and the total log-likelihood
    accumulated from the per-step scaling factors.
    """
    obs = _check_binary(observations)
    n = obs.size
    if n == 0:
        return DecodedSeries(
            states=np.empty(0, dtype=np.int8),
            posteriors=np.empty(0),
            log_likelihood=0.0,
        )
    # Only scale and w are kept, so the shared state buffer is freed before
    # the posteriors are formed.
    scale, w = _smooth(params, obs)[1::2]
    posteriors = w[1] / (w[0] + w[1])
    states = (posteriors > 0.5).astype(np.int8)
    return DecodedSeries(
        states=states,
        posteriors=posteriors,
        log_likelihood=float(np.log(scale).sum()),
    )


def viterbi(params: HmmParams, observations: Sequence[int] | np.ndarray) -> np.ndarray:
    """Most likely hidden path in log-space; ties resolve to state 0.

    The recursion is a scalar IEEE float loop with a fixed operation
    order; ``back[t]`` packs the best source of state 0 in bit 0 and that
    of state 1 in bit 1, a source switching to 1 only when strictly better.
    A stream that no path can produce raises ValueError, as forward_backward does.
    """
    obs = _check_binary(observations)
    n = obs.size
    if n == 0:
        return np.empty(0, dtype=np.int8)
    with np.errstate(divide="ignore"):
        (l00, l01), (l10, l11) = np.log(params.trans).tolist()
        # le[o] = (log emit[0, o], log emit[1, o])
        le = tuple(zip(*np.log(params.emit).tolist()))
        i0, i1 = np.log(params.initial).tolist()
    seq = obs.tolist()
    y0, y1 = le[seq[0]]
    d0, d1 = i0 + y0, i1 + y1
    back = bytearray(n)
    for t in range(1, n):
        y0, y1 = le[seq[t]]
        c00, c10, c01, c11 = d0 + l00, d1 + l10, d0 + l01, d1 + l11
        back[t] = (c10 > c00) | (c11 > c01) << 1
        d0, d1 = (c10 if c10 > c00 else c00) + y0, (c11 if c11 > c01 else c01) + y1
    if d0 == d1 == -np.inf:
        raise ValueError("observation sequence impossible under the model")
    path = bytearray(n)
    path[-1] = d1 > d0
    for t in range(n - 1, 0, -1):
        path[t - 1] = back[t] >> path[t] & 1
    return np.frombuffer(path, dtype=np.int8)


def _labeled_pairs(
    datasets: Iterable,
) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    for item in datasets:
        if hasattr(item, "outcomes") and hasattr(item, "hidden_labels"):
            obs, labels = item.outcomes(), item.hidden_labels()
        else:
            obs, labels = item
        obs, labels = _check_binary(obs), _check_binary(labels, "labels")
        if obs.shape != labels.shape:
            raise ValueError("observations and labels must have equal length")
        pairs.append((obs, labels))
    return pairs


def estimate_params_supervised(datasets: Iterable) -> HmmParams:
    """Maximum-likelihood counting on labeled streams, add-one smoothed.

    Accepts labeled trial datasets or plain (observations, labels) pairs of
    0/1 values; any other value, such as the NA label -1, is a ValueError.
    Raises :class:`EstimationError` naming any hidden state that never
    appears in the labels, before smoothing would mask its absence.
    """
    pairs = _labeled_pairs(datasets)
    if not pairs:
        raise EstimationError("no training data supplied")
    trans_counts = np.zeros((2, 2))
    emit_counts = np.zeros((2, 2))
    init_counts = np.zeros(2)
    for obs, labels in pairs:
        if labels.size == 0:
            continue
        init_counts[labels[0]] += 1
        # Cell 2 i + j of a flat count is row i, column j.
        emit_counts += np.bincount(2 * labels + obs, minlength=4).reshape(2, 2)
        trans_counts += np.bincount(2 * labels[:-1] + labels[1:], minlength=4).reshape(2, 2)
    # Every labelled record emits once, so a state's emission row counts its records.
    seen = emit_counts.sum(axis=1) > 0
    for state in (0, 1):
        if not seen[state]:
            raise EstimationError(
                f"hidden state {STATE_NAMES[state]} never observed in the labels"
            )
    trans = trans_counts + 1.0
    emit = emit_counts + 1.0
    initial = init_counts + 1.0
    return HmmParams(
        trans=trans / trans.sum(axis=1, keepdims=True),
        emit=emit / emit.sum(axis=1, keepdims=True),
        initial=initial / initial.sum(),
    )


def baum_welch(
    observations: Sequence[int] | np.ndarray,
    initial_params: HmmParams,
    *,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> tuple[HmmParams, list[float]]:
    """Unsupervised EM refinement for unlabeled streams.

    Starts from ``initial_params`` (typically the supervised estimates)
    and iterates until the log-likelihood gain drops below ``tol``.
    Returns the refined parameters and the log-likelihood trace.
    """
    obs = _check_binary(observations)
    if obs.size < 2:
        raise ValueError("baum_welch needs at least two observations")
    params = initial_params
    history: list[float] = []
    for _ in range(max_iter):
        alpha, scale, r, w = _smooth(params, obs)
        history.append(float(np.log(scale).sum()))
        norm = w[0] + w[1]
        gamma = w / norm
        # Sum over t of xi_t[i, j] = alpha[i, t] trans[i, j] r[j, t+1] / norm[t],
        # contracted over t in one product.
        xi_sum = params.trans * (alpha[:, :-1] @ (r[:, 1:] / norm[:-1]).T)
        new_trans = xi_sum / gamma[:, :-1].sum(axis=1)[:, None]
        emit_num = np.zeros((2, 2))
        for o in (0, 1):
            emit_num[:, o] = gamma[:, obs == o].sum(axis=1)
        new_emit = emit_num / gamma.sum(axis=1)[:, None]
        new_initial = gamma[:, 0]
        params = HmmParams(
            trans=new_trans / new_trans.sum(axis=1, keepdims=True),
            emit=new_emit / new_emit.sum(axis=1, keepdims=True),
            initial=new_initial / new_initial.sum(),
        )
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            break
    return params, history


def evaluate(
    predictions: Sequence[int] | np.ndarray, truth: Sequence[int] | np.ndarray
) -> DetectionMetrics:
    """Per-record precision, recall and F1 of predicted signal states;
    both must be 1-d 0/1 arrays, so an NA label (-1) is a ValueError."""
    pred, true = _check_binary(predictions, "predictions"), _check_binary(truth, "truth")
    if pred.shape != true.shape:
        raise ValueError("predictions and truth must have equal length")
    cp = int(np.sum((pred == 1) & (true == 1)))
    ip = int(np.sum((pred == 1) & (true == 0)))
    inn = int(np.sum((pred == 0) & (true == 1)))
    precision = cp / (cp + ip) if cp + ip else (1.0 if inn == 0 else 0.0)
    recall = cp / (cp + inn) if cp + inn else (1.0 if ip == 0 else 0.0)
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return DetectionMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        correct_positive=cp,
        incorrect_positive=ip,
        incorrect_negative=inn,
    )


def write_decoded_csv(
    path,
    observations: Sequence[int] | np.ndarray,
    decoded: DecodedSeries,
    *,
    indices: Iterable[int] | None = None,
) -> None:
    """Export decoding as CSV: index, outcome, predicted_state, posterior."""
    obs = _check_binary(observations)
    idx = np.arange(obs.size) if indices is None else _int_column(indices)
    header = ("index", "outcome", "predicted_state", "posterior")
    write_table(path, header, (idx, obs, decoded.states, decoded.posteriors))
