"""Exact Bayesian tracking of the joint On/Off state of all event processes.

The tracker keeps a normalized posterior over the 2^N joint states plus an
accumulated log normalizer, so `weights * exp(log_scale)` recovers the
unnormalized joint probability of the current state and the whole evidence
history. Per-slot evidence is tri-state per device: observed active,
observed silent, or unobserved. Unobserved devices contribute no emission
factor at all (they are marginalized out exactly), which is how the tracker
copes with seeing only the devices it scheduled. Evidence is summed in log
space, so no number of observed devices can underflow it.

The prediction step applies the Kronecker product of up to five processes'
2x2 kernels (32 x 32) along their axes of the weight tensor, one matmul per
group; the full 2^N x 2^N transition matrix is never materialized. The
marginal forecast is built from half-width tables. The evidence has one
formula per term: the active devices' rows of log P(active | state), summed
in index order, and the silent devices' term, added in place from
half-width tables.

A censored tracker sees the same few observations again and again. An
evidence factor depends on the observation and the scenario alone, so the
config keeps those of recent observations in a small LRU memo (512 KiB of
factors) that all its trackers share, and a repeat is multiplied by the
stored array. Full feedback's evidence does not depend on the grants, so it
is put in that memo a block of slots ahead, one GEMM over the
log-activation table per block: at least an eighth of the devices' count of
slots, so each slot reads at most eight table rows' worth of it.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, ScenarioConfig, state_bits, stationary_on_probs

# Per-device evidence values (int8 observation vectors).
OBSERVED_SILENT = 0
OBSERVED_ACTIVE = 1
UNOBSERVED = -1

MAX_PROCESSES = 24  # 2^24 weights is the largest belief we are willing to hold

# The modes of device_forecast, also the engine's and CLI's belief modes.
FORECAST_MODES = ("map_state", "marginal")

# The log-activation table, a row of 2^N per device, is cached only up to
# this many entries (64 MiB); past it each active device's row is rebuilt per
# slot from the half-width tables, which keeps the emission in O(2^N)
# transient memory.
_TABLE_MAX_ENTRIES = 1 << 23

# log(0) is clamped to this finite value because BLAS turns -inf * 0 into NaN.
# Real evidence (-745 per device at worst) never sums down to it.
_LOG_FLOOR = -1e300

# Bytes of evidence factors a config's memo holds: 64 at N = 10, 4 at
# N = 14, none past N = 16. A prefetched block has at least half as many rows
# (32 at N = 10) and at least K // 8 (12 at N = 14 with K = 100; see
# _block_rows).
_EVIDENCE_MEMO_BYTES = 1 << 19

# Processes per transition-matrix group in _predict (a 32 x 32 matrix).
_GROUP = 5


class CapacityError(ConfigurationError):
    """The joint state space is too large for exact tracking."""


class EvidenceContradictionError(RuntimeError):
    """The observation has probability zero under every state."""


@dataclass
class BeliefState:
    """Normalized posterior over joint process states.

    weights[s] is P(state = s | evidence so far); log_scale accumulates the
    log of every discarded normalizer, so the unnormalized forward variable
    is weights * exp(log_scale).
    """

    weights: np.ndarray
    log_scale: float = 0.0


def entropy(belief: BeliefState) -> float:
    """Shannon entropy (nats) of the posterior."""
    w = belief.weights[belief.weights > 0.0]
    return float(-(w * np.log(w)).sum())


def _check_capacity(n_processes: int) -> None:
    if n_processes > MAX_PROCESSES:
        raise CapacityError(
            f"n_processes = {n_processes} exceeds the exact-tracking limit of {MAX_PROCESSES}"
        )


def init_belief(config: ScenarioConfig) -> BeliefState:
    """Stationary prior: the product of per-process stationary marginals."""
    _check_capacity(config.n_processes)
    pi = stationary_on_probs(config)
    w = _state_products(1.0 - pi, pi)
    return BeliefState(w / w.sum(), 0.0)


def _group_kernels(config: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """Transition matrices T[new, old] of the process groups lo..hi - 1 with
    lo = g * _GROUP and hi = min(lo + _GROUP, N): the Kronecker product of
    the group's 2x2 kernels, later processes as the outer factor, so bit j
    of a group state is process lo + j."""

    def build() -> tuple[np.ndarray, ...]:
        k = [np.array([[1.0 - e1, e0], [e1, 1.0 - e0]]) for e0, e1 in zip(config.eps0, config.eps1)]
        return tuple(
            functools.reduce(lambda m, kernel: np.kron(kernel, m), k[lo:lo + _GROUP])
            for lo in range(0, config.n_processes, _GROUP)
        )

    return config.cached("belief.group_kernels", build)


def _predict(weights: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """One-slot prior propagation, one group of processes at a time.

    Viewed as (2^(N-hi), 2^(hi-lo), 2^lo), the weights carry group lo..hi - 1
    on the middle axis, so one broadcast matmul applies the group's matrix
    for every setting of the other bits. That is ceil(N / _GROUP) BLAS calls
    and O(2^_GROUP * 2^N) work per slot, against 4^N for the dense joint
    matrix (the "shuffle" product of Fernandes, Plateau & Stewart, 1998).
    """
    first, *rest = _group_kernels(config)
    # at lo = 0 the last axis has length 1, where matmul would loop over rows
    w = weights.reshape(-1, first.shape[0]) @ first.T
    for g, m in enumerate(rest, 1):
        w = np.matmul(m, w.reshape(-1, m.shape[0], 1 << (g * _GROUP)))
    return w.reshape(-1)


def _state_products(off: np.ndarray, on: np.ndarray, combine=np.multiply) -> np.ndarray:
    """Per-state products over processes, the Kronecker product of the
    per-process factor pairs: entry s combines off[n] or on[n] as bit n of
    s is 0 or 1, starting from the ufunc's identity (np.add gives sums).
    Factors of shape (N,) give (2^N,), of shape (N, K) give (2^N, K)."""
    out = np.full((1,) + off.shape[1:], combine.identity, dtype=float)
    for f_off, f_on in zip(off, on):
        out = np.concatenate((combine(out, f_off), combine(out, f_on)))
    return out


def _silent_factors(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-process factors of P(device silent next slot), (N, K) each, for
    every process Off now and for every process On now."""
    return config.cached("belief.silent_factors", lambda: (
        1.0 - config.eps1[:, None] * config.q,
        1.0 - (1.0 - config.eps0[:, None]) * config.q,
    ))


def _forecast_halves(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """P(device silent next slot | half-state) for the low h = N // 2 process
    bits, shape (2^h, K), and for the high N - h bits, shape (2^(N-h), K).

    State s = s_low + 2^h * s_high, so low[s_low] * high[s_high] is the
    silent probability given the whole state. Process n contributes the
    factor 1 - eps1[n] * q[n] when Off now and 1 - (1 - eps0[n]) * q[n] when
    On now.
    """

    def build() -> tuple[np.ndarray, np.ndarray]:
        off, on = _silent_factors(config)
        h = config.n_processes // 2
        return _state_products(off[:h], on[:h]), _state_products(off[h:], on[h:])

    return config.cached("belief.forecast_halves", build)


def _evidence_halves(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """log P(device silent | half-state), split as in _forecast_halves: the
    sum of log1p(-q[n, k]) over the half's On processes, each term floored."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):
            log_silent = np.maximum(np.log1p(-config.q), _LOG_FLOOR)
        off = np.zeros_like(log_silent)
        h = config.n_processes // 2
        return (_state_products(off[:h], log_silent[:h], np.add),
                _state_products(off[h:], log_silent[h:], np.add))

    return config.cached("belief.evidence_halves", build)


def _log_active(config: ScenarioConfig, cols) -> np.ndarray:
    """log P(device active | state) for the device columns `cols`, one
    C-contiguous row of 2^N per device, shape (len(cols), 2^N); expm1 keeps it
    finite where 1 - prod(1 - q) is 0."""
    low, high = (np.ascontiguousarray(half.T[cols]) for half in _evidence_halves(config))
    t = np.add(high[:, :, None], low[:, None, :], order="C").reshape(-1, config.n_states)
    with np.errstate(divide="ignore"):
        np.log(np.negative(np.expm1(t, out=t), out=t), out=t)
    return np.maximum(t, _LOG_FLOOR, out=t)


def _log_active_table(config: ScenarioConfig) -> np.ndarray | None:
    """The cached (K, 2^N) log-activation table, or None above _TABLE_MAX_ENTRIES."""
    if config.n_states * config.n_devices > _TABLE_MAX_ENTRIES:
        return None
    return config.cached("belief.log_active_table", lambda: _log_active(config, slice(None)))


def _block_rows(n: int, k: int) -> int:
    """Rows of full feedback's prefetched block at N processes and K devices:
    half the memo's entries or K // 8, whichever is more, so one pass over
    the (K, 2^N) table serves enough slots to pay for itself (32 at N = 10;
    12 at N = 14 with K = 100). 0 when that is under two rows or the table
    is not cached."""
    states = 1 << n
    rows = max(_EVIDENCE_MEMO_BYTES // (8 * states) // 2, k // 8)
    return rows if rows >= 2 and states * k <= _TABLE_MAX_ENTRIES else 0


def _evidence_bytes(n: int, k: int) -> int:
    """Peak bytes of a config's evidence factors: its memo's
    _EVIDENCE_MEMO_BYTES, or a prefetched block when that is more. The memo
    is emptied before each fill, and the block builds no temporary of its
    size. Trackers run one at a time, so one memo serves them all."""
    return max(_EVIDENCE_MEMO_BYTES, 8 * (1 << n) * _block_rows(n, k))


def _filter_bytes(n: int, k: int) -> int:
    """Peak bytes of one tracker at N processes and K devices: four 2^N-float
    vectors (old and new weights, the log-evidence and one temporary), the
    evidence and forecast half tables, the (2^N, K) log-activation table
    when _log_evidence caches it, and the config's evidence memo or
    prefetched block (see _evidence_bytes)."""
    states, h = 1 << n, n // 2
    table = states * k if states * k <= _TABLE_MAX_ENTRIES else 0
    halves = 2 * ((1 << h) + (1 << (n - h))) * k
    return 8 * (4 * states + halves + table) + _evidence_bytes(n, k)


def _add_silent(le: np.ndarray, silent: np.ndarray, config: ScenarioConfig) -> None:
    """Add the silent term of each row of `silent`, (C, K) floats that are 1
    for a device observed silent, to le in place, le being C log-evidence
    rows of 2^N. Silent devices factor over the two process halves
    (QuickScore; Heckerman 1989): le += high term, then le += low term,
    each broadcast over the other half, so no (C, 2^N) temporary is built."""
    low, high = _evidence_halves(config)
    grid = le.reshape(len(silent), len(high), len(low))
    grid += (silent @ high.T)[:, :, None]
    grid += (silent @ low.T)[:, None, :]


def _log_evidence(obs: np.ndarray, config: ScenarioConfig) -> np.ndarray | None:
    """Log-likelihood of the slot's evidence for every state, shape (2^N,),
    or None when no device is observed. Each active device adds its row of
    log P(active | state) in index order, so a slot reads only the rows it
    saw: from the (K, 2^N) table when it is cached, else rebuilt, bit for
    bit the same. _add_silent then adds the silent devices."""
    if (obs == UNOBSERVED).all():
        return None
    active = np.flatnonzero(obs == OBSERVED_ACTIVE).tolist()
    table = _log_active_table(config) if active else None
    le = np.zeros(config.n_states)
    for k in active:
        le += _log_active(config, [k])[0] if table is None else table[k]
    silent = obs == OBSERVED_SILENT
    if silent.any():
        _add_silent(le, silent[None].astype(float), config)
    return le


def _check_belief(belief: BeliefState, config: ScenarioConfig) -> None:
    if belief.weights.shape != (config.n_states,):
        raise ValueError(
            f"belief weights must have shape ({config.n_states},), got {belief.weights.shape}"
        )


def forward_update(
    belief: BeliefState, obs: np.ndarray, config: ScenarioConfig
) -> BeliefState:
    """One filtering step: propagate one slot, then fold in the evidence.

    The log-evidence le is shifted by its maximum m before `exp`; m and the
    log of the posterior's normalizer are absorbed into log_scale. A
    fully-unobserved slot is returned as the bare prediction, bit for bit.

    The factor exp(le - m) and m depend only on the observation (an int8
    vector) and the config, so they are kept as (m, factor), keyed by obs's
    bytes, in the config's LRU memo of _EVIDENCE_MEMO_BYTES
    (config.cached("belief.evidence_memo")). A repeated observation skips
    the evidence, its max and its exp, and multiplies by the stored array
    itself, made read-only, so the result is bit for bit what a tracker with
    an empty memo computes. Only observations that passed the contradiction
    check are stored. prefetch_evidence fills the memo ahead of full
    feedback; every hit passes the contradiction check again.

    Raises EvidenceContradictionError when the evidence has zero probability
    under every state, which cannot happen for observations generated by the
    model itself; callers typically reset to `init_belief`.
    """
    if obs.shape != (config.n_devices,):
        raise ValueError(f"observation must have shape ({config.n_devices},), got {obs.shape}")
    _check_belief(belief, config)
    w = _predict(belief.weights, config)
    memo, key = config.cached("belief.evidence_memo", OrderedDict), obs.tobytes()
    entry = memo.get(key)
    if entry is not None:
        memo.move_to_end(key)
        m, factor = entry
    else:
        le = _log_evidence(obs, config)
        if le is None:
            return BeliefState(w, belief.log_scale)
        m = float(le.max())
        le -= m
        factor = np.exp(le, out=le)
    w *= factor
    total = float(w.sum())
    if m <= _LOG_FLOOR or total <= 0.0:
        raise EvidenceContradictionError(
            "observed evidence is impossible under the scenario's activation model"
        )
    w /= total
    if entry is None and w.nbytes <= _EVIDENCE_MEMO_BYTES:
        factor.flags.writeable = False
        memo[key] = (m, factor)
        if len(memo) * w.nbytes > _EVIDENCE_MEMO_BYTES:
            memo.popitem(last=False)
    return BeliefState(w, belief.log_scale + math.log(total) + m)


def _block_log_evidence(obs: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """_log_evidence of each row of obs, (C, K) int8 rows that observe every
    device, shape (C, 2^N): the active term as one GEMM over the cached
    log-activation table, then _add_silent's term, within 1e-12 of the
    per-slot row sums."""
    x = (obs == OBSERVED_ACTIVE).astype(float)
    le = x @ _log_active_table(config)
    np.subtract(1.0, x, out=x)  # every device is observed: silent = 1 - active
    _add_silent(le, x, config)
    return le


def prefetch_evidence(observations: np.ndarray, config: ScenarioConfig) -> int:
    """Put the evidence of the coming fully observed slots in the config's memo.

    `observations` (M, K) start at the current slot. When its row is not yet
    in the memo (a one-byte row, int8 or the engine's uint8 activity, is
    looked up by its own bytes), the memo is emptied and the leading rows
    that observe every device, at most _block_rows of them, are stored as
    forward_update stores a miss: (m, factor) under the row's int8 bytes,
    read-only, from one _block_log_evidence, row max, shift and exp. A row
    impossible under every state (m at _LOG_FLOOR) is not stored. The block
    is then all the factors alive (_evidence_bytes counts it); its C * K
    floats are bounded by M and by _block_rows. Returns the rows covered: 0
    when the current row is stored or leaves a device unobserved, without a
    cached table, or when the block would be under two rows.
    """
    memo, first = config.cached("belief.evidence_memo", OrderedDict), observations[0]
    if (first if first.itemsize == 1 else first.astype(np.int8)).tobytes() in memo:
        return 0
    block = _block_rows(config.n_processes, config.n_devices)
    if not block:
        return 0
    obs = np.asarray(observations[:block], dtype=np.int8)
    c = int(np.logical_and.accumulate((obs != UNOBSERVED).all(axis=1)).sum())
    if not c:
        return 0
    obs = obs[:c]
    memo.clear()
    le = _block_log_evidence(obs, config)
    m = le.max(axis=1)
    le -= m[:, None]
    np.exp(le, out=le)
    le.flags.writeable = False
    for row, row_max, factor in zip(obs, m.tolist(), le):
        if row_max > _LOG_FLOOR:
            memo[row.tobytes()] = (row_max, factor)
    return c


def map_index(belief: BeliefState) -> int:
    """Index of the posterior-mode state, the lowest one on ties."""
    return int(belief.weights.argmax())


def state_forecast(state: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """P(device k active next slot | the (N,) process states), for all k: the
    one-step predictor. It multiplies the factors in _forecast_halves' order,
    so it equals those tables' entries bit for bit, but in O(N * K) at any N."""
    off, on = _silent_factors(config)
    f = np.where(np.asarray(state, dtype=bool)[:, None], on, off)
    h = config.n_processes // 2
    return 1.0 - f[:h].prod(axis=0) * f[h:].prod(axis=0)


def device_forecast(
    belief: BeliefState, config: ScenarioConfig, mode: str = "map_state"
) -> np.ndarray:
    """Per-device next-slot activity probabilities under the current belief.

    "map_state" evaluates state_forecast at the posterior-mode state (lowest
    index on ties; the default scheduling rule); "marginal" averages the
    one-step predictor over the whole posterior, through the
    _forecast_halves tables.
    """
    _check_belief(belief, config)
    if mode == "map_state":
        return state_forecast(state_bits(map_index(belief), config.n_processes), config)
    if mode == "marginal":
        low, high = _forecast_halves(config)
        w = belief.weights.reshape(high.shape[0], low.shape[0])
        return 1.0 - ((w @ low) * high).sum(axis=0)
    expected = " or ".join(map(repr, FORECAST_MODES))
    raise ValueError(f"unknown forecast mode {mode!r}; expected {expected}")
