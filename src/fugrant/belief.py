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
group; the full 2^N x 2^N transition matrix is never materialized. Evidence
and forecasts are built from half-width tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, ScenarioConfig, stationary_on_probs

# Per-device evidence values (int8 observation vectors).
OBSERVED_SILENT = 0
OBSERVED_ACTIVE = 1
UNOBSERVED = -1

MAX_PROCESSES = 24  # 2^24 weights is the largest belief we are willing to hold

# The (2^N, K) log-activation table is cached only up to this many entries
# (64 MiB); past it each active device's column is rebuilt per slot from the
# half-width tables, which keeps the emission in O(2^N) transient memory.
_TABLE_MAX_ENTRIES = 1 << 23

# log(0) is clamped to this finite value because BLAS turns -inf * 0 into NaN.
# Real evidence (-745 per device at worst) never sums down to it.
_LOG_FLOOR = -1e300

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


def unnormalized_joint(belief: BeliefState) -> np.ndarray:
    """Joint probability of each state and the full evidence history."""
    return belief.weights * math.exp(belief.log_scale)


def entropy(belief: BeliefState) -> float:
    """Shannon entropy (nats) of the posterior."""
    w = belief.weights[belief.weights > 0.0]
    return float(-(w * np.log(w)).sum())


def init_belief(config: ScenarioConfig) -> BeliefState:
    """Stationary prior: the product of per-process stationary marginals."""
    if config.n_processes > MAX_PROCESSES:
        raise CapacityError(
            f"n_processes = {config.n_processes} exceeds the exact-tracking "
            f"limit of {MAX_PROCESSES}"
        )
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


def _state_products(off: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per-state products over processes, the Kronecker product of the
    per-process factor pairs: entry s multiplies off[n] or on[n] as bit n of
    s is 0 or 1. Factors of shape (N,) give (2^N,), of shape (N, K) give
    (2^N, K)."""
    out = np.ones((1,) + off.shape[1:])
    for f_off, f_on in zip(off, on):
        out = np.concatenate((out * f_off, out * f_on))
    return out


def _forecast_halves(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """P(device silent next slot | half-state) for the low h = N // 2 process
    bits, shape (2^h, K), and for the high N - h bits, shape (2^(N-h), K).

    State s = s_low + 2^h * s_high, so low[s_low] * high[s_high] is the
    silent probability given the whole state. Process n contributes the
    factor 1 - eps1[n] * q[n] when Off now and 1 - (1 - eps0[n]) * q[n] when
    On now.
    """

    def build() -> tuple[np.ndarray, np.ndarray]:
        off = 1.0 - config.eps1[:, None] * config.q
        on = 1.0 - (1.0 - config.eps0[:, None]) * config.q
        h = config.n_processes // 2
        return _state_products(off[:h], on[:h]), _state_products(off[h:], on[h:])

    return config.cached("belief.forecast_halves", build)


def _evidence_halves(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """log P(device silent | half-state), split as in _forecast_halves: the
    sum of log1p(-q[n, k]) over the half's On processes, each term floored."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):
            log_silent = np.maximum(np.log1p(-config.q), _LOG_FLOOR)
        h = config.n_processes // 2
        # bit n of half-state s selects row n, so entry s sums its On processes
        return tuple(
            ((np.arange(1 << len(rows))[:, None] >> np.arange(len(rows))) & 1) @ rows
            for rows in (log_silent[:h], log_silent[h:])
        )

    return config.cached("belief.evidence_halves", build)


def _log_active(config: ScenarioConfig, cols) -> np.ndarray:
    """log P(device active | state) for the device columns `cols`, shape
    (2^N, len(cols)); expm1 keeps it finite where 1 - prod(1 - q) is 0."""
    low, high = _evidence_halves(config)
    t = (high[:, None, cols] + low[None, :, cols]).reshape(config.n_states, -1)
    with np.errstate(divide="ignore"):
        np.log(np.negative(np.expm1(t, out=t), out=t), out=t)
    return np.maximum(t, _LOG_FLOOR, out=t)


def _log_evidence(obs: np.ndarray, config: ScenarioConfig) -> np.ndarray | None:
    """Log-likelihood of the slot's evidence for every state, shape (2^N,),
    or None when no device is observed. Active devices add their columns of
    the log P(active | state) table, cached up to _TABLE_MAX_ENTRIES. Silent
    devices factor over the two process halves (QuickScore; Heckerman 1989)."""
    active = obs == OBSERVED_ACTIVE
    silent = obs == OBSERVED_SILENT
    if not (active.any() or silent.any()):
        return None
    if config.n_states * config.n_devices <= _TABLE_MAX_ENTRIES:
        table = config.cached("belief.log_active_table", lambda: _log_active(config, slice(None)))
        le = table @ active.astype(float)
    else:
        le = np.zeros(config.n_states)
        for k in np.flatnonzero(active):
            le += _log_active(config, [k])[:, 0]
    low, high = _evidence_halves(config)
    s = silent.astype(float)
    le += ((high @ s)[:, None] + low @ s).reshape(-1)
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

    The log-evidence is shifted by its maximum m before `exp`; m and the log
    of the posterior's normalizer are absorbed into log_scale. A
    fully-unobserved slot is returned as the bare prediction, bit for bit.

    Raises EvidenceContradictionError when the evidence has zero probability
    under every state, which cannot happen for observations generated by the
    model itself; callers typically reset to `init_belief`.
    """
    if obs.shape != (config.n_devices,):
        raise ValueError(f"observation must have shape ({config.n_devices},), got {obs.shape}")
    _check_belief(belief, config)
    w = _predict(belief.weights, config)
    le = _log_evidence(obs, config)
    if le is None:
        return BeliefState(w, belief.log_scale)
    m = float(le.max())
    le -= m
    w *= np.exp(le, out=le)
    total = float(w.sum())
    if m <= _LOG_FLOOR or total <= 0.0:
        raise EvidenceContradictionError(
            "observed evidence is impossible under the scenario's activation model"
        )
    w /= total
    return BeliefState(w, belief.log_scale + math.log(total) + m)


def device_forecast(
    belief: BeliefState, config: ScenarioConfig, mode: str = "map_state"
) -> np.ndarray:
    """Per-device next-slot activity probabilities under the current belief.

    "map_state" evaluates the one-step predictor at the posterior-mode state
    (lowest index on ties; the default scheduling rule); "marginal" averages
    it over the whole posterior. Both read the _forecast_halves tables.
    """
    _check_belief(belief, config)
    low, high = _forecast_halves(config)
    if mode == "map_state":
        s_high, s_low = divmod(int(np.argmax(belief.weights)), low.shape[0])
        return 1.0 - low[s_low] * high[s_high]
    if mode == "marginal":
        w = belief.weights.reshape(high.shape[0], low.shape[0])
        return 1.0 - ((w @ low) * high).sum(axis=0)
    raise ValueError(f"unknown forecast mode {mode!r}; expected 'map_state' or 'marginal'")
