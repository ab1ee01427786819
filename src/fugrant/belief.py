"""Exact Bayesian tracking of the joint On/Off state of all event processes.

The tracker keeps a normalized posterior over the 2^N joint states plus an
accumulated log normalizer, so `weights * exp(log_scale)` recovers the
unnormalized joint probability of the current state and the whole evidence
history. Per-slot evidence is tri-state per device: observed active,
observed silent, or unobserved. Unobserved devices contribute no emission
factor at all (they are marginalized out exactly), which is how the tracker
copes with seeing only the devices it scheduled.

The prediction step applies each process's 2x2 kernel along its own axis of
the weight tensor (O(N * 2^N)); the full 2^N x 2^N transition matrix is
never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    ScenarioConfig,
    predict_activation_probs,
    state_bits,
    stationary_on_probs,
)

# Per-device evidence values (int8 observation vectors).
OBSERVED_SILENT = 0
OBSERVED_ACTIVE = 1
UNOBSERVED = -1

MAX_PROCESSES = 24  # 2^24 weights is the largest belief we are willing to hold

# The per-state activation table is only cached while 2^N * K stays small
# enough to be a clear win; past this the emission falls back to per-device
# vectors and stays within O(2^N) transient memory.
_TABLE_MAX_ENTRIES = 1 << 23

# The emission multiplies at most this many devices' likelihoods before it
# rescales, so thousands of observed devices cannot underflow to zero.
_EMISSION_BLOCK = 64


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

    @property
    def n_processes(self) -> int:
        return int(self.weights.size).bit_length() - 1


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


def _kernels(config: ScenarioConfig) -> np.ndarray:
    """Per-process transition kernels, shape (N, 2, 2), K[n][new, old]."""

    def build() -> np.ndarray:
        k = np.empty((config.n_processes, 2, 2))
        k[:, 0, 0] = 1.0 - config.eps1
        k[:, 1, 0] = config.eps1
        k[:, 0, 1] = config.eps0
        k[:, 1, 1] = 1.0 - config.eps0
        return k

    return config.cached("belief.kernels", build)


def _predict(weights: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """One-slot prior propagation, one process axis at a time.

    Each pass multiplies the top bit's 2x2 kernel into the weights viewed
    as (2, 2^(N-1)), then transposes and flattens, which rotates the bit
    order by one place. Top bit on pass j is process N-1-j, and after N
    passes the rotation returns to the original order, so every process
    gets its kernel exactly once. N contiguous matmuls cost O(N * 2^N)
    versus 4^N for a dense joint kernel.
    """
    n = config.n_processes
    kernels = _kernels(config)
    w = weights.reshape(2, -1)
    for j in range(n):
        w = (kernels[n - 1 - j] @ w).T.reshape(2, -1)
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


def _activation_table(config: ScenarioConfig) -> np.ndarray | None:
    """(2^N, K) table of P(device active | state), or None if too large."""
    if config.n_states * config.n_devices > _TABLE_MAX_ENTRIES:
        return None
    ones = np.ones_like(config.q)
    return config.cached(
        "belief.activation_table",
        lambda: 1.0 - _state_products(ones, 1.0 - config.q),
    )


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


def _emission_vector(
    obs: np.ndarray, config: ScenarioConfig
) -> tuple[np.ndarray, int] | None:
    """Emission likelihood for every state at once, as (e, shift) with the
    likelihood equal to e * 2**shift; None when no evidence.

    Observed devices are folded in blocks of at most _EMISSION_BLOCK. Before
    each block after the first, e is scaled by the power of two that brings
    its maximum into [0.5, 1); the scaling is exact, so the result differs
    from a single product only where that product would underflow.
    """
    observed = np.flatnonzero(obs != UNOBSERVED)
    if observed.size == 0:
        return None
    table = _activation_table(config)
    ones = np.ones(config.n_processes)
    e = np.ones(config.n_states)
    shift = 0
    for start in range(0, observed.size, _EMISSION_BLOCK):
        if start:
            _, exponent = np.frexp(e.max())
            e = np.ldexp(e, -exponent)
            shift += int(exponent)
        block = observed[start : start + _EMISSION_BLOCK]
        values = obs[block]
        active = block[values == OBSERVED_ACTIVE]
        silent = block[values == OBSERVED_SILENT]
        if table is not None:
            if active.size:
                e *= table[:, active].prod(axis=1)
            if silent.size:
                e *= (1.0 - table[:, silent]).prod(axis=1)
            continue
        for k in silent:
            e *= _state_products(ones, 1.0 - config.q[:, k])
        for k in active:
            e *= 1.0 - _state_products(ones, 1.0 - config.q[:, k])
    return e, shift


def forward_update(
    belief: BeliefState, obs: np.ndarray, config: ScenarioConfig
) -> BeliefState:
    """One filtering step: propagate one slot, then fold in the evidence.

    The normalizer of the corrected posterior is absorbed into log_scale, so
    long horizons never underflow. A fully-unobserved slot is returned as the
    bare prediction, bit for bit.

    Raises EvidenceContradictionError when the evidence has zero probability
    under every state, which cannot happen for observations generated by the
    model itself; callers typically reset to `init_belief`.
    """
    if obs.shape != (config.n_devices,):
        raise ValueError(f"observation must have shape ({config.n_devices},), got {obs.shape}")
    w = _predict(belief.weights, config)
    emission = _emission_vector(obs, config)
    if emission is None:
        return BeliefState(w, belief.log_scale)
    e, shift = emission
    w = w * e
    total = float(w.sum())
    if total <= 0.0:
        raise EvidenceContradictionError(
            "observed evidence is impossible under the scenario's activation model"
        )
    return BeliefState(w / total, belief.log_scale + math.log(total) + shift * math.log(2.0))


def most_likely_state(belief: BeliefState) -> np.ndarray:
    """Posterior-mode state; ties go to the lowest state index."""
    idx = int(np.argmax(belief.weights))
    return state_bits(idx, belief.n_processes)


def device_forecast(
    belief: BeliefState, config: ScenarioConfig, mode: str = "map_state"
) -> np.ndarray:
    """Per-device next-slot activity probabilities under the current belief.

    "map_state" evaluates the one-step predictor at the posterior-mode state
    (the default scheduling rule); "marginal" averages the predictor over the
    whole posterior instead of committing to one state.
    """
    if mode == "map_state":
        return predict_activation_probs(most_likely_state(belief), config)
    if mode == "marginal":
        low, high = _forecast_halves(config)
        w = belief.weights.reshape(high.shape[0], low.shape[0])
        return 1.0 - ((w @ low) * high).sum(axis=0)
    raise ValueError(f"unknown forecast mode {mode!r}; expected 'map_state' or 'marginal'")
