"""Brute-force reference computations for verifying the fast paths.

Everything here is written the slow, obvious way on purpose: dense
transition matrices built entry by entry, priors assembled state by state,
and filtering done by literally enumerating every hidden-state path. None
of it shares code with the factorized filter it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import belief as belief_mod
from .belief import OBSERVED_ACTIVE, UNOBSERVED, BeliefState
from .model import (
    MAX_SEED,
    ConfigurationError,
    ScenarioConfig,
    activation_probs,
    check_int,
    predict_activation_probs,
    rng_stream,
    sample_activations,
    sample_scenario,
    state_bits,
    state_index,
    stationary_on_probs,
    step_processes,
)

_MAX_PATHS = 1 << 24


def _bit_transition_prob(old: int, new: int, eps0: float, eps1: float) -> float:
    if old == 1:
        return eps0 if new == 0 else 1.0 - eps0
    return eps1 if new == 1 else 1.0 - eps1


def dense_transition_matrix(config: ScenarioConfig) -> np.ndarray:
    """Full (2^N, 2^N) matrix T[new, old], built per pair of states."""
    n_states = config.n_states
    t = np.ones((n_states, n_states))
    for new in range(n_states):
        nb = state_bits(new, config.n_processes)
        for old in range(n_states):
            ob = state_bits(old, config.n_processes)
            p = 1.0
            for n in range(config.n_processes):
                p *= _bit_transition_prob(
                    int(ob[n]), int(nb[n]), float(config.eps0[n]), float(config.eps1[n])
                )
            t[new, old] = p
    return t


def stationary_joint(config: ScenarioConfig) -> np.ndarray:
    """Stationary distribution over joint states, one state at a time."""
    n_states = config.n_states
    w = np.empty(n_states)
    pi = stationary_on_probs(config)
    for s in range(n_states):
        bits = state_bits(s, config.n_processes)
        p = 1.0
        for n in range(config.n_processes):
            p *= pi[n] if bits[n] else 1.0 - pi[n]
        w[s] = p
    return w


def _log_emission_by_sum(obs: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-state evidence log-likelihood, one `fsum` over observed devices:
    log P(silent) sums log1p(-q) over the state's On processes, and
    log P(active) = log(-expm1(log P(silent))) stays finite for tiny q."""
    seen = obs != UNOBSERVED
    le = np.empty(config.n_states)
    for s in range(config.n_states):
        on = state_bits(s, config.n_processes).astype(bool)
        with np.errstate(divide="ignore"):
            log_silent = np.log1p(-config.q[on][:, seen]).sum(axis=0)
            log_active = np.log(-np.expm1(log_silent))
        le[s] = math.fsum(np.where(obs[seen] == OBSERVED_ACTIVE, log_active, log_silent))
    return le


def enumerate_forward_log_joint(
    config: ScenarioConfig, observations: list[np.ndarray]
) -> np.ndarray:
    """Log of the unnormalized joint over the final state, by summing every
    state path: adds the log prior, transition and evidence terms along each
    of the (2^N)^T hidden paths, then log-sum-exps the paths by final state.
    """
    n_states = config.n_states
    steps = len(observations)
    n_paths = n_states**steps
    if n_paths > _MAX_PATHS:
        raise ValueError(f"{n_paths} paths exceed the enumeration limit of {_MAX_PATHS}")
    with np.errstate(divide="ignore"):
        prior = np.log(stationary_joint(config))
        trans = np.log(dense_transition_matrix(config))
    emissions = [_log_emission_by_sum(obs, config) for obs in observations]
    paths = np.unravel_index(np.arange(n_paths), (n_states,) * steps)
    mass = prior[paths[0]] + emissions[0][paths[0]]
    for step in range(1, steps):
        mass = mass + trans[paths[step], paths[step - 1]] + emissions[step][paths[step]]
    out = np.full(n_states, -np.inf)
    np.logaddexp.at(out, paths[-1], mass)
    return out


def predicted_activation_by_enumeration(
    state: np.ndarray, k: int, config: ScenarioConfig
) -> float:
    """P(device k active next slot | state) by summing over all next states."""
    total = 0.0
    for nxt in range(config.n_states):
        nb = state_bits(nxt, config.n_processes)
        p = 1.0
        for n in range(config.n_processes):
            p *= _bit_transition_prob(
                int(state[n]), int(nb[n]), float(config.eps0[n]), float(config.eps1[n])
            )
        total += p * activation_probs(nb, config)[k]
    return total


def random_filtering_instance(
    seed: int, max_n: int = 3, max_k: int = 3, max_t: int = 6
) -> tuple[ScenarioConfig, list[np.ndarray]]:
    """Random scenario plus a censored observation sequence drawn from it.

    The trajectory is simulated from the model and each device is hidden
    independently with probability 1/2 per slot, so the evidence is always
    consistent while still exercising every censoring pattern.
    """
    rng = rng_stream(seed, 0, "oracle-instance")
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    steps = int(rng.integers(1, max_t + 1))
    config = sample_scenario(n, k, max(1, k // 2), steps, 0.5, rng, seed=seed)
    state = (rng.random(n) < stationary_on_probs(config)).astype(np.uint8)
    observations = []
    for _ in range(steps):
        state = step_processes(state, config, rng)
        acts = sample_activations(state, config, rng)
        obs = acts.astype(np.int8)
        obs[rng.random(k) < 0.5] = UNOBSERVED
        observations.append(obs)
    return config, observations


def forward_filter_gaps(
    config: ScenarioConfig, observations: list[np.ndarray]
) -> tuple[float, float]:
    """Largest gaps to path enumeration after every slot, NaN counted as inf:
    over the normalized weights and the unnormalized joint (0 on both sides
    at large K), and between log_scale and the reference log-evidence."""
    state_belief = belief_mod.init_belief(config)
    gaps = np.zeros(2)
    for step in range(len(observations)):
        state_belief = belief_mod.forward_update(state_belief, observations[step], config)
        log_joint = enumerate_forward_log_joint(config, observations[: step + 1])
        log_evidence = np.logaddexp.reduce(log_joint)
        joint_error = state_belief.weights * math.exp(state_belief.log_scale) - np.exp(log_joint)
        weight_error = state_belief.weights - np.exp(log_joint - log_evidence)
        errors = np.abs(np.concatenate((joint_error, weight_error)))
        gaps = np.maximum(gaps, [errors.max(), abs(state_belief.log_scale - log_evidence)])
    return tuple(np.nan_to_num(gaps, nan=np.inf).tolist())


def forward_filter_deviation(
    config: ScenarioConfig, observations: list[np.ndarray]
) -> float:
    """The larger of the two `forward_filter_gaps`."""
    return max(forward_filter_gaps(config, observations))


def predictor_deviation(seed: int, max_n: int = 6) -> float:
    """Largest gap to next-state enumeration on one random (scenario, state,
    device) triple, over the one-step predictors the policies run: the
    genie's `predict_activation_probs`, and the fu policies' "map_state"
    `device_forecast` of a belief that puts all its mass on the state."""
    rng = rng_stream(seed, 0, "oracle-predictor")
    n = int(rng.integers(1, max_n + 1))
    k_count = int(rng.integers(1, 5))
    config = sample_scenario(n, k_count, 1, 1, 1.0, rng, seed=seed)
    state = rng.integers(0, 2, size=n).astype(np.uint8)
    k = int(rng.integers(0, k_count))
    closed = predict_activation_probs(state, config)[k]
    point_mass = np.zeros(config.n_states)
    point_mass[state_index(state)] = 1.0
    forecast = belief_mod.device_forecast(BeliefState(point_mass), config, "map_state")[k]
    brute = predicted_activation_by_enumeration(state, k, config)
    return max(abs(closed - brute), abs(forecast - brute))


@dataclass
class OracleReport:
    instances: int
    forward_max_dev: float
    log_evidence_max_dev: float
    predictor_max_dev: float
    worst_forward_seed: int
    worst_predictor_seed: int


def run_oracle_suite(
    max_n: int = 3,
    max_k: int = 3,
    max_t: int = 6,
    instances: int = 50,
    base_seed: int = 0,
) -> OracleReport:
    """Run both reference suites over randomized instances. The forward
    deviation is the larger of an instance's two `forward_filter_gaps`.

    Raises ConfigurationError up front when an instance could need more than
    max_n = 4 processes or more than _MAX_PATHS enumerated paths, or when the
    last instance seed, base_seed + instances - 1, is not a 64-bit seed.
    """
    check_int("seed + instances - 1", base_seed + instances - 1, 0, MAX_SEED)
    if max_n > 4 or max_n * max_t > math.log2(_MAX_PATHS):
        raise ConfigurationError(
            f"max_n = {max_n} and max_t = {max_t} are too large: path enumeration "
            f"needs max_n <= 4 and (2^max_n)^max_t <= {_MAX_PATHS}"
        )
    forward_max = log_evidence_max = pred_max = -1.0
    worst_f = worst_p = base_seed
    for i in range(instances):
        seed = base_seed + i
        config, observations = random_filtering_instance(seed, max_n, max_k, max_t)
        gaps = forward_filter_gaps(config, observations)
        log_evidence_max = max(log_evidence_max, gaps[1])
        dev = max(gaps)
        if dev > forward_max:
            forward_max, worst_f = dev, seed
        dev = predictor_deviation(seed, max_n=min(max_n + 3, 6))
        if dev > pred_max:
            pred_max, worst_p = dev, seed
    return OracleReport(
        instances=instances,
        forward_max_dev=forward_max,
        log_evidence_max_dev=log_evidence_max,
        predictor_max_dev=pred_max,
        worst_forward_seed=worst_f,
        worst_predictor_seed=worst_p,
    )
