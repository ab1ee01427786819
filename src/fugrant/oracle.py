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
from .belief import OBSERVED_ACTIVE, OBSERVED_SILENT, UNOBSERVED
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


def _emission_by_product(obs: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-state evidence likelihood as an explicit product over devices."""
    n_states = config.n_states
    e = np.ones(n_states)
    for s in range(n_states):
        p = activation_probs(state_bits(s, config.n_processes), config)
        like = 1.0
        for k in range(config.n_devices):
            if obs[k] == OBSERVED_ACTIVE:
                like *= p[k]
            elif obs[k] == OBSERVED_SILENT:
                like *= 1.0 - p[k]
        e[s] = like
    return e


def enumerate_forward_joint(
    config: ScenarioConfig, observations: list[np.ndarray]
) -> np.ndarray:
    """Unnormalized joint over the final state by summing every state path.

    Sums, over all (2^N)^T hidden paths, the product of the stationary prior,
    every transition probability along the path, and every per-slot evidence
    likelihood, then buckets path mass by final state.
    """
    n_states = config.n_states
    steps = len(observations)
    if steps == 0:
        return stationary_joint(config)
    n_paths = n_states**steps
    if n_paths > _MAX_PATHS:
        raise ValueError(f"{n_paths} paths exceed the enumeration limit of {_MAX_PATHS}")
    trans = dense_transition_matrix(config)
    prior = stationary_joint(config)
    emissions = [_emission_by_product(obs, config) for obs in observations]
    paths = np.unravel_index(np.arange(n_paths), (n_states,) * steps)
    mass = prior[paths[0]] * emissions[0][paths[0]]
    for step in range(1, steps):
        mass = mass * trans[paths[step], paths[step - 1]] * emissions[step][paths[step]]
    return np.bincount(paths[-1], weights=mass, minlength=n_states)


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


def forward_filter_deviation(
    config: ScenarioConfig, observations: list[np.ndarray]
) -> float:
    """Max absolute gap between the filter's unnormalized joint and the
    path-enumeration reference, after every slot of the sequence."""
    state_belief = belief_mod.init_belief(config)
    worst = 0.0
    for step in range(len(observations)):
        state_belief = belief_mod.forward_update(state_belief, observations[step], config)
        tracked = state_belief.weights * math.exp(state_belief.log_scale)
        reference = enumerate_forward_joint(config, observations[: step + 1])
        worst = max(worst, float(np.max(np.abs(tracked - reference))))
    return worst


def predictor_deviation(seed: int, max_n: int = 6) -> float:
    """Gap between the one-step predictor the policies run
    (`predict_activation_probs`) and next-state enumeration on one random
    (scenario, state, device) triple."""
    rng = rng_stream(seed, 0, "oracle-predictor")
    n = int(rng.integers(1, max_n + 1))
    k_count = int(rng.integers(1, 5))
    config = sample_scenario(n, k_count, 1, 1, 1.0, rng, seed=seed)
    state = rng.integers(0, 2, size=n).astype(np.uint8)
    k = int(rng.integers(0, k_count))
    closed = predict_activation_probs(state, config)[k]
    brute = predicted_activation_by_enumeration(state, k, config)
    return abs(closed - brute)


@dataclass
class OracleReport:
    instances: int
    forward_max_dev: float
    predictor_max_dev: float
    worst_forward_seed: int
    worst_predictor_seed: int

    def max_dev(self) -> float:
        return max(self.forward_max_dev, self.predictor_max_dev)


def run_oracle_suite(
    max_n: int = 3,
    max_k: int = 3,
    max_t: int = 6,
    instances: int = 50,
    base_seed: int = 0,
) -> OracleReport:
    """Run both reference suites over randomized instances.

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
    forward_max = -1.0
    pred_max = -1.0
    worst_f = worst_p = base_seed
    for i in range(instances):
        seed = base_seed + i
        config, observations = random_filtering_instance(seed, max_n, max_k, max_t)
        dev = forward_filter_deviation(config, observations)
        if dev > forward_max:
            forward_max, worst_f = dev, seed
        dev = predictor_deviation(seed, max_n=min(max_n + 3, 6))
        if dev > pred_max:
            pred_max, worst_p = dev, seed
    return OracleReport(
        instances=instances,
        forward_max_dev=forward_max,
        predictor_max_dev=pred_max,
        worst_forward_seed=worst_f,
        worst_predictor_seed=worst_p,
    )
