"""Episode orchestration and Monte-Carlo aggregation.

One episode first draws a single ground-truth trajectory, T * (N + K) bytes
that no policy influences, and then runs each requested policy alone over
it (a paired comparison): the fast uplink variants keep their own belief
tracker fed by their own observations, the genie reads the true state, TDD
counts slots, and random access needs no decision at all. Grants for slot
t are decided from information available through slot t-1; only then is
slot t's activity scored.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass

import numpy as np

from .belief import (
    FORECAST_MODES,
    EvidenceContradictionError,
    device_forecast,
    forward_update,
    init_belief,
)
from .metrics import (
    MetricsAccumulator,
    average_age,
    average_usage,
    device_ages,
    peak_age,
    ra_report,
    slot_report,
)
from .model import (
    MAX_SEED,
    ConfigurationError,
    ScenarioConfig,
    ScenarioTemplate,
    check_int,
    rng_stream,
    sample_activations,
    stationary_on_probs,
    step_processes,
)
from .policies import (
    POLICIES,
    fu_grant,
    genie_grant,
    observe_feedback,
    observe_limited,
    ra_attempt,
    tdd_grant,
)

log = logging.getLogger(__name__)

SERIES = ("regret_slot", "regret_cum", "usage_avg", "aoi_avg", "aoi_peak")


@dataclass
class EpisodeResult:
    """Per-slot metric series for every policy on one shared trajectory."""

    policies: tuple[str, ...]
    series: dict[str, dict[str, np.ndarray]]
    trajectory_fingerprint: str  # SHA-256 of the per-slot states and activity


@dataclass
class AggregateResult:
    """Across-run mean and population standard deviation per series point."""

    runs: int
    horizon: int
    policies: tuple[str, ...]
    mean: dict[str, dict[str, np.ndarray]]
    std: dict[str, dict[str, np.ndarray]]


def _normalize_policies(policies) -> tuple[str, ...]:
    """Validate policy names; the single check behind the API and the CLI."""
    requested = tuple(policies)
    if not requested:
        raise ConfigurationError("policy set must not be empty")
    for name in requested:
        if name not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {name!r}; valid policies: {', '.join(POLICIES)}"
            )
    # Canonical order keeps output layout and rng usage independent of the
    # caller's ordering.
    return tuple(p for p in POLICIES if p in requested)


def _run_policy(policy, config, states, activity, ra_rng, belief_mode) -> dict[str, np.ndarray]:
    """One policy's metric series over the drawn trajectory, all its state kept local."""
    k, l = config.n_devices, config.n_slots
    acc = MetricsAccumulator(n_devices=k, n_slots=l)
    belief = init_belief(config) if policy in ("fu_limited", "fu_feedback") else None
    series = {s: np.zeros(activity.shape[0]) for s in SERIES}
    for col, activations in enumerate(activity):
        if policy == "ra":
            report = ra_report(activations, ra_attempt(activations, l, ra_rng), l)
        elif policy == "tdd":
            report = slot_report(activations, tdd_grant(col, k, l))
        elif policy == "genie":
            grants = genie_grant(states[col], config, l, device_ages(acc))
            report = slot_report(activations, grants)
        else:  # fu_limited, fu_feedback: decide from the belief through slot t-1
            forecast = device_forecast(belief, config, belief_mode)
            grants = fu_grant(forecast, l, device_ages(acc))
            report = slot_report(activations, grants)
            if policy == "fu_limited":
                obs = observe_limited(grants, activations)
            else:
                obs = observe_feedback(activations)
            try:
                belief = forward_update(belief, obs, config)
            except EvidenceContradictionError:
                log.warning(
                    "slot %d: %s evidence contradicts the model, tracker reset to prior",
                    col + 1,
                    policy,
                )
                belief = init_belief(config)

        acc.advance(report)
        series["regret_slot"][col] = report.regret
        series["regret_cum"][col] = acc.cum_regret
        series["usage_avg"][col] = average_usage(acc)
        series["aoi_avg"][col] = average_age(acc)
        series["aoi_peak"][col] = peak_age(acc)
    return series


def run_episode(
    config: ScenarioConfig,
    policies,
    rng: np.random.Generator,
    *,
    belief_mode: str = "map_state",
) -> EpisodeResult:
    """Simulate one episode with every policy on the same trajectory.

    The generator is split into a trajectory stream and a random-access
    stream, so the ground truth is identical no matter which policies are
    requested. The trajectory is drawn first and held as uint8 arrays,
    T * (N + K) bytes plus the N-byte start; then each policy runs alone
    over it, so belief trackers never see each other's observations.
    Raises ConfigurationError naming the horizon when the trajectory and
    the metric series would not fit in physical memory.
    """
    policies = _normalize_policies(policies)
    if belief_mode not in FORECAST_MODES:
        expected = " or ".join(map(repr, FORECAST_MODES))
        raise ConfigurationError(f"unknown belief_mode {belief_mode!r}; expected {expected}")
    n, k, horizon = config.n_processes, config.n_devices, config.horizon
    need = (horizon + 1) * n + horizon * k + len(policies) * len(SERIES) * 8 * horizon
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"horizon = {horizon} needs {need} bytes for the trajectory and metric "
            f"series, more than the {have} bytes of physical memory"
        )
    truth_rng, ra_rng = rng.spawn(2)

    # Row t of states is slot t's hidden state (row 0 the stationary start).
    states = np.empty((horizon + 1, n), dtype=np.uint8)
    activity = np.empty((horizon, k), dtype=np.uint8)  # row t - 1: slot t
    states[0] = truth_rng.random(n) < stationary_on_probs(config)
    hasher = hashlib.sha256()
    for t in range(1, horizon + 1):
        states[t] = step_processes(states[t - 1], config, truth_rng)
        activity[t - 1] = sample_activations(states[t], config, truth_rng)
        hasher.update(states[t].tobytes() + activity[t - 1].tobytes())

    series = {p: _run_policy(p, config, states, activity, ra_rng, belief_mode) for p in policies}
    return EpisodeResult(
        policies=policies, series=series, trajectory_fingerprint=hasher.hexdigest()
    )


def run_monte_carlo(
    scenario: ScenarioConfig | ScenarioTemplate,
    runs: int,
    master_seed: int,
    policies,
    *,
    fixed_scenario: bool = False,
    belief_mode: str = "map_state",
) -> AggregateResult:
    """Average metric series over seeded runs.

    A ScenarioTemplate is resampled per run (fresh transition and activation
    probabilities each time) unless fixed_scenario is set, in which case one
    instance is drawn up front; a concrete ScenarioConfig is inherently
    fixed. Run r always uses the streams keyed by (master_seed, r), so the
    aggregate is byte-identical regardless of how the loop is executed.
    """
    runs = check_int("runs", runs, 1)
    master_seed = check_int("seed", master_seed, 0, MAX_SEED)
    policies = _normalize_policies(policies)

    base: ScenarioConfig | None = None
    if isinstance(scenario, ScenarioConfig):
        base = scenario
    elif fixed_scenario:
        base = scenario.sample(rng_stream(master_seed, 0, "scenario"), seed=master_seed)

    episodes = []
    for r in range(runs):
        config = (
            base
            if base is not None
            else scenario.sample(rng_stream(master_seed, r, "scenario"), seed=master_seed)
        )
        episodes.append(
            run_episode(
                config,
                policies,
                rng_stream(master_seed, r, "episode"),
                belief_mode=belief_mode,
            )
        )

    mean: dict[str, dict[str, np.ndarray]] = {}
    std: dict[str, dict[str, np.ndarray]] = {}
    for p in policies:
        mean[p] = {}
        std[p] = {}
        for s in SERIES:
            stacked = np.stack([ep.series[p][s] for ep in episodes])
            mean[p][s] = stacked.mean(axis=0)
            std[p][s] = stacked.std(axis=0)
    return AggregateResult(
        runs=runs, horizon=scenario.horizon, policies=policies, mean=mean, std=std
    )
