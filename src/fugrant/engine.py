"""Episode orchestration and Monte-Carlo aggregation.

One episode advances a single ground-truth trajectory and runs every
requested policy against it in lockstep (a paired comparison): the fast
uplink variants keep their own belief trackers fed by their own
observations, the genie reads the true state, TDD counts slots, and random
access needs no decision at all. Grants for slot t are decided from
information available through slot t-1; only then is the trajectory
advanced and the new activity revealed.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .belief import (
    BeliefState,
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

    n_processes: int
    n_devices: int
    n_slots: int
    horizon: int
    seed: int
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
    requested. Belief trackers are per policy and never see each other's
    observations.
    """
    policies = _normalize_policies(policies)
    n, k, l, horizon = config.n_processes, config.n_devices, config.n_slots, config.horizon
    truth_rng, ra_rng = rng.spawn(2)

    state = (truth_rng.random(n) < stationary_on_probs(config)).astype(np.uint8)
    beliefs: dict[str, BeliefState] = {
        p: init_belief(config) for p in policies if p in ("fu_limited", "fu_feedback")
    }
    accs = {p: MetricsAccumulator(n_devices=k, n_slots=l) for p in policies}
    series = {p: {s: np.zeros(horizon) for s in SERIES} for p in policies}
    hasher = hashlib.sha256()

    for t in range(1, horizon + 1):
        # Decide grants from information available through slot t-1.
        grants: dict[str, np.ndarray] = {}
        for p in policies:
            if p == "ra":
                continue
            if p == "tdd":
                grants[p] = tdd_grant(t - 1, k, l)
            elif p == "genie":
                grants[p] = genie_grant(state, config, l, device_ages(accs[p], t - 1))
            else:
                forecast = device_forecast(beliefs[p], config, belief_mode)
                grants[p] = fu_grant(forecast, l, device_ages(accs[p], t - 1))

        # Advance the shared ground truth and reveal slot t's activity.
        state = step_processes(state, config, truth_rng)
        activations = sample_activations(state, config, truth_rng)
        outcome = ra_attempt(activations, l, ra_rng) if "ra" in accs else None

        hasher.update(state.tobytes() + activations.tobytes())
        col = t - 1
        for p in policies:
            report = (
                ra_report(activations, outcome, l)
                if p == "ra"
                else slot_report(activations, grants[p])
            )
            acc = accs[p]
            acc.advance(report)
            series[p]["regret_slot"][col] = report.regret
            series[p]["regret_cum"][col] = acc.cum_regret
            series[p]["usage_avg"][col] = average_usage(acc)
            series[p]["aoi_avg"][col] = average_age(acc, t)
            series[p]["aoi_peak"][col] = peak_age(acc, t)

        observations: dict[str, np.ndarray] = {}
        if "fu_limited" in beliefs:
            observations["fu_limited"] = observe_limited(grants["fu_limited"], activations)
        if "fu_feedback" in beliefs:
            observations["fu_feedback"] = observe_feedback(activations)
        for p, obs in observations.items():
            try:
                beliefs[p] = forward_update(beliefs[p], obs, config)
            except EvidenceContradictionError:
                log.warning(
                    "slot %d: %s evidence contradicts the model, tracker reset to prior",
                    t,
                    p,
                )
                beliefs[p] = init_belief(config)

    return EpisodeResult(
        n_processes=n,
        n_devices=k,
        n_slots=l,
        horizon=horizon,
        seed=config.seed,
        policies=policies,
        series=series,
        trajectory_fingerprint=hasher.hexdigest(),
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

    horizon = episodes[0].horizon
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
        runs=runs, horizon=horizon, policies=policies, mean=mean, std=std
    )
