"""Episode orchestration and Monte-Carlo aggregation.

One episode first draws a single ground-truth trajectory, T * (N + K) bytes
that no policy influences, and then runs each requested policy alone over
it (a paired comparison): the fast uplink variants keep their own belief
tracker fed by their own observations, the genie reads the true state, TDD
counts slots, and random access needs no decision at all. Grants for slot
t are decided from information available through slot t-1: the genie and
the fu trackers decide slot by slot, since their tie-break ages and beliefs
depend on earlier slots, while TDD and random access decide a block of
slots at once. Scoring comes after the decisions and folds the block: every
metric helper takes a leading slot axis, so a block costs a few array calls
instead of a few per slot.
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
    device_ages,  # unused here; perfbench/layertrace.py looks it up on this module
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

# Slots per scoring block times devices: bounds each block's int64
# temporaries near 256 KB at any K.
_BLOCK_ENTRIES = 1 << 15


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


def _check_fits(setting: str, need: int, what: str) -> None:
    """Raise ConfigurationError naming the setting when `need` bytes exceed
    the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"{setting} needs {need} bytes for {what}, more than the {have} bytes "
            f"of physical memory"
        )


def _run_policy(policy, config, states, activity, ra_rng, belief_mode) -> dict[str, np.ndarray]:
    """One policy's metric series over the drawn trajectory, all its state kept local.

    Random access and TDD decide a whole block of slots at once; the genie
    and the fu trackers decide slot by slot, from information through the
    previous slot, into the block's grant rows. Each block is then scored
    in one fold.
    """
    k, l = config.n_devices, config.n_slots
    horizon = activity.shape[0]
    acc = MetricsAccumulator(n_devices=k, n_slots=l)
    belief = init_belief(config) if policy in ("fu_limited", "fu_feedback") else None
    last_served = np.zeros(k, dtype=np.int64)  # tie-break ages for the grant loop
    series = {s: np.zeros(horizon) for s in SERIES}
    block = max(1, _BLOCK_ENTRIES // k)
    for start in range(0, horizon, block):
        stop = min(start + block, horizon)
        rows = slice(start, stop)
        acts = activity[rows]
        if policy == "ra":
            report = ra_report(acts, ra_attempt(acts, l, ra_rng), l)
        elif policy == "tdd":
            report = slot_report(acts, tdd_grant(np.arange(start, stop), k, l))
        else:
            grants = np.empty_like(acts)
            for i, col in enumerate(range(start, stop)):
                if policy == "genie":
                    grants[i] = genie_grant(states[col], config, l, col - last_served)
                else:  # fu_limited, fu_feedback: decide from the belief through slot t-1
                    forecast = device_forecast(belief, config, belief_mode)
                    grants[i] = fu_grant(forecast, l, col - last_served)
                    if policy == "fu_limited":
                        obs = observe_limited(grants[i], acts[i])
                    else:
                        obs = observe_feedback(acts[i])
                    try:
                        belief = forward_update(belief, obs, config)
                    except EvidenceContradictionError:
                        log.warning(
                            "slot %d: %s evidence contradicts the model, tracker reset to prior",
                            col + 1,
                            policy,
                        )
                        belief = init_belief(config)
                np.putmask(last_served, grants[i] & acts[i], col + 1)
            report = slot_report(acts, grants)

        acc.advance(report)
        series["regret_slot"][rows] = report.regret
        series["regret_cum"][rows] = acc.cum_regret
        series["usage_avg"][rows] = average_usage(acc)
        series["aoi_avg"][rows] = average_age(acc)
        series["aoi_peak"][rows] = peak_age(acc)
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
    requested. The trajectory is drawn first into one (T + 1) x (N + K)
    uint8 array; then each policy runs alone over it, so belief trackers
    never see each other's observations.
    Raises ConfigurationError naming the horizon when the trajectory and
    the metric series would not fit in physical memory.
    """
    policies = _normalize_policies(policies)
    if belief_mode not in FORECAST_MODES:
        expected = " or ".join(map(repr, FORECAST_MODES))
        raise ConfigurationError(f"unknown belief_mode {belief_mode!r}; expected {expected}")
    n, k, horizon = config.n_processes, config.n_devices, config.horizon
    need = (horizon + 1) * (n + k) + len(policies) * len(SERIES) * 8 * horizon
    _check_fits(f"horizon = {horizon}", need, "the trajectory and metric series")
    truth_rng, ra_rng = rng.spawn(2)

    # Row t of truth is slot t's hidden state, then its activity (none in row 0).
    truth = np.zeros((horizon + 1, n + k), dtype=np.uint8)
    states, activity = truth[:, :n], truth[1:, n:]  # activity row t - 1: slot t
    states[0] = truth_rng.random(n) < stationary_on_probs(config)
    for t in range(1, horizon + 1):
        states[t] = step_processes(states[t - 1], config, truth_rng)
        activity[t - 1] = sample_activations(states[t], config, truth_rng)

    series = {p: _run_policy(p, config, states, activity, ra_rng, belief_mode) for p in policies}
    fingerprint = hashlib.sha256(truth[1:]).hexdigest()
    return EpisodeResult(policies=policies, series=series, trajectory_fingerprint=fingerprint)


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
    Raises ConfigurationError naming runs and the horizon when every run's
    metric series, kept until the end, would not fit in physical memory.
    """
    runs = check_int("runs", runs, 1)
    master_seed = check_int("seed", master_seed, 0, MAX_SEED)
    policies = _normalize_policies(policies)
    horizon = scenario.horizon
    _check_fits(
        f"runs = {runs} with horizon = {horizon}",
        runs * len(policies) * len(SERIES) * 8 * horizon,
        "every run's metric series",
    )

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
    return AggregateResult(runs=runs, horizon=horizon, policies=policies, mean=mean, std=std)
