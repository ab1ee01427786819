"""Episode orchestration and Monte-Carlo aggregation.

One episode first draws a single ground-truth trajectory, T * (N + K) bytes
that no policy influences, and then runs each requested policy alone over
it (a paired comparison): the fast uplink variants keep their own belief
tracker fed by their own observations, the genie reads the true state, TDD
counts slots, and random access needs no decision at all. Both passes go by
the same chunks of slots: the draw takes one block of uniforms per chunk
(the doubles the slots would draw one by one), one vectorized state step and
one activity draw, and each policy decides and scores it. Grants for slot t
are decided from information available through slot t-1: the genie and the
fu trackers decide slot by slot, since their tie-break ages and beliefs
depend on earlier slots, while TDD and random access decide a chunk at once.
A slot-by-slot grant depends on ages only when the L-th and (L+1)-th
forecasts tie, and its forecast depends only on a state (the genie's true
state, or the tracker's MAP state in "map_state" mode), so each state's
untied grant row is computed once per episode and reused. Scoring comes
after the decisions and folds the chunk: every metric helper takes a leading
slot axis, so a chunk costs a few array calls, not a few per slot.
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
    _check_capacity,
    _filter_bytes,
    device_forecast,
    forward_update,
    init_belief,
    map_index,
    prefetch_evidence,
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

# Slots per chunk times N + K: bounds one chunk's float64 uniforms, and the
# int64 temporaries of scoring it, near 256 KB at any size.
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


def _normalize_request(policies, belief_mode: str) -> tuple[str, ...]:
    """Validate policy names and the belief mode; the single check behind the API and the CLI."""
    if belief_mode not in FORECAST_MODES:
        expected = " or ".join(map(repr, FORECAST_MODES))
        raise ConfigurationError(f"unknown belief_mode {belief_mode!r}; expected {expected}")
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


def _memory_need(
    scenario: ScenarioConfig | ScenarioTemplate, policies, runs: int = 0
) -> tuple[int, int]:
    """Bytes one run needs, and the chunk, in slots, that the draw and the
    scoring share. One episode E: the trajectory, (T + 1)(N + K) bytes;
    S = P * 5 * 8 * T bytes of series; min(T, chunk) rows of N + K float64
    uniforms; a grant memo of min(T, 2^N) rows of K bytes when the genie or
    a tracker runs (one policy at a time); and when a tracker runs, its
    belief vectors, evidence tables, and evidence memo or fu_feedback's
    prefetched block, whichever is larger (see belief._filter_bytes); the
    block's observations take C * K floats of the chunk's uniforms, freed by
    then. run_monte_carlo adds runs * S, then 2 * S: (runs + 2) * S + E
    bytes, or E alone when runs = 0."""
    n, k, horizon = scenario.n_processes, scenario.n_devices, scenario.horizon
    chunk = max(1, _BLOCK_ENTRIES // (n + k))
    series = len(policies) * len(SERIES) * 8 * horizon
    memo_rows = min(horizon, 1 << n) if set(policies) - {"ra", "tdd"} else 0
    need = (horizon + 1) * (n + k) + series + min(horizon, chunk) * (n + k) * 8 + memo_rows * k
    need += _filter_bytes(n, k) if {"fu_limited", "fu_feedback"} & set(policies) else 0
    need += (runs + 2) * series if runs else 0  # run_monte_carlo's kept series, mean and std
    return need, chunk


def _check_memory(scenario: ScenarioConfig | ScenarioTemplate, policies, runs: int = 0) -> int:
    """The chunk of _memory_need; raises CapacityError naming N when a
    tracker runs past belief.MAX_PROCESSES, and ConfigurationError naming
    the horizon, `runs` when given, N and K when the bytes of _memory_need
    do not fit in physical memory."""
    n, k, horizon = scenario.n_processes, scenario.n_devices, scenario.horizon
    if {"fu_limited", "fu_feedback"} & set(policies):
        _check_capacity(n)
    need, chunk = _memory_need(scenario, policies, runs)
    setting = f"runs = {runs} with horizon = {horizon}" if runs else f"horizon = {horizon}"
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"{setting} (n_processes = {n}, n_devices = {k}) needs {need} bytes,"
            f" more than the {have} bytes of physical memory"
        )
    return chunk


def _run_policy(policy, config, states, activity, ra_rng, mode, chunk) -> dict[str, np.ndarray]:
    """One policy's metric series over the drawn trajectory, all its state kept local.

    Goes by the chunks the trajectory was drawn in. Random access and TDD
    decide a whole chunk at once; the genie and the fu trackers decide slot
    by slot, from information through the previous slot, into the chunk's
    grant rows, reusing a state's grant row whenever no tie lets ages change
    it. Before each fu_feedback step, belief.prefetch_evidence is offered the
    rest of the chunk and fills the config's evidence memo a block ahead
    whenever the slot's evidence is not stored; a reset keeps the memo.
    Each chunk is then scored in one fold.
    """
    k, l, horizon = config.n_devices, config.n_slots, config.horizon
    acc = MetricsAccumulator(n_devices=k, n_slots=l)
    belief = init_belief(config) if policy in ("fu_limited", "fu_feedback") else None
    # State key -> the grant row its forecast decides without ages: the genie's
    # true state bytes, a tracker's MAP state index, or None (never stored).
    memo: dict[bytes | int, np.ndarray] = {}
    last_served = np.zeros(k, dtype=np.int64)  # tie-break ages for the grant loop
    series = {s: np.zeros(horizon) for s in SERIES}
    for start in range(0, horizon, chunk):
        stop = min(start + chunk, horizon)
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
                    key = states[col].tobytes()
                else:  # fu_limited, fu_feedback: decide from the belief through slot t-1
                    key = map_index(belief) if mode == "map_state" else None
                row = memo.get(key)
                if row is None:
                    if policy == "genie":
                        row, decided = genie_grant(states[col], config, l, col - last_served)
                    else:
                        forecast = device_forecast(belief, config, mode)
                        row, decided = fu_grant(forecast, l, col - last_served)
                    if decided and key is not None:
                        memo[key] = row
                if policy != "genie":
                    if policy == "fu_limited":
                        obs = observe_limited(row, acts[i])
                    else:
                        obs = observe_feedback(acts[i])
                        prefetch_evidence(acts[i:], config)
                    try:
                        belief = forward_update(belief, obs, config)
                    except EvidenceContradictionError:
                        log.warning(
                            "slot %d: %s evidence contradicts the model, tracker reset to prior",
                            col + 1,
                            policy,
                        )
                        belief = init_belief(config)
                grants[i] = row
                np.putmask(last_served, row & acts[i], col + 1)
            report = slot_report(acts, grants)

        acc.advance(report)
        series["regret_slot"][rows] = report.regret
        series["regret_cum"][rows] = acc.cum_regret
        series["usage_avg"][rows] = average_usage(acc)
        ages = device_ages(acc)
        series["aoi_avg"][rows] = average_age(ages)
        series["aoi_peak"][rows] = peak_age(ages)
        del ages  # freed before the next chunk's grants and fold
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
    uint8 array, in chunks of 2^15 / (N + K) slots; then each policy runs
    alone over it, chunk by chunk, so belief trackers never see each
    other's observations. Before any draw, raises ConfigurationError for an
    unknown policy or belief mode, naming N when a tracker cannot hold it,
    or naming the horizon, N and K when the episode would not fit in
    physical memory (see `_check_memory`).
    """
    policies = _normalize_request(policies, belief_mode)
    chunk = _check_memory(config, policies)
    n, k, horizon = config.n_processes, config.n_devices, config.horizon
    truth_rng, ra_rng = rng.spawn(2)

    # Row t of truth is slot t's hidden state, then its activity (none in row 0).
    truth = np.zeros((horizon + 1, n + k), dtype=np.uint8)
    states, activity = truth[:, :n], truth[1:, n:]  # activity row t - 1: slot t
    states[0] = truth_rng.random(n) < stationary_on_probs(config)
    # Each chunk's uniforms are the doubles the slots would draw one at a time:
    # per slot, N for the transitions and then K for the activity.
    for start in range(1, horizon + 1, chunk):
        stop = min(start + chunk, horizon + 1)
        u = truth_rng.random((stop - start, n + k))
        states[start:stop] = step_processes(states[start - 1], config, u[:, :n])
        activity[start - 1 : stop - 1] = sample_activations(states[start:stop], config, u[:, n:])
    u = None  # freed before the policies run

    series = {
        p: _run_policy(p, config, states, activity, ra_rng, belief_mode, chunk) for p in policies
    }
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
    Before any allocation, raises ConfigurationError naming N when a tracker
    cannot hold it, or naming runs, horizon, N and K when the whole run
    would not fit in memory (see `_check_memory`).
    """
    policies = _normalize_request(policies, belief_mode)
    runs = check_int("runs", runs, 1)
    master_seed = check_int("seed", master_seed, 0, MAX_SEED)
    _check_memory(scenario, policies, runs)
    horizon = scenario.horizon

    if fixed_scenario and isinstance(scenario, ScenarioTemplate):
        scenario = scenario.sample(rng_stream(master_seed, 0, "scenario"), seed=master_seed)

    kept = np.empty((len(policies), len(SERIES), runs, horizon))
    for r in range(runs):
        config = scenario
        if isinstance(scenario, ScenarioTemplate):
            config = scenario.sample(rng_stream(master_seed, r, "scenario"), seed=master_seed)
        rng = rng_stream(master_seed, r, "episode")
        series = run_episode(config, policies, rng, belief_mode=belief_mode).series
        for p, slabs in zip(policies, kept):
            slabs[:, r] = [series[p][s] for s in SERIES]
        del series  # only kept[:, :, r] outlives the run

    mean, std = {}, {}
    for p, slabs in zip(policies, kept):  # (runs, horizon) views; std per slab stays small
        mean[p] = {s: slab.mean(axis=0) for s, slab in zip(SERIES, slabs)}
        std[p] = {s: slab.std(axis=0) for s, slab in zip(SERIES, slabs)}
    return AggregateResult(runs=runs, horizon=horizon, policies=policies, mean=mean, std=std)
