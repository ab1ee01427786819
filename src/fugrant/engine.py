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
Monte-Carlo runs are independent episodes; run_monte_carlo forks one worker
per usable CPU, and the workers write their runs' series into one shared
array.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import os
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

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
    scenario: ScenarioConfig | ScenarioTemplate, policies, runs: int = 0, workers: int = 1
) -> tuple[int, int]:
    """Bytes one run needs, and the chunk, in slots, that the draw and the
    scoring share. One episode E: the trajectory, (T + 1)(N + K) bytes;
    S = P * 5 * 8 * T bytes of series; min(T, chunk) rows of N + K float64
    uniforms; a grant memo of min(T, 2^N) rows of K bytes when the genie or
    a tracker runs (one policy at a time); and when a tracker runs, its
    belief vectors, evidence tables, and evidence memo or fu_feedback's
    prefetched block, whichever is larger (see belief._filter_bytes); the
    block's observations take C * K floats of the chunk's uniforms, freed by
    then. run_monte_carlo runs `workers` episodes at once beside one shared
    runs * S, then adds 2 * S: workers * E + (runs + 2) * S bytes, or E
    alone when runs = 0."""
    n, k, horizon = scenario.n_processes, scenario.n_devices, scenario.horizon
    chunk = max(1, _BLOCK_ENTRIES // (n + k))
    series = len(policies) * len(SERIES) * 8 * horizon
    memo_rows = min(horizon, 1 << n) if set(policies) - {"ra", "tdd"} else 0
    need = (horizon + 1) * (n + k) + series + min(horizon, chunk) * (n + k) * 8 + memo_rows * k
    need += _filter_bytes(n, k) if {"fu_limited", "fu_feedback"} & set(policies) else 0
    need *= workers
    need += (runs + 2) * series if runs else 0  # run_monte_carlo's kept series, mean and std
    return need, chunk


def _check_memory(
    scenario: ScenarioConfig | ScenarioTemplate, policies, runs: int = 0, workers: int = 1
) -> int:
    """The chunk of _memory_need; raises CapacityError naming N when a
    tracker runs past belief.MAX_PROCESSES, and ConfigurationError naming
    the horizon, `runs` when given, N and K when the bytes of _memory_need
    do not fit in physical memory."""
    n, k, horizon = scenario.n_processes, scenario.n_devices, scenario.horizon
    if {"fu_limited", "fu_feedback"} & set(policies):
        _check_capacity(n)
    need, chunk = _memory_need(scenario, policies, runs, workers)
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
    whenever the slot's evidence is not stored; a reset keeps the memo, and
    the pass empties it when it ends, so every tracker pass starts from an
    empty memo. Each chunk is then scored in one fold.
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
    if belief is not None:  # the next pass, or run, starts from an empty memo
        config.cached("belief.evidence_memo", OrderedDict).clear()
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


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked up
    the way perfbench/run.py looks up the getter, or None when not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _workers(runs: int) -> int:
    """Processes that share the runs: one per usable CPU, at most one per
    run. 1 when there is one run or one usable CPU, without os.fork or
    os.sched_getaffinity, while other threads run (a fork copies the locks
    they hold), or when the OpenBLAS thread setter is not found."""
    if runs == 1 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1 or _openblas_threads() is None:
        return 1
    return min(runs, len(os.sched_getaffinity(0)))


def _fill(kept, scenario, policies, master_seed, belief_mode, first, step) -> None:
    """Run runs first, first + step, ... into kept[:, :, r]; run r's
    scenario draw and episode use only the streams keyed by (master_seed, r)."""
    for r in range(first, kept.shape[2], step):
        config = scenario
        if isinstance(scenario, ScenarioTemplate):
            config = scenario.sample(rng_stream(master_seed, r, "scenario"), seed=master_seed)
        rng = rng_stream(master_seed, r, "episode")
        series = run_episode(config, policies, rng, belief_mode=belief_mode).series
        for p, slabs in zip(policies, kept):
            slabs[:, r] = [series[p][s] for s in SERIES]
        del series  # only kept[:, :, r] outlives the run


def _fork_fill(shape, workers: int, *task) -> np.ndarray:
    """The kept array of `shape`, filled by _fill(kept, *task, w, workers)
    for w in range(workers), each in its own process, into one array over
    an anonymous MAP_SHARED mapping (unmapped with the last view of it).

    The parent forks workers - 1 children and runs share 0 itself, with
    numpy's OpenBLAS held to one thread throughout (two BLAS threads per
    worker would spin against the other workers), then restores the count.
    A child leaves through os._exit, never running the parent's cleanup; if
    its share raises, it prints the traceback to stderr and exits 1, and the
    parent raises RuntimeError once every child is reaped. If the parent's
    own share raises, the children are killed and reaped first.
    """
    import mmap  # only the forked path needs these
    import signal

    kept = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    get, put = _openblas_threads()
    threads, pids = get(), []
    put(1)
    try:
        for w in range(1, workers):
            pid = os.fork()
            if not pid:
                status = 1
                try:
                    _fill(kept, *task, w, workers)
                    status = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            pids.append(pid)
        _fill(kept, *task, 0, workers)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        put(threads)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    failed = [code for code in codes if code]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(pids)} Monte-Carlo worker processes failed"
            f" (exit status {failed[0]}); their tracebacks are on stderr"
        )
    return kept


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
    fixed. Run r always uses the streams keyed by (master_seed, r), and each
    tracker pass starts from an empty evidence memo, so the aggregate is
    byte-identical however the runs are spread. With POSIX fork, W workers,
    one per usable CPU and at most one per run (see `_workers`), each run
    every W-th run into one shared array (see `_fork_fill`); otherwise all
    runs run in this process. A worker's log records go to the handlers it
    inherited, in its own process: a reset warning still reaches stderr,
    but no handler that keeps records in this process's memory. Before any
    allocation, raises ConfigurationError naming N when a tracker cannot
    hold it, or naming runs, horizon, N and K when the whole run would not
    fit in memory (see `_check_memory`).
    """
    policies = _normalize_request(policies, belief_mode)
    runs = check_int("runs", runs, 1)
    master_seed = check_int("seed", master_seed, 0, MAX_SEED)
    horizon = scenario.horizon
    workers = _workers(runs) if horizon else 1  # an empty mapping is refused
    _check_memory(scenario, policies, runs, workers)

    if fixed_scenario and isinstance(scenario, ScenarioTemplate):
        scenario = scenario.sample(rng_stream(master_seed, 0, "scenario"), seed=master_seed)

    shape = (len(policies), len(SERIES), runs, horizon)
    task = (scenario, policies, master_seed, belief_mode)
    if workers == 1:
        kept = np.empty(shape)
        _fill(kept, *task, 0, 1)
    else:
        kept = _fork_fill(shape, workers, *task)

    mean, std = {}, {}
    for p, slabs in zip(policies, kept):  # (runs, horizon) views; std per slab stays small
        mean[p] = {s: slab.mean(axis=0) for s, slab in zip(SERIES, slabs)}
        std[p] = {s: slab.std(axis=0) for s, slab in zip(SERIES, slabs)}
    return AggregateResult(runs=runs, horizon=horizon, policies=policies, mean=mean, std=std)
