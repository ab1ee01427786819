"""Episode engine and Monte-Carlo aggregation tests."""

import dataclasses
import hashlib
import logging
import os
import re
import threading
from collections import OrderedDict

import numpy as np
import pytest
from closed_form import block_fills
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import MAX_EXAMPLES, edge_scenarios

import fugrant.belief as belief_mod
import fugrant.engine as engine_mod
from fugrant.belief import (
    FORECAST_MODES,
    CapacityError,
    EvidenceContradictionError,
    device_forecast,
    forward_update,
    init_belief,
    state_forecast,
)
from fugrant.cli import PRESETS
from fugrant.engine import (
    SERIES,
    EpisodeResult,
    run_episode,
    run_monte_carlo,
)
from fugrant.model import (
    ConfigurationError,
    ScenarioConfig,
    ScenarioTemplate,
    rng_stream,
    sample_activations,
    sample_scenario,
    state_index,
    stationary_on_probs,
    step_processes,
)
from fugrant.oracle import enumerate_forward_log_joint
from fugrant.policies import (
    POLICIES,
    fu_grant,
    observe_feedback,
    observe_limited,
    ra_attempt,
    tdd_grant,
)

SMALL = dict(n_processes=3, n_devices=8, n_slots=3, horizon=40)


def small_config(seed=0, **overrides):
    params = {**SMALL, **overrides}
    return sample_scenario(
        params["n_processes"],
        params["n_devices"],
        params["n_slots"],
        params["horizon"],
        0.5,
        rng_stream(seed, 0, "scenario"),
        seed=seed,
    )


def counting_fills(monkeypatch):
    """(rows offered, rows filled) of every prefetch_evidence call the engine
    makes that fills the memo; a call that starts no block is left out."""
    fills, real = [], engine_mod.prefetch_evidence

    def counted(observations, config):
        rows = real(observations, config)
        if rows:
            fills.append((len(observations), rows))
        return rows

    monkeypatch.setattr(engine_mod, "prefetch_evidence", counted)
    return fills


class TestRunEpisode:
    def test_series_shapes_and_dims(self):
        cfg = small_config()
        res = run_episode(cfg, POLICIES, rng_stream(0, 0, "episode"))
        assert res.policies == POLICIES
        for p in POLICIES:
            for s in SERIES:
                assert res.series[p][s].shape == (cfg.horizon,)

    def test_deterministic_given_rng(self):
        cfg = small_config()
        a = run_episode(cfg, POLICIES, rng_stream(5, 1, "episode"))
        b = run_episode(cfg, POLICIES, rng_stream(5, 1, "episode"))
        for p in POLICIES:
            for s in SERIES:
                np.testing.assert_array_equal(a.series[p][s], b.series[p][s])
        assert a.trajectory_fingerprint == b.trajectory_fingerprint

    def test_trajectory_invariant_under_policy_subset(self):
        cfg = small_config()
        full = run_episode(cfg, POLICIES, rng_stream(3, 0, "episode"))
        for subset in (["genie"], ["fu_limited", "tdd"], ["ra"]):
            part = run_episode(cfg, subset, rng_stream(3, 0, "episode"))
            assert part.trajectory_fingerprint == full.trajectory_fingerprint

    def test_belief_policy_isolation(self):
        # no policy's series may change when the others run alongside: the
        # belief trackers, random access's own stream and the genie included
        cfg = small_config(seed=4)
        together = run_episode(cfg, POLICIES, rng_stream(4, 0, "episode"))
        for p in POLICIES:
            alone = run_episode(cfg, [p], rng_stream(4, 0, "episode"))
            for s in SERIES:
                np.testing.assert_array_equal(
                    alone.series[p][s], together.series[p][s], err_msg=f"{p} {s}"
                )

    def test_fingerprint_hashes_each_slot_of_the_truth_stream(self):
        # rebuilt by hand: the first spawned stream draws the stationary
        # start, then each slot's states and activity, hashed slot by slot
        cfg = small_config(seed=2)
        truth_rng = rng_stream(2, 0, "episode").spawn(2)[0]
        state = (truth_rng.random(cfg.n_processes) < stationary_on_probs(cfg)).astype(np.uint8)
        hasher = hashlib.sha256()
        for _ in range(cfg.horizon):
            state = step_processes(state, cfg, truth_rng.random(cfg.n_processes))
            activations = sample_activations(state, cfg, truth_rng.random(cfg.n_devices))
            hasher.update(state.tobytes() + activations.tobytes())
        res = run_episode(cfg, ["tdd"], rng_stream(2, 0, "episode"))
        assert res.trajectory_fingerprint == hasher.hexdigest()

    def test_series_match_a_recomputation_by_hand(self):
        # Every policy replayed slot by slot on the redrawn truth and scored
        # by hand: regret min(wrong, missed), usage as used slots / (t * L),
        # and each device's age as t minus the slot of its last success (0
        # before any). Random access draws from the second spawned stream;
        # the genie forecasts from the previous slot's true state; the fu
        # trackers see their own evidence and restart from the prior on a
        # contradiction.
        # 2 * 4096 + 100 slots at N=3, K=8 cross the chunk boundaries after
        # slots 2978 and 5956 (2^15 // 11 per chunk) and end inside a chunk.
        for horizon in (1, 200, 2 * 4096 + 100):
            cfg = small_config(seed=6, horizon=horizon)
            n, k, l = cfg.n_processes, cfg.n_devices, cfg.n_slots
            truth_rng, ra_rng = rng_stream(6, 0, "episode").spawn(2)
            states = [(truth_rng.random(n) < stationary_on_probs(cfg)).astype(np.uint8)]
            activity = []
            for _ in range(cfg.horizon):
                states.append(step_processes(states[-1], cfg, truth_rng.random(n)))
                activity.append(sample_activations(states[-1], cfg, truth_rng.random(k)))
            res = run_episode(cfg, POLICIES, rng_stream(6, 0, "episode"))
            for policy in POLICIES:
                expected = {s: [] for s in SERIES}
                used, last_served = 0, np.zeros(k, dtype=np.int64)
                belief = init_belief(cfg)
                for t in range(1, cfg.horizon + 1):
                    acts = activity[t - 1]
                    active = acts.astype(bool)
                    ages = (t - 1) - last_served
                    if policy == "ra":
                        served = ra_attempt(acts, l, ra_rng).astype(bool)
                        wrong = l - np.sum(served)
                        missed = np.sum(active) - np.sum(served)
                    else:
                        if policy == "tdd":
                            grants = tdd_grant(t - 1, k, l)
                        elif policy == "genie":
                            grants, _ = fu_grant(state_forecast(states[t - 1], cfg), l, ages)
                        else:
                            grants, _ = fu_grant(device_forecast(belief, cfg), l, ages)
                            obs = (observe_limited(grants, acts) if policy == "fu_limited"
                                   else observe_feedback(acts))
                            try:
                                belief = forward_update(belief, obs, cfg)
                            except EvidenceContradictionError:
                                belief = init_belief(cfg)
                        granted = grants.astype(bool)
                        served = granted & active
                        wrong, missed = np.sum(granted & ~active), np.sum(active & ~granted)
                    used += np.sum(served)
                    last_served[served] = t
                    ages = t - last_served
                    expected["regret_slot"].append(min(wrong, missed))
                    expected["usage_avg"].append(used / (t * l))
                    expected["aoi_avg"].append(ages.mean())
                    expected["aoi_peak"].append(ages.max())
                expected["regret_cum"] = np.cumsum(expected["regret_slot"])
                for s in SERIES:
                    np.testing.assert_array_equal(
                        res.series[policy][s], expected[s], err_msg=f"T={horizon} {policy} {s}"
                    )

    def test_policy_order_is_canonical(self):
        cfg = small_config()
        res = run_episode(
            cfg, ["genie", "ra", "fu_limited"], rng_stream(0, 0, "episode")
        )
        assert res.policies == ("ra", "fu_limited", "genie")

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(ValueError, match="ra, tdd, fu_limited"):
            run_episode(small_config(), ["bogus"], rng_stream(0, 0, "episode"))

    def test_empty_policy_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_episode(small_config(), [], rng_stream(0, 0, "episode"))

    def test_grant_memo_counts_toward_the_horizon(self, monkeypatch):
        # the genie also keeps a per-state grant memo, min(T, 2^N) rows of K
        # bytes at worst; with memory for everything else it names the horizon
        cfg = small_config(horizon=2000)

        def needed_bytes(policy, have):
            monkeypatch.setattr("os.sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else have)
            with pytest.raises(ConfigurationError, match="horizon = 2000") as info:
                run_episode(cfg, [policy], rng_stream(0, 0, "episode"))
            return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))

        without_memo = needed_bytes("tdd", 1)
        assert needed_bytes("genie", without_memo) == without_memo + 2**3 * cfg.n_devices

    @pytest.mark.parametrize("tracker", ["fu_limited", "fu_feedback"])
    def test_filter_tables_count_toward_the_episode(self, tracker, monkeypatch):
        # a tracker also holds 2^N-float belief vectors and, when cached, the
        # (2^N, K) log-activation table: an episode that fits without the
        # table but not with it is refused before any slot, naming N
        cfg = small_config()

        def needed_bytes(policy):
            monkeypatch.setattr("os.sysconf", lambda name: 1)
            with pytest.raises(ConfigurationError, match="horizon = 40") as info:
                run_episode(cfg, [policy], rng_stream(0, 0, "episode"))
            return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))

        with monkeypatch.context() as patch:
            patch.setattr("fugrant.belief._TABLE_MAX_ENTRIES", 0)
            without_table = needed_bytes(tracker)
        with_table = needed_bytes(tracker)
        assert with_table == without_table + cfg.n_states * cfg.n_devices * 8
        assert without_table >= needed_bytes("genie") + 4 * cfg.n_states * 8

        def no_slot(*args):
            raise AssertionError("a slot was simulated")

        real_step = engine_mod.step_processes
        monkeypatch.setattr(engine_mod, "step_processes", no_slot)
        monkeypatch.setattr(
            "os.sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else without_table
        )
        with pytest.raises(ConfigurationError, match="n_processes = 3"):
            run_episode(cfg, [tracker], rng_stream(0, 0, "episode"))
        monkeypatch.setattr(engine_mod, "step_processes", real_step)
        monkeypatch.setattr(
            "os.sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else with_table
        )
        assert run_episode(cfg, [tracker], rng_stream(0, 0, "episode")).policies == (tracker,)

    def test_evidence_memo_counts_toward_the_episode(self, monkeypatch):
        # each tracker's evidence memo holds up to 512 KiB of factors
        cfg = small_config()

        def needed_bytes():
            monkeypatch.setattr("os.sysconf", lambda name: 1)
            with pytest.raises(ConfigurationError, match="horizon = 40") as info:
                run_episode(cfg, ["fu_limited"], rng_stream(0, 0, "episode"))
            return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))

        with monkeypatch.context() as patch:
            patch.setattr("fugrant.belief._EVIDENCE_MEMO_BYTES", 0)
            without_memo = needed_bytes()
        assert needed_bytes() == without_memo + 512 * 1024

    def test_feedback_block_past_the_memo_counts_toward_the_episode(self, monkeypatch):
        # at N = 14, K = 100 fu_feedback's block is K // 8 = 12 rows of 2^14
        # floats, more than the memo, and builds no temporary of its size
        cfg = small_config(n_processes=14, n_devices=100)

        def needed_bytes():
            monkeypatch.setattr("os.sysconf", lambda name: 1)
            with pytest.raises(ConfigurationError, match="n_processes = 14") as info:
                run_episode(cfg, ["fu_feedback"], rng_stream(0, 0, "episode"))
            return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))

        with monkeypatch.context() as patch:
            patch.setattr("fugrant.belief._block_rows", lambda n, k: 0)
            memo_only = needed_bytes()
        block = 12 * (1 << 14) * 8
        assert needed_bytes() == memo_only + block - 512 * 1024

    @pytest.mark.parametrize("n, block", [(10, 32), (14, 12)])
    def test_feedback_memo_stays_in_its_bytes_through_an_episode(self, n, block, monkeypatch):
        # K = 100: half the memo's entries at N = 10, K // 8 at N = 14. The
        # prefetched rows are views of their block: count each array the
        # memo keeps alive once, as it is before every filter step. Slots that
        # repeat a stored row start no block: at N = 10 three fills cover the
        # 97 slots, since slot 64 repeats slot 35's row
        cfg = small_config(n_processes=n, n_devices=100, horizon=3 * block + 1)
        kept, seen, real = [], [], engine_mod.forward_update

        def measured(belief, obs, config):
            memo = config.cached("belief.evidence_memo", OrderedDict)
            arrays = (f if f.base is None else f.base for _, f in memo.values())
            kept.append(sum({id(a): a.nbytes for a in arrays}.values()))
            seen.append(obs.tobytes())
            return real(belief, obs, config)

        monkeypatch.setattr(engine_mod, "forward_update", measured)
        fills = counting_fills(monkeypatch)
        run_episode(cfg, ["fu_feedback"], rng_stream(0, 0, "episode"))
        assert [rows for _, rows in fills] == block_fills(seen, block)
        assert fills[0] == (cfg.horizon, block)
        assert len(kept) == cfg.horizon
        assert max(kept) == block * cfg.n_states * 8 <= belief_mod._evidence_bytes(n, 100)

    @pytest.mark.parametrize("n, table", [(17, True), (4, False)])
    def test_no_block_past_the_memo_or_without_the_table(self, n, table, monkeypatch):
        # N = 17 has no room for one factor; with the table over its cap the
        # block has no GEMM to run: both keep the per-slot path
        cfg = small_config(n_processes=n, n_devices=4, horizon=3)
        if not table:
            monkeypatch.setattr("fugrant.belief._TABLE_MAX_ENTRIES", 0)
        fills = counting_fills(monkeypatch)
        res = run_episode(cfg, ["fu_feedback"], rng_stream(0, 0, "episode"))
        assert fills == []
        assert res.series["fu_feedback"]["regret_slot"].shape == (3,)

    @pytest.mark.parametrize("n", [25, 30])
    @pytest.mark.parametrize("tracker", ["fu_limited", "fu_feedback"])
    def test_tracker_capacity_is_refused_before_any_draw(self, n, tracker, monkeypatch):
        # at N = 30 the filter would not fit either; the capacity names N first
        cfg = ScenarioConfig(
            n_processes=n, n_devices=5, n_slots=2, horizon=50,
            eps0=[0.1] * n, eps1=[0.2] * n, q=[[0.1] * 5] * n,
        )

        def no_slot(*args):
            raise AssertionError("a slot was simulated")

        monkeypatch.setattr(engine_mod, "step_processes", no_slot)
        message = f"n_processes = {n} exceeds the exact-tracking limit of 24"
        with pytest.raises(CapacityError, match=message):
            run_episode(cfg, ["genie", tracker], rng_stream(0, 0, "episode"))
        with pytest.raises(CapacityError, match=message):
            run_monte_carlo(cfg, 1, 0, [tracker])

    def test_whole_run_need_adds_the_episode_to_every_kept_series(self, monkeypatch):
        # run_monte_carlo holds one episode E beside every run's series S and
        # then builds their mean and std: (runs + 2) * S + E bytes at the peak
        tpl, have = PRESETS["fig3"], {"bytes": 1}
        assert tpl.horizon == 2000
        monkeypatch.setattr(
            "os.sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else have["bytes"]
        )
        cfg = tpl.sample(rng_stream(0, 0, "scenario"))
        with pytest.raises(ConfigurationError, match="horizon = 2000") as info:
            run_episode(cfg, ["ra"], rng_stream(0, 0, "episode"))
        episode = int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))
        whole = (1 + 2) * len(SERIES) * 8 * tpl.horizon + episode

        real_step = engine_mod.step_processes

        def no_slot(*args):
            raise AssertionError("a slot was simulated")

        monkeypatch.setattr(engine_mod, "step_processes", no_slot)
        have["bytes"] = whole - 1
        with pytest.raises(ConfigurationError, match="runs = 1 with horizon = 2000"):
            run_monte_carlo(tpl, runs=1, master_seed=0, policies=["ra"])
        monkeypatch.setattr(engine_mod, "step_processes", real_step)
        have["bytes"] = whole
        assert run_monte_carlo(tpl, runs=1, master_seed=0, policies=["ra"]).horizon == 2000

    def test_zero_horizon_gives_empty_result(self):
        cfg = small_config(horizon=0)
        res = run_episode(cfg, POLICIES, rng_stream(0, 0, "episode"))
        for p in POLICIES:
            for s in SERIES:
                assert res.series[p][s].shape == (0,)

    def test_regret_cum_is_running_sum(self):
        res = run_episode(small_config(), POLICIES, rng_stream(7, 0, "episode"))
        for p in POLICIES:
            np.testing.assert_allclose(
                res.series[p]["regret_cum"], np.cumsum(res.series[p]["regret_slot"])
            )

    def test_usage_bounded(self):
        res = run_episode(small_config(), POLICIES, rng_stream(8, 0, "episode"))
        for p in POLICIES:
            u = res.series[p]["usage_avg"]
            assert np.all(u >= 0) and np.all(u <= 1)

    def test_peak_at_least_average_age(self):
        res = run_episode(small_config(), POLICIES, rng_stream(9, 0, "episode"))
        for p in POLICIES:
            assert np.all(
                res.series[p]["aoi_peak"] >= res.series[p]["aoi_avg"] - 1e-12
            )

    @pytest.mark.parametrize("policy", ["fu_limited", "fu_feedback"])
    def test_contradiction_resets_tracker(self, policy, monkeypatch, caplog):
        cfg = small_config(horizon=5)
        calls = {"n": 0}
        real = engine_mod.forward_update

        def flaky(belief, obs, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EvidenceContradictionError("forced")
            return real(belief, obs, config)

        monkeypatch.setattr(engine_mod, "forward_update", flaky)
        fills = counting_fills(monkeypatch)
        evaluated = []
        real_evidence = belief_mod._log_evidence
        monkeypatch.setattr(
            belief_mod, "_log_evidence", lambda obs, c: evaluated.append(1) or real_evidence(obs, c)
        )
        with caplog.at_level(logging.WARNING, logger="fugrant.engine"):
            res = run_episode(cfg, [policy], rng_stream(0, 0, "episode"))
        assert isinstance(res, EpisodeResult)
        assert any("reset" in r.message for r in caplog.records)
        if policy == "fu_feedback":
            # the reset in slot 1 keeps the config's memo, so the block
            # filled at slot 0 (all 5 slots) serves every slot: no refill
            assert fills == [(5, 5)]
            assert evaluated == []
        else:
            assert fills == [] and evaluated

    def test_massive_k_feedback_never_resets(self, caplog):
        # 3000 observed devices per slot: the evidence must not underflow
        cfg = sample_scenario(4, 3000, 10, 20, 0.5, rng_stream(1, 0, "s"), q_max=0.8)
        with caplog.at_level(logging.WARNING, logger="fugrant.engine"):
            run_episode(cfg, ["fu_feedback"], rng_stream(1, 0, "episode"))
        assert not [r for r in caplog.records if "reset" in r.message]

    def test_genie_no_worse_than_fu_on_average(self):
        tpl = ScenarioTemplate(n_processes=4, n_devices=12, n_slots=3, horizon=300)
        agg = run_monte_carlo(tpl, runs=20, master_seed=0, policies=POLICIES)
        genie = agg.mean["genie"]["usage_avg"][-1]
        fb = agg.mean["fu_feedback"]["usage_avg"][-1]
        lim = agg.mean["fu_limited"]["usage_avg"][-1]
        assert genie >= fb - 0.02
        assert fb >= lim - 0.02


class TestGrantMemo:
    # Devices 0/1 and 2/3 have equal q columns, so their forecasts are equal
    # in every state. At L = 3 the third and fourth places tie in states 0, 3
    # and 4 only, so the episode visits states whose grants need ages and
    # states whose forecast alone decides them.
    TIED = ScenarioConfig(
        n_processes=3, n_devices=6, n_slots=3, horizon=300,
        eps0=[0.3, 0.2, 0.4], eps1=[0.2, 0.3, 0.25],
        q=[[0.9, 0.9, 0.2, 0.2, 0.6, 0.05],
           [0.1, 0.1, 0.8, 0.8, 0.3, 0.5],
           [0.3, 0.3, 0.3, 0.3, 0.7, 0.9]],
    )

    @pytest.mark.parametrize("policy", ["fu_limited", "fu_feedback", "genie"])
    def test_tied_states_take_the_age_path_every_slot(self, policy, monkeypatch):
        cfg = self.TIED
        n, k, l = cfg.n_processes, cfg.n_devices, cfg.n_slots
        truth_rng = rng_stream(1, 0, "episode").spawn(2)[0]
        states = [(truth_rng.random(n) < stationary_on_probs(cfg)).astype(np.uint8)]
        activity = []
        for _ in range(cfg.horizon):
            states.append(step_processes(states[-1], cfg, truth_rng.random(n)))
            activity.append(sample_activations(states[-1], cfg, truth_rng.random(k)))

        scored, calls = [], {"grant": 0, "forecast": 0}
        real_report = engine_mod.slot_report

        def counted(fn, kind):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapper

        def capture(acts, grants):
            scored.append(grants.copy())
            return real_report(acts, grants)

        monkeypatch.setattr(engine_mod, "slot_report", capture)
        monkeypatch.setattr(engine_mod, "fu_grant", counted(engine_mod.fu_grant, "grant"))
        monkeypatch.setattr(engine_mod, "genie_grant", counted(engine_mod.genie_grant, "grant"))
        # the genie forecasts inside genie_grant, the fu trackers through the engine
        monkeypatch.setattr("fugrant.policies.state_forecast", counted(state_forecast, "forecast"))
        monkeypatch.setattr(
            engine_mod, "device_forecast", counted(engine_mod.device_forecast, "forecast")
        )
        run_episode(cfg, [policy], rng_stream(1, 0, "episode"))

        # Replay: a forecast and an age-aware fu_grant in every slot.
        expected, tied_visits, untied_keys = [], {}, set()
        last_served, belief = np.zeros(k, dtype=np.int64), init_belief(cfg)
        for t in range(1, cfg.horizon + 1):
            if policy == "genie":
                key, forecast = state_index(states[t - 1]), state_forecast(states[t - 1], cfg)
            else:
                key, forecast = int(np.argmax(belief.weights)), device_forecast(belief, cfg)
            grants, _ = fu_grant(forecast, l, (t - 1) - last_served)
            ranked = np.sort(forecast)[::-1]
            if ranked[l - 1] == ranked[l]:
                tied_visits[key] = tied_visits.get(key, 0) + 1
            else:
                untied_keys.add(key)
            if policy != "genie":
                obs = (observe_limited(grants, activity[t - 1]) if policy == "fu_limited"
                       else observe_feedback(activity[t - 1]))
                belief = forward_update(belief, obs, cfg)
            last_served[(grants & activity[t - 1]).astype(bool)] = t
            expected.append(grants)

        np.testing.assert_array_equal(np.concatenate(scored), expected)
        assert max(tied_visits.values()) > 1 and untied_keys
        # each tied visit recomputed its grants; each untied state once
        assert calls["grant"] == sum(tied_visits.values()) + len(untied_keys)
        assert calls["forecast"] == calls["grant"]  # one forecast per grant call


class TestTrackerStepsAgainstEnumeration:
    """Each tracker step the engine takes, as _run_policy schedules it (block
    fills at chunk boundaries, memo hits across fills and across a reset),
    against path enumeration."""

    SEEDS = range(6)

    def instance(self, seed):
        """The random instance of `seed`, with (2^N)^T <= 2^18."""
        rng = rng_stream(seed, 0, "engine-enumeration")
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        return sample_scenario(n, k, max(1, k // 2), 18 // n, 0.5, rng, seed=seed)

    def steps(self, cfg, seed, policy, mode, patch, fail_at=None):
        """Each forward_update call of an episode of `cfg` on the stream of
        `seed`: its observation with the belief it returned, None for the call
        numbered fail_at, which raises. Chunks are 2 or 3 slots."""
        n, k = cfg.n_processes, cfg.n_devices
        patch.setattr(engine_mod, "_BLOCK_ENTRIES", (2 + seed % 2) * (n + k))
        steps, real = [], engine_mod.forward_update

        def recorded(belief, obs, config):
            updated = None if len(steps) == fail_at else real(belief, obs, config)
            steps.append((obs.copy(), updated))
            if updated is None:
                raise EvidenceContradictionError("forced")
            return updated

        patch.setattr(engine_mod, "forward_update", recorded)
        run_episode(cfg, [policy], rng_stream(seed, 0, "episode"), belief_mode=mode)
        assert len(steps) == cfg.horizon
        return steps

    def assert_matches_enumeration(self, cfg, steps):
        """Each step after the last reset against enumeration from the prior."""
        since = []
        for obs, belief in steps:
            if belief is None:
                since = []
                continue
            since.append(obs)
            log_joint = enumerate_forward_log_joint(cfg, since)
            log_evidence = np.logaddexp.reduce(log_joint)
            assert abs(belief.log_scale - log_evidence) <= 1e-9
            np.testing.assert_allclose(
                belief.weights, np.exp(log_joint - log_evidence), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("mode", ["map_state", "marginal"])
    @pytest.mark.parametrize("policy", ["fu_limited", "fu_feedback"])
    def test_every_step_matches_path_enumeration(self, policy, mode, monkeypatch):
        for seed in self.SEEDS:
            cfg = self.instance(seed)
            self.assert_matches_enumeration(cfg, self.steps(cfg, seed, policy, mode, monkeypatch))

    @pytest.mark.parametrize("policy", ["fu_limited", "fu_feedback"])
    def test_steps_after_a_reset_match_enumeration_from_the_prior(self, policy, monkeypatch):
        for seed in self.SEEDS:
            cfg = self.instance(seed)
            steps = self.steps(cfg, seed, policy, "map_state", monkeypatch, fail_at=1)
            assert steps[1][1] is None
            self.assert_matches_enumeration(cfg, steps)

    @pytest.mark.parametrize("mode", ["map_state", "marginal"])
    @pytest.mark.parametrize("policy", ["fu_limited", "fu_feedback"])
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(edge_scenarios(moving=True, max_n=3, max_k=4), st.integers(0, 10_000))
    def test_edge_value_steps_match_path_enumeration(self, policy, mode, scenario, seed):
        # q of exactly 0 or 1 and eps of 0 through the engine's own schedule:
        # log(0) terms must reach every step's weights as exact zeros
        n, k = scenario.n_processes, scenario.n_devices
        cfg = dataclasses.replace(scenario, n_slots=max(1, k // 2), horizon=12 // n)
        with pytest.MonkeyPatch.context() as patch:
            self.assert_matches_enumeration(cfg, self.steps(cfg, seed, policy, mode, patch))


class TestRunMonteCarlo:
    def test_mean_std_match_manual_aggregation(self):
        tpl = ScenarioTemplate(n_processes=3, n_devices=8, n_slots=3, horizon=30)
        runs = 4
        agg = run_monte_carlo(tpl, runs=runs, master_seed=11, policies=["tdd", "ra"])
        episodes = [
            run_episode(
                tpl.sample(rng_stream(11, r, "scenario"), seed=11),
                ["tdd", "ra"],
                rng_stream(11, r, "episode"),
            )
            for r in range(runs)
        ]
        for p in ("ra", "tdd"):
            stacked = np.stack([ep.series[p]["regret_cum"] for ep in episodes])
            np.testing.assert_array_equal(agg.mean[p]["regret_cum"], stacked.mean(0))
            np.testing.assert_array_equal(
                agg.std[p]["regret_cum"], stacked.std(0)  # population std
            )

    def test_deterministic(self):
        tpl = ScenarioTemplate(n_processes=3, n_devices=8, n_slots=3, horizon=25)
        a = run_monte_carlo(tpl, runs=3, master_seed=2, policies=POLICIES)
        b = run_monte_carlo(tpl, runs=3, master_seed=2, policies=POLICIES)
        for p in POLICIES:
            for s in SERIES:
                np.testing.assert_array_equal(a.mean[p][s], b.mean[p][s])
                np.testing.assert_array_equal(a.std[p][s], b.std[p][s])

    def test_fixed_scenario_reuses_one_instance(self):
        tpl = ScenarioTemplate(n_processes=3, n_devices=8, n_slots=3, horizon=25)
        fixed = run_monte_carlo(
            tpl, runs=3, master_seed=2, policies=["tdd"], fixed_scenario=True
        )
        cfg = tpl.sample(rng_stream(2, 0, "scenario"), seed=2)
        manual = [
            run_episode(cfg, ["tdd"], rng_stream(2, r, "episode")) for r in range(3)
        ]
        stacked = np.stack([ep.series["tdd"]["regret_cum"] for ep in manual])
        np.testing.assert_array_equal(fixed.mean["tdd"]["regret_cum"], stacked.mean(0))

    @pytest.mark.parametrize("fixed_scenario", [False, True])
    def test_concrete_config_accepted(self, fixed_scenario):
        cfg = small_config(horizon=20)
        agg = run_monte_carlo(
            cfg, runs=2, master_seed=0, policies=["ra"], fixed_scenario=fixed_scenario
        )
        assert agg.runs == 2 and agg.horizon == 20

    def test_memory_refusal_names_the_processes(self, monkeypatch):
        # at N = 100000 the N-sized trajectory and draw chunk are nearly all
        # of the need, so the message names N and K beside runs and horizon
        def no_slot(*args):
            raise AssertionError("a slot was simulated")

        monkeypatch.setattr(engine_mod, "step_processes", no_slot)
        monkeypatch.setattr("os.sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else 100_000)
        with pytest.raises(ConfigurationError, match="runs = 1 with horizon = 10") as info:
            run_monte_carlo(ScenarioTemplate(100_000, 10, 1, 10), 1, 0, ["ra"])
        assert "n_processes = 100000" in str(info.value)
        assert "n_devices = 10" in str(info.value)

    def test_single_run_std_is_zero(self):
        agg = run_monte_carlo(
            small_config(horizon=15), runs=1, master_seed=0, policies=["tdd"]
        )
        np.testing.assert_array_equal(agg.std["tdd"]["regret_cum"], np.zeros(15))

    def test_bad_run_count_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            run_monte_carlo(small_config(), runs=0, master_seed=0, policies=["ra"])

    @pytest.mark.parametrize(
        "key, runs, seed",
        [("runs", 2.5, 0), ("runs", True, 0), ("seed", 1, 1.5), ("seed", 1, True)],
    )
    def test_non_integer_runs_or_seed_rejected(self, key, runs, seed):
        with pytest.raises(ConfigurationError, match=key):
            run_monte_carlo(small_config(), runs=runs, master_seed=seed, policies=["ra"])

    @pytest.mark.parametrize("policies", [["ra", "tdd"], ["fu_limited"]])
    def test_unknown_belief_mode_rejected(self, policies, monkeypatch):
        tpl = ScenarioTemplate(n_processes=3, n_devices=8, n_slots=3, horizon=10)

        def no_sample(*args, **kwargs):
            raise AssertionError("a scenario was sampled")

        monkeypatch.setattr(ScenarioTemplate, "sample", no_sample)
        with pytest.raises(ConfigurationError, match="belief_mode"):
            run_monte_carlo(tpl, 1, 0, policies, belief_mode="bogus")

    def test_belief_mode_forwarded(self):
        cfg = small_config(seed=6, horizon=30)
        a = run_monte_carlo(
            cfg, runs=1, master_seed=0, policies=["fu_limited"], belief_mode="map_state"
        )
        b = run_monte_carlo(
            cfg, runs=1, master_seed=0, policies=["fu_limited"], belief_mode="marginal"
        )
        # different forecast rules must eventually pick different grants
        assert not np.array_equal(
            a.mean["fu_limited"]["regret_cum"], b.mean["fu_limited"]["regret_cum"]
        )


def assert_same_aggregate(a, b):
    assert (a.runs, a.horizon, a.policies) == (b.runs, b.horizon, b.policies)
    for p in a.policies:
        for s in SERIES:
            assert a.mean[p][s].tobytes() == b.mean[p][s].tobytes(), (p, s)
            assert a.std[p][s].tobytes() == b.std[p][s].tobytes(), (p, s)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not hasattr(os, "fork") or engine_mod._openblas_threads() is None,
    reason="forked workers need os.fork and numpy's bundled OpenBLAS",
)
class TestWorkers:
    TEMPLATE = ScenarioTemplate(n_processes=3, n_devices=6, n_slots=2, horizon=12)

    @staticmethod
    def aggregate(monkeypatch, workers, *args, **kwargs):
        monkeypatch.setattr(engine_mod, "_workers", lambda runs: workers)
        return run_monte_carlo(*args, **kwargs)

    @pytest.mark.parametrize("mode", FORECAST_MODES)
    @pytest.mark.parametrize("kind", ["template", "config", "fixed_scenario"])
    def test_any_worker_count_gives_the_same_bits(self, kind, mode, monkeypatch):
        for horizon in (12, 0):
            tpl = dataclasses.replace(self.TEMPLATE, horizon=horizon)
            scenario = tpl.sample(rng_stream(5, 0, "scenario")) if kind == "config" else tpl
            for runs in range(1, 6):
                serial, *spread = (
                    self.aggregate(
                        monkeypatch, workers, scenario, runs, 4, POLICIES,
                        fixed_scenario=kind == "fixed_scenario", belief_mode=mode,
                    )
                    for workers in (1, 2, 3)
                )
                for result in spread:
                    assert_same_aggregate(serial, result)
        assert_no_child_left()

    def test_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert [engine_mod._workers(runs) for runs in (1, 3, 20)] == [1, 3, 8]
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert engine_mod._workers(20) == 1
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "_openblas_threads", lambda: None)
            assert engine_mod._workers(20) == 1
        for name in ("fork", "sched_getaffinity"):
            with monkeypatch.context() as patch:
                patch.delattr(os, name)
                assert engine_mod._workers(20) == 1
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(10,))
        other.start()
        try:
            assert engine_mod._workers(20) == 1
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failed_share_leaves_no_child(self, where, monkeypatch, capfd):
        parent, real = os.getpid(), engine_mod.run_episode

        def failing(config, policies, rng, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError(f"the {where}'s share failed")
            return real(config, policies, rng, **kwargs)

        monkeypatch.setattr(engine_mod, "run_episode", failing)
        raised = RuntimeError if where == "child" else ValueError
        with pytest.raises(raised, match="worker processes failed" if where == "child" else where):
            self.aggregate(monkeypatch, 3, self.TEMPLATE, 4, 0, ["ra"])
        assert_no_child_left()
        if where == "child":  # each child printed its own traceback
            assert capfd.readouterr().err.count("ValueError: the child's share failed") == 2

    def test_blas_threads_are_held_to_one_and_restored(self, monkeypatch):
        get, put = engine_mod._openblas_threads()
        before, seen, real = get(), [], engine_mod.run_episode

        def counted(config, policies, rng, **kwargs):
            seen.append(get())
            if len(seen) == 3:
                raise ValueError("the parent's share failed")
            return real(config, policies, rng, **kwargs)

        monkeypatch.setattr(engine_mod, "run_episode", counted)
        put(2)
        try:
            self.aggregate(monkeypatch, 2, self.TEMPLATE, 4, 0, ["ra"])
            assert seen == [1, 1] and get() == 2
            with pytest.raises(ValueError, match="parent"):
                self.aggregate(monkeypatch, 2, self.TEMPLATE, 6, 0, ["ra"])
            assert seen == [1, 1, 1] and get() == 2
        finally:
            put(before)
        assert_no_child_left()

    def test_every_worker_counts_one_episode(self, monkeypatch):
        # W workers hold W episodes E beside the one shared array of every
        # run's series S: W * E + (runs + 2) * S bytes at the peak
        def needed_bytes(runs, workers):
            monkeypatch.setattr("os.sysconf", lambda name: 1)
            with pytest.raises(ConfigurationError, match=f"runs = {runs}") as info:
                self.aggregate(monkeypatch, workers, self.TEMPLATE, runs, 0, POLICIES)
            return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))

        series = len(POLICIES) * len(SERIES) * 8 * self.TEMPLATE.horizon
        episode = needed_bytes(1, 1) - 3 * series
        assert needed_bytes(5, 3) == 3 * episode + 7 * series

    def test_every_tracker_pass_starts_from_an_empty_memo(self, monkeypatch):
        # a fixed config's memo is emptied as each pass ends, so every run's
        # trackers start alike, whichever process runs them
        cfg = small_config(horizon=30)
        sizes, real = [], engine_mod.init_belief

        def counted(config):
            sizes.append(len(config.cached("belief.evidence_memo", OrderedDict)))
            return real(config)

        monkeypatch.setattr(engine_mod, "init_belief", counted)
        self.aggregate(monkeypatch, 1, cfg, 2, 0, ["fu_limited", "fu_feedback"])
        assert sizes == [0, 0, 0, 0]
        assert not cfg.cached("belief.evidence_memo", OrderedDict)
