"""Episode engine and Monte-Carlo aggregation tests."""

import hashlib
import logging

import numpy as np
import pytest

import fugrant.engine as engine_mod
from fugrant.engine import (
    SERIES,
    EpisodeResult,
    run_episode,
    run_monte_carlo,
)
from fugrant.model import (
    ConfigurationError,
    ScenarioTemplate,
    rng_stream,
    sample_activations,
    sample_scenario,
    stationary_on_probs,
    step_processes,
)
from fugrant.policies import POLICIES

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


class TestRunEpisode:
    def test_series_shapes_and_dims(self):
        cfg = small_config()
        res = run_episode(cfg, POLICIES, rng_stream(0, 0, "episode"))
        assert (res.n_processes, res.n_devices, res.n_slots) == (3, 8, 3)
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
            state = step_processes(state, cfg, truth_rng)
            activations = sample_activations(state, cfg, truth_rng)
            hasher.update(state.tobytes() + activations.tobytes())
        res = run_episode(cfg, ["tdd"], rng_stream(2, 0, "episode"))
        assert res.trajectory_fingerprint == hasher.hexdigest()

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

    def test_contradiction_resets_tracker(self, monkeypatch, caplog):
        from fugrant.belief import EvidenceContradictionError, init_belief

        cfg = small_config(horizon=5)
        calls = {"n": 0}
        real = engine_mod.forward_update

        def flaky(belief, obs, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EvidenceContradictionError("forced")
            return real(belief, obs, config)

        monkeypatch.setattr(engine_mod, "forward_update", flaky)
        with caplog.at_level(logging.WARNING, logger="fugrant.engine"):
            res = run_episode(cfg, ["fu_limited"], rng_stream(0, 0, "episode"))
        assert isinstance(res, EpisodeResult)
        assert any("reset" in r.message for r in caplog.records)

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

    def test_concrete_config_accepted(self):
        cfg = small_config(horizon=20)
        agg = run_monte_carlo(cfg, runs=2, master_seed=0, policies=["ra"])
        assert agg.runs == 2 and agg.horizon == 20

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
    def test_unknown_belief_mode_rejected(self, policies):
        tpl = ScenarioTemplate(n_processes=3, n_devices=8, n_slots=3, horizon=10)
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
