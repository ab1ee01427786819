"""Belief tracker tests: exact filtering, censoring, capacity, forecasts."""

import logging
import math

import numpy as np
import pytest

from fugrant import engine
from fugrant.belief import (
    MAX_PROCESSES,
    OBSERVED_ACTIVE,
    OBSERVED_SILENT,
    UNOBSERVED,
    BeliefState,
    CapacityError,
    EvidenceContradictionError,
    _log_evidence,
    _predict,
    device_forecast,
    entropy,
    forward_update,
    init_belief,
    unnormalized_joint,
)
from fugrant.model import (
    ScenarioConfig,
    activation_probs,
    predict_activation_probs,
    rng_stream,
    sample_activations,
    sample_scenario,
    state_bits,
    stationary_on_probs,
    step_processes,
)
from fugrant.oracle import (
    _bit_transition_prob,
    dense_transition_matrix,
    enumerate_forward_log_joint,
    forward_filter_deviation,
    predicted_activation_by_enumeration,
    predictor_deviation,
    random_filtering_instance,
)
from fugrant.policies import observe_feedback, observe_limited


def make_scenario(n=3, k=4, seed=0, **kwargs):
    return sample_scenario(
        n, k, max(1, k // 2), 10, 0.5, np.random.default_rng(seed), **kwargs
    )


def all_unobserved(k):
    return np.full(k, UNOBSERVED, dtype=np.int8)


class TestInitBelief:
    def test_matches_stationary_product(self):
        cfg = make_scenario()
        belief = init_belief(cfg)
        pi = stationary_on_probs(cfg)
        for idx in range(cfg.n_states):
            bits = state_bits(idx, cfg.n_processes)
            expected = np.prod(np.where(bits, pi, 1.0 - pi))
            assert belief.weights[idx] == pytest.approx(expected)
        assert belief.weights.sum() == pytest.approx(1.0)
        assert belief.log_scale == 0.0

    def test_capacity_guard(self):
        cfg = make_scenario(n=MAX_PROCESSES + 1, k=2)
        with pytest.raises(CapacityError):
            init_belief(cfg)


class TestPredictStep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_dense_transition_matrix(self, n):
        cfg = make_scenario(n=n, k=2, seed=n)
        rng = np.random.default_rng(n + 10)
        transition = dense_transition_matrix(cfg)
        for _ in range(5):
            w = rng.random(cfg.n_states)
            w /= w.sum()
            np.testing.assert_allclose(
                _predict(w, cfg), transition @ w, atol=1e-12
            )

    @pytest.mark.parametrize("n", [10, 11, 16])
    def test_columns_match_per_process_transitions(self, n):
        # the dense matrix is out of reach here, so check whole columns
        # (one-hot inputs) against a product over processes; eps of exactly
        # 0 and 1 sit in the first group, on both sides of the first group
        # boundary (processes 4 and 5) and in the last group
        rng = np.random.default_rng(n)
        eps0, eps1 = rng.random(n), rng.random(n)
        eps0[[0, 5, n - 1]] = [0.0, 1.0, 1.0]
        eps1[[1, 4, n - 2]] = [1.0, 0.0, 0.0]
        cfg = ScenarioConfig(
            n_processes=n, n_devices=1, n_slots=1, horizon=1,
            eps0=eps0, eps1=eps1, q=np.full((n, 1), 0.5),
        )
        new_bits = (np.arange(cfg.n_states)[:, None] >> np.arange(n)) & 1
        olds = [0, 1, 1 << 5, 1 << (n - 1), cfg.n_states - 1, *rng.integers(cfg.n_states, size=3)]
        for old in olds:
            old_bits = state_bits(int(old), n)
            per_process = np.array([
                [_bit_transition_prob(int(old_bits[j]), new, eps0[j], eps1[j]) for new in (0, 1)]
                for j in range(n)
            ])
            expected = per_process[np.arange(n), new_bits].prod(axis=1)
            one_hot = np.zeros(cfg.n_states)
            one_hot[old] = 1.0
            np.testing.assert_allclose(_predict(one_hot, cfg), expected, rtol=0, atol=1e-12)

    def test_preserves_mass(self):
        cfg = make_scenario(n=4, k=2)
        w = np.random.default_rng(3).random(cfg.n_states)
        assert _predict(w, cfg).sum() == pytest.approx(w.sum())

    def test_does_not_mutate_input(self):
        cfg = make_scenario(n=3, k=2)
        w = init_belief(cfg).weights
        snapshot = w.copy()
        _predict(w, cfg)
        np.testing.assert_array_equal(w, snapshot)

    def test_stationary_is_fixed_point(self):
        cfg = make_scenario(n=4, k=2)
        w = init_belief(cfg).weights
        np.testing.assert_allclose(_predict(w, cfg), w, atol=1e-12)


class TestEmission:
    def test_scalar_matches_direct_product(self):
        cfg = make_scenario(n=3, k=5, seed=2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            obs = rng.integers(-1, 2, size=cfg.n_devices).astype(np.int8)
            emission = np.exp(_log_evidence(obs, cfg))
            for idx in range(cfg.n_states):
                state = state_bits(idx, cfg.n_processes)
                probs = activation_probs(state, cfg)
                expected = 1.0
                for k in range(cfg.n_devices):
                    if obs[k] == OBSERVED_ACTIVE:
                        expected *= probs[k]
                    elif obs[k] == OBSERVED_SILENT:
                        expected *= 1.0 - probs[k]
                assert emission[idx] == pytest.approx(expected, abs=1e-12)

    def test_no_evidence_returns_none(self):
        cfg = make_scenario()
        assert _log_evidence(all_unobserved(cfg.n_devices), cfg) is None

    def test_table_and_fallback_agree(self, monkeypatch):
        cfg = make_scenario(n=4, k=6, seed=5)
        obs = np.array([1, 0, -1, 1, 0, -1], dtype=np.int8)
        with_table = np.exp(_log_evidence(obs, cfg))
        assert "belief.log_active_table" in cfg._cache
        monkeypatch.setattr("fugrant.belief._TABLE_MAX_ENTRIES", 0)
        cfg2 = make_scenario(n=4, k=6, seed=5)
        without_table = np.exp(_log_evidence(obs, cfg2))
        assert "belief.log_active_table" not in cfg2._cache
        np.testing.assert_allclose(with_table, without_table, atol=1e-14)

    def test_per_device_path_caches_only_half_width_tables(self, monkeypatch):
        monkeypatch.setattr("fugrant.belief._TABLE_MAX_ENTRIES", 0)
        cfg = make_scenario(n=20, k=4, seed=13)
        obs = np.array([1, 0, -1, 1], dtype=np.int8)
        belief = forward_update(init_belief(cfg), obs, cfg)
        assert belief.weights.sum() == pytest.approx(1.0)
        limit = 2 ** ((cfg.n_processes + 1) // 2) * cfg.n_devices
        cached = [a for v in cfg._cache.values() for a in (v if isinstance(v, tuple) else (v,))]
        assert cached and max(a.size for a in cached) <= limit


class TestForwardUpdate:
    def test_normalized_after_evidence(self):
        cfg = make_scenario(n=3, k=4, seed=1)
        belief = init_belief(cfg)
        obs = np.array([1, 0, -1, -1], dtype=np.int8)
        updated = forward_update(belief, obs, cfg)
        assert updated.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(updated.weights >= 0)

    def test_censoring_consistency_exact(self):
        # an all-unobserved update must equal the bare prediction step
        cfg = make_scenario(n=4, k=5, seed=3)
        belief = init_belief(cfg)
        obs = np.array([1, 0, 1, -1, -1], dtype=np.int8)
        belief = forward_update(belief, obs, cfg)
        blind = forward_update(belief, all_unobserved(cfg.n_devices), cfg)
        np.testing.assert_array_equal(blind.weights, _predict(belief.weights, cfg))
        assert blind.log_scale == belief.log_scale

    def test_log_scale_tracks_evidence_mass(self):
        cfg = make_scenario(n=2, k=3, seed=6)
        belief = init_belief(cfg)
        obs = np.array([1, 1, 0], dtype=np.int8)
        predicted = _predict(belief.weights, cfg)
        emission = np.exp(_log_evidence(obs, cfg))
        updated = forward_update(belief, obs, cfg)
        np.testing.assert_allclose(
            unnormalized_joint(updated), predicted * emission, atol=1e-12
        )

    @pytest.mark.parametrize("table", [True, False], ids=["table", "per-device"])
    def test_massive_k_matches_log_space_enumeration(self, table, monkeypatch):
        # 3000 likelihood factors underflow a plain product for every state
        if not table:
            monkeypatch.setattr("fugrant.belief._TABLE_MAX_ENTRIES", 0)
        rng = rng_stream(2, 0, "s")
        cfg = sample_scenario(2, 3000, 10, 0, 0.5, rng, q_max=0.8)
        state = np.array([1, 0], dtype=np.uint8)
        belief = init_belief(cfg)
        for _ in range(3):
            state = step_processes(state, cfg, rng)
            obs = observe_feedback(sample_activations(state, cfg, rng))
            log_joint = np.log(_predict(belief.weights, cfg)) + belief.log_scale
            for idx in range(cfg.n_states):
                p = activation_probs(state_bits(idx, cfg.n_processes), cfg)
                with np.errstate(divide="ignore"):  # the all-Off state cannot be active
                    log_joint[idx] += np.log(np.where(obs == OBSERVED_ACTIVE, p, 1.0 - p)).sum()
            belief = forward_update(belief, obs, cfg)
            log_evidence = np.logaddexp.reduce(log_joint)
            np.testing.assert_allclose(
                belief.weights, np.exp(log_joint - log_evidence), atol=1e-9
            )
            assert belief.log_scale == pytest.approx(log_evidence, rel=1e-12)
        assert ("belief.log_active_table" in cfg._cache) == table

    def test_oracle_checks_log_evidence_at_massive_k(self, monkeypatch):
        # N=3, K=71,932: the joint underflows to 0 on both sides, so only the
        # normalized weights and the log-evidence still compare anything
        cfg, observations = random_filtering_instance(0, 3, 100000, 6)
        assert np.logaddexp.reduce(enumerate_forward_log_joint(cfg, observations)) < -745
        assert forward_filter_deviation(cfg, observations) <= 1e-9

        def off_by_1e6(belief, obs, config):
            updated = forward_update(belief, obs, config)
            return BeliefState(updated.weights, updated.log_scale + 1e-6)

        monkeypatch.setattr("fugrant.belief.forward_update", off_by_1e6)
        assert forward_filter_deviation(cfg, observations) > 1e-9

    def test_tiny_q_activation_stays_possible(self):
        # 1 - (1 - q) rounds to 0 for q = 1e-20, but P(active) is 1e-20 per
        # On process, so seeing device 0 active only rules out all-Off
        cfg = make_scenario(n=2, k=3, seed=0)
        q = np.array(cfg.q)
        q[:, 0] = 1e-20
        cfg = cfg.replace(q=q)
        obs = np.array([OBSERVED_ACTIVE, UNOBSERVED, OBSERVED_SILENT], dtype=np.int8)
        belief = forward_update(init_belief(cfg), obs, cfg)
        assert forward_filter_deviation(cfg, [obs]) <= 1e-9
        assert belief.weights[0] == 0.0
        assert math.isfinite(belief.log_scale)

    def test_belief_of_another_size_rejected(self):
        cfg10, cfg11 = make_scenario(n=10, k=4), make_scenario(n=11, k=4)
        belief = init_belief(cfg11)
        with pytest.raises(ValueError, match=r"belief weights must have shape \(1024,\)"):
            forward_update(belief, all_unobserved(4), cfg10)
        for mode in ("map_state", "marginal"):
            with pytest.raises(ValueError, match=r"belief weights must have shape \(1024,\)"):
                device_forecast(belief, cfg10, mode)

    def test_contradiction_raises(self):
        # device 0 can only activate when process 0 is On, and process 0 is
        # frozen Off, so seeing it active is impossible
        cfg = make_scenario(n=2, k=2, seed=0).replace(
            eps0=[1.0, 0.2], eps1=[0.0, 0.3], q=[[1.0, 0.0], [0.0, 0.5]]
        )
        belief = BeliefState(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        obs = np.array([OBSERVED_ACTIVE, UNOBSERVED], dtype=np.int8)
        with pytest.raises(EvidenceContradictionError):
            forward_update(belief, obs, cfg)

    def test_impossible_under_every_state_resets(self, monkeypatch, caplog):
        # device 1 has q = 0 for every process, so P(active | s) = 0 for every
        # s; its log-likelihood sits at the finite floor in every state, and
        # exp(le - max) alone would not show the contradiction
        cfg = make_scenario(n=3, k=4, seed=8).replace(
            horizon=4,
            q=np.array([[0.5, 0.0, 0.2, 0.9], [0.3, 0.0, 0.7, 0.1], [0.6, 0.0, 0.4, 0.8]]),
        )
        obs = np.array([OBSERVED_ACTIVE, OBSERVED_ACTIVE, OBSERVED_SILENT, UNOBSERVED], np.int8)
        with pytest.raises(EvidenceContradictionError):
            forward_update(init_belief(cfg), obs, cfg)

        def device_1_active(state, config, rng):
            acts = sample_activations(state, config, rng)
            acts[1] = 1
            return acts

        monkeypatch.setattr(engine, "sample_activations", device_1_active)
        with caplog.at_level(logging.WARNING, logger="fugrant.engine"):
            engine.run_episode(cfg, ["fu_feedback"], rng_stream(0, 0, "episode"))
        assert sum("reset" in r.message for r in caplog.records) == cfg.horizon

    def test_feedback_sharpens_on_average(self):
        # conditioning can raise entropy on individual draws; the guarantee
        # is in expectation, so compare means over randomized trials
        rng = np.random.default_rng(11)
        diffs_unobs, diffs_limited = [], []
        for trial in range(300):
            cfg = make_scenario(
                n=int(rng.integers(1, 5)), k=int(rng.integers(2, 7)), seed=trial
            )
            belief = init_belief(cfg)
            state = (rng.random(cfg.n_processes) < stationary_on_probs(cfg)).astype(
                np.uint8
            )
            for _ in range(3):
                state = step_processes(state, cfg, rng)
                acts = sample_activations(state, cfg, rng)
                grants = np.zeros(cfg.n_devices, dtype=np.uint8)
                grants[rng.permutation(cfg.n_devices)[: cfg.n_slots]] = 1
                fb = forward_update(belief, observe_feedback(acts), cfg)
                lim = forward_update(belief, observe_limited(grants, acts), cfg)
                blind = forward_update(belief, all_unobserved(cfg.n_devices), cfg)
                diffs_unobs.append(entropy(fb) - entropy(blind))
                diffs_limited.append(entropy(fb) - entropy(lim))
                belief = fb
        assert np.mean(diffs_unobs) < 0
        assert np.mean(diffs_limited) < 0


class TestMapState:
    def test_argmax_and_tie_break(self):
        cfg = make_scenario(n=2, k=4, seed=9)
        rows = [predict_activation_probs(state_bits(s, 2), cfg) for s in range(cfg.n_states)]

        def forecast_state(weights):
            forecast = device_forecast(BeliefState(np.array(weights)), cfg, "map_state")
            return int(np.argmin([np.abs(forecast - row).max() for row in rows]))

        assert forecast_state([0.1, 0.5, 0.3, 0.1]) == 1
        # equal maxima resolve to the lowest state index
        assert forecast_state([0.1, 0.3, 0.3, 0.3]) == 1
        assert forecast_state([0.3, 0.3, 0.3, 0.1]) == 0


class TestDeviceForecast:
    def test_map_state_mode(self):
        # the MAP state sets the lowest and the highest process bit, so it
        # reads both half-width tables once n >= 2; n=1 leaves the low half
        # empty and odd n splits the bits unequally
        for n in (1, 2, 3, 4, 7):
            cfg = make_scenario(n=n, k=4, seed=9)
            map_idx = 1 | (1 << (n - 1))
            weights = np.full(cfg.n_states, 0.5 / cfg.n_states)
            weights[map_idx] += 0.5
            np.testing.assert_allclose(
                device_forecast(BeliefState(weights), cfg, "map_state"),
                predict_activation_probs(state_bits(map_idx, n), cfg),
                rtol=0,
                atol=1e-12,
                err_msg=f"n={n}",
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_marginal_mode_weights_all_states(self, n):
        # n=1 leaves the low half of the process bits empty; odd n splits
        # them unequally
        cfg = make_scenario(n=n, k=4, seed=10)
        belief = forward_update(
            init_belief(cfg), np.array([1, -1, 0, -1], dtype=np.int8), cfg
        )
        expected = np.zeros(cfg.n_devices)
        for idx in range(cfg.n_states):
            expected += belief.weights[idx] * predict_activation_probs(
                state_bits(idx, cfg.n_processes), cfg
            )
        np.testing.assert_allclose(
            device_forecast(belief, cfg, "marginal"), expected, atol=1e-12
        )

    def test_marginal_mode_at_large_n_caches_half_width_tables(self):
        cfg = make_scenario(n=20, k=4, seed=11)
        states = [0, 5, 1 << 19, (1 << 20) - 1, 0x5A5A5]
        mass = [0.1, 0.2, 0.3, 0.15, 0.25]
        weights = np.zeros(cfg.n_states)
        weights[states] = mass
        expected = sum(
            m * predict_activation_probs(state_bits(s, cfg.n_processes), cfg)
            for s, m in zip(states, mass)
        )
        np.testing.assert_allclose(
            device_forecast(BeliefState(weights), cfg, "marginal"), expected, atol=1e-12
        )
        limit = 2 ** ((cfg.n_processes + 1) // 2) * cfg.n_devices
        cached = [a for v in cfg._cache.values() for a in (v if isinstance(v, tuple) else (v,))]
        assert cached and max(a.size for a in cached) <= limit

    def test_unknown_mode_rejected(self):
        cfg = make_scenario()
        with pytest.raises(ValueError, match="forecast mode"):
            device_forecast(init_belief(cfg), cfg, "bogus")


class TestEdgeValues:
    """Probabilities of exactly 0 and 1, which validation accepts."""

    def edge_config(self):
        # process 0 never turns Off, process 1 never turns On
        return ScenarioConfig(
            n_processes=3,
            n_devices=4,
            n_slots=2,
            horizon=6,
            eps0=[0.0, 0.3, 0.2],
            eps1=[0.4, 0.0, 0.5],
            q=[[0.0, 1.0, 0.5, 1.0], [1.0, 0.0, 0.3, 0.0], [0.5, 0.2, 0.0, 1.0]],
        )

    def test_filter_matches_path_enumeration(self):
        cfg = self.edge_config()
        rng = np.random.default_rng(12)
        state = (rng.random(cfg.n_processes) < stationary_on_probs(cfg)).astype(np.uint8)
        observations = []
        for _ in range(cfg.horizon):
            state = step_processes(state, cfg, rng)
            obs = sample_activations(state, cfg, rng).astype(np.int8)
            obs[rng.random(cfg.n_devices) < 0.5] = UNOBSERVED
            observations.append(obs)
        assert forward_filter_deviation(cfg, observations) <= 1e-9

    def test_predictor_matches_next_state_enumeration(self):
        cfg = self.edge_config()
        for idx in range(cfg.n_states):
            state = state_bits(idx, cfg.n_processes)
            closed = predict_activation_probs(state, cfg)
            for k in range(cfg.n_devices):
                assert abs(
                    closed[k] - predicted_activation_by_enumeration(state, k, cfg)
                ) <= 1e-12


class TestPredictorOracle:
    def test_forecast_off_by_1e9_is_caught(self, monkeypatch):
        assert predictor_deviation(3) <= 1e-12
        original = device_forecast

        def off_by_1e9(belief, config, mode="map_state"):
            return original(belief, config, mode) + 1e-9

        monkeypatch.setattr("fugrant.belief.device_forecast", off_by_1e9)
        assert predictor_deviation(3) > 1e-12


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy(BeliefState(np.array([0.0, 1.0]))) == pytest.approx(0.0)

    def test_uniform_is_log_n(self):
        b = BeliefState(np.full(8, 1 / 8))
        assert entropy(b) == pytest.approx(np.log(8))
