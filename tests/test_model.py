"""Scenario configuration, state encoding, and generative-model tests."""

import dataclasses
import json

import numpy as np
import pytest

from fugrant.model import (
    ConfigurationError,
    DegenerateChainError,
    ScenarioConfig,
    ScenarioTemplate,
    activation_probs,
    predict_activation_probs,
    rng_stream,
    sample_activations,
    sample_scenario,
    state_bits,
    state_index,
    stationary_on_probs,
    step_processes,
)


def make_config(**overrides):
    base = dict(
        n_processes=2,
        n_devices=3,
        n_slots=2,
        horizon=5,
        seed=7,
        eps0=[0.1, 0.2],
        eps1=[0.3, 0.4],
        q=[[0.5, 0.6, 0.7], [0.2, 0.3, 0.4]],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_valid_config_builds(self):
        cfg = make_config()
        assert cfg.n_states == 4

    def test_arrays_coerced_to_float64(self):
        cfg = make_config()
        assert cfg.eps0.dtype == np.float64
        assert cfg.q.shape == (2, 3)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_processes", 0),
            ("n_devices", 0),
            ("n_slots", 0),
            ("horizon", -1),
            ("seed", -1),
            ("seed", 1 << 64),
            ("seed", True),
        ],
    )
    def test_bad_scalars_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            make_config(**{field: value})

    def test_more_slots_than_devices_rejected(self):
        with pytest.raises(ConfigurationError, match="n_slots"):
            make_config(n_slots=4)

    def test_eps_wrong_length_names_array(self):
        with pytest.raises(ConfigurationError, match="eps0"):
            make_config(eps0=[0.1])

    def test_q_wrong_shape_names_array(self):
        with pytest.raises(ConfigurationError, match="q"):
            make_config(q=[[0.5, 0.6], [0.2, 0.3]])

    def test_out_of_range_entry_names_index(self):
        with pytest.raises(ConfigurationError, match=r"q\[1\]\[2\]"):
            make_config(q=[[0.5, 0.6, 0.7], [0.2, 0.3, 1.5]])
        with pytest.raises(ConfigurationError, match=r"eps1\[0\]"):
            make_config(eps1=[-0.3, 0.4])

    def test_dict_roundtrip(self):
        cfg = make_config()
        clone = ScenarioConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()

    def test_json_roundtrip(self):
        cfg = make_config()
        clone = ScenarioConfig.from_json(cfg.to_json())
        np.testing.assert_array_equal(clone.q, cfg.q)
        assert clone.seed == cfg.seed

    def test_from_dict_missing_key(self):
        payload = make_config().to_dict()
        del payload["eps1"]
        with pytest.raises(ConfigurationError, match="eps1"):
            ScenarioConfig.from_dict(payload)

    def test_from_dict_unknown_key(self):
        payload = make_config().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus"):
            ScenarioConfig.from_dict(payload)

    def test_replace_revalidates(self):
        cfg = make_config()
        assert cfg.replace(horizon=99).horizon == 99
        with pytest.raises(ConfigurationError):
            cfg.replace(n_slots=10)

    def test_json_is_plain_types(self):
        payload = json.loads(make_config().to_json())
        assert isinstance(payload["q"], list)
        assert isinstance(payload["q"][0][0], float)

    def test_cache_is_per_instance(self):
        cfg = make_config()
        built = []
        cfg.cached("x", lambda: built.append(1) or "v")
        cfg.cached("x", lambda: built.append(1) or "v")
        assert built == [1]
        assert "x" not in cfg.replace(horizon=6)._cache

    def test_arrays_are_read_only_copies(self):
        q = np.array([[0.5, 0.6, 0.7], [0.2, 0.3, 0.4]])
        cfg = make_config(q=q)
        q[0, 0] = 0.9  # the caller's array stays writable and detached
        assert cfg.q[0, 0] == 0.5
        for name in ("eps0", "eps1", "q"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 0.0

    def test_attributes_cannot_be_rebound(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.q = np.zeros((2, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon = 6


class TestStateEncoding:
    def test_roundtrip_all_states(self):
        for idx in range(16):
            assert state_index(state_bits(idx, 4)) == idx

    def test_bit_order_lsb_is_first_process(self):
        bits = state_bits(0b0101, 4)
        np.testing.assert_array_equal(bits, [1, 0, 1, 0])
        assert state_index(np.array([1, 0, 0, 0], dtype=np.uint8)) == 1


class TestStationary:
    def test_closed_form(self):
        cfg = make_config()
        np.testing.assert_allclose(
            stationary_on_probs(cfg), [0.3 / 0.4, 0.4 / 0.6]
        )

    def test_degenerate_chain_raises(self):
        cfg = make_config(eps0=[0.2, 0.0], eps1=[0.4, 0.0])
        with pytest.raises(DegenerateChainError, match="process 1 "):
            stationary_on_probs(cfg)

    def test_stationary_is_fixed_point(self):
        cfg = make_config()
        pi = stationary_on_probs(cfg)
        next_pi = pi * (1.0 - cfg.eps0) + (1.0 - pi) * cfg.eps1
        np.testing.assert_allclose(next_pi, pi)


class TestDynamics:
    def test_step_shape_and_dtype(self):
        cfg = make_config()
        state = np.array([1, 0], dtype=np.uint8)
        nxt = step_processes(state, cfg, np.random.default_rng(0))
        assert nxt.shape == (2,) and nxt.dtype == np.uint8

    def test_step_frequencies_match_transition_probs(self):
        cfg = make_config(eps0=[0.25, 0.0], eps1=[0.5, 1.0])
        rng = np.random.default_rng(1)
        on = np.array([1, 1], dtype=np.uint8)
        off = np.array([0, 0], dtype=np.uint8)
        stays_on = np.mean([step_processes(on, cfg, rng)[0] for _ in range(4000)])
        turns_on = np.mean([step_processes(off, cfg, rng)[0] for _ in range(4000)])
        assert stays_on == pytest.approx(0.75, abs=0.03)
        assert turns_on == pytest.approx(0.5, abs=0.03)

    def test_deterministic_chain(self):
        cfg = make_config(eps0=[1.0, 0.0], eps1=[1.0, 0.0])
        rng = np.random.default_rng(0)
        state = np.array([1, 1], dtype=np.uint8)
        nxt = step_processes(state, cfg, rng)
        # process 0 always flips, process 1 never moves
        assert nxt[0] == 0 and nxt[1] == 1


class TestActivation:
    def test_all_off_never_activates(self):
        cfg = make_config()
        np.testing.assert_array_equal(
            activation_probs(np.zeros(2, dtype=np.uint8), cfg), np.zeros(3)
        )

    def test_single_process_prob_is_q(self):
        cfg = make_config()
        probs = activation_probs(np.array([1, 0], dtype=np.uint8), cfg)
        np.testing.assert_allclose(probs, cfg.q[0])

    def test_noisy_or_two_processes(self):
        cfg = make_config()
        probs = activation_probs(np.array([1, 1], dtype=np.uint8), cfg)
        expected = 1.0 - (1.0 - cfg.q[0]) * (1.0 - cfg.q[1])
        np.testing.assert_allclose(probs, expected)

    def test_sample_extremes(self):
        cfg = make_config(q=[[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        acts = sample_activations(
            np.array([1, 0], dtype=np.uint8), cfg, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(acts, [1, 1, 0])


class TestPredictor:
    def test_matches_exhaustive_next_state_sum(self):
        cfg = make_config()
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = (rng.random(2) < 0.5).astype(np.uint8)
            expected = np.zeros(3)
            for nxt_idx in range(cfg.n_states):
                nxt = state_bits(nxt_idx, 2)
                p = 1.0
                for n in range(2):
                    if state[n]:
                        p *= (1.0 - cfg.eps0[n]) if nxt[n] else cfg.eps0[n]
                    else:
                        p *= cfg.eps1[n] if nxt[n] else (1.0 - cfg.eps1[n])
                expected += p * activation_probs(nxt, cfg)
            np.testing.assert_allclose(
                predict_activation_probs(state, cfg), expected, atol=1e-14
            )


class TestSampling:
    def test_sample_scenario_ranges(self):
        cfg = sample_scenario(4, 6, 3, 10, 0.5, np.random.default_rng(0), seed=3)
        assert cfg.seed == 3
        assert np.all(cfg.eps0 > 0) and np.all(cfg.eps0 <= 0.5)
        assert np.all(cfg.eps1 > 0) and np.all(cfg.eps1 <= 0.5)
        assert np.all(cfg.q >= 0) and np.all(cfg.q <= 1)

    def test_q_max_caps_activation_probs(self):
        cfg = sample_scenario(
            4, 6, 3, 10, 0.5, np.random.default_rng(0), q_max=0.3, seed=0
        )
        assert np.all(cfg.q <= 0.3)

    def test_bool_size_rejected(self):
        with pytest.raises(ConfigurationError, match="n_processes"):
            sample_scenario(True, 3, 1, 5, 0.5, np.random.default_rng(0))

    def test_template_sample_matches_function(self):
        tpl = ScenarioTemplate(
            n_processes=4, n_devices=6, n_slots=3, horizon=10, eps_max=0.5, q_max=0.8
        )
        a = tpl.sample(np.random.default_rng(9), seed=1)
        b = sample_scenario(
            4, 6, 3, 10, 0.5, np.random.default_rng(9), q_max=0.8, seed=1
        )
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.eps0, b.eps0)


class TestRngStream:
    def test_same_key_same_stream(self):
        a = rng_stream(1, 2, "episode").random(4)
        b = rng_stream(1, 2, "episode").random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = rng_stream(1, 2, "episode").random(4)
        assert not np.array_equal(base, rng_stream(1, 3, "episode").random(4))
        assert not np.array_equal(base, rng_stream(2, 2, "episode").random(4))
        assert not np.array_equal(base, rng_stream(1, 2, "scenario").random(4))
