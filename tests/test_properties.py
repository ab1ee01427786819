"""Property-based tests for the math core and metric identities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fugrant.belief import UNOBSERVED, _predict, forward_update, init_belief
from fugrant.metrics import MetricsAccumulator, average_usage, slot_report
from fugrant.model import (
    ScenarioConfig,
    sample_activations,
    sample_scenario,
    state_bits,
    state_index,
    stationary_on_probs,
    step_processes,
)
from fugrant.oracle import forward_filter_deviation, predictor_deviation, random_filtering_instance
from fugrant.policies import fu_grant

MAX_EXAMPLES = 30


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_filter_matches_path_enumeration(seed):
    cfg, observations = random_filtering_instance(seed, max_n=3, max_k=3, max_t=4)
    assert forward_filter_deviation(cfg, observations) < 1e-9


@st.composite
def edge_filtering_instances(draw):
    """Scenario with q entries of exactly 0 or 1 and one eps of 0, plus a
    trajectory's evidence with active, silent and unobserved devices."""
    n, k, steps = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)
    q = draw(st.lists(st.lists(prob, min_size=k, max_size=k), min_size=n, max_size=n))
    eps = draw(st.lists(st.floats(0.05, 0.95), min_size=2 * n, max_size=2 * n))
    eps[draw(st.integers(0, 2 * n - 1))] = 0.0
    config = ScenarioConfig(
        n_processes=n, n_devices=k, n_slots=1, horizon=steps,
        eps0=eps[:n], eps1=eps[n:], q=q,
    )
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    state = (rng.random(n) < stationary_on_probs(config)).astype(np.uint8)
    observations = []
    for _ in range(steps):
        state = step_processes(state, config, rng)
        obs = sample_activations(state, config, rng).astype(np.int8)
        obs[rng.random(k) < 1 / 3] = UNOBSERVED
        observations.append(obs)
    return config, observations


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(edge_filtering_instances())
def test_forward_filter_matches_path_enumeration_at_edge_values(instance):
    # log(0) terms must reach the weights as exact zeros, never as NaN
    assert forward_filter_deviation(*instance) <= 1e-9


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_predictor_matches_next_state_marginalization(seed):
    assert predictor_deviation(seed, max_n=6) < 1e-12


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
def test_predict_step_preserves_probability_mass(seed, n):
    cfg = sample_scenario(n, 2, 1, 5, 0.5, np.random.default_rng(seed), seed=0)
    w = np.random.default_rng(seed + 1).dirichlet(np.ones(cfg.n_states))
    out = _predict(w, cfg)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= -1e-15)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_update_stays_normalized(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    cfg = sample_scenario(n, k, max(1, k // 2), 5, 0.5, rng, seed=0)
    belief = init_belief(cfg)
    for _ in range(4):
        obs = rng.integers(-1, 2, size=k).astype(np.int8)
        belief = forward_update(belief, obs, cfg)
        assert abs(belief.weights.sum() - 1.0) < 1e-9
        assert np.all(belief.weights >= 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_regret_identities(k, seed):
    rng = np.random.default_rng(seed)
    acts = (rng.random(k) < rng.random()).astype(np.uint8)
    grants = (rng.random(k) < rng.random()).astype(np.uint8)
    rep = slot_report(acts, grants)
    assert rep.regret == min(rep.wrong, rep.missed)
    assert rep.wrong - rep.missed == int(grants.sum()) - int(acts.sum())
    assert rep.regret >= 0


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_usage_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    l = int(rng.integers(1, k + 1))
    acc = MetricsAccumulator(n_devices=k, n_slots=l)
    for _ in range(int(rng.integers(1, 30))):
        acts = (rng.random(k) < rng.random()).astype(np.uint8)
        grants = np.zeros(k, dtype=np.uint8)
        grants[rng.permutation(k)[:l]] = 1
        acc.advance(slot_report(acts, grants))
        assert 0.0 <= average_usage(acc) <= 1.0


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_fu_grant_selects_a_maximal_set(k, seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(1, k + 1))
    forecast = rng.random(k)
    grants = fu_grant(forecast, l, np.zeros(k))
    assert int(grants.sum()) == l
    if l < k:
        chosen_min = forecast[grants == 1].min()
        unchosen_max = forecast[grants == 0].max()
        assert chosen_min >= unchosen_max - 1e-12


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_config_dict_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    cfg = sample_scenario(n, k, max(1, k // 2), int(rng.integers(0, 50)), 0.5, rng, seed=seed)
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    np.testing.assert_array_equal(clone.q, cfg.q)
    np.testing.assert_array_equal(clone.eps0, cfg.eps0)
    np.testing.assert_array_equal(clone.eps1, cfg.eps1)
    assert clone.horizon == cfg.horizon


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_state_encoding_roundtrip(idx):
    assert state_index(state_bits(idx, 12)) == idx
