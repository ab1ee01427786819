"""Property-based tests for the math core and metric identities."""

import dataclasses
import hashlib
from collections import OrderedDict
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fugrant.belief import (
    OBSERVED_ACTIVE,
    OBSERVED_SILENT,
    UNOBSERVED,
    _LOG_FLOOR,
    BeliefState,
    _block_log_evidence,
    _evidence_halves,
    _log_active,
    _log_evidence,
    _predict,
    device_forecast,
    forward_update,
    init_belief,
    prefetch_evidence,
    state_forecast,
)
from fugrant.engine import _BLOCK_ENTRIES, run_episode
from fugrant.metrics import (
    MetricsAccumulator,
    average_age,
    average_usage,
    device_ages,
    peak_age,
    slot_report,
)
from fugrant.model import (
    ScenarioConfig,
    rng_stream,
    sample_activations,
    sample_scenario,
    state_bits,
    state_index,
    stationary_on_probs,
    step_processes,
)
from fugrant.oracle import (
    forward_filter_gaps,
    predicted_activation_by_enumeration,
    predictor_deviation,
    random_filtering_instance,
)
from fugrant.policies import fu_grant

MAX_EXAMPLES = 30


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_filter_matches_path_enumeration(seed):
    cfg, observations = random_filtering_instance(seed, max_n=3, max_k=3, max_t=4)
    assert max(forward_filter_gaps(cfg, observations)) < 1e-9


@st.composite
def edge_filtering_instances(draw, hidden=1 / 3):
    """Scenario with q entries of exactly 0 or 1 and one eps of 0, plus a
    trajectory's evidence with active, silent and, each with probability
    `hidden`, unobserved devices."""
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
        obs[rng.random(k) < hidden] = UNOBSERVED
        observations.append(obs)
    return config, observations


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(edge_filtering_instances())
def test_forward_filter_matches_path_enumeration_at_edge_values(instance):
    # log(0) terms must reach the weights as exact zeros, never as NaN
    assert max(forward_filter_gaps(*instance)) <= 1e-9


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.integers(0, 10_000).map(lambda seed: random_filtering_instance(seed, 3, 3, 4, hidden=0.0))
    | edge_filtering_instances(hidden=0.0)
)
def test_full_feedback_through_the_block_fill_matches_path_enumeration(instance):
    # every device observed: each slot's evidence comes from prefetch_evidence's
    # block, as fu_feedback's does in the engine, and never from the per-slot path
    with mock.patch("fugrant.belief._log_evidence", side_effect=AssertionError("per-slot")):
        assert max(forward_filter_gaps(*instance)) <= 1e-9


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(20_000, 30_000), st.sampled_from([0.5, 0.0]))
def test_large_k_filter_matches_path_enumeration(seed, hidden):
    # up to 200 devices, censored or fully observed (then every slot goes
    # through prefetch_evidence's block); seeds apart from the small family's
    config, observations = random_filtering_instance(seed, 3, 200, 4, hidden=hidden)
    assert max(forward_filter_gaps(config, observations)) <= 1e-9


@st.composite
def edge_scenarios(draw, moving=False, max_n=4, max_k=5):
    """Scenario whose eps0, eps1 and q entries are each exactly 0, exactly 1
    or interior. With `moving`, no process has eps0 = eps1 = 0, so the
    stationary start of an episode exists."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, max_k))
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)
    eps0 = draw(st.lists(prob, min_size=n, max_size=n))
    eps1 = [draw(prob.filter(bool) if moving and not e0 else prob) for e0 in eps0]
    q = draw(st.lists(st.lists(prob, min_size=k, max_size=k), min_size=n, max_size=n))
    return ScenarioConfig(
        n_processes=n, n_devices=k, n_slots=1, horizon=0, eps0=eps0, eps1=eps1, q=q
    )


@st.composite
def evidence_slots(draw):
    """A scenario of up to 6 processes and 12 devices with edge q entries,
    and one slot's observation: 0..K active devices, each other one silent
    or unobserved."""
    config = draw(edge_scenarios(max_n=6, max_k=12))
    k = config.n_devices
    order = draw(st.permutations(range(k)))
    m = draw(st.integers(0, k))
    obs = np.empty(k, dtype=np.int8)
    obs[order[:m]] = OBSERVED_ACTIVE
    obs[order[m:]] = draw(st.lists(
        st.sampled_from([OBSERVED_SILENT, UNOBSERVED]), min_size=k - m, max_size=k - m
    ))
    return config, obs


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(evidence_slots())
def test_evidence_paths_agree(slot):
    # the active rows summed in index order at every density, then the
    # silent term added in place, high half before low half: bit for bit the
    # per-device path above the table cap. A GEMV over the table stays
    # within 1e-12 of the row sums, floors included. Both terms are always
    # added here, so an empty term skipped must change no bit.
    config, obs = slot
    active, silent = obs == OBSERVED_ACTIVE, obs == OBSERVED_SILENT
    le = _log_evidence(obs, config)
    if not (active.any() or silent.any()):
        assert le is None
        return
    low, high = _evidence_halves(config)
    s = silent.astype(float)
    table = _log_active(config, slice(None))
    row_sums = np.zeros(config.n_states)
    for k in np.flatnonzero(active):
        row_sums += table[k]
    grid = row_sums.reshape(len(high), len(low))
    grid += (s @ high.T)[:, None]
    grid += s @ low.T
    np.testing.assert_array_equal(le, row_sums)
    gemv = active.astype(float) @ table + ((high @ s)[:, None] + low @ s).reshape(-1)
    np.testing.assert_allclose(gemv, row_sums, rtol=1e-12, atol=1e-12)
    with mock.patch("fugrant.belief._TABLE_MAX_ENTRIES", 0):
        uncached = _log_evidence(obs, dataclasses.replace(config))
    np.testing.assert_array_equal(uncached, row_sums)

    # a block of fully observed rows (this slot with its unobserved devices
    # silent, and every device active): each row within 1e-12 of its per-slot
    # evidence, floors included, and a row at the floor in every state never stored
    rows = np.array([np.where(obs == UNOBSERVED, OBSERVED_SILENT, obs), np.ones_like(obs)])
    per_slot = [_log_evidence(row, config) for row in rows]
    for block_row, slot_row in zip(_block_log_evidence(rows, config), per_slot):
        np.testing.assert_allclose(block_row, slot_row, rtol=1e-12, atol=1e-12)
    assert prefetch_evidence(rows, config) == len(rows)
    memo = config.cached("belief.evidence_memo", OrderedDict)
    for row, slot_row in zip(rows, per_slot):
        assert (row.tobytes() in memo) == (slot_row.max() > _LOG_FLOOR)


def slot_by_slot(state, config, uniforms):
    """Each slot's states and then activity, drawn one slot at a time: row t
    of `uniforms` holds slot t's N transition and then K activity uniforms."""
    n, rows = config.n_processes, []
    for u in uniforms:
        on = state.astype(bool)
        state = np.where(on, u[:n] >= config.eps0, u[:n] < config.eps1).astype(np.uint8)
        p = 1.0 - np.prod(1.0 - config.q[state.astype(bool)], axis=0)
        rows.append(np.concatenate([state, (u[n:] < p).astype(np.uint8)]))
    return np.array(rows)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(edge_scenarios(), st.integers(1, 40), st.integers(0, 10_000))
def test_block_draw_equals_the_slot_by_slot_chain(config, slots, seed):
    rng = np.random.default_rng(seed)
    n = config.n_processes
    start = (rng.random(n) < 0.5).astype(np.uint8)
    u = rng.random((slots, n + config.n_devices))
    u[rng.random(u.shape) < 0.2] = 0.0  # exact zeros meet eps and q of 0
    expected = slot_by_slot(start, config, u)
    states = step_processes(start, config, u[:, :n])
    np.testing.assert_array_equal(states, expected[:, :n])
    np.testing.assert_array_equal(sample_activations(states, config, u[:, n:]), expected[:, n:])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(edge_scenarios(moving=True), st.sampled_from([0, 1, 2]), st.integers(0, 10_000))
def test_episode_truth_is_the_slot_by_slot_chain_across_chunks(config, case, seed):
    # horizons 1, one draw chunk, and one chunk plus a slot
    n, k = config.n_processes, config.n_devices
    chunk = _BLOCK_ENTRIES // (n + k)
    config = dataclasses.replace(config, horizon=(1, chunk, chunk + 1)[case])
    truth_rng = rng_stream(seed, 0, "episode").spawn(2)[0]
    start = (truth_rng.random(n) < stationary_on_probs(config)).astype(np.uint8)
    uniforms = [
        np.concatenate([truth_rng.random(n), truth_rng.random(k)]) for _ in range(config.horizon)
    ]
    expected = slot_by_slot(start, config, uniforms)
    res = run_episode(config, ["tdd"], rng_stream(seed, 0, "episode"))
    assert res.trajectory_fingerprint == hashlib.sha256(expected.tobytes()).hexdigest()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_predictor_matches_next_state_marginalization(seed):
    assert predictor_deviation(seed, max_n=6) < 1e-12


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(edge_scenarios(moving=True), st.integers(0, 10_000))
def test_predictor_matches_next_state_enumeration_at_edge_values(config, seed):
    # the three forecasts the policies run: the genie's at a state, map_state
    # at a point mass on it, and marginal at a random belief
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 2, size=config.n_processes).astype(np.uint8)
    point_mass = np.zeros(config.n_states)
    point_mass[state_index(state)] = 1.0
    weights = rng.random(config.n_states)
    weights /= weights.sum()
    for forecast, belief_weights in (
        (state_forecast(state, config), point_mass),
        (device_forecast(BeliefState(point_mass), config, "map_state"), point_mass),
        (device_forecast(BeliefState(weights), config, "marginal"), weights),
    ):
        for k in range(config.n_devices):
            brute = predicted_activation_by_enumeration(belief_weights, k, config)
            assert abs(forecast[k] - brute) <= 1e-12


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
        acc.advance(slot_report(acts[None], grants[None]))
        assert 0.0 <= average_usage(acc)[0] <= 1.0


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_any_split_into_blocks_gives_the_one_block_series(sizes, k, seed):
    # the accumulator carries its clock, sums and stamps across every
    # boundary, so the five series do not depend on where blocks end
    rng = np.random.default_rng(seed)
    horizon, l = sum(sizes), int(rng.integers(1, k + 1))
    acts = (rng.random((horizon, k)) < rng.random()).astype(np.uint8)
    grants = np.zeros((horizon, k), dtype=np.uint8)
    for row in grants:
        row[rng.permutation(k)[:l]] = 1

    def series(bounds):
        acc = MetricsAccumulator(n_devices=k, n_slots=l)
        parts = []
        for start, stop in zip(bounds, bounds[1:]):
            rep = slot_report(acts[start:stop], grants[start:stop])
            acc.advance(rep)
            ages = device_ages(acc)
            parts.append(
                (rep.regret, acc.cum_regret, average_usage(acc), average_age(ages), peak_age(ages))
            )
        return [np.concatenate(values) for values in zip(*parts)]

    for split, whole in zip(series(np.cumsum([0, *sizes])), series([0, horizon])):
        assert split.dtype == whole.dtype
        assert split.tobytes() == whole.tobytes()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_fu_grant_selects_a_maximal_set(k, seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(1, k + 1))
    forecast = rng.random(k)
    grants, _ = fu_grant(forecast, l, np.zeros(k))
    assert int(grants.sum()) == l
    if l < k:
        chosen_min = forecast[grants == 1].min()
        unchosen_max = forecast[grants == 0].max()
        assert chosen_min >= unchosen_max - 1e-12


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=1, max_size=12),
    st.data(),
)
def test_fu_grant_breaks_ties_by_age_then_index(forecast, data):
    # few distinct forecasts and ages, so most grants are decided by a tie
    k = len(forecast)
    aoi = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=np.uint64)
    l = data.draw(st.integers(1, k))
    ranked = sorted(range(k), key=lambda d: (-forecast[d], -int(aoi[d]), d))
    expected = np.zeros(k, dtype=np.uint8)
    expected[ranked[:l]] = 1
    grants, decided = fu_grant(np.array(forecast), l, aoi)
    np.testing.assert_array_equal(grants, expected)
    # ages decide only when the l-th and (l+1)-th ranked forecasts tie
    assert decided == (l == k or forecast[ranked[l - 1]] != forecast[ranked[l]])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_config_json_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    cfg = sample_scenario(n, k, max(1, k // 2), int(rng.integers(0, 50)), 0.5, rng, seed=seed)
    clone = ScenarioConfig.from_json(cfg.to_json())
    np.testing.assert_array_equal(clone.q, cfg.q)
    np.testing.assert_array_equal(clone.eps0, cfg.eps0)
    np.testing.assert_array_equal(clone.eps1, cfg.eps1)
    assert clone.horizon == cfg.horizon


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_state_encoding_roundtrip(idx):
    assert state_index(state_bits(idx, 12)) == idx
