"""Grant policy and random-access tests."""

import copy

import numpy as np
import pytest
from closed_form import predict_activation_probs

from fugrant.belief import (
    OBSERVED_ACTIVE,
    OBSERVED_SILENT,
    UNOBSERVED,
    MAX_PROCESSES,
    BeliefState,
    device_forecast,
    state_forecast,
)
from fugrant.engine import run_episode
from fugrant.model import sample_scenario, state_index
from fugrant.oracle import predicted_activation_by_enumeration
from fugrant.policies import (
    POLICIES,
    fu_grant,
    genie_grant,
    observe_feedback,
    observe_limited,
    ra_attempt,
    tdd_grant,
)


class TestFuGrant:
    def test_exactly_l_grants(self):
        forecast = np.linspace(0, 1, 12)
        grants = fu_grant(forecast, 5, np.zeros(12))
        assert grants.sum() == 5 and grants.dtype == np.uint8

    def test_picks_top_forecast(self):
        forecast = np.array([0.1, 0.9, 0.4, 0.8, 0.2])
        np.testing.assert_array_equal(fu_grant(forecast, 2, np.zeros(5)), [0, 1, 0, 1, 0])

    def test_tie_breaks_by_age_then_index(self):
        forecast = np.array([0.5, 0.5, 0.5, 0.5])
        aoi = np.array([2, 7, 7, 1])
        # oldest first among equal forecasts; equal ages go to lower index
        np.testing.assert_array_equal(fu_grant(forecast, 2, aoi), [0, 1, 1, 0])
        np.testing.assert_array_equal(fu_grant(forecast, 2, np.zeros(4)), [1, 1, 0, 0])

    def test_forecast_dominates_age(self):
        forecast = np.array([0.9, 0.1])
        aoi = np.array([0, 1000])
        np.testing.assert_array_equal(fu_grant(forecast, 1, aoi), [1, 0])

    def test_l_equals_k_grants_everyone(self):
        grants = fu_grant(np.zeros(4), 4, np.zeros(4))
        np.testing.assert_array_equal(grants, [1, 1, 1, 1])


class TestTddGrant:
    def test_cycles_through_all_devices(self):
        k, l = 10, 3
        seen = np.zeros(k, dtype=int)
        for t in range(k):  # l*k grants cover each device l times
            seen += tdd_grant(t, k, l)
        np.testing.assert_array_equal(seen, np.full(k, l))

    def test_fixed_window_per_slot(self):
        np.testing.assert_array_equal(
            np.nonzero(tdd_grant(0, 10, 3))[0], [0, 1, 2]
        )
        np.testing.assert_array_equal(
            np.nonzero(tdd_grant(1, 10, 3))[0], [3, 4, 5]
        )

    def test_wraps_around(self):
        grants = tdd_grant(3, 10, 3)  # slots 9, 0, 1
        np.testing.assert_array_equal(np.nonzero(grants)[0], [0, 1, 9])

    @pytest.mark.parametrize("slots", [np.arange(13), np.array([11, 0, 4, 12])])
    def test_slot_vector_gives_one_row_per_slot(self, slots):
        grants = tdd_grant(slots, 7, 3)
        assert grants.shape == (slots.size, 7) and grants.dtype == np.uint8
        np.testing.assert_array_equal(grants, [tdd_grant(int(t), 7, 3) for t in slots])

    def test_exactly_l_when_k_at_least_l(self):
        for t in range(7):
            assert tdd_grant(t, 7, 3).sum() == 3


class TestGenieGrant:
    def test_equals_fu_on_true_state_forecast(self):
        cfg = sample_scenario(4, 8, 3, 10, 0.5, np.random.default_rng(0), seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            state = (rng.random(4) < 0.5).astype(np.uint8)
            aoi = rng.integers(0, 20, size=8)
            point_mass = np.eye(cfg.n_states)[state_index(state)]
            forecast = [predicted_activation_by_enumeration(point_mass, k, cfg) for k in range(8)]
            np.testing.assert_array_equal(
                genie_grant(state, cfg, 3, aoi), fu_grant(np.array(forecast), 3, aoi)
            )

    def test_equals_map_state_forecast_of_point_mass(self):
        # the map_state row of the tables is the genie's predictor, bit for bit
        cfg = sample_scenario(5, 9, 4, 10, 0.5, np.random.default_rng(2), seed=0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = (rng.random(5) < 0.5).astype(np.uint8)
            aoi = rng.integers(0, 3, size=9)
            point_mass = np.zeros(cfg.n_states)
            point_mass[state_index(state)] = 1.0
            forecast = device_forecast(BeliefState(point_mass), cfg, "map_state")
            np.testing.assert_array_equal(state_forecast(state, cfg), forecast)
            np.testing.assert_array_equal(
                genie_grant(state, cfg, 4, aoi), fu_grant(forecast, 4, aoi)
            )

    def test_runs_beyond_the_tracking_limit_without_state_tables(self, monkeypatch):
        # the genie holds no 2^N-sized table and no integer state index, so
        # it runs past MAX_PROCESSES and past 64 processes
        def no_tables(config):
            raise AssertionError("the genie built a state table")

        monkeypatch.setattr("fugrant.belief._forecast_halves", no_tables)
        cfg = sample_scenario(70, 30, 5, 2, 0.5, np.random.default_rng(4), seed=0)
        assert cfg.n_processes > MAX_PROCESSES
        result = run_episode(cfg, ["genie"], np.random.default_rng(5))
        assert result.series["genie"]["usage_avg"].shape == (2,)
        state = (np.random.default_rng(6).random(70) < 0.5).astype(np.uint8)
        np.testing.assert_allclose(
            state_forecast(state, cfg), predict_activation_probs(state, cfg), atol=1e-14
        )


def sole_choosers(acts, n_slots, rng):
    """The active devices alone in their slot, with the slot choices that
    `ra_attempt` draws from `rng`, checked pair by pair."""
    active = np.flatnonzero(acts)
    choices = rng.integers(0, n_slots, size=active.size)
    expected = np.zeros(acts.size, dtype=np.uint8)
    for device, choice in zip(active, choices):
        expected[device] = np.count_nonzero(choices == choice) == 1
    return expected


class TestRaAttempt:
    def test_one_slot_draw_per_active_device(self):
        acts = np.array([1, 1, 0, 1, 1], dtype=np.uint8)
        rng = np.random.default_rng(2)
        twin = copy.deepcopy(rng)
        success = ra_attempt(acts, 3, rng)
        assert success.shape == (5,) and success.dtype == np.uint8
        twin.integers(0, 3, size=4)
        assert rng.random() == twin.random()

    def test_success_iff_sole_chooser(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            acts = (rng.random(8) < 0.6).astype(np.uint8)
            expected = sole_choosers(acts, 3, copy.deepcopy(rng))
            np.testing.assert_array_equal(ra_attempt(acts, 3, rng), expected)

    def test_single_active_device_always_succeeds(self):
        acts = np.array([0, 1, 0], dtype=np.uint8)
        success = ra_attempt(acts, 4, np.random.default_rng(4))
        np.testing.assert_array_equal(success, [0, 1, 0])

    def test_no_active_devices(self):
        success = ra_attempt(np.zeros(3, dtype=np.uint8), 2, np.random.default_rng(5))
        np.testing.assert_array_equal(success, [0, 0, 0])

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    @pytest.mark.parametrize("n_slots", [1, 3])
    def test_block_equals_one_slot_calls(self, n_rows, n_slots):
        # one draw over the block's active devices, row by row, consumes the
        # stream exactly as one call per slot does; rows 1, 4 and 7 are silent
        acts = (np.random.default_rng(7).random((n_rows, 8)) < 0.6).astype(np.uint8)
        acts[1::3] = 0
        block_rng, slot_rng = np.random.default_rng(8), np.random.default_rng(8)
        success = ra_attempt(acts, n_slots, block_rng)
        assert success.shape == acts.shape and success.dtype == np.uint8
        one_slot_calls = [ra_attempt(row, n_slots, slot_rng) for row in acts]
        np.testing.assert_array_equal(success, one_slot_calls)
        assert block_rng.random() == slot_rng.random()

    def test_guaranteed_collision(self):
        acts = np.array([1, 1], dtype=np.uint8)
        success = ra_attempt(acts, 1, np.random.default_rng(6))
        np.testing.assert_array_equal(success, [0, 0])


class TestObservations:
    def test_limited_reveals_granted_only(self):
        grants = np.array([1, 0, 1, 0], dtype=np.uint8)
        acts = np.array([1, 1, 0, 0], dtype=np.uint8)
        obs = observe_limited(grants, acts)
        assert obs.dtype == np.int8
        np.testing.assert_array_equal(
            obs, [OBSERVED_ACTIVE, UNOBSERVED, OBSERVED_SILENT, UNOBSERVED]
        )

    def test_feedback_reveals_everything(self):
        acts = np.array([1, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(
            observe_feedback(acts),
            [OBSERVED_ACTIVE, OBSERVED_SILENT, OBSERVED_ACTIVE],
        )

    def test_all_zero_and_all_one(self):
        np.testing.assert_array_equal(
            observe_feedback(np.zeros(3, dtype=np.uint8)),
            np.full(3, OBSERVED_SILENT),
        )
        np.testing.assert_array_equal(
            observe_feedback(np.ones(3, dtype=np.uint8)),
            np.full(3, OBSERVED_ACTIVE),
        )


class TestPolicyRegistry:
    def test_stable_identifiers(self):
        assert POLICIES == ("ra", "tdd", "fu_limited", "fu_feedback", "genie")


@pytest.mark.parametrize("maker", ["fu", "tdd", "genie"])
def test_grant_popcount_never_exceeds_l(maker):
    cfg = sample_scenario(3, 9, 4, 10, 0.5, np.random.default_rng(7), seed=0)
    rng = np.random.default_rng(8)
    for t in range(30):
        if maker == "fu":
            grants = fu_grant(rng.random(9), 4, rng.integers(0, 9, size=9))
        elif maker == "tdd":
            grants = tdd_grant(t, 9, 4)
        else:
            state = (rng.random(3) < 0.5).astype(np.uint8)
            grants = genie_grant(state, cfg, 4, np.zeros(9))
        assert grants.sum() == 4  # exactly L when K >= L
