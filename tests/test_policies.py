"""Grant policy and random-access tests."""

import numpy as np
import pytest

from fugrant.belief import OBSERVED_ACTIVE, OBSERVED_SILENT, UNOBSERVED
from fugrant.model import predict_activation_probs, sample_scenario
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
            np.testing.assert_array_equal(
                genie_grant(state, cfg, 3, aoi),
                fu_grant(predict_activation_probs(state, cfg), 3, aoi),
            )


class TestRaAttempt:
    def test_occupancy_counts_attempts(self):
        acts = np.array([1, 1, 0, 1, 1], dtype=np.uint8)
        out = ra_attempt(acts, 3, np.random.default_rng(2))
        assert out.occupancy.sum() == acts.sum()
        assert out.occupancy.shape == (3,)

    def test_success_iff_sole_chooser(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            acts = (rng.random(8) < 0.6).astype(np.uint8)
            out = ra_attempt(acts, 3, rng)
            # successes only among active devices, and one per singleton slot
            assert np.all(out.success <= acts)
            singleton_slots = np.sum(out.occupancy == 1)
            assert out.success.sum() == singleton_slots

    def test_single_active_device_always_succeeds(self):
        acts = np.array([0, 1, 0], dtype=np.uint8)
        out = ra_attempt(acts, 4, np.random.default_rng(4))
        np.testing.assert_array_equal(out.success, [0, 1, 0])

    def test_no_active_devices(self):
        out = ra_attempt(np.zeros(3, dtype=np.uint8), 2, np.random.default_rng(5))
        assert out.success.sum() == 0 and out.occupancy.sum() == 0

    def test_guaranteed_collision(self):
        acts = np.array([1, 1], dtype=np.uint8)
        out = ra_attempt(acts, 1, np.random.default_rng(6))
        assert out.success.sum() == 0 and out.occupancy[0] == 2


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
