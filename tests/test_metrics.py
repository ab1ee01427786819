"""Regret, usage, and age-of-information metric tests."""

import numpy as np
import pytest

from fugrant.metrics import (
    MetricsAccumulator,
    average_age,
    average_usage,
    device_ages,
    peak_age,
    ra_report,
    slot_report,
)
from fugrant.policies import ra_attempt


def vec(k, ones):
    out = np.zeros(k, dtype=np.uint8)
    out[list(ones)] = 1
    return out


class TestSlotReport:
    def test_all_grants_hit_active_devices(self):
        # 12 active, 10 grants all to active devices: nothing wasted
        acts = vec(20, range(12))
        grants = vec(20, range(10))
        rep = slot_report(acts, grants)
        assert (rep.wrong, rep.missed, rep.regret) == (0, 2, 0)

    def test_nobody_active(self):
        # all 10 grants wasted, but nobody was left unserved
        rep = slot_report(vec(20, ()), vec(20, range(10)))
        assert (rep.wrong, rep.missed, rep.regret) == (10, 0, 0)

    def test_half_the_grants_misplaced(self):
        # 8 active, grants reach 4 of them: min(10-4, 8-4) = 4
        acts = vec(20, range(8))
        grants = vec(20, list(range(4)) + list(range(10, 16)))
        rep = slot_report(acts, grants)
        assert (rep.wrong, rep.missed, rep.regret) == (6, 4, 4)

    def test_served_mask(self):
        acts = vec(5, [0, 2, 4])
        grants = vec(5, [0, 1, 2])
        rep = slot_report(acts, grants)
        np.testing.assert_array_equal(rep.served, vec(5, [0, 2]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slot_report(vec(4, [0]), vec(5, [0]))

    def test_min_identity_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(1, 30))
            acts = (rng.random(k) < rng.random()).astype(np.uint8)
            grants = (rng.random(k) < rng.random()).astype(np.uint8)
            rep = slot_report(acts, grants)
            assert rep.regret == min(rep.wrong, rep.missed)
            assert rep.wrong - rep.missed == int(grants.sum()) - int(acts.sum())


class TestRaReport:
    def test_wasted_is_unfilled_slots(self):
        acts = vec(6, [0, 1, 2])
        outcome = ra_attempt(acts, 4, np.random.default_rng(1))
        rep = ra_report(acts, outcome, 4)
        succ = int(outcome.success.sum())
        assert rep.wrong == 4 - succ
        assert rep.missed == 3 - succ
        assert rep.regret == min(rep.wrong, rep.missed)
        np.testing.assert_array_equal(rep.served, outcome.success)

    def test_idle_network(self):
        acts = np.zeros(5, dtype=np.uint8)
        outcome = ra_attempt(acts, 3, np.random.default_rng(2))
        rep = ra_report(acts, outcome, 3)
        assert (rep.wrong, rep.missed, rep.regret) == (3, 0, 0)


class TestUsage:
    def test_starts_at_one(self):
        acc = MetricsAccumulator(n_devices=5, n_slots=2)
        assert average_usage(acc) == 1.0

    def test_counts_useful_grants(self):
        acc = MetricsAccumulator(n_devices=5, n_slots=2)
        acc.advance(slot_report(vec(5, [0, 1]), vec(5, [0, 1])))  # 2 useful
        acc.advance(slot_report(vec(5, ()), vec(5, [0, 1])))  # 0 useful
        assert average_usage(acc) == pytest.approx(2 / 4)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        acc = MetricsAccumulator(n_devices=8, n_slots=3)
        for _ in range(50):
            acts = (rng.random(8) < 0.5).astype(np.uint8)
            grants = vec(8, rng.permutation(8)[:3])
            acc.advance(slot_report(acts, grants))
            assert 0.0 <= average_usage(acc) <= 1.0


class TestAoi:
    def test_initial_ages_are_zero(self):
        acc = MetricsAccumulator(n_devices=4, n_slots=2)
        np.testing.assert_array_equal(device_ages(acc, 0), np.zeros(4))

    def test_age_grows_without_service(self):
        acc = MetricsAccumulator(n_devices=3, n_slots=1)
        for t in (1, 2, 3):
            acc.advance(slot_report(vec(3, ()), vec(3, [0])))
        np.testing.assert_array_equal(device_ages(acc, 3), [3, 3, 3])
        assert peak_age(acc, 3) == 3
        assert average_age(acc, 3) == pytest.approx(3.0)

    def test_service_resets_age(self):
        acc = MetricsAccumulator(n_devices=3, n_slots=1)
        acc.advance(slot_report(vec(3, [1]), vec(3, [1])))  # t=1 serves device 1
        acc.advance(slot_report(vec(3, ()), vec(3, [0])))  # t=2 serves nobody
        np.testing.assert_array_equal(device_ages(acc, 2), [2, 1, 2])

    def test_grant_without_activity_does_not_serve(self):
        acc = MetricsAccumulator(n_devices=2, n_slots=1)
        acc.advance(slot_report(vec(2, ()), vec(2, [0])))
        np.testing.assert_array_equal(device_ages(acc, 1), [1, 1])

    def test_exact_increment_reset_sequence(self):
        rng = np.random.default_rng(4)
        k = 6
        acc = MetricsAccumulator(n_devices=k, n_slots=2)
        last = np.zeros(k, dtype=np.int64)
        for t in range(1, 40):
            acts = (rng.random(k) < 0.5).astype(np.uint8)
            grants = vec(k, rng.permutation(k)[:2])
            rep = slot_report(acts, grants)
            acc.advance(rep)
            last[rep.served == 1] = t
            np.testing.assert_array_equal(device_ages(acc, t), t - last)
            assert peak_age(acc, t) == (t - last).max()
            assert average_age(acc, t) == pytest.approx((t - last).mean())


class TestAccumulator:
    def test_advance_updates_everything(self):
        acc = MetricsAccumulator(n_devices=4, n_slots=2)
        acc.advance(slot_report(vec(4, [0, 1]), vec(4, [0, 2])))
        assert acc.t == 1
        assert acc.cum_regret == 1  # wrong=1, missed=1
        assert acc.cum_used_slots == 1
        np.testing.assert_array_equal(acc.last_served, [1, 0, 0, 0])
