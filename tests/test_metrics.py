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
        success = ra_attempt(acts, 4, np.random.default_rng(1))
        rep = ra_report(acts, success, 4)
        succ = int(success.sum())
        assert rep.wrong == 4 - succ
        assert rep.missed == 3 - succ
        assert rep.regret == min(rep.wrong, rep.missed)
        np.testing.assert_array_equal(rep.served, success)

    def test_idle_network(self):
        acts = np.zeros(5, dtype=np.uint8)
        success = ra_attempt(acts, 3, np.random.default_rng(2))
        rep = ra_report(acts, success, 3)
        assert (rep.wrong, rep.missed, rep.regret) == (3, 0, 0)


def fold(acc, acts, grants):
    """Fold one slot into the accumulator as a 1-row block."""
    acc.advance(slot_report(acts[None], grants[None]))


class TestUsage:
    def test_counts_useful_grants(self):
        acc = MetricsAccumulator(n_devices=5, n_slots=2)
        fold(acc, vec(5, [0, 1]), vec(5, [0, 1]))  # 2 useful
        fold(acc, vec(5, ()), vec(5, [0, 1]))  # 0 useful
        np.testing.assert_array_equal(average_usage(acc), [2 / 4])

    def test_bounded(self):
        rng = np.random.default_rng(3)
        acc = MetricsAccumulator(n_devices=8, n_slots=3)
        for _ in range(50):
            acts = (rng.random(8) < 0.5).astype(np.uint8)
            grants = vec(8, rng.permutation(8)[:3])
            fold(acc, acts, grants)
            assert 0.0 <= average_usage(acc)[0] <= 1.0


class TestAoi:
    def test_initial_ages_are_zero(self):
        acc = MetricsAccumulator(n_devices=4, n_slots=2)
        np.testing.assert_array_equal(device_ages(acc), np.zeros((1, 4)))

    def test_age_grows_without_service(self):
        acc = MetricsAccumulator(n_devices=3, n_slots=1)
        for t in (1, 2, 3):
            fold(acc, vec(3, ()), vec(3, [0]))
        np.testing.assert_array_equal(device_ages(acc), [[3, 3, 3]])
        np.testing.assert_array_equal(peak_age(acc), [3])
        np.testing.assert_array_equal(average_age(acc), [3.0])

    def test_service_resets_age(self):
        acc = MetricsAccumulator(n_devices=3, n_slots=1)
        fold(acc, vec(3, [1]), vec(3, [1]))  # t=1 serves device 1
        fold(acc, vec(3, ()), vec(3, [0]))  # t=2 serves nobody
        np.testing.assert_array_equal(device_ages(acc), [[2, 1, 2]])

    def test_grant_without_activity_does_not_serve(self):
        acc = MetricsAccumulator(n_devices=2, n_slots=1)
        fold(acc, vec(2, ()), vec(2, [0]))
        np.testing.assert_array_equal(device_ages(acc), [[1, 1]])

    def test_exact_increment_reset_sequence(self):
        rng = np.random.default_rng(4)
        k = 6
        acc = MetricsAccumulator(n_devices=k, n_slots=2)
        last = np.zeros(k, dtype=np.int64)
        for t in range(1, 40):
            acts = (rng.random(k) < 0.5).astype(np.uint8)
            grants = vec(k, rng.permutation(k)[:2])
            fold(acc, acts, grants)
            last[(acts & grants) == 1] = t
            np.testing.assert_array_equal(device_ages(acc), [t - last])
            np.testing.assert_array_equal(peak_age(acc), [(t - last).max()])
            assert average_age(acc)[0] == pytest.approx((t - last).mean())


class TestAccumulator:
    def test_advance_updates_everything(self):
        acc = MetricsAccumulator(n_devices=4, n_slots=2)
        fold(acc, vec(4, [0, 1]), vec(4, [0, 2]))
        np.testing.assert_array_equal(acc.t, [1])
        np.testing.assert_array_equal(acc.cum_regret, [1])  # wrong=1, missed=1
        np.testing.assert_array_equal(acc.cum_used_slots, [1])
        np.testing.assert_array_equal(acc.last_served, [[1, 0, 0, 0]])


def fold_series(acts, grants, block):
    """Per-slot series from folding the slots `block` at a time."""
    acc = MetricsAccumulator(n_devices=acts.shape[1], n_slots=2)
    out = {name: [] for name in ("regret", "cum", "usage", "avg", "peak", "ages")}
    for start in range(0, acts.shape[0], block):
        rows = slice(start, start + block)
        rep = slot_report(acts[rows], grants[rows])
        acc.advance(rep)
        for name, value in (
            ("regret", rep.regret),
            ("cum", acc.cum_regret),
            ("usage", average_usage(acc)),
            ("avg", average_age(acc)),
            ("peak", peak_age(acc)),
            ("ages", device_ages(acc)),
        ):
            out[name].append(value)
    return {name: np.concatenate(parts) for name, parts in out.items()}


def series_by_hand(acts, grants):
    """The same series scored slot by slot with plain numpy, as a reference."""
    k = acts.shape[1]
    out = {name: [] for name in ("regret", "cum", "usage", "avg", "peak", "ages")}
    cum, used, last = 0, 0, np.zeros(k, dtype=np.int64)
    for t in range(1, acts.shape[0] + 1):
        served = acts[t - 1] & grants[t - 1]
        wrong = int(grants[t - 1].sum()) - int(served.sum())
        regret = min(wrong, int(acts[t - 1].sum()) - int(served.sum()))
        cum, used = cum + regret, used + 2 - wrong
        last[served == 1] = t
        ages = t - last
        for name, value in (
            ("regret", regret),
            ("cum", cum),
            ("usage", used / (t * 2)),
            ("avg", ages.mean()),
            ("peak", ages.max()),
            ("ages", ages),
        ):
            out[name].append(value)
    return {name: np.array(values) for name, values in out.items()}


class TestBlockFold:
    def test_blocks_of_any_size_give_the_per_slot_series(self):
        # device 0 is served in slot 7, the last of the first 7-slot block,
        # and then not again for a block, so its age must carry over
        rng = np.random.default_rng(5)
        t, k = 40, 6
        acts = (rng.random((t, k)) < 0.5).astype(np.uint8)
        grants = np.zeros((t, k), dtype=np.uint8)
        for row in grants:
            row[rng.permutation(k)[:2]] = 1
        acts[6, 0] = grants[6, 0] = 1
        grants[7:14, 0] = 0
        reference = series_by_hand(acts, grants)
        assert reference["ages"][13, 0] == 7
        for block in (1, 7, t):
            series = fold_series(acts, grants, block)
            for name, values in reference.items():
                assert series[name].dtype == values.dtype, name
                np.testing.assert_array_equal(series[name], values, err_msg=f"{block} {name}")

    def test_block_report_counts_each_slot(self):
        acts = np.array([vec(5, [0, 1]), vec(5, ()), vec(5, [0, 1, 2, 3])])
        grants = np.array([vec(5, [0, 2]), vec(5, [0, 1]), vec(5, [4])])
        rep = slot_report(acts, grants)
        np.testing.assert_array_equal(rep.wrong, [1, 2, 1])
        np.testing.assert_array_equal(rep.missed, [1, 0, 4])
        np.testing.assert_array_equal(rep.regret, [1, 0, 1])
        np.testing.assert_array_equal(rep.served, acts & grants)
