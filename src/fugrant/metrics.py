"""Per-slot and cumulative performance measures.

Regret counts missed reallocation opportunities: with wrong = grants given
to silent devices and missed = active devices left without a grant, the
per-slot regret is min(wrong, missed). Usage is the running fraction of
grant slots actually consumed by a transmission. Age of information is the
slots elapsed since each device last transmitted successfully.

Every helper scores a block of C consecutive slots with a leading slot axis,
one value per slot: the reports take (C, K) arrays or one (K,) slot, and
the age readers the block's (C, K) `device_ages`. How slots are split into
blocks changes no bit: all counts are exact integers and each average is
one division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SlotReport:
    """Outcome of one slot, or of a block of slots, for one policy;
    served[..., k] is 1 iff device k transmitted successfully in that slot."""

    wrong: np.ndarray
    missed: np.ndarray
    regret: np.ndarray
    served: np.ndarray


def _report(served: np.ndarray, offered: int | np.ndarray, activations: np.ndarray) -> SlotReport:
    """Score slots that offered `offered` transmission slots each and served
    the devices in `served`: every offered slot not used is wrong, every
    active device not served is missed."""
    n_served = np.count_nonzero(served, axis=-1)
    wrong = offered - n_served
    missed = np.count_nonzero(activations, axis=-1) - n_served
    return SlotReport(wrong=wrong, missed=missed, regret=np.minimum(wrong, missed), served=served)


def slot_report(activations: np.ndarray, grants: np.ndarray) -> SlotReport:
    """Score a grant-based policy against the true activity, both 0/1 of
    shape (K,) or (C, K); each grant is one offered slot."""
    if activations.shape != grants.shape:
        raise ValueError(
            f"activation and grant vectors differ in length: "
            f"{activations.shape} vs {grants.shape}"
        )
    return _report(activations & grants, np.count_nonzero(grants, axis=-1), activations)


def ra_report(activations: np.ndarray, success: np.ndarray, n_slots: int) -> SlotReport:
    """Score random-access rounds, given `ra_attempt`'s success vectors,
    with the same regret semantics.

    Random access issues no grant vector, so wasted slots are those no
    device won (n_slots - successes) and missed devices are the actives
    whose attempt collided.
    """
    return _report(success, n_slots, activations)


@dataclass
class MetricsAccumulator:
    """Running totals for one (policy, run) pair, as of the last block folded in.

    t, cum_regret and cum_used_slots hold one value per slot of that block
    and last_served one (K,) row per slot. A fresh accumulator holds slot 0
    alone, a virtual successful transmission of every device, so a
    never-served device has age t.
    """

    n_devices: int
    n_slots: int
    t: np.ndarray = field(init=False)
    cum_regret: np.ndarray = field(init=False)
    cum_used_slots: np.ndarray = field(init=False)
    last_served: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.t = self.cum_regret = self.cum_used_slots = np.zeros(1, dtype=np.int64)
        self.last_served = np.zeros((1, self.n_devices), dtype=np.int64)

    def advance(self, report: SlotReport) -> None:
        """Fold in the next block's report, carrying on from the last slot folded."""
        t = self.t[-1]
        self.t = np.arange(t + 1, t + 1 + len(report.regret))
        self.cum_regret = self.cum_regret[-1] + np.cumsum(report.regret)
        self.cum_used_slots = self.cum_used_slots[-1] + np.cumsum(self.n_slots - report.wrong)
        # each served device is stamped with its slot; the running maximum
        # down the block, seeded with the carried stamps, is its last success
        marks = report.served * self.t[:, None]
        np.maximum(marks[0], self.last_served[-1], out=marks[0])
        self.last_served = np.maximum.accumulate(marks, axis=0, out=marks)


def average_usage(acc: MetricsAccumulator) -> np.ndarray:
    """Time-averaged fraction of grant slots used."""
    return acc.cum_used_slots / (acc.t * acc.n_slots)


def device_ages(acc: MetricsAccumulator) -> np.ndarray:
    """Slots since each device's last success, at the accumulator's clock."""
    return acc.t[:, None] - acc.last_served


def average_age(ages: np.ndarray) -> np.ndarray:
    """Mean age over devices, per slot of a (C, K) `device_ages` block."""
    return ages.sum(axis=-1) / ages.shape[-1]


def peak_age(ages: np.ndarray) -> np.ndarray:
    """Largest age over devices, per slot of a (C, K) `device_ages` block."""
    return ages.max(axis=-1)
