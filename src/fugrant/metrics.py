"""Per-slot and cumulative performance measures.

Regret counts missed reallocation opportunities: with wrong = grants given
to silent devices and missed = active devices left without a grant, the
per-slot regret is min(wrong, missed). Usage is the running fraction of
grant slots actually consumed by a transmission. Age of information is the
slots elapsed since each device last transmitted successfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SlotReport:
    """Outcome of one slot for one policy; served[k] is 1 iff device k
    transmitted successfully."""

    wrong: int
    missed: int
    regret: int
    served: np.ndarray


def _report(served: np.ndarray, offered: int, activations: np.ndarray) -> SlotReport:
    """Score a slot that offered `offered` transmission slots and served the
    devices in `served`: every offered slot not used is wrong, every active
    device not served is missed."""
    n_served = int(np.count_nonzero(served))
    wrong = offered - n_served
    missed = int(np.count_nonzero(activations)) - n_served
    return SlotReport(wrong=wrong, missed=missed, regret=min(wrong, missed), served=served)


def slot_report(activations: np.ndarray, grants: np.ndarray) -> SlotReport:
    """Score one slot of a grant-based policy against the true activity,
    both 0/1 vectors; each grant is one offered slot."""
    if activations.shape != grants.shape:
        raise ValueError(
            f"activation and grant vectors differ in length: "
            f"{activations.shape} vs {grants.shape}"
        )
    return _report(activations & grants, int(np.count_nonzero(grants)), activations)


def ra_report(activations: np.ndarray, success: np.ndarray, n_slots: int) -> SlotReport:
    """Score one random-access round, given `ra_attempt`'s success vector,
    with the same regret semantics.

    Random access issues no grant vector, so wasted slots are those no
    device won (n_slots - successes) and missed devices are the actives
    whose attempt collided.
    """
    return _report(success, n_slots, activations)


@dataclass
class MetricsAccumulator:
    """Running totals for one (policy, run) pair.

    last_served starts at zero for every device, i.e. a virtual successful
    transmission at t = 0, so a never-served device has age t.
    """

    n_devices: int
    n_slots: int
    t: int = 0
    cum_regret: int = 0
    cum_used_slots: int = 0
    last_served: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.last_served = np.zeros(self.n_devices, dtype=np.int64)

    def advance(self, report: SlotReport) -> None:
        """Fold in the next slot's report."""
        self.t += 1
        self.cum_regret += report.regret
        self.cum_used_slots += self.n_slots - report.wrong
        self.last_served[report.served == 1] = self.t


def average_usage(acc: MetricsAccumulator) -> float:
    """Time-averaged fraction of grant slots used; 1.0 before any slot."""
    if acc.t == 0:
        return 1.0
    return acc.cum_used_slots / (acc.t * acc.n_slots)


def device_ages(acc: MetricsAccumulator) -> np.ndarray:
    """Slots since each device's last success, at the accumulator's clock."""
    return acc.t - acc.last_served


def average_age(acc: MetricsAccumulator) -> float:
    return float(device_ages(acc).mean())


def peak_age(acc: MetricsAccumulator) -> int:
    return int(device_ages(acc).max())
