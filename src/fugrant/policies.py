"""Grant-decision policies and the observation builders that close the loop.

Five policies share one trajectory in the engine: predictive fast uplink
with limited observations (`fu_limited`) or full feedback (`fu_feedback`),
a genie that reads the true process states (`genie`), round-robin TDD
(`tdd`), and slotted-ALOHA random access (`ra`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import UNOBSERVED
from .model import ScenarioConfig, predict_activation_probs

# Stable policy identifiers, as used by the CLI and output files.
POLICIES = ("ra", "tdd", "fu_limited", "fu_feedback", "genie")


@dataclass
class RaOutcome:
    """Result of one slotted-ALOHA round.

    occupancy[j] counts devices that picked transmission slot j; success[k]
    is 1 iff device k attempted and was alone in its slot.
    """

    occupancy: np.ndarray
    success: np.ndarray


def fu_grant(forecast: np.ndarray, n_slots: int, aoi: np.ndarray) -> np.ndarray:
    """Grant the n_slots devices with the highest forecast probability.

    Rank-based: any strictly monotone transform of the forecast yields the
    same grants. Exact ties prefer the device with the larger current age
    (aoi), then the lower index.
    """
    n_devices = forecast.shape[0]
    order = np.lexsort((np.arange(n_devices), -np.asarray(aoi, dtype=np.float64), -forecast))
    grants = np.zeros(n_devices, dtype=np.uint8)
    grants[order[:n_slots]] = 1
    return grants


def tdd_grant(t: int, n_devices: int, n_slots: int) -> np.ndarray:
    """Round-robin: slot t grants devices (t * L + i) mod K for i < L."""
    grants = np.zeros(n_devices, dtype=np.uint8)
    grants[(t * n_slots + np.arange(n_slots)) % n_devices] = 1
    return grants


def genie_grant(
    true_state: np.ndarray,
    config: ScenarioConfig,
    n_slots: int,
    aoi: np.ndarray,
) -> np.ndarray:
    """Fast uplink with perfect state knowledge: the one-step predictor is
    evaluated at the true hidden state instead of a belief."""
    return fu_grant(predict_activation_probs(true_state, config), n_slots, aoi)


def ra_attempt(
    activations: np.ndarray, n_slots: int, rng: np.random.Generator
) -> RaOutcome:
    """Slotted ALOHA: each active device picks one of n_slots slots uniformly
    and succeeds iff no other device picked the same slot."""
    active = np.flatnonzero(activations)
    choices = rng.integers(0, n_slots, size=active.size)
    occupancy = np.bincount(choices, minlength=n_slots)
    success = np.zeros(activations.shape[0], dtype=np.uint8)
    success[active[occupancy[choices] == 1]] = 1
    return RaOutcome(occupancy=occupancy, success=success)


def observe_limited(grants: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Evidence when only scheduled devices are visible: granted devices are
    observed exactly (active or silent), the rest stay unobserved."""
    obs = np.full(activations.shape[0], UNOBSERVED, dtype=np.int8)
    granted = grants == 1
    obs[granted] = activations[granted]
    return obs


def observe_feedback(activations: np.ndarray) -> np.ndarray:
    """Evidence under full feedback: every device observed exactly."""
    return activations.astype(np.int8)
