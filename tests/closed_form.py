"""Closed-form references the fast paths are compared against: the one-step
predictor, and the schedule of full feedback's prefetched blocks."""

import numpy as np

from fugrant.model import ScenarioConfig


def predict_activation_probs(state: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """P(device k active next slot | current process states), for all k.

    Marginalizes each process over its own transition: a device stays silent
    next slot only if every process either lands Off or fails to activate it,
    so the per-process silent factor is 1 - P(On next) * q[n, k].
    """
    p_on_next = np.where(state.astype(bool), 1.0 - config.eps0, config.eps1)
    return 1.0 - np.prod(1.0 - p_on_next[:, None] * config.q, axis=0)


def block_fills(rows: list[bytes], block: int) -> list[int]:
    """Rows of each block belief.prefetch_evidence fills when it is offered
    `rows[t:]` before every slot t of a tracker that never resets: a slot
    whose row the last block did not store starts a block of `block` rows or
    the rest, and every other slot starts nothing."""
    fills, stored = [], set()
    for t, row in enumerate(rows):
        if row not in stored:
            fills.append(min(block, len(rows) - t))
            stored = set(rows[t:t + block])
    return fills
