"""Closed-form one-step predictor, the reference the table predictor is
compared against."""

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
