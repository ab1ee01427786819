"""Simulator for traffic-prediction-based fast uplink grant scheduling.

Hidden On-Off Markov event sources drive device activations; a forward
algorithm tracks the joint event state from censored observations; grant
policies are compared on regret, system usage, and age of information.

The package exports the Monte-Carlo API the README documents; the model,
belief filter, policies and metrics are imported from their modules.
"""

from .engine import SERIES, AggregateResult, EpisodeResult, run_episode, run_monte_carlo
from .model import ConfigurationError, ScenarioConfig, ScenarioTemplate, rng_stream
from .policies import POLICIES

__version__ = "0.1.0"

__all__ = [
    "SERIES",
    "AggregateResult",
    "EpisodeResult",
    "run_episode",
    "run_monte_carlo",
    "ConfigurationError",
    "ScenarioConfig",
    "ScenarioTemplate",
    "rng_stream",
    "POLICIES",
    "__version__",
]
