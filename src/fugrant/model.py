"""Problem instances and the ground-truth device activation process.

A scenario couples N independent two-state (On/Off) event processes to K
devices. Process n flips Off->On with probability eps1[n] per slot and
On->Off with probability eps0[n]; while On, it activates device k in a slot
with probability q[n, k]. A device is active when at least one On process
activates it. The base station never sees the process states, only (some of)
the device activity, which is what makes prediction interesting.

State encoding is fixed so belief indices are portable: process n maps to
bit n of the state index, i.e. the first process is the least significant
bit, and the bit vector [1, 0, 1] is index 5.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """A scenario parameter is missing, malformed, or out of range."""


class DegenerateChainError(ConfigurationError):
    """Both transition probabilities are zero, so the chain never moves."""


def rng_stream(seed: int, run: int = 0, purpose: str = "") -> np.random.Generator:
    """Deterministic random stream keyed by (master seed, run index, purpose).

    Identical arguments yield an identical draw sequence on every platform;
    distinct purposes yield independent streams, so e.g. the trajectory and
    the random-access slot choices never share draws.
    """
    tag = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, run, tag]))


MAX_SEED = 2**64 - 1  # seeds are unsigned 64-bit integers


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int in [low, high]; ConfigurationError naming `name` if it
    is a bool, not an integer, or out of range."""
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        raise ConfigurationError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _check_unit_interval(name: str, arr: np.ndarray) -> None:
    bad = ~((arr >= 0.0) & (arr <= 1.0))  # also catches NaN
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        path = name + "".join(f"[{i}]" for i in idx)
        raise ConfigurationError(f"{path} = {arr[idx]} is outside [0, 1]")


_CONFIG_KEYS = ("n_processes", "n_devices", "n_slots", "horizon", "seed", "eps0", "eps1", "q")


@dataclass(eq=False, frozen=True)
class ScenarioConfig:
    """Full problem instance.

    Attributes:
        n_processes: number of hidden On/Off event processes (N).
        n_devices: number of devices (K).
        n_slots: transmission slots granted per time slot (L), at most K.
        eps0: per-process On->Off transition probabilities, shape (N,).
        eps1: per-process Off->On transition probabilities, shape (N,).
        q: activation probabilities, shape (N, K); q[n, k] is the chance
            that process n, while On, activates device k in a slot.
        horizon: number of simulated time slots (T).
        seed: 64-bit master seed recorded with the instance.

    Instances are immutable, so derived tables memoized by `cached` cannot
    go stale: attributes cannot be rebound, and the arrays are read-only
    copies of the ones passed in.
    """

    n_processes: int
    n_devices: int
    n_slots: int
    eps0: np.ndarray
    eps1: np.ndarray
    q: np.ndarray
    horizon: int
    seed: int = 0
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n_processes", "n_devices", "n_slots"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.n_slots > self.n_devices:
            raise ConfigurationError(
                f"n_slots = {self.n_slots} exceeds n_devices = {self.n_devices}"
            )
        object.__setattr__(self, "horizon", check_int("horizon", self.horizon, 0))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0, MAX_SEED))

        for name, expected in (
            ("eps0", (self.n_processes,)),
            ("eps1", (self.n_processes,)),
            ("q", (self.n_processes, self.n_devices)),
        ):
            try:
                arr = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{name} must be a numeric array: {exc}") from exc
            if arr.shape != expected:
                raise ConfigurationError(
                    f"{name} must have shape {expected}, got {arr.shape}"
                )
            _check_unit_interval(name, arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return 1 << self.n_processes

    def cached(self, key: str, build):
        """Memoize a derived value of this (immutable) instance."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "n_processes": self.n_processes,
            "n_devices": self.n_devices,
            "n_slots": self.n_slots,
            "horizon": self.horizon,
            "seed": self.seed,
            "eps0": self.eps0.tolist(),
            "eps1": self.eps1.tolist(),
            "q": self.q.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"scenario document must be an object, got {type(doc).__name__}")
        missing = [k for k in _CONFIG_KEYS if k not in doc]
        if missing:
            raise ConfigurationError(f"missing key: {missing[0]}")
        unknown = [k for k in doc if k not in _CONFIG_KEYS]
        if unknown:
            raise ConfigurationError(f"unknown key: {unknown[0]}")
        return cls(**{k: doc[k] for k in _CONFIG_KEYS})

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class ScenarioTemplate:
    """Distributional description of a scenario; `sample` draws an instance.

    Transition probabilities are uniform on (0, eps_max] (zero excluded so
    every chain actually moves) and activation probabilities uniform on
    [0, q_max].
    """

    n_processes: int
    n_devices: int
    n_slots: int
    horizon: int
    eps_max: float = 0.5
    q_max: float = 1.0

    def sample(self, rng: np.random.Generator, seed: int = 0) -> ScenarioConfig:
        return sample_scenario(
            self.n_processes,
            self.n_devices,
            self.n_slots,
            self.horizon,
            self.eps_max,
            rng,
            q_max=self.q_max,
            seed=seed,
        )


def sample_scenario(
    n_processes: int,
    n_devices: int,
    n_slots: int,
    horizon: int,
    eps_max: float,
    rng: np.random.Generator,
    *,
    q_max: float = 1.0,
    seed: int = 0,
) -> ScenarioConfig:
    """Draw a random scenario instance.

    eps0 and eps1 are i.i.d. uniform on (0, eps_max]; q entries are i.i.d.
    uniform on [0, q_max]. Deterministic given `rng`.
    """
    for name, value in (("n_processes", n_processes), ("n_devices", n_devices),
                        ("n_slots", n_slots)):
        check_int(name, value, 1)
    if not 0.0 < eps_max <= 1.0:
        raise ConfigurationError(f"eps_max must be in (0, 1], got {eps_max!r}")
    if not 0.0 < q_max <= 1.0:
        raise ConfigurationError(f"q_max must be in (0, 1], got {q_max!r}")
    # 1 - U maps [0, 1) draws onto (0, 1], keeping exact zeros out.
    eps0 = eps_max * (1.0 - rng.random(n_processes))
    eps1 = eps_max * (1.0 - rng.random(n_processes))
    q = q_max * rng.random((n_processes, n_devices))
    return ScenarioConfig(
        n_processes=n_processes,
        n_devices=n_devices,
        n_slots=n_slots,
        eps0=eps0,
        eps1=eps1,
        q=q,
        horizon=horizon,
        seed=seed,
    )


def state_index(bits: np.ndarray) -> int:
    """Integer index of a state bit vector (process n at bit n)."""
    bits = np.asarray(bits)
    return int(bits.astype(np.int64) @ (1 << np.arange(bits.size, dtype=np.int64)))


def state_bits(index: int, n_processes: int) -> np.ndarray:
    """Inverse of `state_index`."""
    return ((int(index) >> np.arange(n_processes)) & 1).astype(np.uint8)


def stationary_on_probs(config: ScenarioConfig) -> np.ndarray:
    """Long-run probability that each process is On: eps1 / (eps0 + eps1)."""
    denom = config.eps0 + config.eps1
    stuck = np.flatnonzero(denom == 0.0)
    if stuck.size:
        raise DegenerateChainError(
            f"process {stuck[0]} has eps0 = eps1 = 0; its stationary distribution is undefined"
        )
    return config.eps1 / denom


def step_processes(
    state: np.ndarray, config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Advance every process one slot; independent per-process transitions."""
    if state.shape != (config.n_processes,):
        raise ValueError(f"state must have shape ({config.n_processes},), got {state.shape}")
    u = rng.random(config.n_processes)
    on = state.astype(bool)
    return np.where(on, u >= config.eps0, u < config.eps1).astype(np.uint8)


def activation_probs(state: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """P(device k active | current process states), for all k at once."""
    silent = np.prod(1.0 - config.q[state.astype(bool)], axis=0)
    return 1.0 - silent


def sample_activations(
    state: np.ndarray, config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw the K-bit activity vector for the current process states."""
    if state.shape != (config.n_processes,):
        raise ValueError(f"state must have shape ({config.n_processes},), got {state.shape}")
    p = activation_probs(state, config)
    return (rng.random(config.n_devices) < p).astype(np.uint8)


def predict_activation_probs(state: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """P(device k active next slot | current process states), for all k.

    Marginalizes each process over its own transition: a device stays silent
    next slot only if every process either lands Off or fails to activate it,
    so the per-process silent factor is 1 - P(On next) * q[n, k].
    """
    p_on_next = np.where(state.astype(bool), 1.0 - config.eps0, config.eps1)
    return 1.0 - np.prod(1.0 - p_on_next[:, None] * config.q, axis=0)
