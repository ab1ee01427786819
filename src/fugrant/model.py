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


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _probabilities(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as a read-only float64 copy of `shape`; ConfigurationError
    naming the first entry that is not a number in [0, 1]. Bools, strings
    and nulls are not numbers here, although numpy would coerce them."""
    try:
        entries = np.array(value, dtype=object)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be a numeric array: {exc}") from exc
    if entries.shape != shape:
        raise ConfigurationError(f"{name} must have shape {shape}, got {entries.shape}")
    for i, entry in enumerate(entries.flat):
        if not (_is_real(entry) and 0 <= entry <= 1):  # NaN compares false
            path = name + "".join(f"[{j}]" for j in np.unravel_index(i, shape))
            problem = "is outside [0, 1]" if _is_real(entry) else "is not a number"
            raise ConfigurationError(f"{path} = {entry!r} {problem}")
    arr = entries.astype(np.float64)
    arr.flags.writeable = False
    return arr


def _check_sizes(scenario) -> None:
    """Coerce a scenario's N, K, L (each >= 1, L <= K) and horizon (>= 0) to ints in place."""
    for name, low in (("n_processes", 1), ("n_devices", 1), ("n_slots", 1), ("horizon", 0)):
        object.__setattr__(scenario, name, check_int(name, getattr(scenario, name), low))
    if scenario.n_slots > scenario.n_devices:
        raise ConfigurationError(
            f"n_slots = {scenario.n_slots} exceeds n_devices = {scenario.n_devices}"
        )


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
        _check_sizes(self)
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0, MAX_SEED))

        for name, shape in (
            ("eps0", (self.n_processes,)),
            ("eps1", (self.n_processes,)),
            ("q", (self.n_processes, self.n_devices)),
        ):
            object.__setattr__(self, name, _probabilities(name, getattr(self, name), shape))

    @property
    def n_states(self) -> int:
        return 1 << self.n_processes

    def cached(self, key: str, build):
        """Memoize a derived value of this (immutable) instance."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def to_json(self) -> str:
        doc = {k: getattr(self, k) for k in _CONFIG_KEYS}
        return json.dumps(doc, indent=2, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"scenario document must be an object, got {type(doc).__name__}")
        missing = [k for k in _CONFIG_KEYS if k not in doc]
        if missing:
            raise ConfigurationError(f"missing key: {missing[0]}")
        unknown = [k for k in doc if k not in _CONFIG_KEYS]
        if unknown:
            raise ConfigurationError(f"unknown key: {unknown[0]}")
        return cls(**{k: doc[k] for k in _CONFIG_KEYS})


@dataclass(frozen=True)
class ScenarioTemplate:
    """Distributional description of a scenario; `sample` draws an instance.

    Transition probabilities are uniform on (0, eps_max] (zero excluded so
    every chain actually moves) and activation probabilities uniform on
    [0, q_max]. It is checked when constructed, as a ScenarioConfig is.
    """

    n_processes: int
    n_devices: int
    n_slots: int
    horizon: int
    eps_max: float = 0.5
    q_max: float = 1.0

    def __post_init__(self) -> None:
        _check_sizes(self)
        for name in ("eps_max", "q_max"):
            value = getattr(self, name)
            if not (_is_real(value) and 0 < value <= 1):  # NaN compares false
                raise ConfigurationError(f"{name} must be a number in (0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))

    def sample(self, rng: np.random.Generator, seed: int = 0) -> ScenarioConfig:
        """Draw an instance, deterministic given `rng`."""
        # 1 - U maps [0, 1) draws onto (0, 1], keeping exact zeros out.
        eps0 = self.eps_max * (1.0 - rng.random(self.n_processes))
        eps1 = self.eps_max * (1.0 - rng.random(self.n_processes))
        q = self.q_max * rng.random((self.n_processes, self.n_devices))
        return ScenarioConfig(
            n_processes=self.n_processes,
            n_devices=self.n_devices,
            n_slots=self.n_slots,
            eps0=eps0,
            eps1=eps1,
            q=q,
            horizon=self.horizon,
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
    """Draw a random scenario instance; see ScenarioTemplate."""
    template = ScenarioTemplate(n_processes, n_devices, n_slots, horizon, eps_max, q_max)
    return template.sample(rng, seed)


def state_index(bits: np.ndarray) -> int:
    """Integer index of a state bit vector (process n at bit n), exact at any N."""
    return sum(int(b) << n for n, b in enumerate(np.asarray(bits).tolist()))


def state_bits(index: int, n_processes: int) -> np.ndarray:
    """Inverse of `state_index`."""
    index = int(index)
    return np.array([(index >> n) & 1 for n in range(n_processes)], dtype=np.uint8)


def stationary_on_probs(config: ScenarioConfig) -> np.ndarray:
    """Long-run probability that each process is On: eps1 / (eps0 + eps1)."""
    denom = config.eps0 + config.eps1
    stuck = np.flatnonzero(denom == 0.0)
    if stuck.size:
        raise DegenerateChainError(
            f"process {stuck[0]} has eps0 = eps1 = 0; its stationary distribution is undefined"
        )
    return config.eps1 / denom


def _uniforms(u, shape: tuple[int, ...]) -> np.ndarray:
    """`u` itself, or `shape` uniforms drawn from `u` when it is a Generator."""
    return u.random(shape) if isinstance(u, np.random.Generator) else np.asarray(u)


def step_processes(state: np.ndarray, config: ScenarioConfig, u) -> np.ndarray:
    """Advance every process through as many slots as `u` has rows.

    `u` holds one uniform per process and slot, shape (N,) for one slot or
    (C, N) for C slots (a Generator draws N of them). Process n's next state
    is `u >= eps0[n]` when On and `u < eps1[n]` when Off. Where both tests
    agree, the chain resets to that value whatever its state; where only
    `u < eps1[n]` holds, it flips; otherwise it holds. So each row is its
    last reset value XOR the parity of the flips since, and a whole block
    takes one cumulative XOR and one running maximum, bit for bit the
    slot-by-slot chain. Returns uint8 states of `u`'s shape.
    """
    if state.shape != (config.n_processes,):
        raise ValueError(f"state must have shape ({config.n_processes},), got {state.shape}")
    u = _uniforms(u, state.shape)
    turn_on = (u < config.eps1).reshape(-1, state.size)
    stay_on = (u >= config.eps0).reshape(-1, state.size)
    # Row 0 is the state carried in, a reset to itself; row c + 1 is slot c.
    value = np.vstack([state.astype(bool), turn_on])
    reset = np.vstack([np.ones(state.size, bool), turn_on == stay_on])
    parity = np.bitwise_xor.accumulate(np.vstack([np.zeros(state.size, bool), turn_on & ~stay_on]))
    last = np.maximum.accumulate(np.where(reset, np.arange(len(value))[:, None], 0))
    cols = np.arange(state.size)
    out = value[last, cols] ^ parity ^ parity[last, cols]
    return out[1:].reshape(u.shape).astype(np.uint8)


def activation_probs(states: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """P(device k active | process states), shape (..., K) for (..., N)
    states. The silent probability multiplies (1 - q[n]) over the On
    processes in index order, the order of a product over the On rows."""
    on = np.asarray(states).astype(bool)
    silent = np.ones(on.shape[:-1] + (config.n_devices,))
    for n, quiet in enumerate(1.0 - config.q):
        np.multiply(silent, quiet, out=silent, where=on[..., n, None])
    return 1.0 - silent


def sample_activations(states: np.ndarray, config: ScenarioConfig, u) -> np.ndarray:
    """The K-bit activity of each slot: device k is active where its uniform
    in `u` falls below P(active). `states` is (N,) or (C, N); `u` has the
    matching (K,) or (C, K) shape (a Generator draws them)."""
    if states.shape[-1:] != (config.n_processes,):
        raise ValueError(
            f"state must have shape (..., {config.n_processes}), got {states.shape}"
        )
    u = _uniforms(u, states.shape[:-1] + (config.n_devices,))
    return (u < activation_probs(states, config)).astype(np.uint8)
