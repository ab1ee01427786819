"""Scaling curve of the belief filter over the number of hidden processes.

    PYTHONPATH=src python3 perfbench/filtercurve.py --seed 3 --out curve.json

For N in 10, 12, 14, 16 and 18 at K=100 devices and L=10 slots, samples one
scenario, draws a trajectory with the model's own functions and times the
public filter calls on it: `forward_update` under full feedback and under
limited evidence (a round-robin set of L granted devices), and the marginal
`device_forecast`. The first slot is not timed, since it builds the lazily
cached tables. At K=100 the filter uses cached per-state tables up to N=16
and per-device vectors above, so the curve crosses that switch. Each value
is the median time of one call in microseconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from fugrant.belief import device_forecast, forward_update, init_belief
from fugrant.model import rng_stream, sample_scenario, sample_activations, step_processes
from fugrant.policies import observe_feedback, observe_limited, tdd_grant

N_DEVICES = 100
N_SLOTS = 10
# Timed slots per size; the large sizes cost up to a few hundred ms a call.
SLOTS = {10: 40, 12: 30, 14: 15, 16: 4, 18: 3}


def measure(n: int, seed: int) -> dict[str, float]:
    config = sample_scenario(
        n, N_DEVICES, N_SLOTS, 0, 0.5, rng_stream(seed, n, "perfbench.curve"), q_max=0.8
    )
    truth = rng_stream(seed, n, "perfbench.curve.truth")
    state = (truth.random(n) < 0.5).astype("uint8")
    feedback = limited = init_belief(config)
    times: dict[str, list[float]] = {"feedback": [], "limited": [], "marginal": []}
    clock = time.perf_counter
    for t in range(SLOTS[n] + 1):
        state = step_processes(state, config, truth)
        activations = sample_activations(state, config, truth)
        grants = tdd_grant(t, N_DEVICES, N_SLOTS)

        start = clock()
        feedback = forward_update(feedback, observe_feedback(activations), config)
        mid = clock()
        limited = forward_update(limited, observe_limited(grants, activations), config)
        end = clock()
        device_forecast(feedback, config, "marginal")
        done = clock()
        if t:
            times["feedback"].append(mid - start)
            times["limited"].append(end - mid)
            times["marginal"].append(done - end)
    return {kind: statistics.median(v) * 1e6 for kind, v in times.items()}


def curve(seed: int) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for n in SLOTS:
        us = measure(n, seed)
        out[f"belief.forward_update.us_per_call.n{n}.feedback"] = (us["feedback"], "us")
        out[f"belief.forward_update.us_per_call.n{n}.limited"] = (us["limited"], "us")
        out[f"belief.device_forecast.marginal.us_per_call.n{n}"] = (us["marginal"], "us")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"metrics": curve(args.seed)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
