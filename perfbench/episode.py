"""The criterion-9 episode: one fig4 instance, all five policies, one run.

    PYTHONPATH=src python3 perfbench/episode.py --seed 3 --horizon 10000 --out ep.bin

The instance is drawn from `rng_stream(seed, 0, "scenario")` and simulated by
`fugrant.engine.run_episode`, exactly as the acceptance test does, with no
resampling, aggregation or rendering. The output file holds every policy's
metric series as little-endian float64, in canonical policy order and the
series order below, so its digest pins every simulated statistic.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from fugrant import engine
from fugrant.cli import PRESETS
from fugrant.model import rng_stream
from fugrant.policies import POLICIES

SERIES = ("regret_slot", "regret_cum", "usage_avg", "aoi_avg", "aoi_peak")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    template = dataclasses.replace(PRESETS["fig4"], horizon=args.horizon)
    config = template.sample(rng_stream(args.seed, 0, "scenario"), seed=args.seed)
    # Looked up on the module at call time, so a traced run sees the wrapper.
    result = engine.run_episode(config, POLICIES, rng_stream(args.seed, 0, "episode"))
    with open(args.out, "wb") as handle:
        for policy in result.policies:
            for series in SERIES:
                handle.write(result.series[policy][series].astype("<f8").tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main())
