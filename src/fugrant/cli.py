"""Command-line front end.

Three subcommands:

  run       simulate a scenario (from a JSON config or a built-in preset)
            and write per-slot metric series as CSV or JSON
  validate  check a JSON config and print its dimensions
  oracle    run the brute-force verification suites for the belief tracker
            and the one-step predictor

The run output is plot-ready tabular data; rendering is left to external
tools. All numbers use dot decimal separators regardless of locale, and a
given (flags, seed) pair always produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from .engine import SERIES, AggregateResult, run_monte_carlo
from .model import (
    MAX_SEED,
    ConfigurationError,
    ScenarioConfig,
    ScenarioTemplate,
    check_int,
    stationary_on_probs,
)
from .oracle import run_oracle_suite
from .policies import POLICIES

# Sampling presets at the two study scales. q_max=0.8 keeps the round-robin
# baseline's usage near 0.89; sampling q all the way to 1 pushes mean device
# activity so high that every policy saturates and the baselines blur
# together.
PRESETS = {
    "fig3": ScenarioTemplate(
        n_processes=10, n_devices=50, n_slots=10, horizon=2000, q_max=0.8
    ),
    "fig4": ScenarioTemplate(
        n_processes=10, n_devices=100, n_slots=10, horizon=2000, q_max=0.8
    ),
}
DEFAULT_RUNS = 20

CSV_HEADER = "t,policy,run_stat,regret_slot,regret_cum,usage_avg,aoi_avg,aoi_peak"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fugrant-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _slot_range(result: AggregateResult, emit: str) -> range:
    if result.horizon == 0:
        return range(0)
    if emit == "summary":
        return range(result.horizon, result.horizon + 1)
    return range(1, result.horizon + 1)


def render_csv(result: AggregateResult, emit: str = "per-slot") -> str:
    lines = [CSV_HEADER]
    for t in _slot_range(result, emit):
        for policy in result.policies:
            for stat, table in (("mean", result.mean), ("std", result.std)):
                values = (_fmt(table[policy][s][t - 1]) for s in SERIES)
                lines.append(f"{t},{policy},{stat}," + ",".join(values))
    return "\n".join(lines) + "\n"


def render_json(result: AggregateResult, emit: str = "per-slot") -> str:
    slots = list(_slot_range(result, emit))
    payload = {
        "runs": result.runs,
        "horizon": result.horizon,
        "policies": list(result.policies),
        "t": slots,
        "series": {
            policy: {
                stat: {
                    s: [float(table[policy][s][t - 1]) for t in slots]
                    for s in SERIES
                }
                for stat, table in (("mean", result.mean), ("std", result.std))
            }
            for policy in result.policies
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"


def _load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            return ScenarioConfig.from_json(handle.read())
    except (ConfigurationError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    policies = [name for name in map(str.strip, args.policies.split(",")) if name]
    if args.config is not None:
        scenario: ScenarioConfig | ScenarioTemplate = _load_config(args.config)
        default_seed = scenario.seed
    else:
        scenario, default_seed = PRESETS[args.preset], 0
    if args.horizon is not None:
        scenario = dataclasses.replace(scenario, horizon=args.horizon)
    master_seed = default_seed if args.seed is None else args.seed

    result = run_monte_carlo(
        scenario,
        runs=args.runs,
        master_seed=master_seed,
        policies=policies,
        fixed_scenario=args.fixed_scenario,
        belief_mode=args.belief_mode,
    )
    render = render_csv if args.format == "csv" else render_json
    _atomic_write(args.out, render(result, args.emit))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    pi = stationary_on_probs(config)
    print(f"N={config.n_processes} K={config.n_devices} L={config.n_slots}")
    print("stationary On-probabilities: " + " ".join(_fmt(p) for p in pi))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    for flag in ("max_n", "max_k", "max_t", "instances"):
        check_int("--" + flag.replace("_", "-"), getattr(args, flag), 1)
    check_int("--seed", args.seed, 0, MAX_SEED)
    if not args.tolerance >= 0.0:  # also catches NaN
        raise ConfigurationError(f"--tolerance must be >= 0, got {args.tolerance}")
    report = run_oracle_suite(
        max_n=args.max_n,
        max_k=args.max_k,
        max_t=args.max_t,
        instances=args.instances,
        base_seed=args.seed,
    )
    print(f"instances: {report.instances}")
    print(f"forward max deviation: {report.forward_max_dev:.3e}")
    print(f"log-evidence max deviation: {report.log_evidence_max_dev:.3e}")
    print(f"predictor max deviation: {report.predictor_max_dev:.3e}")
    failed = [
        f"{name} deviation exceeds {args.tolerance:g} (instance seed {seed})"
        for name, dev, seed in (
            ("forward", report.forward_max_dev, report.worst_forward_seed),
            ("predictor", report.predictor_max_dev, report.worst_predictor_seed),
        )
        if dev > args.tolerance
    ]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fugrant",
        description="Predictive uplink grant scheduling simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write metric series")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON scenario config path")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in sampling preset"
    )
    run.add_argument(
        "--policies",
        default=",".join(POLICIES),
        help="comma-separated policy names (default: all)",
    )
    run.add_argument(
        "--runs", type=int, default=DEFAULT_RUNS, help="Monte-Carlo run count"
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: config file seed, or 0 for presets)",
    )
    run.add_argument(
        "--horizon", type=int, default=None, help="override the horizon in slots"
    )
    run.add_argument("--out", required=True, help="output file path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument(
        "--belief-mode", choices=("map_state", "marginal"), default="map_state"
    )
    run.add_argument(
        "--fixed-scenario",
        action="store_true",
        help="sample one scenario instance and reuse it across runs",
    )
    run.add_argument(
        "--emit",
        choices=("per-slot", "summary"),
        default="per-slot",
        help="write every slot or only the final one",
    )
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="check a JSON scenario config")
    validate.add_argument("config", help="JSON scenario config path")
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", help="run the brute-force verification suites")
    oracle.add_argument("--max-n", type=int, default=3)
    oracle.add_argument("--max-k", type=int, default=3)
    oracle.add_argument("--max-t", type=int, default=6)
    oracle.add_argument("--instances", type=int, default=50)
    oracle.add_argument("--tolerance", type=float, default=1e-9)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
