"""Per-layer timing of one fugrant invocation, measured from outside.

    PYTHONPATH=src python3 perfbench/layertrace.py STATS.json -m fugrant.cli run ...
    PYTHONPATH=src python3 perfbench/layertrace.py STATS.json perfbench/episode.py ...

The program arguments are the ones an untraced invocation would get. Before
the program runs, the names that `fugrant.engine` and `fugrant.cli` look up
at call time are replaced by timing wrappers; they are restored afterwards.
`engine.py` imports its helpers by name, so `fugrant.engine.forward_update`
is wrapped, not `fugrant.belief.forward_update`, and nothing under `src/`
changes. Calls the modules make internally are not seen. The per-layer
metrics are written to STATS.json, and the program's exit status is kept.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# Layer name -> the wrapped names that make it up, as (owner, attribute).
# Layers are disjoint: no wrapped call runs inside another one, except the
# engine and CLI entry points, whose self time excludes their children.
LAYERS = {
    "model.trajectory": [("engine", "step_processes"), ("engine", "sample_activations")],
    "belief.device_forecast": [("engine", "device_forecast")],
    "policies": [
        ("engine", "fu_grant"),
        ("engine", "genie_grant"),
        ("engine", "tdd_grant"),
        ("engine", "ra_attempt"),
        ("engine", "observe_limited"),
        ("engine", "observe_feedback"),
    ],
    "metrics": [
        ("engine", "slot_report"),
        ("engine", "ra_report"),
        ("engine", "average_usage"),
        ("engine", "average_age"),
        ("engine", "peak_age"),
        ("engine", "device_ages"),
        ("MetricsAccumulator", "advance"),
    ],
    "engine.run_episode": [("engine", "run_episode")],
    "engine.run_monte_carlo": [("cli", "run_monte_carlo")],
    "cli.render": [("cli", "render_csv"), ("cli", "render_json")],
}


def _owners():
    import fugrant.cli
    import fugrant.engine
    import fugrant.metrics
    import fugrant.model

    return {
        "engine": fugrant.engine,
        "cli": fugrant.cli,
        "MetricsAccumulator": fugrant.metrics.MetricsAccumulator,
        "ScenarioConfig": fugrant.model.ScenarioConfig,
    }


class Tracer:
    """Call counts and inclusive/child time per span, kept in memory."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # span -> [calls, total_s, child_s]
        self._open = [0.0]  # child time of each open span; [0] is the root
        self.observed = {"feedback": 0, "limited": 0}
        self.resets = 0
        self.cache_calls = 0
        self.cache_builds = 0

    def timed(self, span: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                open_spans[-1] += elapsed
                rec = spans.get(span)
                if rec is None:
                    rec = spans[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += child

        return wrapper

    def _forward_update(self, original):
        from fugrant.belief import UNOBSERVED, EvidenceContradictionError

        by_kind = {
            kind: self.timed(f"belief.forward_update.{kind}", original)
            for kind in ("feedback", "limited")
        }

        @functools.wraps(original)
        def forward_update(belief, obs, config):
            unobserved = int((obs == UNOBSERVED).sum())
            kind = "limited" if unobserved else "feedback"
            self.observed[kind] += obs.size - unobserved
            try:
                return by_kind[kind](belief, obs, config)
            except EvidenceContradictionError:
                self.resets += 1
                raise

        return forward_update

    def _cached(self, original):
        @functools.wraps(original)
        def cached(config, key, build):
            self.cache_calls += 1

            def counted_build():
                self.cache_builds += 1
                return build()

            return original(config, key, counted_build)

        return cached

    def patches(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every name this tracer replaces."""
        owners = _owners()
        out = [
            (owners[owner], name, self.timed(layer, vars(owners[owner])[name]))
            for layer, names in LAYERS.items()
            for owner, name in names
        ]
        engine, config = owners["engine"], owners["ScenarioConfig"]
        out.append((engine, "forward_update", self._forward_update(vars(engine)["forward_update"])))
        out.append((config, "cached", self._cached(vars(config)["cached"])))
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""

        def calls(*spans):
            return sum(self.spans.get(s, (0, 0.0, 0.0))[0] for s in spans)

        def busy(*spans):
            return sum(self.spans.get(s, (0, 0.0, 0.0))[1] for s in spans)

        def self_time(span):
            _, total, child = self.spans.get(span, (0, 0.0, 0.0))
            return total - child

        def per_call_us(*spans):
            n = calls(*spans)
            return busy(*spans) / n * 1e6 if n else 0.0

        out: dict[str, tuple[float, str]] = {
            "model.trajectory.busy_s": (busy("model.trajectory"), "s"),
            "model.trajectory.calls": (calls("model.trajectory"), "count"),
            "model.cache_builds": (self.cache_builds, "count"),
            "model.cache_hits": (self.cache_calls - self.cache_builds, "count"),
        }
        updates = ("belief.forward_update.feedback", "belief.forward_update.limited")
        out["belief.forward_update.busy_s"] = (busy(*updates), "s")
        out["belief.forward_update.calls"] = (calls(*updates), "count")
        out["belief.forward_update.us_per_call"] = (per_call_us(*updates), "us")
        for span in updates:
            kind = span.rsplit(".", 1)[1]
            n = calls(span)
            out[f"{span}.busy_s"] = (busy(span), "s")
            out[f"{span}.calls"] = (n, "count")
            out[f"{span}.us_per_call"] = (per_call_us(span), "us")
            out[f"{span}.evidence_devices"] = (self.observed[kind] / n if n else 0.0, "count")
        out["belief.device_forecast.busy_s"] = (busy("belief.device_forecast"), "s")
        out["belief.device_forecast.calls"] = (calls("belief.device_forecast"), "count")
        out["belief.device_forecast.us_per_call"] = (per_call_us("belief.device_forecast"), "us")
        out["belief.resets"] = (self.resets, "count")
        for layer in ("policies", "metrics"):
            out[f"{layer}.busy_s"] = (busy(layer), "s")
            out[f"{layer}.calls"] = (calls(layer), "count")
        out["engine.run_episode.self_s"] = (self_time("engine.run_episode"), "s")
        out["engine.run_monte_carlo.self_s"] = (self_time("engine.run_monte_carlo"), "s")
        out["cli.render.busy_s"] = (busy("cli.render"), "s")
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the traced names for the duration of the block."""
    patches = tracer.patches()
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _program(argv: list[str]):
    """The entry point an untraced invocation with these arguments runs."""
    if argv[:2] == ["-m", "fugrant.cli"]:
        import fugrant.cli

        return fugrant.cli.main, argv[2:]
    if argv and argv[0].endswith("episode.py"):
        import episode

        return episode.main, argv[1:]
    raise SystemExit(f"layertrace: cannot trace {argv[:2]!r}")


def main(argv: list[str]) -> int:
    stats_path, program_argv = argv[0], argv[1:]
    entry, args = _program(program_argv)
    tracer = Tracer()
    with installed(tracer):
        status = entry(args)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": tracer.metrics()}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
