"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import layertrace  # noqa: E402
from fugrant import engine  # noqa: E402
from fugrant.model import rng_stream, sample_scenario  # noqa: E402
from fugrant.policies import POLICIES  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# Disjoint parts of one invocation's time: leaf layers plus entry-point self time.
BUSY_METRICS = (
    "model.trajectory.busy_s",
    "belief.forward_update.busy_s",
    "belief.device_forecast.busy_s",
    "policies.busy_s",
    "metrics.busy_s",
    "engine.run_episode.self_s",
    "engine.run_monte_carlo.self_s",
    "cli.render.busy_s",
)


def _originals(patches):
    return [(owner, name, vars(owner)[name]) for owner, name, _ in patches]


def test_wrappers_restore_every_name():
    tracer = layertrace.Tracer()
    originals = _originals(tracer.patches())
    config = sample_scenario(3, 8, 3, 30, 0.5, rng_stream(0, 0, "scenario"))
    with layertrace.installed(tracer):
        for owner, name, original in originals:
            assert vars(owner)[name] is not original, name
        engine.run_episode(config, POLICIES, rng_stream(0, 0, "episode"))
    for owner, name, original in originals:
        assert vars(owner)[name] is original, name
    assert tracer.metrics()["belief.forward_update.calls"][0] == 2 * 30

    with pytest.raises(RuntimeError):
        with layertrace.installed(layertrace.Tracer()):
            raise RuntimeError("program failed")
    for owner, name, original in originals:
        assert vars(owner)[name] is original, name


def test_corrupted_output_counts_as_failure(tmp_path):
    runner = bench.Runner(tmp_path, deadline=time.monotonic() + 120)
    workload = bench.WORKLOADS["fig3"]
    digest = bench.load_golden(workload)["setup"]["0"]
    out = tmp_path / "setup.out"
    assert runner.invoke(workload.argv(0, out, setup=True), out, digest).ok

    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 1
    write = "import sys; open(sys.argv[1], 'wb').write(bytes.fromhex(sys.argv[2]))"
    assert not runner.invoke(["-c", write, str(out), data.hex()], out, digest).ok
    assert not runner.invoke(["-c", "raise SystemExit(3)"], out, None).ok
    assert (runner.attempted, runner.failed) == (3, 2)


def test_fig3_layer_busy_times_fit_in_wall_time(tmp_path):
    runner = bench.Runner(tmp_path, deadline=time.monotonic() + 120)
    workload = bench.WORKLOADS["fig3"]
    out, stats = tmp_path / "fig3.out", tmp_path / "layers.json"
    argv = [str(HERE / "layertrace.py"), str(stats), *workload.argv(0, out)]
    traced = runner.invoke(argv, out, bench.load_golden(workload)["full"]["0"])
    assert traced.ok, "traced output differs from the golden digest"

    metrics = json.loads(stats.read_text(encoding="utf-8"))["metrics"]
    busy = [metrics[name][0] for name in BUSY_METRICS]
    assert all(value > 0 for value in busy), dict(zip(BUSY_METRICS, busy))
    assert sum(busy) <= traced.wall_s
