"""End-to-end outputs against the benchmark's recorded digests.

Runs the fig3, episode_fig4 and large_n_marginal workloads of
perfbench/run.py at input seed 0, each untraced in a child process, and
compares the output file with perfbench/golden.json.
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run_golden", BENCH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fig3", "episode_fig4", "large_n_marginal"])
def test_seed_0_output_matches_golden_digest(bench, name, tmp_path):
    workload = bench.WORKLOADS[name]
    runner = bench.Runner(tmp_path, deadline=time.monotonic() + 120)
    out = tmp_path / "full.out"
    digest = bench.load_golden(workload)["full"]["0"]
    assert runner.invoke(workload.argv(0, out), out, digest).ok, (
        f"{name} seed 0 output differs from perfbench/golden.json"
    )
