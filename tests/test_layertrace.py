"""Every name the per-layer tracer wraps is called by a real run.

perfbench/layertrace.py times a run by replacing names on `fugrant.engine`,
`fugrant.cli` and `MetricsAccumulator`. A name that stays on a module but is
no longer called would read as a layer with no busy time, so one short run
of each output format must call every wrapped name at least once.
"""

import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from fugrant import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace_names", TRACER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_called(layertrace, monkeypatch, tmp_path):
    owners = layertrace._owners()
    calls = Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    traced = [key for names in layertrace.LAYERS.values() for key in names]
    for owner, name in traced:
        target = owners[owner]
        monkeypatch.setattr(target, name, counted((owner, name), vars(target)[name]))
    for fmt in ("csv", "json"):
        argv = ["run", "--preset", "fig3", "--runs", "1", "--horizon", "3", "--seed", "0"]
        assert cli.main([*argv, "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]) == 0
    assert [key for key in traced if calls[key] == 0] == []
