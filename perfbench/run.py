#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fugrant simulator.

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 36 --trace 0

Run it from the root of a source tree. Each workload invokes a real fugrant
entry point in a child process, one invocation at a time (a closed loop with
concurrency 1), with numpy and OpenBLAS at their machine default. Every
output file is checked against the SHA-256 digest recorded for it in
perfbench/golden.json; a non-zero exit or a different digest counts as a
failed invocation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median wall
time of one invocation (process start included), the policy-slots simulated
per second, the median wall time of the same invocation with one run of one
slot (set-up), and the median peak RSS of the child. --trace 1 alternates
untraced invocations with ones run under perfbench/layertrace.py, adds the
filter scaling curve of perfbench/filtercurve.py, and reports the per-layer
metrics. Before each timed invocation a fixed CPU probe is timed, and the
host's steal ticks are read from /proc/stat, so slow host phases show.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run, with the machine
description, goes to .perfbench_runs/ under the source tree.

    python3 perfbench/run.py --record-golden [--workload NAME]

re-records the digests of every workload, or of one. Do that only at a commit
whose outputs are trusted: a change that only makes the simulator faster must
reproduce them exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RECORDS = ROOT / ".perfbench_runs"

# The workload seed selects one of this many input seeds, each with a
# recorded golden digest, so every invocation is checked byte for byte.
INPUT_SEEDS = 16
SETUP_PER_ROUND = 2  # set-up invocations after each timed one, at least
SETUP_SHARE = 0.1  # ... and until they took this share of its wall time
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170.0  # every run must end within 180 s


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    runs: int
    horizon: int
    policies: int

    def argv(self, seed: int, out: Path, *, setup: bool = False) -> list[str]:
        """Interpreter arguments of one invocation; set-up is one run of one slot."""
        runs, horizon = (1, 1) if setup else (self.runs, self.horizon)
        if self.name == "episode_fig4":
            return [str(HERE / "episode.py"), "--seed", str(seed),
                    "--horizon", str(horizon), "--out", str(out)]
        common = ["--runs", str(runs), "--horizon", str(horizon), "--seed", str(seed),
                  "--format", "csv", "--out", str(out)]
        if self.name == "fig3":
            return ["-m", "fugrant.cli", "run", "--preset", "fig3",
                    "--belief-mode", "map_state", *common]
        config = _large_n_config(seed, out.parent)
        return ["-m", "fugrant.cli", "run", "--config", str(config),
                "--policies", "fu_limited,fu_feedback", "--belief-mode", "marginal", *common]

    @property
    def size(self) -> str:
        return f"runs={self.runs} horizon={self.horizon} policies={self.policies}"


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3", runs=4, horizon=1000, policies=5),
        Workload("episode_fig4", runs=1, horizon=10000, policies=5),
        Workload("large_n_marginal", runs=1, horizon=200, policies=2),
    )
}


def _large_n_config(seed: int, directory: Path) -> Path:
    """Sample the N=14, K=100, L=10 scenario for a seed and write it as a config file."""
    path = directory / f"large_n_seed{seed}.json"
    if not path.exists():
        from fugrant.model import rng_stream, sample_scenario

        config = sample_scenario(14, 100, 10, WORKLOADS["large_n_marginal"].horizon, 0.5,
                                 rng_stream(seed, 0, "scenario"), q_max=0.8, seed=seed)
        path.write_text(config.to_json(), encoding="utf-8")
    return path


# --- measurement -----------------------------------------------------------


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Runs invocations one at a time and counts the failed ones."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def invoke(self, argv: list[str], out: Path, digest: str | None) -> Sample:
        """Run one child to completion; its output must hash to `digest`,
        or merely exist when `digest` is None."""
        out.unlink(missing_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = (proc.returncode == 0 and out.is_file()
              and (digest is None or file_digest(out) == digest))
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"invocation failed (exit {proc.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, ok)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_probe() -> float:
    """Time a fixed pure-Python loop; it reads high when the host is slow."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - start


def steal_ticks() -> int:
    """Host steal time of all CPUs so far, in clock ticks (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count, as statistics.quantiles gives them."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# --- the two kinds of run ----------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float, runner: Runner,
               golden: dict) -> tuple[dict, dict]:
    full_out, setup_out = runner.workdir / "full.out", runner.workdir / "setup.out"
    full_digest, setup_digest = golden["full"][str(seed)], golden["setup"][str(seed)]
    timed: list[Sample] = []
    setup: list[Sample] = []
    probes: list[float] = []
    steal_before = steal_ticks()
    start = time.monotonic()
    round_s = 0.0
    # Start a round only if it should end within the measuring time.
    while len(timed) < MIN_SAMPLES or time.monotonic() - start + round_s < seconds:
        if runner.out_of_time():
            break
        began = time.monotonic()
        probes.append(cpu_probe())
        timed.append(runner.invoke(workload.argv(seed, full_out), full_out, full_digest))
        # Set-up samples are spread over the run, so they see the same host phases.
        spent = 0.0
        for n in itertools.count():
            if n >= SETUP_PER_ROUND and spent >= SETUP_SHARE * timed[-1].wall_s:
                break
            setup.append(runner.invoke(workload.argv(seed, setup_out, setup=True), setup_out,
                                       setup_digest))
            spent += setup[-1].wall_s
        round_s = time.monotonic() - began
    steal = steal_ticks() - steal_before

    wall = summary([s.wall_s for s in timed])
    record = {
        "wall_s": wall,
        "setup_s": summary([s.wall_s for s in setup]),
        "peak_rss_mb": summary([s.rss_mb for s in timed]),
        "cpu_s": summary([s.cpu_s for s in timed]),
        "host.probe_s": summary(probes),
        "host.steal_ticks": steal,
    }
    slots = workload.runs * workload.horizon * workload.policies
    metrics = {
        "wall_s": (wall["median"], "s"),
        "policy_slots_per_s": (slots / wall["median"], "1/s"),
        "setup_s": (record["setup_s"]["median"], "s"),
        "peak_rss_mb": (record["peak_rss_mb"]["median"], "MB"),
    }
    return metrics, record


def per_layer(workload: Workload, seed: int, seconds: float, runner: Runner,
              golden: dict) -> tuple[dict, dict]:
    work = runner.workdir
    digest = golden["full"][str(seed)]
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    probes: list[float] = []
    steal_before = steal_ticks()
    start = time.monotonic()
    round_s = 0.0
    while not traced or time.monotonic() - start + round_s < seconds:
        if runner.out_of_time():
            break
        began = time.monotonic()
        probes.append(cpu_probe())
        argv = workload.argv(seed, work / "full.out")
        plain.append(runner.invoke(argv, work / "full.out", digest))
        stats = work / "layers.json"
        stats.unlink(missing_ok=True)
        sample = runner.invoke([str(HERE / "layertrace.py"), str(stats), *argv],
                               work / "full.out", digest)
        traced.append(sample)
        if sample.ok:
            layers.append(json.loads(stats.read_text(encoding="utf-8"))["metrics"])
        round_s = time.monotonic() - began
    steal = steal_ticks() - steal_before
    curve_path = work / "curve.json"
    runner.invoke([str(HERE / "filtercurve.py"), "--seed", str(seed), "--out", str(curve_path)],
                  curve_path, None)
    curve = (json.loads(curve_path.read_text(encoding="utf-8"))["metrics"]
             if curve_path.is_file() else {})

    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    metrics.update((name, tuple(v)) for name, v in curve.items())
    plain_wall = statistics.median(s.wall_s for s in plain)
    traced_wall = statistics.median(s.wall_s for s in traced)
    metrics["process.cpu_s"] = (statistics.median(s.cpu_s for s in plain), "s")
    metrics["process.cpu_util"] = (statistics.median(s.cpu_s / s.wall_s for s in plain), "s/s")
    metrics["trace.overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, "%")
    metrics["host.probe_s"] = (statistics.median(probes), "s")
    metrics["host.steal_ticks"] = (steal, "count")
    record = {
        "wall_s": summary([s.wall_s for s in plain]),
        "traced_wall_s": summary([s.wall_s for s in traced]),
        "host.probe_s": summary(probes),
        "host.steal_ticks": steal,
    }
    return metrics, record


# --- environment record ----------------------------------------------------


def _openblas() -> dict:
    import ctypes
    import glob

    import numpy

    info = {"version": None, "threads": None}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["version"] = blas.get("version")
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported source tree has only src_sha256
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    openblas = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas["version"],
        "openblas_threads": openblas["threads"],
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


# --- entry points ------------------------------------------------------------


def load_golden(workload: Workload) -> dict:
    try:
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"no golden digests for {workload.name}: {exc}") from exc
    if doc.get("size") != workload.size:
        raise SystemExit(f"golden digests of {workload.name} were recorded for "
                         f"{doc.get('size')}, not {workload.size}; re-record them")
    return doc


def record_golden(names: list[str]) -> int:
    """Record the output digest of the named workloads at every input seed."""
    workdir = RECORDS / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workdir, deadline=time.monotonic() + 3600.0)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    for workload in (WORKLOADS[name] for name in names):
        entry = {"size": workload.size, "full": {}, "setup": {}}
        for seed in range(INPUT_SEEDS):
            for kind in ("full", "setup"):
                out = workdir / f"{kind}.out"
                if not runner.invoke(workload.argv(seed, out, setup=kind == "setup"), out,
                                     None).ok:
                    raise SystemExit(f"{workload.name} seed {seed} {kind}: failed")
                entry[kind][str(seed)] = file_digest(out)
            print(f"{workload.name} seed {seed}: {entry['full'][str(seed)]}", flush=True)
        golden[workload.name] = entry
    shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "fugrant" / "__init__.py").is_file():
        print(f"error: no fugrant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    golden = load_golden(workload)
    input_seed = args.seed % INPUT_SEEDS
    workdir = RECORDS / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, deadline=started + RUN_DEADLINE_S)
    measure = per_layer if args.trace else end_to_end
    metrics, record = measure(workload, input_seed, args.seconds, runner, golden)

    expected = declared_metrics(bool(args.trace))
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1

    error_rate = runner.failed / runner.attempted
    record.update(
        workload=workload.name, size=workload.size, seed=args.seed, input_seed=input_seed,
        trace=args.trace, seconds=args.seconds, attempted=runner.attempted,
        failed=runner.failed, error_rate=error_rate, machine=machine(),
    )
    (RECORDS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(workdir)

    for name in expected:
        value, unit = metrics[name]
        spread = record.get(name)
        detail = (f" (IQR {spread['q1']:.6g}..{spread['q3']:.6g}, n={spread['n']})"
                  if isinstance(spread, dict) else "")
        print(f"{workload.name} {name}: {value:.6g} {unit}{detail}")
    print(f"{workload.name} error_rate: {error_rate:.6g} ({runner.failed}/{runner.attempted})")
    print(f"{workload.name} seed {args.seed} (input seed {input_seed}), machine "
          + json.dumps(record["machine"], sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in expected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
