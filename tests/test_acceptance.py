"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s the lines still appear for failing criteria. Tolerances are
fixed here and must not be loosened to make a failing criterion pass.
"""

import dataclasses
import time

import numpy as np
import pytest

from fugrant.cli import PRESETS, main
from fugrant.engine import run_episode, run_monte_carlo
from fugrant.metrics import slot_report
from fugrant.model import rng_stream
from fugrant.oracle import predictor_deviation, run_oracle_suite
from fugrant.policies import POLICIES

RUNS = 20
MASTER_SEED = 0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig3_result():
    start = time.perf_counter()
    agg = run_monte_carlo(
        PRESETS["fig3"], runs=RUNS, master_seed=MASTER_SEED, policies=POLICIES
    )
    return agg, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig4_result():
    agg = run_monte_carlo(
        PRESETS["fig4"], runs=RUNS, master_seed=MASTER_SEED, policies=POLICIES
    )
    return agg


def test_criterion_1_forward_oracle():
    start = time.perf_counter()
    report = run_oracle_suite(max_n=3, max_k=3, max_t=6, instances=50, base_seed=0)
    elapsed = time.perf_counter() - start
    ok = report.forward_max_dev < 1e-9 and elapsed < 5.0
    _report(
        1,
        "forward-algorithm oracle equivalence",
        ok,
        f"max deviation {report.forward_max_dev:.3e} (tol 1e-9) over 50 instances "
        f"in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_predictor_oracle():
    start = time.perf_counter()
    max_dev = max(predictor_deviation(seed, max_n=6) for seed in range(200))
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-12 and elapsed < 1.0
    _report(
        2,
        "one-step predictor oracle",
        ok,
        f"max deviation {max_dev:.3e} (tol 1e-12) over 200 pairs "
        f"in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_regret_scenarios():
    k, l = 20, 10

    def pattern(active, granted):
        acts = np.zeros(k, dtype=np.uint8)
        acts[list(active)] = 1
        grants = np.zeros(k, dtype=np.uint8)
        grants[list(granted)] = 1
        return slot_report(acts, grants).regret

    # M=12 active, every grant lands on an active device
    r1 = pattern(range(12), range(10))
    # M=0 active, grants all wasted but nobody unserved
    r2 = pattern((), range(10))
    # M=8 active, grants reach half of them: min(L - M/2, M/2)
    r3 = pattern(range(8), list(range(4)) + list(range(10, 16)))
    ok = (r1, r2, r3) == (0, 0, 4)
    _report(
        3,
        "regret scenario suite",
        ok,
        f"L=10, M in (12, 0, 8) gave R = {(r1, r2, r3)}, expected (0, 0, 4)",
    )


def test_criterion_4_fig3_regret_trends(fig3_result):
    agg, elapsed = fig3_result
    final = {p: agg.mean[p]["regret_cum"][-1] for p in POLICIES}
    # run-to-run noise allowance on the genie comparison: two standard errors
    noise = 2.0 * agg.std["genie"]["regret_cum"][-1] / np.sqrt(agg.runs)
    ordering = (
        final["ra"] > final["tdd"] > final["fu_limited"] >= final["fu_feedback"]
        and final["fu_feedback"] >= final["genie"] - noise
    )
    vs_tdd = final["fu_limited"] <= 0.65 * final["tdd"]
    vs_ra = final["fu_limited"] <= 0.20 * final["ra"]
    ok = ordering and vs_tdd and vs_ra and elapsed < 60.0
    _report(
        4,
        "fig3 regret trend reproduction",
        ok,
        "final cumulative regret "
        + ", ".join(f"{p}={final[p]:.0f}" for p in POLICIES)
        + f"; fu_limited/tdd={final['fu_limited'] / final['tdd']:.3f} (<=0.65), "
        f"fu_limited/ra={final['fu_limited'] / final['ra']:.3f} (<=0.20), "
        f"ordering={ordering}, runtime {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_fig3_usage(fig3_result):
    agg, _ = fig3_result
    usage = {p: agg.mean[p]["usage_avg"][-1] for p in POLICIES}
    fu_ok = usage["fu_limited"] >= 0.90 and usage["fu_feedback"] >= 0.90
    tdd_ok = 0.80 <= usage["tdd"] <= 0.95 and usage["tdd"] < min(
        usage["fu_limited"], usage["fu_feedback"]
    )
    ra_ok = usage["ra"] <= 0.20
    ok = fu_ok and tdd_ok and ra_ok
    _report(
        5,
        "fig3 usage reproduction",
        ok,
        ", ".join(f"{p}={usage[p]:.4f}" for p in POLICIES)
        + " (fu>=0.90, tdd in [0.80,0.95] below fu, ra<=0.20)",
    )


def test_criterion_6_fig4_trends(fig4_result):
    agg = fig4_result
    usage_gap = (
        agg.mean["fu_limited"]["usage_avg"][-1] - agg.mean["tdd"]["usage_avg"][-1]
    )
    fu_aoi = agg.mean["fu_limited"]["aoi_avg"][-1]
    ra_aoi = agg.mean["ra"]["aoi_avg"][-1]
    ok = usage_gap >= 0.05 and fu_aoi < ra_aoi
    _report(
        6,
        "fig4 trend reproduction",
        ok,
        f"usage gap fu-tdd = {usage_gap:.4f} (>=0.05); "
        f"final avg AoI fu={fu_aoi:.1f} < ra={ra_aoi:.1f}",
    )


def test_criterion_7_metric_identities():
    rng = rng_stream(99, 0, "acceptance-fuzz")
    worst = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 40))
        acts = (rng.random(k) < rng.random()).astype(np.uint8)
        grants = (rng.random(k) < rng.random()).astype(np.uint8)
        rep = slot_report(acts, grants)
        assert rep.regret == min(rep.wrong, rep.missed)
        assert rep.wrong - rep.missed == int(grants.sum()) - int(acts.sum())
        worst = max(worst, rep.regret)
    # usage/AoI identities are exercised per slot inside a full episode
    cfg = PRESETS["fig3"].sample(rng_stream(99, 1, "scenario"), seed=99)
    cfg = dataclasses.replace(cfg, horizon=200)
    res = run_episode(cfg, POLICIES, rng_stream(99, 1, "episode"))
    usage_ok = all(
        np.all((res.series[p]["usage_avg"] >= 0) & (res.series[p]["usage_avg"] <= 1))
        for p in POLICIES
    )
    cum_ok = all(
        np.array_equal(
            res.series[p]["regret_cum"], np.cumsum(res.series[p]["regret_slot"])
        )
        for p in POLICIES
    )
    age_ok = all(
        np.all(res.series[p]["aoi_peak"] >= res.series[p]["aoi_avg"]) for p in POLICIES
    )
    ok = usage_ok and cum_ok and age_ok
    _report(
        7,
        "metric identities",
        ok,
        f"10000 fuzzed slot reports passed; usage bounded={usage_ok}, "
        f"cumulative regret consistent={cum_ok}, peak>=avg age={age_ok}",
    )


def test_criterion_8_determinism(tmp_path):
    args = [
        "run",
        "--preset",
        "fig3",
        "--runs",
        "2",
        "--horizon",
        "40",
        "--seed",
        "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(
        8,
        "determinism",
        ok,
        f"two identical invocations -> byte-identical files: {identical}",
    )


def test_criterion_9_performance():
    template = dataclasses.replace(PRESETS["fig4"], horizon=10_000)
    config = template.sample(rng_stream(MASTER_SEED, 0, "scenario"), seed=MASTER_SEED)
    start = time.perf_counter()
    run_episode(config, POLICIES, rng_stream(MASTER_SEED, 0, "episode"))
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(
        9,
        "performance",
        ok,
        f"single run N=10 K=100 L=10 T=10000, all 5 policies: {elapsed:.2f}s "
        "(budget 10s, single-threaded)",
    )
