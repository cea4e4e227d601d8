"""``serve-cold`` and ``serve-hot``: open-loop ``/recommend`` on a pool.

Both workloads serve one artifact of a 2,000-group world through
``ServingPool(workers=1, mmap=True)`` at the CLI ``serve`` defaults.
``serve-cold`` draws groups uniformly from the whole world (about 8x the
256-entry score cache, so most requests run the engine); ``serve-hot``
draws them from a fixed hot set of 64 groups that fits the cache.

One run: set-up (three times, median reported), a warm-up window,
windows at the workload's nominal rate (p50/p95 from the due time, and
requests per CPU-second of the worker).  Traced runs also scan the
workload's fixed rate ladder for the highest rate meeting the latency
limit.  A seeded sample of served top-5 lists is checked against a
reference ``RankingEngine`` over the same artifact.
"""

from __future__ import annotations

import numpy as np

from repro.serve import EmbeddingIndex, RankingEngine, build_index

from . import openloop
from .common import cpu_seconds, make_world, median_setup, peak_rss_mb, start_pool

WORLD = dict(users=100, items=120, groups=2000)
HOT_SET = 64
CONNECTIONS = 2
WARMUP_S = 1.5
# The nominal phase is split into windows and the median of their
# p50/p95 reported, so a short stall of the box moves one window and
# not the result.
NOMINAL_SHARE = 0.9
NOMINAL_WINDOWS = 5
# The ladder scan runs in traced runs only (``recommend.max_rps_at_slo``):
# a rung's p99 rests on its two or three slowest requests at these
# rates, and the scan's result varied too much between runs to bound.
RUNG_SECONDS = 3.0

# Rates (requests/s).  The ladders are fixed constants, chosen once from
# the capacity the seed commit showed on a 2-core box: about a tenth
# apart near each workload's knee, wider further out.  ``start`` is the
# rung the scan begins at; ``nominal`` is about half the seed capacity.
RATES = {
    "serve-cold": dict(
        nominal=22.0,
        ladder=(10, 14, 18, 22, 26, 30, 33, 36, 40, 44, 48, 53, 58, 64,
                70, 80, 95, 115, 140, 170, 210, 260, 320, 400),
        start=9,
    ),
    "serve-hot": dict(
        nominal=500.0,
        ladder=(100, 150, 200, 260, 330, 400, 480, 560, 620, 680, 750, 820,
                900, 990, 1090, 1200, 1320, 1450, 1600, 1760, 1940, 2130,
                2350, 2600),
        start=14,
    ),
}

# Served scores come back through JSON (``repr`` of a float, exact) from
# a batched engine call; the reference scores one group at a time, so
# BLAS may reassociate sums differently.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12
CHECK_SAMPLE = 32


class ServeSetup:
    """A world's artifact on disk and a started pool over it."""

    def __init__(self, seed: int, workdir):
        dataset, split, model = make_world(seed=seed, **WORLD)
        index = build_index(
            model, train_interactions=split.train, user_interactions=dataset.user_item
        )
        self.path = index.save(workdir / f"serve-{seed}.npz")
        self.num_groups = index.num_groups
        self.pool, self.pool_start_s = start_pool(self.path)

    def close(self) -> None:
        self.pool.close()


def setup(seed: int, workdir) -> tuple[ServeSetup, float]:
    """Set up three times; keep the last; median set-up seconds."""

    def build(keep: bool) -> ServeSetup:
        made = ServeSetup(seed, workdir)
        if not keep:
            made.close()
        return made

    return median_setup(build)


def population(workload: str, seed: int, num_groups: int) -> np.ndarray:
    if workload == "serve-cold":
        return np.arange(num_groups)
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.choice(num_groups, size=HOT_SET, replace=False))


def check_answers(outcomes, path, seed: int) -> tuple[int, int]:
    """``(checked, wrong)``: a seeded sample of served lists vs a reference."""
    served = [o for o in outcomes if openloop.is_success(o)]
    if not served:
        return 0, 0
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(served), size=min(CHECK_SAMPLE, len(served)), replace=False)
    reference = RankingEngine(EmbeddingIndex.load(path))
    wrong = 0
    for pick in picks:
        outcome = served[int(pick)]
        expected = reference.top_k(outcome.group, k=5)
        got = outcome.body["items"]
        same_items = [item.item for item in expected] == [row["item"] for row in got]
        close = np.allclose(
            [row["score"] for row in got],
            [item.score for item in expected],
            rtol=SCORE_RTOL,
            atol=SCORE_ATOL,
        )
        wrong += not (same_items and close)
    return len(picks), wrong


def measure(workload: str, made: ServeSetup, seed: int, seconds: float, ladder=False):
    """Warm-up and nominal windows; optionally the ladder scan.

    The rate is requests served per CPU-second the worker spent in the
    nominal windows: the throughput of one busy core.  Wall-clock rates
    of this server (one connection back to back, or two) jumped between
    regimes from run to run, with the box's scheduling and the
    batcher's coalescing; the worker's CPU time per request did not.

    Returns ``(summary, outcomes of every window, nominal outcomes)``.
    """
    rates = RATES[workload]
    groups = population(workload, seed, made.num_groups)
    schedule = openloop.Schedule([seed, 3], groups)
    port = made.pool.port
    every = []

    def window(rate, length):
        offsets, picks = schedule.at(rate, length)
        outcomes = openloop.run_schedule(port, offsets, picks, connections=CONNECTIONS)
        every.extend(outcomes)
        return outcomes

    window(rates["nominal"], WARMUP_S)  # caches, lazy imports, page faults
    worker = made.pool.worker_pids()[0]
    cpu_before = cpu_seconds(worker)
    nominal = [
        window(rates["nominal"], seconds * NOMINAL_SHARE / NOMINAL_WINDOWS)
        for _ in range(NOMINAL_WINDOWS)
    ]
    summary = openloop.summarize_windows(nominal)
    served = sum(1 for part in nominal for o in part if openloop.is_success(o))
    summary["per_cpu_s"] = served / (cpu_seconds(worker) - cpu_before)
    if ladder:

        def probe(rate):
            outcomes = window(rate, RUNG_SECONDS)
            result = openloop.summarize(outcomes)
            return result["p99_ms"], openloop.meets_slo(result, outcomes)

        summary["max_rps_at_slo"], summary["probes"] = openloop.max_rate_at_slo(
            rates["ladder"], rates["start"], probe
        )
    return summary, every, [o for part in nominal for o in part]


def fleet_p99_rel_err(pool, outcomes) -> float:
    """``ServingPool.stats()`` p99 against the exact p99 of the same responses."""
    served = [o.body["latency_ms"] for o in outcomes if o.status == 200 and o.body]
    exact = openloop.quantile(served, 0.99)
    reported = pool.stats()["aggregate"]["latency_ms"]["p99"]
    return abs(reported - exact) / exact


def run(workload: str, seed: int, seconds: float, workdir, ladder=False) -> dict:
    made, setup_s = setup(seed, workdir)
    try:
        summary, every, nominal = measure(workload, made, seed, seconds, ladder)
        checked, wrong = check_answers(nominal, made.path, seed)
        rss = peak_rss_mb(made.pool.worker_pids()[0])
        fleet_err = fleet_p99_rel_err(made.pool, every)
    finally:
        made.close()
    failed = summary["failed"] + wrong
    return {
        "attempted": summary["attempted"] + checked,
        "failed": failed,
        "correct": wrong == 0 and summary["failed"] == 0,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "p50_ms": summary["p50_ms"],
            "rate_per_s": summary["per_cpu_s"],
        },
        "detail": {
            "p95_ms": summary["p95_ms"],
            "pool_start_s": made.pool_start_s,
            "fail_share": summary["fail_share"],
            "lag_p99_ms": openloop.quantile(summary["lag_ms"], 0.99),
            "fleet_p99_rel_err": fleet_err,
            "max_rps_at_slo": summary.get("max_rps_at_slo"),
            "probes": summary.get("probes"),
            "checked": checked,
            "p99_ms": summary["p99_ms"],
        },
    }
