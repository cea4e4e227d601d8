"""Multi-thread stress suite under the lockset race detector.

``python -m repro.analysis.race_smoke`` (the ``make race-smoke``
target) hammers the thread-shared serving and observability objects —
:class:`~repro.obs.metrics.MetricsRegistry`, :class:`~repro.obs.trace.
Tracer`, :class:`~repro.serve.cache.ScoreCache`, :class:`~repro.serve.
engine.MicroBatcher`, :class:`~repro.serve.fallback.ResilientScorer`,
:class:`~repro.serve.fallback.CircuitBreaker` and the parallel
trainer's reduction counters
(:class:`~repro.core.parallel.ParallelStats`) — from N concurrent
threads, twice: once bare (the zero-overhead baseline) and once with
every object tracked by :class:`~repro.analysis.racecheck.RaceDetector`.
The run fails (exit 1) if the detector reports any lockset violation,
and prints the two wall times so the detector's overhead stays an
explicit, measured number.

A second drill runs real catalog scoring: N threads score overlapping
groups of a small attentive index from a cold member table
(:class:`~repro.serve.engine.CatalogTable`), with the table tracked.
It fails on any violation, or if a row differs from a single-thread
run's.

The workload is deterministic — a stub engine computes ``group + item``
scores, every 13th group's primary scorer raises to exercise the
circuit breaker, and thread scheduling only affects interleaving, which
the Eraser lockset algorithm is insensitive to by construction.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Sequence

import numpy as np

from ..core import KGAG, KGAGConfig
from ..core.parallel import ParallelStats
from ..data import MovieLensLikeConfig, movielens_like
from ..obs.metrics import LATENCY_MS_BUCKETS, MetricsRegistry
from ..obs.trace import Tracer
from ..serve.cache import ScoreCache
from ..serve.engine import MicroBatcher, RankingEngine
from ..serve.fallback import CircuitBreaker, ResilientScorer
from ..serve.index import build_index
from .racecheck import RaceDetector

__all__ = ["StressResult", "run_stress", "run_catalog_drill", "main"]

NUM_ITEMS = 32
FAILING_GROUP = 7  # groups hitting this id (mod 13) exercise the breaker


class _StubEngine:
    """Deterministic engine stand-in: score(group, item) = group + item."""

    num_items = NUM_ITEMS

    def scores_for_groups(self, group_ids) -> np.ndarray:
        base = np.arange(self.num_items, dtype=np.float64)
        return np.stack([base + float(g) for g in group_ids])


class StressResult:
    """Wall time plus detector verdict for one stress run."""

    def __init__(self, elapsed: float, violations: list):
        self.elapsed = elapsed
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_stack():
    """One fresh serving/observability stack for a stress run."""
    registry = MetricsRegistry()
    counter = registry.counter("smoke/requests", help="stress requests")
    histogram = registry.histogram(
        "smoke/latency_ms", buckets=LATENCY_MS_BUCKETS, help="stress latency"
    )
    tracer = Tracer()
    cache = ScoreCache(capacity=64)
    batcher = MicroBatcher(_StubEngine(), max_wait_ms=0.2, max_batch=8)
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=0.005)

    def primary(group_id: int) -> np.ndarray:
        if group_id % 13 == FAILING_GROUP:
            raise RuntimeError("injected primary failure")
        return batcher.scores_for_group(group_id)

    def fallback(group_id: int) -> np.ndarray:
        return np.zeros(NUM_ITEMS, dtype=np.float64)

    resilient = ResilientScorer(
        primary, fallback, deadline_ms=None, breaker=breaker
    )
    parallel_stats = ParallelStats()
    return (registry, counter, histogram, tracer, cache, batcher, resilient,
            breaker, parallel_stats)


def _worker(stack, worker_id: int, iterations: int) -> None:
    (registry, counter, histogram, tracer, cache, batcher, resilient,
     breaker, parallel_stats) = stack
    for i in range(iterations):
        group = (worker_id * 31 + i) % 64
        with tracer.span("request"):
            counter.inc()
            histogram.observe(float(i % 10))
            key = (group, "v0")
            vector = cache.get(key)
            if vector is None:
                answer = resilient.scores(group)
                cache.put(key, answer.scores)
        # The parallel trainer's reduction counters: writer (record) and
        # reader (snapshot) racing, as a metric exporter would.
        parallel_stats.record_round(batches=4, sparse_rows=i % 32)
        if i % 16 == 0:
            registry.snapshot()
            breaker.allow()
            resilient.stats()
            cache.stats()
            parallel_stats.record_epoch()
            parallel_stats.snapshot()


def run_stress(
    threads: int, iterations: int, detect: bool, capture_stacks: bool = False
) -> StressResult:
    """Run the stress workload; ``detect`` wraps every object in tracking."""
    stack = _build_stack()
    (registry, counter, histogram, tracer, cache, batcher, resilient,
     breaker, parallel_stats) = stack
    detector = RaceDetector(capture_stacks=capture_stacks)
    if detect:
        for obj in (registry, counter, histogram, tracer, cache,
                    batcher, resilient, breaker, parallel_stats):
            detector.track(obj)
    workers = [
        threading.Thread(
            target=_worker, args=(stack, worker_id, iterations),
            name=f"stress-{worker_id}",
        )
        for worker_id in range(threads)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    if detect:
        detector.untrack_all()
    resilient.close()
    batcher.close()
    return StressResult(elapsed, list(detector.violations))


def run_catalog_drill(threads: int, capture_stacks: bool = False) -> tuple[list, int]:
    """``(violations, mismatched_rows)`` of concurrent cold-table scoring.

    Every thread scores every group of a small attentive (d=16, H=2,
    K=4) index, each starting at its own offset, so threads race to
    fill the same users' member rows.
    """
    dataset = movielens_like(
        "rand", MovieLensLikeConfig(num_users=24, num_items=30, num_groups=12, seed=0)
    )
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        KGAGConfig(embedding_dim=16, num_layers=2, num_neighbors=4, seed=0),
    )
    groups = list(range(dataset.groups.num_groups))
    single = RankingEngine(build_index(model))
    reference = {group: single.scores_for_group(group) for group in groups}

    index = build_index(model)  # a fresh snapshot: its table starts cold
    engine = RankingEngine(index)
    rows: list[dict] = [{} for _ in range(threads)]

    def score(worker_id: int) -> None:
        offset = (worker_id * 5) % len(groups)
        for group in groups[offset:] + groups[:offset]:
            rows[worker_id][group] = engine.scores_for_group(group)

    detector = RaceDetector(capture_stacks=capture_stacks)
    detector.track(index.catalog_table)
    workers = [
        threading.Thread(target=score, args=(worker_id,), name=f"catalog-{worker_id}")
        for worker_id in range(threads)
    ]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        detector.untrack_all()
    mismatched = sum(
        not np.array_equal(vector, reference[group])
        for per_thread in rows
        for group, vector in per_thread.items()
    ) + sum(len(groups) - len(per_thread) for per_thread in rows)
    return list(detector.violations), mismatched


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.race_smoke",
        description="Stress the thread-shared serve/obs objects under the "
        "lockset race detector.",
    )
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument(
        "--stacks",
        action="store_true",
        help="capture per-access stack traces (slower, richer reports)",
    )
    args = parser.parse_args(argv)

    baseline = run_stress(args.threads, args.iterations, detect=False)
    tracked = run_stress(
        args.threads, args.iterations, detect=True, capture_stacks=args.stacks
    )
    ratio = tracked.elapsed / baseline.elapsed if baseline.elapsed > 0 else 0.0
    print(f"race-smoke: {args.threads} threads x {args.iterations} iterations")
    print(f"  detector off: {baseline.elapsed * 1e3:9.1f} ms")
    print(f"  detector on:  {tracked.elapsed * 1e3:9.1f} ms  ({ratio:.1f}x)")
    violations, mismatched = run_catalog_drill(args.threads, args.stacks)
    print(f"  catalog table: {args.threads} threads, cold start")
    print(f"    rows differing from a single-thread run: {mismatched}")
    failed = False
    for label, found in (
        ("violations", tracked.violations),
        ("catalog violations", violations),
    ):
        print(f"  {label}: {len(found)}")
        for violation in found:
            print(violation.render())
        failed = failed or bool(found)
    return 1 if failed or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
