"""The traced run: per-layer metrics from spans around public calls.

A ``--trace 1`` run first runs the workload untraced (end-to-end
numbers, generator lag, the fleet-quantile cross-check), then wraps the
program's public calls in :class:`~perfbench.spans.SpanRecorder` spans
and runs a shorter traced pass.  Wrappers go in before any process is
forked, so the serving worker and the ingest writer inherit them and
flush their spans when they exit.  ``bench.trace_overhead_share`` is the
traced pass's median operation time over the untraced one, minus one.

Every per-layer metric is printed on every workload; a layer the
workload does not run reports 0.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from statistics import median
from urllib.parse import parse_qs, urlparse

import numpy as np

import repro.stream.delta
import repro.stream.updater
from repro.core import KGAGTrainer
from repro.core.model import KGAG
from repro.data.loader import MixedBatchLoader
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.serve import EmbeddingIndex, MicroBatcher, RankingEngine, RecommendationService
from repro.serve import ServingPool
from repro.serve import server as serve_server
from repro.stream import OnlineUpdater

from . import ingest, openloop, serving, training, workloads
from .spans import END, NAME, PARENT, PID, START, SpanRecorder, self_times

UNITS = {
    "p95_ms": "ms",
    "data.loader.batch_ms": "ms",
    "core.model.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim.step_ms": "ms",
    "core.trainer.step_ms": "ms",
    "core.trainer.steps_per_epoch": "count",
    "nn.compile.epoch_s": "s",
    "core.parallel.epoch_s": "s",
    "eval.score_s": "s",
    "eval.rank_s": "s",
    "train.epoch_s": "s",
    "train.validate_s": "s",
    "train.hit5": "share",
    "train.popularity_hit5": "share",
    "serve.engine.score_ms": "ms",
    "serve.batcher.wait_ms": "ms",
    "serve.batcher.batch_size": "count",
    "serve.cache.hit_ratio": "share",
    "serve.engine.rank_ms": "ms",
    "serve.service.recommend_ms": "ms",
    "serve.http.overhead_ms": "ms",
    "serve.admission.wait_ms": "ms",
    "serve.admission.shed_share": "share",
    "serve.fallback.share": "share",
    "serve.index.load_ms": "ms",
    "serve.pool.start_s": "s",
    "serve.pool.worker_rss_mb": "MB",
    "recommend.p99_ms": "ms",
    "recommend.max_rps_at_slo": "1/s",
    "recommend.fail_share": "share",
    "stream.apply_delta_ms": "ms",
    "stream.finetune_s": "s",
    "serve.index.build_ms": "ms",
    "serve.index.save_ms": "ms",
    "serve.pool.reload_ms": "ms",
    "serve.pool.swap_visible_ms": "ms",
    "ingest.delta_to_serve_s": "s",
    "obs.fleet_p99_rel_err": "share",
    "bench.generator_lag_p99_ms": "ms",
    "bench.trace_overhead_share": "share",
}

RID_BASE = 1


def install(recorder: SpanRecorder) -> None:
    """Wrap every public call the per-layer metrics are made from."""
    wrap = recorder.wrap
    wrap(MixedBatchLoader, "epoch", "data.loader.batch")
    wrap(KGAG, "group_item_scores_pair", "core.model.forward")
    wrap(KGAG, "user_item_scores", "core.model.forward")
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "step", "nn.optim.step")
    wrap(KGAGTrainer, "train_step", "core.trainer.step")
    wrap(KGAGTrainer, "train_epoch", "core.trainer.epoch")
    wrap(KGAGTrainer, "validate", "core.trainer.validate")
    wrap(RankingEngine, "scores_for_groups", "engine.scores_for_groups")
    wrap(RankingEngine, "rank", "engine.rank")
    wrap(MicroBatcher, "scores_for_group", "serve.batcher.submit")
    wrap(RecommendationService, "recommend", "serve.service.recommend")
    wrap(OnlineUpdater, "ingest", "stream.ingest")
    wrap(repro.stream.delta, "apply_delta", "stream.apply_delta")
    wrap(repro.stream.updater, "finetune", "stream.finetune")
    wrap(repro.stream.updater, "build_index", "serve.index.build")
    wrap(EmbeddingIndex, "save", "serve.index.save")
    wrap(ServingPool, "reload", "serve.pool.reload")

    # The HTTP entry point is the root of a request's spans; it also
    # tags the handler thread with the request id the client sent.
    handler = serve_server._Handler
    do_get = handler.do_GET

    def traced_do_get(self):
        rid = parse_qs(urlparse(self.path).query).get("rid")
        recorder.request_id = int(rid[0]) if rid else None
        span = recorder.open("serve.http.handle")
        try:
            return do_get(self)
        finally:
            recorder.close(span)
            recorder.request_id = None

    recorder.patch(handler, "do_GET", traced_do_get)


# -- span arithmetic -------------------------------------------------------


class Spans:
    """Indexes of one run's spans by name and by process."""

    def __init__(self, spans):
        self.spans = spans
        self.self_ns = self_times(spans)
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span[NAME]].append(span)

    def named(self, name, pid=None, during=None):
        """Spans called ``name``, of process ``pid``, started ``during`` (ns, ns)."""
        return [
            s
            for s in self.by_name.get(name, [])
            if (pid is None or s[PID] == pid)
            and (during is None or during[0] <= s[START] <= during[1])
        ]

    @staticmethod
    def durations_ms(spans):
        return [(s[END] - s[START]) / 1e6 for s in spans]

    def mean_ms(self, name, **where) -> float:
        values = self.durations_ms(self.named(name, **where))
        return float(np.mean(values)) if values else 0.0

    def total_ms(self, name, **where) -> float:
        return float(sum(self.durations_ms(self.named(name, **where))))

    def self_ms(self, span) -> float:
        return self.self_ns[(span[PID], span[0])] / 1e6

    def check_nesting(self) -> bool:
        """Self times of every span tree add up to its root's duration."""
        roots = defaultdict(int)
        parents = {(s[PID], s[0]): s for s in self.spans}
        for span in self.spans:
            root = span
            while root[PARENT] is not None and (root[PID], root[PARENT]) in parents:
                root = parents[(root[PID], root[PARENT])]
            roots[(root[PID], root[0])] += self.self_ns[(span[PID], span[0])]
        return all(
            total == parents[key][END] - parents[key][START] for key, total in roots.items()
        )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- per-workload traced passes --------------------------------------------


def _train_metrics(spans: Spans, pid: int) -> dict:
    steps = spans.named("core.trainer.step", pid=pid)
    epochs = spans.named("core.trainer.epoch", pid=pid)
    validates = spans.named("core.trainer.validate", pid=pid)
    count = max(1, len(steps))
    # In training every engine call is validation's catalog scoring.
    in_validate = spans.named("engine.scores_for_groups", pid=pid)
    return {
        "data.loader.batch_ms": spans.mean_ms("data.loader.batch", pid=pid),
        "core.model.forward_ms": spans.total_ms("core.model.forward", pid=pid) / count,
        "nn.backward_ms": spans.total_ms("nn.backward", pid=pid) / count,
        "nn.optim.step_ms": spans.total_ms("nn.optim.step", pid=pid) / count,
        "core.trainer.step_ms": spans.mean_ms("core.trainer.step", pid=pid),
        "core.trainer.steps_per_epoch": _share(len(steps), len(epochs)),
        "eval.score_s": _share(sum(Spans.durations_ms(in_validate)), len(validates)) / 1e3,
        "eval.rank_s": _share(sum(spans.self_ms(v) for v in validates), len(validates))
        / 1e3,
    }


def _epoch_seconds(seed: int, **options) -> float:
    """Second-epoch seconds of a fresh trainer (the first traces or forks)."""
    made = training.TrainSetup(seed, **options)
    try:
        made.trainer.train_epoch()
        start = time.perf_counter()
        made.trainer.train_epoch()
        return time.perf_counter() - start
    finally:
        made.close()


def trace_train(recorder, seed, seconds, untraced) -> dict:
    made = training.TrainSetup(seed)
    start = time.perf_counter()
    try:
        measured = training.measure(made, seconds / 2)
    finally:
        made.close()
    wall = time.perf_counter() - start
    recorder.unwrap_all()
    spans = Spans(recorder.collect())
    metrics = _train_metrics(spans, os.getpid())
    roots = spans.named("core.trainer.epoch") + spans.named("core.trainer.validate")
    covered = sum(e - s for s, e in ((r[START], r[END]) for r in roots)) / 1e9
    detail = untraced["detail"]
    overhead = median(measured["epoch_s"]) / detail["epoch_s"] - 1.0
    metrics.update(
        {
            "nn.compile.epoch_s": _epoch_seconds(seed, compile=True),
            "core.parallel.epoch_s": _epoch_seconds(seed, workers=len(os.sched_getaffinity(0))),
            "train.epoch_s": detail["epoch_s"],
            "train.validate_s": detail["validate_s"],
            "train.hit5": detail["hit5"],
            "train.popularity_hit5": detail["popularity_hit5"],
            "bench.trace_overhead_share": overhead,
        }
    )
    # Epochs and validations run back to back, so their self times must
    # cover the traced wall time up to the loop's own bookkeeping.
    consistent = spans.check_nesting() and covered / wall > 1.0 - max(0.02, abs(overhead))
    return {"metrics": metrics, "consistent": consistent, "detail": {"coverage": covered / wall}}


def _stats_delta(before: dict, after: dict) -> dict:
    def counters(payload):
        stats = payload["per_worker"][0]["stats"]
        return {
            "requests": stats["requests"],
            "hits": stats.get("cache", {}).get("hits", 0),
            "batches": stats["batching"]["batches_run"],
            "batched": stats["batching"]["requests_served"],
            "fallback": stats["resilience"]["fallback_answers"],
            "shed": stats["shed"],
        }

    a, b = counters(before), counters(after)
    return {key: b[key] - a[key] for key in a}


def _serve_metrics(spans: Spans, pid: int, during, outcomes, stats: dict) -> dict:
    """Serving layers of worker ``pid`` over the traced window ``during``.

    The scorer runs the batcher and engine on its executor threads, which
    carry no request id, so the window is picked by time: span clocks are
    ``CLOCK_MONOTONIC`` and comparable across processes.
    """
    where = dict(pid=pid, during=during)
    submits = spans.named("serve.batcher.submit", **where)
    engine = sorted(spans.named("engine.scores_for_groups", **where), key=lambda s: s[START])
    starts = [s[START] for s in engine]
    waits = []
    for submit in submits:
        at = int(np.searchsorted(starts, submit[START]))
        if at < len(engine):
            waits.append((engine[at][START] - submit[START]) / 1e6)
    served = [o for o in outcomes if openloop.is_success(o)]
    return {
        "serve.engine.score_ms": sum(Spans.durations_ms(engine)) / max(1, stats["requests"]),
        "serve.batcher.wait_ms": float(np.mean(waits)) if waits else 0.0,
        "serve.batcher.batch_size": _share(stats["batched"], stats["batches"]),
        "serve.cache.hit_ratio": _share(stats["hits"], stats["requests"]),
        "serve.engine.rank_ms": spans.mean_ms("engine.rank", **where),
        "serve.service.recommend_ms": median(o.body["latency_ms"] for o in served),
        "serve.http.overhead_ms": median(
            (o.done - o.sent) * 1e3 - o.body["latency_ms"] for o in served
        ),
        # Admission control is off at the CLI defaults: nothing waits
        # for a permit and nothing is shed unless that changes.
        "serve.admission.wait_ms": 0.0,
        "serve.admission.shed_share": _share(stats["shed"], stats["requests"] + stats["shed"]),
        "serve.fallback.share": _share(stats["fallback"], stats["requests"]),
    }


def _index_load_ms(path) -> float:
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        EmbeddingIndex.load(path, mmap=True)
        seconds.append(time.perf_counter() - start)
    return median(seconds) * 1e3


def trace_serve(recorder, workload, seed, seconds, workdir, untraced) -> dict:
    made = serving.ServeSetup(seed, workdir)
    worker_pid = made.pool.worker_pids()[0]
    try:
        groups = serving.population(workload, seed, made.num_groups)
        schedule = openloop.Schedule([seed, 3], groups)
        rate = serving.RATES[workload]["nominal"]
        port = made.pool.port
        openloop.run_schedule(port, *schedule.at(rate, 2.0), connections=serving.CONNECTIONS)
        before = made.pool.stats()
        begin = time.perf_counter_ns()
        outcomes = openloop.run_schedule(
            port, *schedule.at(rate, seconds / 2), connections=serving.CONNECTIONS, rid_base=RID_BASE
        )
        during = (begin, time.perf_counter_ns())
        after = made.pool.stats()
        load_ms = _index_load_ms(made.path)
    finally:
        made.close()
    recorder.unwrap_all()
    spans = Spans(recorder.collect())
    metrics = _serve_metrics(spans, worker_pid, during, outcomes, _stats_delta(before, after))
    summary = openloop.summarize(outcomes)
    detail = untraced["detail"]
    metrics.update(
        {
            "serve.index.load_ms": load_ms,
            "serve.pool.start_s": detail["pool_start_s"],
            "recommend.p99_ms": detail["p99_ms"],
            "recommend.max_rps_at_slo": detail["max_rps_at_slo"],
            "recommend.fail_share": detail["fail_share"],
            "obs.fleet_p99_rel_err": detail["fleet_p99_rel_err"],
            "bench.generator_lag_p99_ms": detail["lag_p99_ms"],
            "bench.trace_overhead_share": summary["p50_ms"] / untraced["metrics"]["p50_ms"] - 1.0,
        }
    )
    return {"metrics": metrics, "consistent": spans.check_nesting(), "detail": {}}


def trace_ingest(recorder, seed, seconds, workdir, untraced) -> dict:
    made = ingest.IngestSetup(seed, workdir)
    worker_pid = made.pool.worker_pids()[0]
    try:
        load_ms = _index_load_ms(made.path)
        before = made.pool.stats()
        begin = time.perf_counter_ns()
        measured = ingest.measure(made, seed, seconds / 2, rid_base=RID_BASE)
        during = (begin, time.perf_counter_ns())
        after = made.pool.stats()
    finally:
        made.close()
    recorder.unwrap_all()
    spans = Spans(recorder.collect())
    me = os.getpid()
    writer = {s[PID] for s in spans.named("stream.ingest")}
    writer_pid = writer.pop() if writer else -1
    metrics = _serve_metrics(
        spans, worker_pid, during, measured["reads"], _stats_delta(before, after)
    )
    metrics.update(_train_metrics(spans, writer_pid))
    visible = measured["visible"]
    detail = untraced["detail"]
    metrics.update(
        {
            "stream.apply_delta_ms": spans.mean_ms("stream.apply_delta", pid=writer_pid),
            "stream.finetune_s": spans.mean_ms("stream.finetune", pid=writer_pid) / 1e3,
            "serve.index.build_ms": spans.mean_ms("serve.index.build", pid=writer_pid),
            "serve.index.save_ms": spans.mean_ms("serve.index.save", pid=writer_pid),
            "serve.pool.reload_ms": spans.mean_ms("serve.pool.reload", pid=me),
            "serve.pool.swap_visible_ms": median(r["swap_visible_s"] for r in visible) * 1e3
            if visible
            else 0.0,
            "serve.index.load_ms": load_ms,
            "serve.pool.start_s": detail["pool_start_s"],
            "serve.pool.worker_rss_mb": detail["worker_peak_rss_mb"],
            "ingest.delta_to_serve_s": detail["delta_to_serve_s"],
            "recommend.p99_ms": detail["p99_ms"],
            "recommend.fail_share": detail["fail_share"],
            "bench.generator_lag_p99_ms": detail["lag_p99_ms"],
            "bench.trace_overhead_share": measured["summary"]["p50_ms"]
            / untraced["metrics"]["p50_ms"]
            - 1.0,
        }
    )
    return {"metrics": metrics, "consistent": spans.check_nesting(), "detail": {}}


def traced(workload: str, seed: int, seconds: float, workdir) -> dict:
    untraced = workloads.run(workload, seed, seconds, workdir, ladder=True)
    recorder = SpanRecorder(workdir / "spans")
    install(recorder)
    try:
        if workload == "train":
            part = trace_train(recorder, seed, seconds, untraced)
        elif workload == "ingest":
            part = trace_ingest(recorder, seed, seconds, workdir, untraced)
        else:
            part = trace_serve(recorder, workload, seed, seconds, workdir, untraced)
    finally:
        recorder.unwrap_all()
    metrics = {name: 0.0 for name in UNITS}
    metrics["p95_ms"] = untraced["detail"]["p95_ms"]
    metrics.update(part["metrics"])
    unknown = set(metrics) - set(UNITS)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        "correct": untraced["correct"] and part["consistent"],
        "attempted": untraced["attempted"] + 1,
        "failed": untraced["failed"] + (0 if part["consistent"] else 1),
        "metrics": metrics,
        "detail": {**untraced["detail"], **part["detail"]},
    }
