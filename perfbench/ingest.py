"""``ingest``: delta writes hot-swapped into a pool beside steady reads.

The default ``movielens_like("rand")`` world (100 users x 120 items x 60
groups) is trained for one warm epoch, captured as a ``TrainState`` and
served by ``ServingPool(workers=1, mmap=True)``.  Reads ask for all 60
groups at one fixed open-loop rate.  Cold-item + new-group deltas arrive
on a fixed schedule; each one runs ``OnlineUpdater(None, ...).ingest``
(two fine-tune epochs, the CLI default), ``last_index.save`` and
``ServingPool.reload``.

The write side runs in a forked writer process (ingest + save) and a
thread of the benchmark process (reload + checks), so the fine-tune's
Python work does not hold the read generator's interpreter lock; the
two still share the box's cores with the pool, and the generator lag
shows what that costs.

Delta-to-serve is the time from a delta's scheduled arrival to the first
read response carrying its index version.  After each swap the delta's
new group must answer 200 from the new version, and no read may answer
anything but 200 from the model.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import get_context
from statistics import median

import numpy as np

from repro.core import KGAGTrainer
from repro.core.checkpoint import TrainState
from repro.serve import build_index
from repro.stream import DeltaBatch, OnlineUpdater

from . import openloop
from .common import make_world, median_setup, peak_rss_mb, start_pool

WORLD = dict(users=100, items=120, groups=60)
READ_RATE = 80.0
CONNECTIONS = 2
FINETUNE_EPOCHS = 2
WRITER_NICE = 10
FIRST_DELTA_S = 1.0
DELTA_EVERY_S = 3.0
# The last delta must leave time for reads to see its version.
TAIL_S = 1.5


def cold_item_delta(dataset, tag: int) -> DeltaBatch:
    """One new item wired into the KG like its members' items, one new group.

    The group reuses the members of group ``tag``; the item copies every
    attribute edge of the first two members' first three items and is
    liked by every member.
    """
    members = [int(u) for u in dataset.groups.members[tag % dataset.groups.num_groups]]
    item_ref = f"item:{dataset.num_items}"
    records = [
        {"op": "add_item", "name": f"cold-item-{tag}"},
        {"op": "add_group", "members": members},
    ]
    pairs = dataset.user_item.pairs
    triples = dataset.kg.triples
    linked = set()
    for user in members[:2]:
        for item in pairs[pairs[:, 0] == user][:3, 1]:
            for _, relation, tail in triples[triples[:, 0] == item]:
                if tail >= dataset.num_items:
                    linked.add((int(relation), int(tail) - dataset.num_items))
    records += [
        {"op": "add_edge", "head": item_ref, "relation": relation, "tail": f"attr:{attr}"}
        for relation, attr in sorted(linked)
    ]
    records += [
        {"op": "add_interaction", "user": user, "item": dataset.num_items}
        for user in members
    ]
    return DeltaBatch.from_records(records)


class IngestSetup:
    def __init__(self, seed: int, workdir):
        dataset, split, model = make_world(seed=seed, **WORLD)
        trainer = KGAGTrainer(model, split.train, dataset.user_item, split.validation)
        trainer.train_epoch()
        state = TrainState.capture(trainer, epoch=0)
        index = build_index(
            model, train_interactions=split.train, user_interactions=dataset.user_item
        )
        self.workdir = workdir
        self.path = index.save(workdir / f"ingest-{seed}-v0.npz")
        self.num_groups = index.num_groups
        self.updater = OnlineUpdater(
            None,
            dataset,
            state,
            split.train,
            group_validation=split.validation,
            finetune_epochs=FINETUNE_EPOCHS,
            seed=seed,
        )
        self.pool, self.pool_start_s = start_pool(self.path)

    def close(self) -> None:
        self.pool.close()


def setup(seed: int, workdir) -> tuple[IngestSetup, float]:
    def build(keep: bool) -> IngestSetup:
        made = IngestSetup(seed, workdir)
        if not keep:
            made.close()
        return made

    return median_setup(build)


def _writer_main(updater, workdir, seed, arrivals, start, connection) -> None:
    """Writer process: ingest each delta at its arrival time, save its index.

    It runs at a lower scheduling priority so the reads keep their share
    of the two cores, and reports its own peak memory when done.
    """
    try:
        os.nice(WRITER_NICE)
        for n, arrival in enumerate(arrivals):
            delay = start + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            dataset = updater.snapshot()[0]
            began = time.perf_counter()
            report = updater.ingest(cold_item_delta(dataset, n))
            ingested = time.perf_counter()
            path = updater.last_index.save(workdir / f"ingest-{seed}-v{n + 1}.npz")
            saved = time.perf_counter()
            connection.send(
                (
                    "delta",
                    {
                        "n": n,
                        "path": str(path),
                        "version": report["index_version"],
                        "new_group": dataset.groups.num_groups,
                        "began": began,
                        "ingest_s": ingested - began,
                        "save_s": saved - ingested,
                        "saved": saved,
                    },
                )
            )
        connection.send(("peak_rss_mb", peak_rss_mb()))
    except BaseException as error:  # reported to the parent
        connection.send(("error", repr(error)))
    finally:
        connection.close()


def write_side(made: IngestSetup, seed: int, arrivals, start: float):
    """Start the writer process and the reload thread.

    Returns ``(join, records, errors, peak)``: call ``join()``, then read
    ``records`` (one dict per delta), ``errors`` and the writer's
    ``peak`` memory.
    """
    context = get_context("fork")
    parent_end, child_end = context.Pipe(duplex=False)
    writer = context.Process(
        target=_writer_main,
        args=(made.updater, made.workdir, seed, arrivals, start, child_end),
        name="perfbench-writer",
    )
    records: list[dict] = []
    errors: list[str] = []
    peak: list[float] = []

    def reload_loop() -> None:
        client = openloop.Client(made.pool.port)
        try:
            while True:
                kind, payload = parent_end.recv()
                if kind == "error":
                    errors.append(payload)
                    return
                if kind == "peak_rss_mb":
                    peak.append(payload)
                    return
                began = time.perf_counter()
                made.pool.reload(payload["path"])
                payload["reloaded"] = time.perf_counter()
                payload["reload_s"] = payload["reloaded"] - began
                status, body = client.get(f"/recommend?group={payload['new_group']}&k=5")
                payload["check_ok"] = (
                    openloop.answered(status, body)
                    and body.get("index_version") == payload["version"]
                )
                records.append(payload)
        except BaseException as error:
            errors.append(repr(error))
        finally:
            client.close()

    writer.start()
    child_end.close()
    thread = threading.Thread(target=reload_loop, name="perfbench-reload")
    thread.start()

    def join() -> None:
        thread.join()
        writer.join(timeout=60)
        if writer.is_alive():
            writer.terminate()
            writer.join()
        parent_end.close()

    return join, records, errors, peak


def first_visible(outcomes, version: str) -> float | None:
    """``done`` time of the first read answered from ``version``."""
    times = [
        o.done
        for o in outcomes
        if o.body is not None and o.body.get("index_version") == version
    ]
    return min(times) if times else None


def measure(made: IngestSetup, seed: int, seconds: float, rid_base=None) -> dict:
    schedule = openloop.Schedule([seed, 4], np.arange(made.num_groups))
    port = made.pool.port
    offsets, picks = schedule.at(READ_RATE, 2.0)
    openloop.run_schedule(port, offsets, picks, connections=CONNECTIONS)  # warm-up

    offsets, picks = schedule.at(READ_RATE, seconds)
    arrivals = list(np.arange(FIRST_DELTA_S, seconds - TAIL_S, DELTA_EVERY_S))
    start = time.perf_counter() + 0.05
    join, records, errors, peak = write_side(made, seed, arrivals, start)
    try:
        reads = openloop.run_schedule(
            port, offsets, picks, connections=CONNECTIONS, rid_base=rid_base, start=start
        )
    finally:
        join()
    visible = []
    for record in records:
        arrived = start + arrivals[record["n"]]
        seen = first_visible(reads, record["version"])
        record["delta_to_serve_s"] = None if seen is None else seen - arrived
        record["swap_visible_s"] = None if seen is None else seen - record["reloaded"]
        if seen is not None:
            visible.append(record)
    # One window per delta period, so every window holds one swap and
    # the median over windows does not hang on where a swap fell.
    windows = [[] for _ in range(int(seconds // DELTA_EVERY_S) or 1)]
    for outcome in reads:
        at = int((outcome.due - start) // DELTA_EVERY_S)
        windows[min(at, len(windows) - 1)].append(outcome)
    return {
        "reads": reads,
        "summary": openloop.summarize_windows(windows),
        "records": records,
        "visible": visible,
        "errors": errors,
        "deltas": len(arrivals),
        "writer_peak_rss_mb": peak[0] if peak else None,
    }


def run(seed: int, seconds: float, workdir) -> dict:
    made, setup_s = setup(seed, workdir)
    try:
        measured = measure(made, seed, seconds)
        worker_rss = peak_rss_mb(made.pool.worker_pids()[0])
    finally:
        made.close()
    summary, records, visible = measured["summary"], measured["records"], measured["visible"]
    bad_checks = sum(1 for record in records if not record["check_ok"])
    missing = measured["deltas"] - len(records) + len(measured["errors"])
    unseen = len(records) - len(visible)
    failed = summary["failed"] + bad_checks + missing + unseen
    if not visible or measured["writer_peak_rss_mb"] is None:
        raise RuntimeError(f"the write side did not finish: {measured['errors']}")
    delta_to_serve = median(record["delta_to_serve_s"] for record in visible)
    return {
        "attempted": summary["attempted"] + measured["deltas"],
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": measured["writer_peak_rss_mb"],
            "p50_ms": summary["p50_ms"],
            "rate_per_s": 1.0 / delta_to_serve,
        },
        "detail": {
            "p95_ms": summary["p95_ms"],
            "delta_to_serve_s": delta_to_serve,
            "pool_start_s": made.pool_start_s,
            "worker_peak_rss_mb": worker_rss,
            "p99_ms": summary["p99_ms"],
            "fail_share": summary["fail_share"],
            "lag_p99_ms": openloop.quantile(summary["lag_ms"], 0.99),
            "deltas": measured["deltas"],
            "records": [
                {k: v for k, v in r.items() if k not in ("path", "began", "saved", "reloaded")}
                for r in records
            ],
        },
    }
