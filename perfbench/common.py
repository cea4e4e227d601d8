"""Shared pieces: the paper config, worlds, the pool, set-up timing,
memory and CPU time, and the environment stamp."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core import KGAG, KGAGConfig
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions

ROOT = Path(__file__).resolve().parent.parent

# The paper's configuration (d=32, H=2, K=4) with query-dependent
# relation attention; every workload uses it.
PAPER_MODEL = dict(
    embedding_dim=32, num_layers=2, num_neighbors=4, uniform_neighbor_weights=False
)

# Every world is drawn from this one seed; a run's ``--seed`` draws the
# split, the model's initial weights, the batch order and the requests.
# Worlds drawn from different seeds differ in size by up to a seventh
# (group pairs, user pairs per batch), which moved per-step and
# per-delta times by as much between runs.
WORLD_SEED = 0

# The CLI ``serve`` defaults.
SERVICE_CONFIG = dict(cache_capacity=256, deadline_ms=250.0, batch_wait_ms=2.0)


def make_world(users: int, items: int, groups: int, seed: int):
    """``(dataset, split, model)`` for a ``movielens_like("rand")`` world."""
    dataset = movielens_like(
        "rand",
        MovieLensLikeConfig(
            num_users=users, num_items=items, num_groups=groups, seed=WORLD_SEED
        ),
    )
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(seed))
    config = KGAGConfig(seed=seed, **PAPER_MODEL)
    kgag = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    return dataset, split, kgag


def start_pool(path):
    """``(ServingPool over path, seconds to start it)``.

    Garbage from earlier set-ups is collected first: the worker is
    forked, so it starts with the parent's resident pages and its peak
    memory would otherwise depend on when the collector last ran.
    """
    from repro.serve import ServingPool

    gc.collect()
    start = time.perf_counter()
    pool = ServingPool(path, workers=1, mmap=True, service_config=SERVICE_CONFIG)
    return pool, time.perf_counter() - start


def cpu_seconds(pid: int) -> float:
    """User + system CPU time ``pid`` has used, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def median_setup(build, repeats: int = 3):
    """Run ``build(keep)`` ``repeats`` times; returns (last result, median s).

    ``build`` receives ``keep=True`` on the final repetition only, so it
    can release what earlier repetitions made.
    """
    seconds = []
    result = None
    for n in range(repeats):
        result, elapsed = timed(build, keep=n == repeats - 1)
        seconds.append(elapsed)
    return result, statistics.median(seconds)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident memory (``VmHWM``) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _digest(directory: str) -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / directory).rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment_stamp() -> dict:
    """What absolute numbers depend on; compare only equal stamps.

    ``benchmark_sha256`` identifies the benchmark's own code: runs of two
    benchmark versions measure different things.
    """
    return {
        "commit": _commit(),
        "source_sha256": _digest("src"),
        "benchmark_sha256": _digest("perfbench"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_arena_max": os.environ.get("MALLOC_ARENA_MAX"),
        "machine": platform.machine(),
    }
