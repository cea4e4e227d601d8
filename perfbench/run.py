"""The KGAG benchmark: four workloads, one command.

    python3 perfbench/run.py --workload train|serve-cold|serve-hot|ingest \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from the
checkout's ``src/`` (pure Python, nothing to build) and keeps its
scratch files under ``.perfbench/`` there, removed on exit.  Inputs are
made from ``--seed``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md).  The line before it
is the environment stamp (``# stamp {...}``).  The exit code is 1 when a
correctness check failed and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "serve-cold", "serve-hot", "ingest")
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "rate_per_s": "1/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# One BLAS thread per process: the box runs a server process and a load
# process on two cores, and spinning BLAS helpers in both made latency
# depend on which one the scheduler favoured.  Set before numpy loads;
# forked workers inherit it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One malloc arena per process.  The pool worker's handler and scorer
# threads otherwise got arenas of their own as scheduling fell out, and
# its peak memory jumped by 8 MB steps from run to run (71-88 MB over
# ten seeds of one world); with one arena it stays within 1% of its median.
# glibc reads this when the process starts, so ``main`` re-executes
# itself once with it set.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1"}


def _children() -> list[int]:
    """Pids of this process's live children, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Shared-memory segments start ``multiprocessing``'s resource tracker,
    a process that otherwise outlives this one until it notices the
    closed pipe.  Workloads close their pools and trainers themselves;
    anything still running after that is terminated, then killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for signal_number in (signal.SIGTERM, signal.SIGKILL):
        pids = _children()
        for pid in pids:
            try:
                os.kill(pid, signal_number)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.05)
        if not pids:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(name) != value for name, value in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        rest = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *rest])
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, workloads

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from perfbench import layers

            result = layers.traced(args.workload, args.seed, args.seconds, workdir)
            units = layers.UNITS
        else:
            result = workloads.run(args.workload, args.seed, args.seconds, workdir)
            units = UNITS
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print("# detail " + json.dumps(result.get("detail", {}), default=str), flush=True)
    print("# stamp " + json.dumps(common.environment_stamp()), flush=True)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        ),
        flush=True,
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
