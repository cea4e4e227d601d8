"""Compare two sets of benchmark runs of one workload.

    for s in 1 2 3; do python3 perfbench/run.py --workload W --seed $s \\
        --seconds 20 --trace 0; done > base.log        # on the parent
    ... > new.log                                       # on the change
    python3 perfbench/compare.py base.log new.log

Each log is the standard output of one or more runs.  Absolute numbers
are only comparable on the same environment, so the comparison is
refused (exit 2) unless every run's ``# stamp`` agrees on everything but
the program's identity (``commit``, ``source_sha256``); that includes
the benchmark's own code (``benchmark_sha256``).  Otherwise it prints
each metric's median and quartiles on both sides.
"""

from __future__ import annotations

import json
import statistics
import sys

CODE_FIELDS = ("commit", "source_sha256")


def read_log(path: str) -> tuple[list[dict], list[dict]]:
    """``(stamps, results)`` of every run in one log."""
    stamps, results = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# stamp "):
                stamps.append(json.loads(line[len("# stamp "):]))
            elif line.startswith("{"):
                results.append(json.loads(line))
    if not results or len(stamps) != len(results):
        raise SystemExit(f"{path}: expected one '# stamp' line per result line")
    return stamps, results


def environment(stamp: dict) -> dict:
    return {key: value for key, value in stamp.items() if key not in CODE_FIELDS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_stamps, base), (new_stamps, new) = read_log(argv[0]), read_log(argv[1])
    reference = environment(base_stamps[0])
    for stamp in base_stamps + new_stamps:
        if environment(stamp) != reference:
            print(
                f"refusing to compare: environment {environment(stamp)} "
                f"differs from {reference}",
                file=sys.stderr,
            )
            return 2
    print(f"{'metric':34} {'unit':6} {'base median [q1, q3]':30} {'new median [q1, q3]':30} change")
    for name, first in base[0]["metrics"].items():
        sides = []
        for results in (base, new):
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            sides.append(quartiles(values) if values else None)
        if None in sides:
            continue
        (b1, b2, b3), (n1, n2, n3) = sides
        change = f"{(n2 - b2) / b2:+.1%}" if b2 else "n/a"
        print(
            f"{name:34} {first['unit']:6} {b2:10.4g} [{b1:.4g}, {b3:.4g}]".ljust(72)
            + f" {n2:10.4g} [{n1:.4g}, {n3:.4g}]".ljust(31)
            + f" {change}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
