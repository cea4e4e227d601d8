"""Dispatch one untraced run to its workload."""

from __future__ import annotations

from . import ingest, serving, training


def run(workload: str, seed: int, seconds: float, workdir, ladder=False) -> dict:
    """One untraced run; ``ladder`` adds the serving workloads' SLO ladder scan."""
    if workload == "train":
        return training.run(seed, seconds)
    if workload == "ingest":
        return ingest.run(seed, seconds, workdir)
    return serving.run(workload, seed, seconds, workdir, ladder)
