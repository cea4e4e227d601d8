"""``train``: sequential ``KGAGTrainer`` epochs and validation passes.

A ``movielens_like("rand")`` world of 200 users x 300 items x 400 groups
gives 29 batches of 128 group pairs per epoch.  One run: set-up (eleven
times, median reported), one warm-up epoch, then timed ``train_epoch()``
and ``validate()`` calls — what ``fit()`` runs — for the run's seconds.
The rate is group training pairs per second of one epoch plus one
validation, as ``fit()`` spends them.

Validation hit@5 is taken after the first timed epoch, a fixed point of
the schedule, so it is deterministic at a fixed seed.  It must beat the
same model's hit@5 before training, and every epoch's loss must be
finite.  The popularity baseline's hit@5 on the same split is reported
beside it: at this schedule the paper-config model does not beat it
(see perfbench/README.md), so it is recorded, not required.
"""

from __future__ import annotations

import math
import time
from statistics import median

from repro.baselines import PopularityRecommender
from repro.core import KGAGTrainer
from repro.eval import evaluate_group_recommender

from .common import make_world, median_setup, peak_rss_mb
from .openloop import quantile

WORLD = dict(users=200, items=300, groups=400)
WARMUP_EPOCHS = 1
MIN_CALLS = 2
EPOCH_SHARE = 0.75


class TrainSetup:
    def __init__(self, seed: int, **trainer_options):
        self.dataset, self.split, model = make_world(seed=seed, **WORLD)
        self.trainer = KGAGTrainer(
            model,
            self.split.train,
            self.dataset.user_item,
            self.split.validation,
            **trainer_options,
        )

    def close(self) -> None:
        self.trainer.close()


def setup(seed: int) -> tuple[TrainSetup, float]:
    # A set-up takes a fifth of a second and moved between 0.12 and
    # 0.23 s with the box from one set-up to the next.  Over ten runs
    # the median of five spread by 0.45 of its value, that of eleven
    # by 0.22.
    return median_setup(lambda keep: TrainSetup(seed), repeats=11)


def popularity_hit5(made: TrainSetup) -> float:
    baseline = PopularityRecommender(made.dataset.user_item, made.split.train)
    return evaluate_group_recommender(
        baseline.group_item_scores,
        made.split.validation,
        k=5,
        train_interactions=made.split.train,
    )["hit@5"]


def timed_steps(trainer) -> list[float]:
    """Record the wall time of every ``train_step`` the trainer takes.

    The instance attribute shadows the method, so ``train_epoch`` runs
    unchanged and only gains one ``perf_counter`` pair per step.
    """
    seconds: list[float] = []
    step = trainer.train_step

    def train_step(batch):
        start = time.perf_counter()
        try:
            return step(batch)
        finally:
            seconds.append(time.perf_counter() - start)

    trainer.train_step = train_step
    return seconds


def measure(made: TrainSetup, seconds: float) -> dict:
    """Warm-up, then timed ``train_epoch`` and ``validate`` calls.

    After the warm-up epoch come one epoch and one validation (hit@5 is
    taken there, a fixed point of the schedule), then more epochs for
    about three quarters of ``seconds``, then validations for the rest;
    at least two of each.  Grouping the epochs puts more optimiser steps
    in a run than alternating would, which steadies the step times.
    """
    trainer = made.trainer
    untrained_hit5 = trainer.validate()["hit@5"]
    losses = [trainer.train_epoch() for _ in range(WARMUP_EPOCHS)]
    steps = timed_steps(trainer)
    epoch_s, validate_s = [], []
    began = time.perf_counter()

    def epoch() -> None:
        start = time.perf_counter()
        losses.append(trainer.train_epoch())
        epoch_s.append(time.perf_counter() - start)

    def validate() -> float:
        start = time.perf_counter()
        hit5 = trainer.validate()["hit@5"]
        validate_s.append(time.perf_counter() - start)
        return hit5

    def fits(share: float, last: list) -> bool:
        return time.perf_counter() + median(last) < began + seconds * share

    epoch()
    hit5 = validate()
    while len(epoch_s) < MIN_CALLS or fits(EPOCH_SHARE, epoch_s):
        epoch()
    while len(validate_s) < MIN_CALLS or fits(1.0, validate_s):
        validate()
    return {
        "epoch_s": epoch_s,
        "validate_s": validate_s,
        "step_s": steps,
        "losses": losses,
        "hit5": hit5,
        "untrained_hit5": untrained_hit5,
        "steps_per_epoch": len(steps) / len(epoch_s),
    }


def run(seed: int, seconds: float) -> dict:
    made, setup_s = setup(seed)
    try:
        measured = measure(made, seconds)
        baseline = popularity_hit5(made)
    finally:
        made.close()
    finite = all(math.isfinite(loss) for loss in measured["losses"])
    beats = measured["hit5"] > measured["untrained_hit5"]
    attempted = len(measured["epoch_s"]) + len(measured["validate_s"])
    failed = sum(1 for loss in measured["losses"] if not math.isfinite(loss))
    failed += 0 if beats else 1
    cycle_s = median(measured["epoch_s"]) + median(measured["validate_s"])
    steps_ms = [s * 1000.0 for s in measured["step_s"]]
    return {
        "attempted": attempted + 1,
        "failed": failed,
        "correct": finite and beats,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": quantile(steps_ms, 0.50),
            "rate_per_s": made.split.train.num_interactions / cycle_s,
        },
        "detail": {
            "p95_ms": quantile(steps_ms, 0.95),
            "epoch_s": median(measured["epoch_s"]),
            "validate_s": median(measured["validate_s"]),
            "hit5": measured["hit5"],
            "untrained_hit5": measured["untrained_hit5"],
            "popularity_hit5": baseline,
            "steps_per_epoch": measured["steps_per_epoch"],
            "epochs": len(measured["epoch_s"]),
            "validations": len(measured["validate_s"]),
        },
    }
