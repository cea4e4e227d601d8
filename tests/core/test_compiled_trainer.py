"""Trainer integration for the compiled executor (``compile=True``).

The contract under test: a compiled trainer is *indistinguishable* from
a dynamic one — identical loss trajectory (exact float equality) and
identical final parameters (``np.array_equal``) — across the config
matrix, while actually replaying compiled programs; and every documented
fallback trigger drops to the dynamic tape instead of failing.
"""

import numpy as np
import pytest

from repro.core import KGAGTrainer
from repro.core.trainer import _COMPILE_FAILED
from repro.nn import Tensor, install_tape_hooks, ops, uninstall_tape_hooks

from .conftest import build_model


def _fit(small_dataset, small_split, config, *, compile, cls=KGAGTrainer, **kw):
    model = build_model(small_dataset, config)
    trainer = cls(
        model, small_split.train, small_dataset.user_item, compile=compile, **kw
    )
    history = trainer.fit()
    return trainer, history


def _assert_same_run(small_dataset, small_split, config):
    dynamic, dyn_history = _fit(small_dataset, small_split, config, compile=False)
    compiled, cmp_history = _fit(small_dataset, small_split, config, compile=True)
    assert cmp_history.losses == dyn_history.losses
    for (name, a), (_, b) in zip(
        dynamic.model.named_parameters(), compiled.model.named_parameters()
    ):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    return compiled


class _NullHooks:
    def on_make(self, data, parents, backward):
        pass

    def on_accumulate(self, tensor, grad):
        pass


class _UncompilableTrainer(KGAGTrainer):
    """Injects ``ops.where`` (outside the compiled set) into the loss."""

    def _planned_loss(self, plan):
        loss = super()._planned_loss(plan)
        gate = ops.where(Tensor(np.array(True)), loss, loss * 0.0)
        return gate


class TestCompiledMatchesDynamic:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"aggregator": "graphsage"},
            {"loss": "bpr"},
            {"loss": "margin_raw"},
            {"uniform_neighbor_weights": True},
            {"num_layers": 0},
            {"num_layers": 2},
            {"pi_pooling": "mean"},
            {"max_grad_norm": 1.0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default",
    )
    def test_config_matrix_bit_exact(
        self, small_dataset, small_split, fast_config, overrides
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32, **overrides)
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["traces"] >= 1
        assert compiled.compile_stats["replays"] >= 1
        assert compiled.compile_stats["fallbacks"] == 0
        # Every traced program fits its liveness-pooled arena: buffers
        # whose lifetimes do not overlap share bytes, never overflow.
        programs = [
            program
            for program in compiled._programs.values()
            if program is not _COMPILE_FAILED
        ]
        assert programs
        for program in programs:
            assert program.num_ops > 0
            assert 0 < program.arena_nbytes <= program.requested_nbytes

    @pytest.mark.parametrize("ablate", ["ablate_kg", "ablate_sp", "ablate_pi"])
    def test_ablations_bit_exact(
        self, small_dataset, small_split, fast_config, ablate
    ):
        config = getattr(fast_config.with_overrides(epochs=2, batch_size=32), ablate)()
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["fallbacks"] == 0


class TestFallbacks:
    def test_ragged_batches_trace_one_program_per_signature(
        self, small_dataset, small_split, fast_config
    ):
        # batch_size=16 leaves a ragged tail batch: a second signature.
        config = fast_config.with_overrides(epochs=3, batch_size=16)
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["traces"] == len(compiled._programs) == 2
        assert compiled.compile_stats["fallbacks"] == 0

    def test_tape_hooks_force_dynamic_fallback(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        hooks = _NullHooks()
        install_tape_hooks(hooks)
        try:
            compiled, history = _fit(
                small_dataset, small_split, config, compile=True
            )
        finally:
            uninstall_tape_hooks(hooks)
        assert compiled.compile_stats["traces"] == 0
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        _, dyn_history = _fit(small_dataset, small_split, config, compile=False)
        assert history.losses == dyn_history.losses

    def test_sanitize_mode_forces_dynamic_fallback(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        compiled, history = _fit(
            small_dataset, small_split, config, compile=True, sanitize=True
        )
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        _, dyn_history = _fit(small_dataset, small_split, config, compile=False)
        assert history.losses == dyn_history.losses

    def test_unsupported_op_caches_failure_and_trains_dynamically(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        compiled, history = _fit(
            small_dataset, small_split, config, compile=True, cls=_UncompilableTrainer
        )
        assert compiled.compile_stats["traces"] == 0
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        dynamic, dyn_history = _fit(
            small_dataset, small_split, config, compile=False, cls=_UncompilableTrainer
        )
        assert history.losses == dyn_history.losses

    def test_metrics_counters_mirror_stats(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        model = build_model(small_dataset, config)
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        trainer = KGAGTrainer(
            model,
            small_split.train,
            small_dataset.user_item,
            compile=True,
            metrics=registry,
        )
        trainer.fit()
        snapshot = registry.snapshot()
        for key in ("traces", "replays", "fallbacks"):
            assert snapshot[f"compile/{key}"]["value"] == trainer.compile_stats[key]
