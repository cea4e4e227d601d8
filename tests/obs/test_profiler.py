"""TapeProfiler: per-op attribution on a real KGAG forward/backward."""

import numpy as np
import pytest

from repro.analysis.report import build_small_kgag_loss
from repro.analysis.sanitizer import TapeSanitizer
from repro.nn import Tensor, tape_hooks_active
from repro.nn.tensor import _PRISTINE_ACCUMULATE, _PRISTINE_MAKE
from repro.obs import TapeProfiler


class TestAttribution:
    def test_kgag_step_attributes_forward_and_backward(self):
        with TapeProfiler() as profiler:
            model, loss = build_small_kgag_loss(seed=0)
            loss.backward()
        names = set(profiler.ops)
        # The embedding gathers and the attention/propagation arithmetic
        # must show up as distinct attributed ops.
        assert "Tensor.__getitem__" in names
        assert "Tensor.__matmul__" in names
        gather = profiler.ops["Tensor.__getitem__"]
        assert gather.forward_calls > 0 and gather.backward_calls > 0
        assert gather.forward_bytes > 0 and gather.backward_bytes > 0
        assert gather.total_seconds > 0.0

    def test_backward_closure_names_collapse_onto_the_op(self):
        with TapeProfiler() as profiler:
            x = Tensor(np.ones(4), requires_grad=True)
            (x * Tensor(np.ones(4))).sum().backward()
        # No raw closure qualnames: "Tensor.__mul__.<locals>.backward"
        # must be folded into "Tensor.__mul__".
        assert not any(".<locals>." in name for name in profiler.ops)
        assert profiler.ops["Tensor.__mul__"].backward_calls > 0

    def test_coverage_is_high_on_a_training_step(self):
        with TapeProfiler() as profiler:
            model, loss = build_small_kgag_loss(seed=1)
            loss.backward()
        # The acceptance bar of python -m repro.obs.report: deltas
        # telescope, so the table explains >= 90% of the wall time.
        assert profiler.coverage >= 0.90
        assert profiler.attributed_seconds <= profiler.wall_seconds
        # The top-N table ranks ops by total time, largest first, and
        # every op's share of the attributed time is a fraction.
        top = profiler.top(5)
        assert top
        seconds = [op.total_seconds for op in top]
        assert seconds == sorted(seconds, reverse=True)
        assert all(
            0.0 <= op.total_seconds / profiler.attributed_seconds <= 1.0
            for op in top
        )

    def test_deterministic_with_injected_clock(self):
        ticks = iter(float(t) for t in range(1000))
        with TapeProfiler(clock=lambda: next(ticks)) as profiler:
            x = Tensor(np.ones(3), requires_grad=True)
            (x + Tensor(np.ones(3))).sum().backward()
        # Every hook event advances the fake clock by exactly 1s.
        total_events = sum(
            op.forward_calls + op.backward_calls for op in profiler.ops.values()
        )
        assert profiler.attributed_seconds == float(total_events)

    def test_table_renders_ranked_rows(self):
        with TapeProfiler() as profiler:
            (Tensor(np.ones(8), requires_grad=True) * 2.0).sum().backward()
        table = profiler.table(top=5)
        assert "op" in table and "coverage" in table
        assert "Tensor.sum" in table


class TestHookLifecycle:
    def test_default_path_has_no_hooks_installed(self):
        assert not tape_hooks_active()
        assert Tensor.__dict__["_make"] is _PRISTINE_MAKE
        assert Tensor.__dict__["_accumulate"] is _PRISTINE_ACCUMULATE

    def test_pristine_tape_restored_after_exit(self):
        with TapeProfiler():
            assert tape_hooks_active()
        assert not tape_hooks_active()
        assert Tensor.__dict__["_make"] is _PRISTINE_MAKE
        assert Tensor.__dict__["_accumulate"] is _PRISTINE_ACCUMULATE

    def test_reentering_same_profiler_resets_state(self):
        profiler = TapeProfiler()
        with profiler:
            Tensor(np.ones(2)) + 1.0
        first = dict(profiler.ops)
        with profiler:
            pass
        assert first and profiler.ops == {}

    def test_profiler_composes_with_sanitizer(self):
        # Both observers ride the same tape-hook registry concurrently:
        # the sanitizer still validates, the profiler still attributes.
        with TapeSanitizer(raise_on_anomaly=False) as tape:
            with TapeProfiler() as profiler:
                x = Tensor(np.ones(4), requires_grad=True)
                (x * Tensor(np.ones(4))).sum().backward()
        assert profiler.ops["Tensor.__mul__"].forward_calls > 0
        assert not [a for a in tape.anomalies if a.severity == "error"]
        assert not tape_hooks_active()
        assert Tensor.__dict__["_make"] is _PRISTINE_MAKE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sanitizer_still_catches_anomalies_under_profiler(self):
        with TapeProfiler():
            with TapeSanitizer(raise_on_anomaly=False) as tape:
                Tensor(np.array([0.0, -1.0])).log()
        assert any(a.kind == "non-finite-forward" for a in tape.anomalies)

    def test_double_install_raises(self):
        profiler = TapeProfiler()
        with profiler:
            with pytest.raises(ValueError, match="already installed"):
                profiler.__enter__()
            # Registry state is unharmed by the rejected re-entry.
            assert tape_hooks_active()
        assert not tape_hooks_active()
