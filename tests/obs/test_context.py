"""Tests for RunContext and the ambient-context stack."""

import warnings

import pytest

from repro.fl.executor import SerialExecutor
from repro.fl.faults import FaultModel
from repro.obs import (
    NULL_TELEMETRY,
    RingBufferSink,
    RunContext,
    Telemetry,
    current_context,
    use_context,
)


class TestRunContext:
    def test_defaults_are_plain(self):
        ctx = RunContext()
        assert ctx.telemetry is NULL_TELEMETRY
        assert ctx.rng is None
        assert ctx.executor is None
        assert ctx.fault_model is None

    def test_fault_model_wired_to_telemetry(self):
        hub = Telemetry()
        faults = FaultModel(seed=3)
        assert faults.telemetry is NULL_TELEMETRY
        RunContext(telemetry=hub, fault_model=faults)
        assert faults.telemetry is hub

    def test_repr_mentions_set_fields(self):
        ctx = RunContext(executor=SerialExecutor(), fault_model=FaultModel())
        text = repr(ctx)
        assert "executor=" in text and "fault_model=<set>" in text


class TestAmbientContext:
    def test_default_ambient_context_is_plain(self):
        ctx = current_context()
        assert ctx.telemetry is NULL_TELEMETRY
        assert ctx.executor is None

    def test_use_context_installs_and_restores(self):
        outer_default = current_context()
        mine = RunContext(telemetry=Telemetry())
        with use_context(mine) as installed:
            assert installed is mine
            assert current_context() is mine
            inner = RunContext()
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is mine
        assert current_context() is outer_default

    def test_use_context_none_isolates(self):
        hub = Telemetry()
        with use_context(RunContext(telemetry=hub)):
            with use_context(None):
                assert current_context().telemetry is NULL_TELEMETRY

    def test_restored_even_after_exception(self):
        before = current_context()
        with pytest.raises(RuntimeError):
            with use_context(RunContext()):
                raise RuntimeError("boom")
        assert current_context() is before


class TestDefensePipelineContext:
    def test_defense_pipeline_takes_context_without_warning(self):
        from repro.defense.pipeline import DefensePipeline
        from tests.fl.test_executor import build_world

        _, clients, _ = build_world()
        hub = Telemetry()
        hub.add_sink(RingBufferSink())
        executor = SerialExecutor()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipeline = DefensePipeline(
                clients,
                lambda m: 0.9,
                context=RunContext(telemetry=hub, executor=executor),
            )
        assert pipeline.executor is executor
        assert pipeline.telemetry is hub

    @pytest.mark.parametrize(
        "entry", ["build_setup", "evaluate_modes", "DefensePipeline"]
    )
    def test_retired_executor_kwarg_rejected(self, entry):
        """The engine arrives only through the run context."""
        from repro.defense.pipeline import DefensePipeline
        from repro.experiments import common
        from repro.experiments.scale import SMOKE

        calls = {
            "build_setup": lambda ex: common.build_setup(
                "mnist", SMOKE, executor=ex
            ),
            "evaluate_modes": lambda ex: common.evaluate_modes(
                None, executor=ex
            ),
            "DefensePipeline": lambda ex: DefensePipeline(
                [object()], lambda m: 0.9, executor=ex
            ),
        }
        with pytest.raises(TypeError, match="executor"):
            calls[entry](SerialExecutor())


class TestContextThreading:
    def test_run_experiment_installs_context(self, monkeypatch):
        """The runner sees the passed context as the ambient one, and the
        whole run lands inside one `experiment` span."""
        import repro.experiments.registry as registry
        from repro.experiments.scale import SMOKE

        seen = {}

        def fake_runner(scale, seed):
            seen["ctx"] = current_context()
            return "result"

        monkeypatch.setitem(registry.EXPERIMENTS, "fake", fake_runner)
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        ctx = RunContext(telemetry=hub)
        assert registry.run_experiment("fake", SMOKE, seed=1, context=ctx) == "result"
        assert seen["ctx"] is ctx
        [span] = ring.events
        assert span["name"] == "experiment"
        assert span["attrs"]["id"] == "fake"
        assert span["attrs"]["seed"] == 1

    def test_build_setup_picks_up_ambient_context(self):
        from repro.experiments.common import build_setup
        from repro.experiments.scale import SMOKE

        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        with use_context(RunContext(telemetry=hub)):
            setup = build_setup("mnist", SMOKE, seed=3, rounds=1)
        names = {e["name"] for e in ring.events}
        assert "build_setup" in names
        assert "fl.round" in names
        assert setup.history.rounds  # the run actually trained

    def test_build_setup_context_fault_model_wraps_clients(self):
        from repro.experiments.common import build_setup
        from repro.experiments.scale import SMOKE
        from repro.fl.faults import FaultyClient

        ctx = RunContext(fault_model=FaultModel(seed=9))
        setup = build_setup("mnist", SMOKE, seed=3, rounds=1, context=ctx)
        assert all(isinstance(c, FaultyClient) for c in setup.clients)


class TestMetricsMemoization:
    def test_metrics_cached_until_model_changes(self):
        from repro.experiments.common import build_setup
        from repro.experiments.scale import SMOKE

        setup = build_setup("mnist", SMOKE, seed=3, rounds=1)
        first = setup.metrics()
        assert setup.metrics() == first  # hit: same bytes, same masks
        test_eval, attack_eval = setup._evaluators
        assert test_eval.hits == attack_eval.hits == 1

        # flip a prune mask in place (no Parameter.version bump): the
        # fingerprint must notice and recompute
        layer = setup.model.last_conv()
        layer.out_mask[0] = False
        setup.metrics()  # recomputes against the masked model
        assert test_eval.hits == 1
        layer.out_mask[0] = True
        assert setup.metrics() == first

        # in-place weight surgery invalidates too, with or without
        # mark_dirty (metric *values* may coincide — a zeroed net can
        # still score chance accuracy, so count the evaluations)
        computed = test_eval.misses + test_eval.prefix_hits
        layer.bias.data[...] = 0.0
        setup.metrics()
        assert test_eval.misses + test_eval.prefix_hits == computed + 1

    def test_metrics_cache_counts_real_evaluations(self):
        from repro.experiments.common import build_setup
        from repro.experiments.scale import SMOKE

        setup = build_setup("mnist", SMOKE, seed=3, rounds=1)
        setup.metrics()
        setup.metrics()
        setup.metrics()
        for evaluator in setup._evaluators:
            assert evaluator.misses == 1  # two repeats served from cache
            assert evaluator.hits == 2
