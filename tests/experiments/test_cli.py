"""Argument handling for the experiment runner CLI.

Full experiment execution is exercised elsewhere (test_registry); here
we pin the flag surface: validation errors exit before any experiment
starts, and ``--max-rounds`` caps a *copy* of the scale preset.
"""

import pytest

from repro.experiments.cli import (
    _apply_max_rounds,
    _make_executor,
    build_parser,
    main,
)
from repro.experiments.scale import get_scale


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.checkpoint_every == 1
        assert args.max_rounds is None

    def test_checkpoint_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "table1",
                "--checkpoint-dir", str(tmp_path),
                "--resume",
                "--checkpoint-every", "3",
                "--max-rounds", "2",
            ]
        )
        assert args.checkpoint_dir == str(tmp_path)
        assert args.resume is True
        assert args.checkpoint_every == 3
        assert args.max_rounds == 2


class TestValidation:
    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["table1", "--checkpoint-dir", str(tmp_path),
                 "--checkpoint-every", "0"]
            )

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table1", "--max-rounds", "0"])


class TestMaxRounds:
    def test_caps_both_round_budgets(self):
        scale = get_scale("bench")
        capped = _apply_max_rounds(scale, 1)
        assert capped.rounds == 1
        assert capped.cifar_rounds == 1
        # the preset itself is untouched (it is module-global state)
        assert scale.rounds == get_scale("bench").rounds

    def test_never_raises_a_budget(self):
        scale = get_scale("smoke")
        capped = _apply_max_rounds(scale, 10_000)
        assert capped.rounds == scale.rounds
        assert capped.cifar_rounds == scale.cifar_rounds


class TestTraceOut:
    def test_trace_out_writes_analyzable_jsonl(self, tmp_path, capsys):
        from repro.obs.analysis import load_trace

        trace = tmp_path / "run.jsonl"
        assert main(
            ["fig6", "--scale", "smoke", "--seed", "13",
             "--trace-out", str(trace), "--profile"]
        ) == 0
        assert trace.exists()
        assert "trace written" in capsys.readouterr().out
        analysis = load_trace(str(trace))
        assert analysis.roots, "experiment span expected"
        assert [r.name for r in analysis.roots][0] == "experiment"
        # --profile left aggregated per-layer records in the stream
        assert any(
            r.get("name") == "profile.forward" for r in analysis.records
        )

    def test_trace_path_suffixed_per_experiment_for_all(self):
        from repro.experiments.cli import _trace_path

        ids = ["fig6", "table1"]
        assert _trace_path("t.jsonl", "fig6", ids) == "t-fig6.jsonl"
        assert _trace_path("trace", "fig6", ids) == "trace-fig6"
        assert _trace_path("t.jsonl", "fig6", ["fig6"]) == "t.jsonl"


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.schedule == "bursty"
        assert args.service_rounds == 8
        assert args.deadline == 10.0
        assert args.quorum == 0.5

    def test_schedule_choices(self):
        for kind in ("steady", "bursty", "flash", "adversarial", "chaos"):
            args = build_parser().parse_args(["serve", "--schedule", kind])
            assert args.schedule == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--schedule", "tsunami"])

    def test_service_rounds_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--service-rounds", "0"])
        assert "--service-rounds" in capsys.readouterr().err

    def test_paper_scale_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--scale", "paper"])
        assert "bench world" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["serial", "process", "megabatch"])
    def test_engine_choices(self, engine):
        args = build_parser().parse_args(["serve", "--engine", engine])
        assert args.engine == engine

    def test_thread_engine_retired(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "thread"])
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_make_executor_process_pool_size(self):
        from repro.fl.executor import ProcessExecutor

        with _make_executor("process", 3) as executor:
            assert isinstance(executor, ProcessExecutor)
            assert executor.num_workers == 3

    def test_make_executor_megabatch(self):
        from repro.fl.executor import MegabatchExecutor

        with _make_executor("megabatch", 3) as executor:
            assert isinstance(executor, MegabatchExecutor)

    @pytest.mark.parametrize("engine", ["process", "megabatch"])
    def test_serve_engine_stream_matches_serial(self, engine, tmp_path, capsys):
        """Every engine serves the same rounds: identical summary lines
        and a byte-identical canonical trace to the serial run."""
        from repro.obs.schema import dumps_canonical
        from repro.obs.sinks import read_events

        def serve(name):
            trace = tmp_path / f"{name}.jsonl"
            assert main(
                ["serve", "--scale", "smoke", "--service-rounds", "2",
                 "--engine", name, "--workers", "2",
                 "--trace-out", str(trace)]
            ) == 0
            lines = [
                line for line in capsys.readouterr().out.splitlines()
                if "engine:" not in line and "trace written" not in line
                and "finished in" not in line
            ]
            return lines, dumps_canonical(read_events(str(trace)))

        serial_lines, serial_stream = serve("serial")
        lines, stream = serve(engine)
        assert "rounds committed" in "\n".join(serial_lines)
        assert lines == serial_lines
        assert stream == serial_stream

    def test_serve_smoke_streams_rounds_and_trace(self, tmp_path, capsys):
        from repro.obs.analysis import load_trace

        trace = tmp_path / "service.jsonl"
        assert main(
            ["serve", "--scale", "smoke", "--service-rounds", "2",
             "--trace-out", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "rounds committed" in out
        assert "commit latency" in out
        assert trace.exists()
        analysis = load_trace(str(trace))
        assert [r.name for r in analysis.roots] == ["service.run"]
