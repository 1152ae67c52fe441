"""CLI smoke tests (argument parsing + the cheap commands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_allocate_defaults(self):
        args = build_parser().parse_args(["allocate"])
        assert args.model == "resnet_s34"
        assert args.algorithm == "clado"
        assert args.avg_bits == 4.0

    def test_allocate_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--algorithm", "magic"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet_s34" in out
        assert "quantizable layers" in out

    def test_models_verbose_lists_layers(self, capsys):
        assert main(["models", "-v"]) == 0
        out = capsys.readouterr().out
        assert "stages.0" in out or "layer.0" in out

    def test_pretrain_subset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import repro.models.zoo as zoo
        from repro.models.zoo import TrainConfig

        monkeypatch.setitem(
            zoo._RECIPES, "resnet_s20", TrainConfig(epochs=1, n_train=64, n_val=32)
        )
        assert main(["pretrain", "--models", "resnet_s20"]) == 0
        assert "val top-1" in capsys.readouterr().out


class TestExitCodes:
    def test_rejected_sweep_config_exits_2_before_model_load(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.models

        def no_load(*args, **kwargs):
            raise AssertionError("model loaded before the config check")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(repro.models, "get_pretrained", no_load)
        code = main([
            "allocate", "--model", "resnet_s20", "--shards", "2",
            "--sweep-checkpoint", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("error: invalid sweep configuration — ")
        assert "checkpoint_path" in out
        assert "Traceback" not in out

    @pytest.mark.parametrize("command, body", [
        ("allocate", "_allocate_body"),
        ("allocate-cached", "_allocate_cached_body"),
    ])
    def test_both_commands_share_the_exit_code_table(
        self, tmp_path, monkeypatch, capsys, command, body
    ):
        import repro.cli as cli
        from repro.core import InfeasibleBudgetError
        from repro.distrib import ShardProtocolError
        from repro.robustness import SweepFailure, UnhealthyMatrixError
        from repro.store import StoreMissError

        argv = [command, "--model", "resnet_s20"]
        if command == "allocate-cached":
            argv += ["--store", str(tmp_path / "store")]
        cases = [
            (InfeasibleBudgetError("too small", budget_bits=1), 2),
            (SweepFailure("lost"), 4),
            (UnhealthyMatrixError("bad", {}), 5),
            (ShardProtocolError("lost", shard=0), 6),
            (StoreMissError("miss", reason="miss", key="k"), 7),
            (KeyboardInterrupt(), 130),
        ]
        for exc, expected in cases:
            def raise_it(args, run, exc=exc):
                raise exc

            monkeypatch.setattr(cli, body, raise_it)
            assert main(argv) == expected
        out = capsys.readouterr().out
        # allocate-cached has no --sweep-checkpoint to resume from.
        assert out.rstrip().endswith("interrupted")
