"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_describe_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.nodes == 16
        assert args.pois == 1000

    def test_describe_rejects_odd_cluster(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "--nodes", "7"])


class TestCommands:
    def test_stem(self, capsys):
        assert main(["stem", "Running", "ponies"]) == 0
        out = capsys.readouterr().out
        assert "Running -> run" in out
        assert "ponies -> poni" in out

    def test_describe(self, capsys):
        assert main(["describe", "--nodes", "4", "--pois", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pois"] == 50
        assert payload["hbase"]["cluster"]["nodes"] == 4

    def test_classify(self, capsys):
        assert main(
            ["classify", "excellent wonderful dinner",
             "terrible awful rude service"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "positive" in lines[0]
        assert "negative" in lines[1]

    def test_figure4_quick(self, capsys):
        assert main(["figure4", "--documents", "800"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "baseline" in out and "optimized" in out

    def test_figure2_quick(self, capsys):
        assert main(["figure2", "--users", "1200"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "16 nodes" in out
        # The simulated latencies the broadcast fan-out printed before
        # the command routed its request: routing changes no charge.
        assert out.splitlines()[-1].split() == ["500", "237", "123", "76"]
