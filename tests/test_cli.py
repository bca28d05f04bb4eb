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

    @pytest.mark.parametrize(
        "users, rows",
        [
            # The simulated latencies the broadcast fan-out printed
            # before the command routed its request: routing changes no
            # charge.
            (1200, [["500", "237", "123", "76"]]),
            # Every friend count below the user count: the 3500 row
            # reads 742/433/246 if a query finds the previous one's
            # scan-cache entries instead of scanning cold.
            (4000, [["500", "247", "146", "79"],
                    ["2000", "890", "468", "256"],
                    ["3500", "1441", "765", "435"]]),
        ],
        ids=["1200", "4000"],
    )
    def test_figure2_quick(self, capsys, users, rows):
        assert main(["figure2", "--users", str(users)]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "16 nodes" in out
        lines = out.splitlines()
        assert [line.split() for line in lines[-len(rows):]] == rows
