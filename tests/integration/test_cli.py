"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 100_000
        args = build_parser().parse_args(["rates", "--loads", "0.5"])
        assert args.loads == [0.5]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla P100" in out
        assert "calibration" in out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "demo OK" in out
        assert "G inserts/s" in out

    def test_rates(self, capsys):
        assert main(["rates", "--n", "2048", "--loads", "0.5", "--groups", "4"]) == 0
        out = capsys.readouterr().out
        assert "INSERTION" in out and "WD|g|=4" in out

    def test_rates_zipf(self, capsys):
        assert (
            main(
                ["rates", "--n", "2048", "--loads", "0.8", "--groups", "2",
                 "--distribution", "zipf"]
            )
            == 0
        )
        assert "zipf" in capsys.readouterr().out

    def test_figures_quick(self, capsys):
        """The quick figure regeneration runs end to end from the CLI."""
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for marker in ("Fig. 7", "Fig. 9", "Fig. 11", "A1", "A4"):
            assert marker in out
