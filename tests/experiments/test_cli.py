"""CLI (`python -m repro.experiments`) tests."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_s1(self, capsys):
        assert main(["s1"]) == 0
        out = capsys.readouterr().out
        assert "Section 1" in out and "17.0000" in out

    def test_t1(self, capsys):
        assert main(["t1"]) == 0
        out = capsys.readouterr().out
        assert "4331" in out

    def test_approximations(self, capsys):
        assert main(["a"]) == 0
        out = capsys.readouterr().out
        assert "6.18" in out

    def test_serve(self, capsys):
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "online TAGS dispatcher" in out
        assert "applied" in out  # the controller actually re-tuned
        assert "final timeout rate" in out
        assert "=> agreement" in out

    def test_unknown_id(self, capsys):
        assert main(["zzz"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_figure_six(self, capsys):
        assert main(["6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "TAG total" in out

    def test_csv_export(self, capsys, tmp_path):
        assert main(["6", "--csv", str(tmp_path)]) == 0
        csv = tmp_path / "figure6.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("timeout rate t,")

    def test_csv_missing_dir_argument(self, capsys):
        assert main(["6", "--csv"]) == 2

    def test_unknown_id_rejected_before_any_experiment(self, capsys, monkeypatch):
        """Every id is checked before the first experiment runs."""
        from repro.experiments import __main__ as cli

        ran = []
        monkeypatch.setitem(cli.FIGURES, "6", lambda: ran.append("6"))
        monkeypatch.setitem(cli.FIGURES, "11", lambda: ran.append("11"))
        assert main(["6", "11", "x"]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert "unknown experiment 'x'" in err
