"""CLI coverage for `repro loadtest` and `repro report --from`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SWEEP = ["loadtest", "--duration", "5", "--rate", "4", "--points", "1,2",
         "--subdivisions", "5", "--seed", "3"]


class TestLoadtestCommand:
    def test_human_summary(self, capsys):
        assert main(SWEEP) == 0
        out = capsys.readouterr().out
        assert "steady-x1" in out and "steady-x2" in out
        assert "capacity report over 2 sweep point(s)" in out
        assert "capacity_model" in out

    def test_json_is_byte_identical_across_runs(self, capsys):
        assert main(SWEEP + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(SWEEP + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert set(doc["figures"]) == {
            "accuracy_vs_density", "capacity_model", "capacity_throughput",
            "latency_percentiles", "shed_breakdown",
        }

    def test_out_writes_sweep_and_report(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(SWEEP + ["--quiet", "--out", str(out_dir)]) == 0
        lines = (out_dir / "load_sweep.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            point = json.loads(line)
            assert point["offered"] >= point["served"] > 0
        report = json.loads((out_dir / "capacity_report.json").read_text())
        assert report["meta"]["multipliers"] == [1.0, 2.0]

    def test_bad_points_and_zones_rejected(self, capsys):
        assert main(["loadtest", "--points", "abc"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["loadtest", "--points", ""]) == 2
        capsys.readouterr()
        assert main(["loadtest", "--zones", "0"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--rate", "--duration", "--admission-rate", "--points"]
    )
    def test_nan_input_exits_2(self, flag, capsys):
        args = ["loadtest", "--subdivisions", "3", "--duration", "4", "--json"]
        assert main(args + [flag, "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    @pytest.mark.slow
    def test_multi_zone_burst_profile(self, capsys):
        args = ["loadtest", "--profile", "burst", "--zones", "2",
                "--duration", "5", "--rate", "3", "--subdivisions", "5",
                "--admission-rate", "20", "--json"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        series = doc["figures"]["capacity_throughput"]["data"]["series"]
        assert series[0]["profile"] == "burst-x1"


class TestReportFromSweep:
    @pytest.fixture()
    def sweep_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(SWEEP + ["--quiet", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir

    def test_regenerates_byte_identical_report(self, sweep_dir, capsys):
        args = ["report", "--from", str(sweep_dir), "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        # ... and it matches what the sweep run itself computed.
        committed = json.loads(
            (sweep_dir / "capacity_report.json").read_text()
        )
        assert json.loads(first)["figures"] == committed["figures"]

    def test_single_figure_in_isolation(self, sweep_dir, capsys):
        assert main(["report", "--from", str(sweep_dir),
                     "--figure", "latency_percentiles", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["figure"] == "latency_percentiles"
        assert len(doc["data"]["series"]) == 2

    def test_out_writes_one_artifact_per_figure(self, sweep_dir, tmp_path,
                                                capsys):
        figs = tmp_path / "figs"
        assert main(["report", "--from", str(sweep_dir),
                     "--out", str(figs)]) == 0
        assert "regenerated 5 figure artifact(s)" in capsys.readouterr().out
        names = sorted(p.name for p in figs.iterdir())
        assert names == [
            "report_accuracy_vs_density.json",
            "report_capacity_model.json",
            "report_capacity_throughput.json",
            "report_latency_percentiles.json",
            "report_shed_breakdown.json",
        ]
        for p in figs.iterdir():
            text = p.read_text()
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_list_figures(self, capsys):
        assert main(["report", "--list-figures"]) == 0
        out = capsys.readouterr().out
        assert "capacity_model" in out and "shed_breakdown" in out

    def test_unknown_figure_is_an_error(self, sweep_dir, capsys):
        assert main(["report", "--from", str(sweep_dir),
                     "--figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_missing_sweep_dir_is_an_error(self, tmp_path, capsys):
        assert main(["report", "--from", str(tmp_path / "void")]) == 2
        assert "load_sweep.jsonl" in capsys.readouterr().err

    def test_from_flags_require_from(self, capsys):
        assert main(["report", "--figure", "capacity_model"]) == 2
        assert "--from" in capsys.readouterr().err
