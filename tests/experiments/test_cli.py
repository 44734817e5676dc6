"""Unit tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_algorithms(capsys):
    assert main(["list-algorithms"]) == 0
    out = capsys.readouterr().out
    assert "completion-time" in out
    assert "round-robin" in out


def test_parser_defaults_match_paper():
    p = build_parser()
    assert p.parse_args(["fig2"]).dags == 30
    assert p.parse_args(["fig6"]).dags == 120
    assert p.parse_args(["fig8"]).dags == 120


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig2_scaled_down_runs(capsys):
    assert main(["fig2", "--dags", "3", "--horizon-hours", "4"]) == 0
    out = capsys.readouterr().out
    assert "round-robin+fb" in out
    assert "avg dag (s)" in out


def test_fig345_scaled_down_runs(capsys):
    assert main(["fig345", "--dags", "3", "--horizon-hours", "4"]) == 0
    out = capsys.readouterr().out
    assert "completion-time" in out
    assert "queue-length" in out


def test_fig6_scaled_down_runs(capsys):
    assert main(["fig6", "--dags", "4", "--horizon-hours", "4"]) == 0
    out = capsys.readouterr().out
    assert "Spearman" in out


def test_fig8_scaled_down_runs(capsys):
    assert main(["fig8", "--dags", "3", "--horizon-hours", "4"]) == 0
    out = capsys.readouterr().out
    assert "num-cpus-nofb" in out


def test_suite_writes_bench_json(tmp_path, capsys):
    out_file = tmp_path / "BENCH_SUITE.json"
    assert main(["suite", "--workers", "1", "--scale", "0.05",
                 "--only", "ablation-estimator",
                 "--output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "ablation-estimator" in out
    assert "events/s" in out
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == "repro-bench-suite/v1"
    assert payload["cases"] == ["ablation-estimator"]
    assert payload["figures"]["ablation-estimator"]["event_count"] > 0


def test_suite_rejects_unknown_filter(tmp_path):
    assert main(["suite", "--only", "nosuchfigure",
                 "--output", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["fig2", "--dags", "0"],
    ["fig2", "--horizon-hours", "nan"],
    ["fig2", "--horizon-hours", "-1"],
    ["fig2", "--horizon-hours", "inf"],
    ["chaos", "fig2", "--horizon-hours", "inf"],
    ["fig345", "--dags", "0"],
    ["suite", "--scale", "nan"],
    ["suite", "--scale", "0.05", "--shards", "0"],
    ["suite", "--progress", "--progress-interval", "nan"],
    ["suite", "--progress", "--progress-interval", "inf"],
    ["trace", "fig2", "--telemetry-interval", "nan"],
    ["trace", "fig2", "--telemetry-interval", "inf"],
    ["trace", "fig2", "--dags", "0"],
    ["trace", "ext-federation", "--shards", "0"],
    ["chaos", "fig2", "--dags", "0"],
    ["chaos", "ext-federation", "--submit-interval", "nan"],
], ids=" ".join)
def test_bad_numbers_fail_at_the_edge(argv, tmp_path, monkeypatch, capsys):
    """0, negative, NaN and inf pass argparse's ``int``/``float``; every
    command refuses them in one line, before anything runs."""
    monkeypatch.chdir(tmp_path)  # suite/trace default outputs land here
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0", "-1"])
def test_bad_scale_fails_at_the_edge(scale, tmp_path, monkeypatch, capsys):
    """inf used to overflow a DAG count into a traceback."""
    monkeypatch.chdir(tmp_path)
    assert main(["suite", f"--scale={scale}"]) == 2
    assert capsys.readouterr().err == (
        f"repro suite: scale must be finite and > 0, got {float(scale)}\n")
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_fails_at_the_edge(capsys):
    """argparse's ``int`` lets -1 through; the RNG root refuses it in
    one line naming the seed, not at the first draw deep in numpy."""
    assert main(["fig2", "--dags", "1", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "repro fig2: RngStreams seed must be >= 0, got -1\n")
