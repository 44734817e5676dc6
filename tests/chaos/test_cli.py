"""Acceptance tests for the ``repro chaos`` subcommand."""

import json

import pytest

from repro.cli import main

ARGS = ["chaos", "fig2", "--dags", "2", "--seed", "42",
        "--horizon-hours", "12"]


def test_chaos_command_runs_a_preset_and_writes_a_report(
    tmp_path, capsys
):
    out = tmp_path / "report.json"
    code = main(ARGS + ["--plan", "crash", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "RESULT: OK" in text
    assert "invariants:" in text
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["plan"]["name"] == "crash"
    assert doc["report"]["violations"] == []
    assert doc["fault_schedule"]["crashes"]
    assert doc["headline"]["scenario"] == "fig2-2dags"


def test_chaos_command_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(ARGS + ["--plan", "lossy", "--plan-seed", "3",
                            "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_chaos_command_exits_nonzero_on_violations(capsys):
    # The random plan machinery can't produce a violating plan by
    # design; drive the failure through the CLI with a scenario the
    # runner rejects.
    code = main(ARGS + ["--plan", "lossy", "--horizon-hours", "0"])
    assert code == 2
    assert "horizon_s must be > 0" in capsys.readouterr().err


def test_chaos_command_rejects_unknown_plan(capsys):
    code = main(ARGS + ["--plan", "nonsense"])
    assert code == 2
    assert "unknown plan" in capsys.readouterr().err


@pytest.mark.parametrize("plan", ["random"])
def test_chaos_command_accepts_random_plans(plan, capsys):
    code = main(ARGS + ["--plan", plan, "--plan-seed", "1"])
    assert code == 0
    assert "RESULT: OK" in capsys.readouterr().out
