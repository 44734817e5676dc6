"""Unit tests for the scheduling finite-state automaton.

:data:`~repro.core.states.EDGES` is the whole automaton and
:func:`~repro.core.states.move` is the only way a state is written:
every listed edge moves (and writes its extra columns with it), every
unlisted one raises with a message that names the table, the key, both
states and the sim time, and writes nothing.
"""

import ast
from pathlib import Path

import pytest

from repro.core.states import (
    EDGES,
    DagState,
    IllegalTransitionError,
    JobState,
    move,
)
from repro.core.warehouse import Warehouse

#: the automaton, written out by hand: a change to EDGES must change this
EXPECTED = {
    "jobs": {
        "unplanned": {"planned", "removed"},
        "planned": {"submitted", "cancelled", "finished"},
        "submitted": {"finished", "cancelled"},
        "cancelled": {"planned", "finished"},
        "finished": {"cancelled"},
        "removed": {"cancelled"},
    },
    "dags": {
        "received": {"reducing"},
        "reducing": {"reduced", "finished"},
        "reduced": {"running"},
        "running": {"finished"},
        "finished": set(),
    },
}

SRC = Path(__file__).resolve().parents[2] / "src"

STATES = {"jobs": [s.value for s in JobState],
          "dags": [s.value for s in DagState]}
KEYS = {"jobs": "job_id", "dags": "dag_id"}


def table_with(name, state):
    w = Warehouse()
    table = w.create_table(name, (KEYS[name], "state", "note"),
                           key=KEYS[name])
    table.ensure_index("state")
    table.insert({KEYS[name]: "x", "state": state, "note": None})
    return table


def edges(allowed):
    return [(name, old, new)
            for name in STATES for old in STATES[name] for new in STATES[name]
            if (new in EXPECTED[name][old]) == allowed]


def test_the_table_is_the_documented_automaton():
    assert {name: {old: set(new) for old, new in by_old.items()}
            for name, by_old in EDGES.items()} == EXPECTED
    for name, by_old in EDGES.items():
        assert set(by_old) == set(STATES[name])


def test_ready_is_not_a_stored_state():
    assert "ready" not in STATES["jobs"]


@pytest.mark.parametrize("name, old, new", edges(allowed=True))
def test_every_listed_edge_moves(name, old, new):
    table = table_with(name, old)
    row = table.get("x", copy=False)
    assert move(table, row, new, 12.5, note="moved") == old
    assert table.get("x") == {KEYS[name]: "x", "state": new, "note": "moved"}
    assert [r[KEYS[name]] for r in table.select(where={"state": new})] == \
        ["x"]


@pytest.mark.parametrize("name, old, new", edges(allowed=False))
def test_every_unlisted_edge_raises_and_writes_nothing(name, old, new):
    table = table_with(name, old)
    row = table.get("x", copy=False)
    with pytest.raises(IllegalTransitionError) as err:
        move(table, row, new, 12.5, note="moved")
    assert str(err.value) == \
        f"{name} 'x' cannot move {old} -> {new} (t=12.5)"
    assert table.get("x")["state"] == old
    assert table.get("x")["note"] is None


def test_finished_is_a_state_of_both_tables_with_different_edges():
    dags = table_with("dags", "finished")
    with pytest.raises(IllegalTransitionError):
        move(dags, dags.get("x", copy=False), "cancelled", 0.0)
    jobs = table_with("jobs", "finished")
    move(jobs, jobs.get("x", copy=False), "cancelled", 0.0)


def walk(name, path, now=0.0):
    """Move one row along ``path``; the first state is where it starts."""
    table = table_with(name, path[0].value)
    for state in path[1:]:
        move(table, table.get("x", copy=False), state.value, now)
    return table.get("x")["state"]


class TestDagAutomaton:
    def test_happy_path(self):
        path = [DagState.RECEIVED, DagState.REDUCING, DagState.REDUCED,
                DagState.RUNNING, DagState.FINISHED]
        assert walk("dags", path) == "finished"

    def test_reduction_can_finish_directly(self):
        assert walk("dags", [DagState.RECEIVED, DagState.REDUCING,
                             DagState.FINISHED]) == "finished"

    def test_cannot_skip_reduction(self):
        with pytest.raises(IllegalTransitionError, match="received -> running"):
            walk("dags", [DagState.RECEIVED, DagState.RUNNING])

    def test_finished_is_terminal(self):
        for state in DagState:
            with pytest.raises(IllegalTransitionError):
                walk("dags", [DagState.FINISHED, state])


class TestJobAutomaton:
    def test_happy_path(self):
        path = [JobState.UNPLANNED, JobState.PLANNED, JobState.SUBMITTED,
                JobState.FINISHED]
        assert walk("jobs", path) == "finished"

    def test_cancel_and_replan_cycle(self):
        path = [JobState.SUBMITTED, JobState.CANCELLED, JobState.PLANNED,
                JobState.CANCELLED, JobState.PLANNED]
        assert walk("jobs", path) == "planned"

    def test_planned_can_cancel(self):
        # Stage-in failure cancels before submission.
        assert walk("jobs", [JobState.PLANNED, JobState.CANCELLED]) == \
            "cancelled"

    def test_reducer_removal(self):
        assert walk("jobs", [JobState.UNPLANNED, JobState.REMOVED]) == \
            "removed"
        with pytest.raises(IllegalTransitionError):
            walk("jobs", [JobState.PLANNED, JobState.REMOVED])

    def test_terminal_states(self):
        # FINISHED and REMOVED leave only to be re-derived (CANCELLED,
        # then replanned); CANCELLED is not terminal: it replans.
        for done in (JobState.FINISHED, JobState.REMOVED):
            assert EDGES["jobs"][done.value] == {"cancelled"}
        assert "planned" in EDGES["jobs"]["cancelled"]

    def test_no_resurrection(self):
        for done in (JobState.FINISHED, JobState.REMOVED):
            with pytest.raises(IllegalTransitionError):
                walk("jobs", [done, JobState.PLANNED])
            with pytest.raises(IllegalTransitionError):
                walk("jobs", [done, JobState.UNPLANNED])


def state_writes(tree):
    """(line, enclosing def) of every ``*.update(..., state=...)`` call,
    including a ``**{"state": ...}`` splat."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "update"
                    and any(
                        kw.arg == "state"
                        or (kw.arg is None and isinstance(kw.value, ast.Dict)
                            and any(isinstance(k, ast.Constant)
                                    and k.value == "state"
                                    for k in kw.value.keys))
                        for kw in child.keywords
                    )):
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(tree, None)
    return found


def test_no_state_write_bypasses_move():
    """Every job and dag state write in src/ is the one in move()."""
    writes = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, scope in state_writes(ast.parse(path.read_text())):
            writes.append((rel, scope) if scope == "move" else
                          (f"{rel}:{line}", scope))
    assert writes == [("repro/core/states.py", "move")], writes


def test_the_guard_sees_both_spellings():
    tree = ast.parse(
        "def f(jobs):\n"
        "    jobs.update('j', state='planned')\n"
        "    jobs.update('j', **{'state': 'planned'})\n"
        "    jobs.update('j', site=None)\n"
    )
    assert state_writes(tree) == [(2, "f"), (3, "f")]
