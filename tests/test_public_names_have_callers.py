"""Every public function, class and method in ``src/`` has a caller
outside the tests.

Code that only tests reach is kept alive by its tests alone, and the
next reader pays for it.  The scan is by name: a public def counts as
called when ``src/``, ``examples/`` or ``benchmarks/`` mention that name
as a variable, an attribute, or a string constant (dispatch tables and
metric names reach methods by string); a class member only as an
attribute (``.x``) or a string constant, since no bare name reaches it.  An import does not count, and
neither does an ``__all__`` entry: exporting a name is not calling it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks")

#: public defs that may go uncalled, by qualified name -> the test file
#: that reads it as an oracle (which must name it), or why else
ALLOWED = {
    # the CLI entry point: its caller is ``python -m repro``
    "repro.cli.main": "python -m repro",
    "repro.services.rpc.RpcBus.services": "tests/services/test_rpc.py",
    "repro.services.rls.ReplicaLocationIndex.exists":
        "tests/services/test_rls.py",
    "repro.services.rls.ReplicaService.exists":
        "tests/services/test_rls_differential.py",
    "repro.sim.engine.Wakeup.pending": "tests/sim/test_event_driven.py",
    "repro.sim.resources.Resource.queued": "tests/sim/test_resources.py",
    "repro.core.feedback.ReliabilityTracker.completed":
        "tests/core/test_feedback_prediction.py",
    "repro.core.feedback.ReliabilityTracker.cancelled":
        "tests/core/test_feedback_prediction.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_defs(tree: ast.Module):
    """(qualname, line) of module-level defs and the members of classes."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS):
                    yield f"{node.name}.{member.name}", member.lineno


def mentioned_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(every name mentioned, the names mentioned as an attribute or a
    string constant — the only ways to reach a class member)."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(id(n) for n in ast.walk(node.value))
    bare, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            members.add(node.value)
    return bare | members, members


def scan(root=ROOT):
    """(uncalled public defs as ``path:line qualname``, every def seen)."""
    mentioned, as_member = set(), set()
    for d in CALLER_DIRS:
        for path in (root / d).rglob("*.py"):
            names, members = mentioned_names(ast.parse(path.read_text()))
            mentioned |= names
            as_member |= members
    uncalled, seen = [], set()
    for path in sorted((root / "src").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for qualname, line in public_defs(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_"):
                continue
            full = f"{module}.{qualname}"
            seen.add(full)
            callers = as_member if "." in qualname else mentioned
            if name not in callers and full not in ALLOWED:
                uncalled.append(f"{path.relative_to(root)}:{line} {full}")
    return uncalled, seen


def test_every_public_def_has_a_caller_outside_tests():
    uncalled, seen = scan()
    assert not uncalled, (
        "public defs that only tests call (delete them, or give them a "
        "caller in src/, examples/ or benchmarks/):\n  " + "\n  ".join(uncalled)
    )
    # an allowlist entry whose def is gone must go too, and an oracle's
    # test must still read it
    assert set(ALLOWED) <= seen, sorted(set(ALLOWED) - seen)
    for full, why in ALLOWED.items():
        if why.startswith("tests/"):
            member = full.rsplit(".", 1)[1]
            assert member in (ROOT / why).read_text(), (full, why)
