"""Every public function, class and method in ``src/`` has a caller
outside the tests.

Code that only tests reach is kept alive by its tests alone, and the
next reader pays for it.  The scan is by name: a public def counts as
called when ``src/``, ``examples/`` or ``benchmarks/`` mention that name
as a variable, an attribute, or a string constant (dispatch tables and
metric names reach methods by string).  An import does not count, and
neither does an ``__all__`` entry: exporting a name is not calling it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks")

#: public defs that may go uncalled, by qualified name
ALLOWED = {
    # the CLI entry point: its caller is ``python -m repro``
    "repro.cli.main",
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


def mentioned_names(tree: ast.Module) -> set[str]:
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            names.add(node.value)
    return names


def scan():
    """(uncalled public defs as ``path:line qualname``, every def seen)."""
    mentioned = set()
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            mentioned |= mentioned_names(ast.parse(path.read_text()))
    uncalled, seen = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for qualname, line in public_defs(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_"):
                continue
            full = f"{module}.{qualname}"
            seen.add(full)
            if name not in mentioned and full not in ALLOWED:
                uncalled.append(f"{path.relative_to(ROOT)}:{line} {full}")
    return uncalled, seen


def test_every_public_def_has_a_caller_outside_tests():
    uncalled, seen = scan()
    assert not uncalled, (
        "public defs that only tests call (delete them, or give them a "
        "caller in src/, examples/ or benchmarks/):\n  " + "\n  ".join(uncalled)
    )
    # an allowlist entry whose def is gone must go too
    assert ALLOWED <= seen, sorted(ALLOWED - seen)
