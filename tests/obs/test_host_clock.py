"""Nothing a simulation runs through reads a host clock.

Host time is measured from outside (``benchmarks/perf``); inside
``src/`` only the opt-in heartbeat (``obs/runtime.py``) and the suite's
per-case ``wall_s`` (``experiments/parallel.py``, around a whole run)
may import a clock.  A stopwatch threaded back through the server, the
bus or the kernel fails here, whichever way it is imported.
"""

import ast
from pathlib import Path

import repro

CLOCK_MODULES = {"time", "datetime"}
MAY_READ_THE_CLOCK = {"obs/runtime.py", "experiments/parallel.py"}


def clock_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.update(n.split(".")[0] for n in names)
    return found & CLOCK_MODULES


def test_only_the_heartbeat_and_the_suite_import_a_clock():
    root = Path(repro.__file__).parent
    readers = {str(path.relative_to(root)) for path in root.rglob("*.py")
               if clock_imports(path)}
    assert readers == MAY_READ_THE_CLOCK
