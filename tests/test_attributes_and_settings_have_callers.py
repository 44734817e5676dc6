"""Every attribute ``src/`` stores has a reader, and every setting has a
caller that sets it, outside the tests.

The sibling of ``test_public_names_have_callers.py``, and a scan of the
same callers (``src/``, ``examples/``, ``benchmarks/``):

* **(a) no write-only attribute.**  A ``self.x = ...`` or
  ``self.x += ...`` in ``src/`` counts as read when a caller loads
  ``.x`` or names ``"x"`` in a string constant (``getattr`` by name).
  A counter nothing reads costs a write per event and tells no one.
* **(b) no setting no caller sets.**  Every dataclass field with a
  default, and every defaulted parameter of a public class's
  ``__init__``, counts as set when a caller passes it to *that* class:
  as a keyword ``x=`` or by position in a call of the class by name
  (or of a name in :data:`CALL_ALIASES` that builds it), or as a
  keyword of ``dataclasses.replace`` for a dataclass field.  A dict
  key ``"x"`` (a literal, ``d["x"] = ...``, or a keyword of
  ``dict(...)``) still counts by name, because it is bound for a
  ``**`` call the scan does not follow.  A knob only tests turn keeps
  a code path alive for its tests alone.

What may stay anyway is allowlisted below, each entry with one reason
from :data:`REASONS` and the evidence for it: the test file that reads
or turns it (which must name it), or the words of DESIGN.md §1 that
name the model parameter.
"""

import ast

from tests.test_public_names_have_callers import CALLER_DIRS, ROOT

SEAM = "a test seam that substitutes a fake"
REFERENCE = "the reference side of a with/without test"
ORACLE = "an oracle that a named test or differential reads"
MODEL = "a model parameter that DESIGN.md §1 names"
REASONS = (SEAM, REFERENCE, ORACLE, MODEL)

#: ``Class.attr`` stored in src/ that only tests read -> (reason, test)
UNREAD_ALLOWED = {
    "LocalScheduler.backfill_count":
        (ORACLE, "tests/simgrid/test_reservations.py"),
    "LocalScheduler.killed_count":
        (ORACLE, "tests/simgrid/test_local_scheduler.py"),
    "BackgroundLoad.surges":
        (ORACLE, "tests/simgrid/test_background_batched.py"),
    "GridFtpService.failed_count": (ORACLE, "tests/services/test_gridftp.py"),
    "CondorG.failed_submissions": (ORACLE, "tests/services/test_condorg.py"),
    "CondorG.reservations_rejected":
        (ORACLE, "tests/services/test_condorg.py"),
    "CondorG.submitted_count": (ORACLE, "tests/core/test_client.py"),
    "SphinxServer.reservations_requested":
        (ORACLE, "tests/experiments/test_reservation_integration.py"),
    "SphinxServer.stage_in_failures": (ORACLE, "tests/core/test_server.py"),
    "Heartbeat.stall_count": (ORACLE, "tests/obs/test_runtime.py"),
    "RpcFault.cause": (ORACLE, "tests/services/test_rpc.py"),
    "Interrupt.cause": (ORACLE, "tests/sim/test_process.py"),
}

#: ``Class.setting`` no non-test caller sets -> (reason, test or words)
UNSET_ALLOWED = {
    "Heartbeat.stream": (SEAM, "tests/obs/test_runtime.py"),
    "Heartbeat.rss_fn": (SEAM, "tests/obs/test_runtime.py"),
    "Heartbeat.gc_fn": (SEAM, "tests/obs/test_runtime.py"),
    # the deterministic cadence that stands in for the wall clock
    "Heartbeat.every_events": (SEAM, "tests/obs/test_runtime.py"),
    # 0 stops the digest loop; the tests push digests by hand instead
    "FederationConfig.digest_interval_s":
        (SEAM, "tests/federation/fedstack.py"),
    # test_easy_backfilling_never_delays_reserved_job runs without it
    "LocalScheduler.backfill": (REFERENCE, "tests/simgrid/test_reservations.py"),
    # test_ctx_disabled_uses_static_semantics runs without it
    "QosDeadline.dag_deadline": (REFERENCE, "tests/core/test_algorithms.py"),
    "MonitoringService.noise_sigma":
        (MODEL, "configurable staleness and noise"),
    "WorkloadSpec.min_inputs": (MODEL, "2–3 inputs"),
    "WorkloadSpec.max_inputs": (MODEL, "2–3 inputs"),
    "WorkloadSpec.runtime_cv": (MODEL, "~1 min compute"),
    "WorkloadSpec.output_size_sigma": (MODEL, "sized outputs"),
    "WorkloadGenerator.p_internal": (MODEL, "random-structure DAGs"),
}

#: callees that construct a class they do not name -> the base class
#: whose family (itself and every class below it) they may build
CALL_ALIASES = {
    "server_cls": "SphinxServer",  # Stack.add_server, recover_server
    "make_algorithm": "SchedulingAlgorithm",
}

#: class -> class its keywords carry over to (``Stack.add_server``
#: builds ``ServerConfig(**asdict(spec))``)
CARRIED = {"ServerSpec": "ServerConfig"}

#: runtime-state holders: their defaults are initial state, not settings
STATE_HOLDERS = {"Reservation", "SiteJob", "TrackerStats"}


def _trees(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _callee(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _str(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _family(base: str, children: dict[str, set[str]]) -> set[str]:
    """``base`` and every class below it."""
    family, todo = set(), [base]
    while todo:
        name = todo.pop()
        if name not in family:
            family.add(name)
            todo.extend(children.get(name, ()))
    return family


def _aliases() -> dict[str, set[str]]:
    """:data:`CALL_ALIASES` with each base class expanded to its family."""
    children = {}
    for _path, tree in _trees(("src",)):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for base in cls.bases:
                    name = getattr(base, "id", None) or getattr(
                        base, "attr", None)
                    children.setdefault(name, set()).add(cls.name)
    return {callee: _family(base, children)
            for callee, base in CALL_ALIASES.items()}


def caller_usage():
    """(names read, dict keys, class name -> keywords passed to it,
    class name -> most positional args).

    A keyword counts only for the class the call constructs; a dict key
    counts by name, because it is bound for a ``**`` call the scan does
    not follow.  ``dataclasses.replace(obj, x=...)`` files ``x`` under
    ``"replace"``: it sets a field of whichever dataclass ``obj`` is."""
    aliases = _aliases()
    read, keys, passed, positional = set(), set(), {}, {}
    for _path, tree in _trees(CALLER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                               ast.Load):
                read.add(node.attr)
            elif _str(node):
                read.add(node.value)
            elif isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys if _str(k))
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store) and _str(node.slice)):
                keys.add(node.slice.value)
            elif (isinstance(node, ast.For)
                  and isinstance(node.target, ast.Name)
                  and isinstance(node.iter, (ast.Tuple, ast.List))
                  and any(isinstance(n, ast.Subscript)
                          and isinstance(n.ctx, ast.Store)
                          and isinstance(n.slice, ast.Name)
                          and n.slice.id == node.target.id
                          for n in ast.walk(node))):
                # for field in ("a", "b"): overrides[field] = ...
                keys.update(e.value for e in node.iter.elts if _str(e))
            elif isinstance(node, ast.Call) and _callee(node):
                name = _callee(node)
                words = {k.arg for k in node.keywords if k.arg}
                if name == "dict":
                    keys |= words
                    continue
                n = sum(not isinstance(a, ast.Starred) for a in node.args)
                for cls in aliases.get(name, {name}):
                    passed.setdefault(cls, set()).update(words)
                    positional[cls] = max(positional.get(cls, 0), n)
    for src, dst in CARRIED.items():
        passed.setdefault(dst, set()).update(passed.get(src, ()))
    return read, keys, passed, positional


def stored_attributes():
    """(``Class.attr``, ``path:line``) of every ``self.attr`` store."""
    for path, tree in _trees(("src",)):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in ast.walk(target):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and not t.attr.startswith("__")):
                            yield (f"{cls.name}.{t.attr}",
                                   f"{path.relative_to(ROOT)}:{t.lineno}")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if (getattr(func, "id", None) or getattr(func, "attr", None)) \
                == "dataclass":
            return True
    return False


def settings():
    """(``Class.name``, position, ``path:line``, is a dataclass field)
    of every defaulted dataclass field and ``__init__`` parameter of a
    public class."""
    for path, tree in _trees(("src",)):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            where = f"{path.relative_to(ROOT)}"
            if _is_dataclass(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)
                          and "ClassVar" not in ast.unparse(s.annotation)]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        yield f"{cls.name}.{s.target.id}", i, \
                            f"{where}:{s.lineno}", True
            for member in cls.body:
                if not (isinstance(member, ast.FunctionDef)
                        and member.name == "__init__"):
                    continue
                params = member.args.args[1:]
                first = len(params) - len(member.args.defaults)
                for i, a in enumerate(params[first:], first):
                    yield f"{cls.name}.{a.arg}", i, \
                        f"{where}:{a.lineno}", False
                for a, d in zip(member.args.kwonlyargs,
                                member.args.kw_defaults):
                    if d is not None:
                        yield f"{cls.name}.{a.arg}", None, \
                            f"{where}:{a.lineno}", False


def unread_attributes():
    read = caller_usage()[0]
    return sorted({
        (qual, where) for qual, where in stored_attributes()
        if qual.split(".", 1)[1] not in read
    })


def unset_settings():
    _read, keys, passed, positional = caller_usage()
    out = []
    for qual, index, where, is_field in settings():
        cls, name = qual.split(".", 1)
        if name.startswith("_") or cls in STATE_HOLDERS or name in keys:
            continue
        if name in passed.get(cls, ()) or (
                is_field and name in passed.get("replace", ())):
            continue
        if index is not None and positional.get(cls, 0) > index:
            continue
        out.append((qual, where))
    return out


def _check_allowlist(allowed: dict, found: set[str]) -> list[str]:
    problems = []
    design = (ROOT / "DESIGN.md").read_text()
    section1 = design[design.index("## 1."):design.index("## 2.")]
    for qual, (reason, evidence) in allowed.items():
        name = qual.split(".", 1)[1]
        if reason not in REASONS:
            problems.append(f"{qual}: {reason!r} is not one of REASONS")
        elif reason == MODEL:
            if evidence not in section1:
                problems.append(f"{qual}: DESIGN.md §1 lacks {evidence!r}")
        elif name not in (ROOT / evidence).read_text():
            problems.append(f"{qual}: {evidence} never names {name}")
        if qual not in found:
            problems.append(f"{qual}: allowlisted but not found")
    return problems


def test_every_stored_attribute_has_a_reader_outside_tests():
    unread = unread_attributes()
    stray = [f"{where} {qual}" for qual, where in unread
             if qual not in UNREAD_ALLOWED]
    assert not stray, (
        "attributes stored in src/ that nothing outside the tests reads "
        "(delete them, give them a reader, or allowlist them with a "
        "reason):\n  " + "\n  ".join(stray))
    problems = _check_allowlist(UNREAD_ALLOWED, {q for q, _ in unread})
    assert not problems, "\n".join(problems)


def test_every_setting_has_a_caller_that_sets_it_outside_tests():
    unset = unset_settings()
    stray = [f"{where} {qual}" for qual, where in unset
             if qual not in UNSET_ALLOWED]
    assert not stray, (
        "settings that only tests set (make them constants, give them a "
        "caller in src/, examples/ or benchmarks/, or allowlist them "
        "with a reason):\n  " + "\n  ".join(stray))
    problems = _check_allowlist(UNSET_ALLOWED, {q for q, _ in unset})
    assert not problems, "\n".join(problems)
