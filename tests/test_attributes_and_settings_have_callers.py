"""Every attribute ``src/`` stores has a reader, and every setting has a
caller that sets it, outside the tests.

The sibling of ``test_public_names_have_callers.py``, and a scan of the
same callers (``src/``, ``examples/``, ``benchmarks/``):

* **(a) no write-only attribute.**  A ``self.x = ...`` or
  ``self.x += ...`` in ``src/`` counts as read when a caller loads
  ``.x`` or names ``"x"`` in a string constant (``getattr`` by name).
  A load of ``self.x`` inside a statement that stores to ``self.x``
  (``self.d[k] = self.d.get(k, 0) + 1``) is the counter's own update,
  not a read.  A counter nothing reads costs a write per event and
  tells no one.
* **(b) no setting no caller sets.**  Every dataclass field with a
  default, and every defaulted parameter of a public class's
  ``__init__``, counts as set when a caller passes it to *that* class:
  as a keyword ``x=`` or by position in a call of the class by name
  (or of a name in :data:`CALL_ALIASES` that builds it), or as a
  keyword of ``dataclasses.replace`` for a dataclass field.  A dict
  key ``"x"`` (a literal, ``d["x"] = ...``, or a keyword of
  ``dict(...)``) counts by name for a class or def some caller calls
  with ``**``, because it may be bound for that call, which the scan
  does not follow.  A knob only tests turn keeps a code path alive for its
  tests alone.
* **(b′) functions too.**  A defaulted parameter of a public
  module-level function or of a public method of a public class is a
  setting as well, set by a call of that name.
* **(b″) pass-throughs follow their source.**  A keyword whose value is
  a defaulted parameter of the enclosing def, unchanged there, sets
  only what that parameter is set to, followed transitively: a default
  handed down a chain of builders is still a default.
* **(b‴) a library's methods are its own.**  A call of a method on
  an object a library built (``pool = Pool()`` or ``with Pool() as
  pool``, where ``Pool`` comes from a module outside the caller
  tree, and the file binds ``pool`` to nothing else) sets nothing in
  ``src/``, whatever the method's name.
* **(c) one literal is a constant.**  A setting that every caller
  passes, each as the same literal (``6 * 3600.0`` included), with no
  caller left on the default, is that constant.

What may stay anyway is allowlisted below, each entry with one reason
from :data:`REASONS` and the evidence for it: the test file that reads
or turns it (which must name it), or the words of DESIGN.md §1 that
name the model parameter.
"""

import ast
from typing import NamedTuple, Optional

import pytest

from tests.test_public_names_have_callers import CALLER_DIRS, ROOT

SEAM = "a test seam that substitutes a fake"
REFERENCE = "the reference side of a with/without test"
ORACLE = "an oracle that a named test or differential reads"
MODEL = "a model parameter that DESIGN.md §1 names"
REASONS = (SEAM, REFERENCE, ORACLE, MODEL)

#: ``Class.attr`` stored in src/ that only tests read -> (reason, test)
UNREAD_ALLOWED = {
    "LocalScheduler.killed_count":
        (ORACLE, "tests/simgrid/test_local_scheduler.py"),
    "BackgroundLoad.surges":
        (ORACLE, "tests/simgrid/test_background_batched.py"),
    "GridFtpService.failed_count": (ORACLE, "tests/services/test_gridftp.py"),
    "CondorG.failed_submissions": (ORACLE, "tests/services/test_condorg.py"),
    "CondorG.submitted_count": (ORACLE, "tests/core/test_client.py"),
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
    # test_ctx_disabled_uses_static_semantics runs without it
    "QosDeadline.dag_deadline": (REFERENCE, "tests/core/test_algorithms.py"),
    "MonitoringService.noise_sigma":
        (MODEL, "configurable staleness and noise"),
    "WorkloadSpec.min_inputs": (MODEL, "2–3 inputs"),
    "WorkloadSpec.max_inputs": (MODEL, "2–3 inputs"),
    "WorkloadSpec.runtime_cv": (MODEL, "~1 min compute"),
    "WorkloadSpec.output_size_sigma": (MODEL, "sized outputs"),
    "WorkloadGenerator.p_internal": (MODEL, "random-structure DAGs"),
    # the integration stacks pace retries at 1-2 s so a drill fits a
    # short horizon; every run outside the tests keeps the 5 s default
    "ServerConfig.tick_s": (SEAM, "tests/integration/stack.py"),
    "Heartbeat.clock": (SEAM, "tests/obs/test_runtime.py"),
    # the CLI's entry point; ``python -m repro`` passes sys.argv
    "main.argv": (SEAM, "tests/experiments/test_cli.py"),
    # the Grid3 calibration's defaults; the unit tests hold a
    # stationary stream and sweep surges and modulation
    **{f"BackgroundLoad.{name}": (MODEL, "background (competing) load")
       for name in ("mean_runtime_s", "modulation_amplitude",
                    "modulation_period_s", "surge_interval_s",
                    "surge_jobs_factor", "surge_runtime_s")},
    # a federated run on a synthetic catalog (the eviction topology
    # golden) rebuilds the scenario with these
    "FederationScenario.sites": (MODEL, "Grid3-like site catalog"),
    "FederationScenario.background_batch_s":
        (MODEL, "background (competing) load"),
    "FederationScenario.monitoring_interval_s":
        (MODEL, "configurable staleness and noise"),
    "RpcBus.register.allowed_proxies": (MODEL, "token-based auth"),
    "RpcBus.register.allowed_vos": (MODEL, "token-based auth"),
    # the kernel tests tell timers apart by the value they fire with
    "Environment.timeout.value": (ORACLE, "tests/sim/test_run_hooks.py"),
    "Environment.timeout_at.value": (ORACLE, "tests/sim/test_timeout_at.py"),
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
STATE_HOLDERS = {"SiteJob", "TrackerStats"}


def _trees(dirs, root=ROOT):
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
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


def _aliases(root=ROOT) -> dict[str, set[str]]:
    """:data:`CALL_ALIASES` with each base class expanded to its family."""
    children = {}
    for _path, tree in _trees(("src",), root):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for base in cls.bases:
                    name = getattr(base, "id", None) or getattr(
                        base, "attr", None)
                    children.setdefault(name, set()).add(cls.name)
    return {callee: _family(base, children)
            for callee, base in CALL_ALIASES.items()}


_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owner(fn, cls) -> str:
    """The name callers reach ``fn``'s parameters by: the class for an
    ``__init__``, else the def's own name."""
    return cls if fn.name == "__init__" and cls else fn.name


def _defaulted(fn, method: bool) -> dict[str, Optional[int]]:
    """Defaulted parameter -> its position as a caller counts it (after
    ``self``), or None for a keyword-only one."""
    args = fn.args.posonlyargs + fn.args.args
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                  for d in fn.decorator_list))
    first = len(args) - len(fn.args.defaults)
    out = {a.arg: i - skip for i, a in enumerate(args) if i >= first}
    out.update((a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                             fn.args.kw_defaults)
               if d is not None)
    return out


class _Call(NamedTuple):
    """One call in the callers, as the settings scan reads it."""

    #: setting owners it may set: class names, or a def's name
    targets: frozenset
    #: keyword -> value node
    words: dict
    #: positional value nodes, up to the first ``*args``
    args: list
    #: a ``**kwargs`` binds keywords the scan cannot see
    splat: bool
    #: keyword -> (owner, parameter, position) of the enclosing def's
    #: defaulted parameter the keyword passes on unchanged
    through: dict


def _local_modules(root) -> set[str]:
    """Top-level module names the caller tree itself provides."""
    out = set()
    for d in CALLER_DIRS:
        for path in (root / d).rglob("*.py"):
            out.add(path.stem)
            out.update(p.name for p in path.relative_to(root).parents)
    return out


def _library_objects(tree, local) -> set[str]:
    """Names a caller file binds only to objects a library builds (rule
    b‴): ``x = lib(...)`` or ``with lib(...) as x``, where ``lib`` is
    (an attribute of) a name imported from outside the caller tree."""
    library = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            pairs = [(node.module, a) for a in node.names]
        else:
            continue
        library.update((a.asname or a.name).split(".")[0] for module, a
                       in pairs if module.split(".")[0] not in local)
    built, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.withitem) and node.optional_vars:
            pairs = [(node.optional_vars, node.context_expr)]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Name):
                head = value.func if isinstance(value, ast.Call) else None
                while isinstance(head, ast.Attribute):
                    head = head.value
                by_library = isinstance(head, ast.Name) and head.id in library
                (built if by_library else other).add(target.id)
    return built - other


def _on(call: ast.Call, objects: set[str]) -> bool:
    """``call`` is a method call on one of ``objects``."""
    func = call.func
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in objects)


def _calls(tree, aliases, objects):
    """Every call with a nameable callee, with its pass-throughs; a
    method call on one of ``objects`` (a library's) is none of
    ``src/``'s."""
    out = []

    def through(fn, method, value):
        if fn is None or not isinstance(value, ast.Name):
            return None
        params = _defaulted(fn[1], method)
        name = value.id
        if name not in params or any(
                isinstance(n, ast.Name) and n.id == name
                and isinstance(n.ctx, ast.Store) for n in ast.walk(fn[1])):
            return None  # not a parameter, or rebound before the call
        return fn[0], name, params[name]

    def visit(node, cls, fn, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn, False)
                continue
            if isinstance(child, _DEF):
                in_class = isinstance(node, ast.ClassDef)
                visit(child, cls, (_owner(child, cls if in_class else None),
                                   child), in_class)
                continue
            if (isinstance(child, ast.Call) and _callee(child)
                    and not _on(child, objects)):
                name = _callee(child)
                args = []
                for a in child.args:
                    if isinstance(a, ast.Starred):
                        break
                    args.append(a)
                words = {k.arg: k.value for k in child.keywords if k.arg}
                out.append(_Call(
                    frozenset(aliases.get(name, {name})), words, args,
                    len(words) < len(child.keywords),
                    {w: t for w, v in words.items()
                     if (t := through(fn, method, v)) is not None}))
            visit(child, cls, fn, method)

    visit(tree, None, None, False)
    return out


def _self_attr(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _own_updates(tree) -> set[int]:
    """ids of the ``self.x`` loads inside a statement that stores to
    ``self.x``: a counter's own update is not a read of it."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        stored = {t.attr for target in targets for t in ast.walk(target)
                  if _self_attr(t)}
        skip.update(id(n) for n in ast.walk(node) if _self_attr(n)
                    and n.attr in stored and isinstance(n.ctx, ast.Load))
    return skip


def caller_usage(root=ROOT):
    """(names read, dict keys, calls).

    A keyword counts only for the class or def the call reaches; a dict
    key counts by name, because it is bound for a ``**`` call the scan
    does not follow.  ``dataclasses.replace(obj, x=...)`` files ``x``
    under ``"replace"``: it sets a field of whichever dataclass ``obj``
    is."""
    aliases = _aliases(root)
    local = _local_modules(root)
    read, keys, calls = set(), set(), []
    for _path, tree in _trees(CALLER_DIRS, root):
        calls += _calls(tree, aliases, _library_objects(tree, local))
        own = _own_updates(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                               ast.Load):
                if id(node) not in own:
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
            elif isinstance(node, ast.Call) and _callee(node) == "dict":
                keys.update(k.arg for k in node.keywords if k.arg)
    calls = [c for c in calls if "dict" not in c.targets]
    return read, keys, calls


def stored_attributes(root=ROOT):
    """(``Class.attr``, ``path:line``) of every ``self.attr`` store."""
    for path, tree in _trees(("src",), root):
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
                                   f"{path.relative_to(root)}:{t.lineno}")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if (getattr(func, "id", None) or getattr(func, "attr", None)) \
                == "dataclass":
            return True
    return False


class Setting(NamedTuple):
    qual: str
    #: the class or def name callers reach it by
    owner: str
    name: str
    #: position as a caller counts it, None for keyword-only
    index: Optional[int]
    where: str
    is_field: bool


def settings(root=ROOT):
    """Every defaulted dataclass field and ``__init__`` parameter of a
    public class."""
    for path, tree in _trees(("src",), root):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            where = f"{path.relative_to(root)}"
            if _is_dataclass(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)
                          and "ClassVar" not in ast.unparse(s.annotation)]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        yield Setting(f"{cls.name}.{s.target.id}", cls.name,
                                      s.target.id, i, f"{where}:{s.lineno}",
                                      True)
            for member in cls.body:
                if isinstance(member, _DEF) and member.name == "__init__":
                    for name, i in _defaulted(member, True).items():
                        yield Setting(f"{cls.name}.{name}", cls.name, name,
                                      i, f"{where}:{member.lineno}", False)


def function_settings(root=ROOT):
    """Every defaulted parameter of a public module-level function and
    of a public method of a public class (rule b′)."""
    for path, tree in _trees(("src",), root):
        where = f"{path.relative_to(root)}"
        defs = [(None, fn) for fn in tree.body if isinstance(fn, _DEF)]
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and cls.name not in STATE_HOLDERS):
                defs += [(cls.name, fn) for fn in cls.body
                         if isinstance(fn, _DEF)]
        for cls, fn in defs:
            if fn.name.startswith("_"):
                continue
            prefix = f"{cls}.{fn.name}" if cls else fn.name
            for name, i in _defaulted(fn, cls is not None).items():
                yield Setting(f"{prefix}.{name}", fn.name, name, i,
                              f"{where}:{fn.lineno}", False)


def _set_words(keys, calls):
    """owner -> parameters some caller sets, following pass-throughs
    (rule b″): a keyword whose value is the enclosing def's defaulted
    parameter, unchanged, sets only what that parameter is set to."""
    passed, positional, splatted = {}, {}, set()
    for call in calls:
        for owner in call.targets:
            positional[owner] = max(positional.get(owner, 0), len(call.args))
        if call.splat:
            splatted |= call.targets
    splatted |= {dst for src, dst in CARRIED.items() if src in splatted}

    def is_set(owner, name, index):
        return ((name in keys and owner in splatted)
                or name in passed.get(owner, ())
                or any(name in passed.get(src, ())
                       for src, dst in CARRIED.items() if dst == owner)
                or (index is not None and positional.get(owner, 0) > index))

    pending = []
    for call in calls:
        for word in call.words:
            if word in call.through:
                pending.append((call.targets, word, call.through[word]))
            else:
                for owner in call.targets:
                    passed.setdefault(owner, set()).add(word)
    changed = True
    while changed:
        changed = False
        for targets, word, source in pending:
            if is_set(*source) and any(
                    word not in passed.get(t, ()) for t in targets):
                for owner in targets:
                    passed.setdefault(owner, set()).add(word)
                changed = True
    return is_set


_LITERAL = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.Tuple, ast.List,
            ast.operator, ast.unaryop, ast.Load)


def _literal(node) -> Optional[str]:
    """The repr of a literal expression (``6 * 3600.0`` included), or
    None for anything else."""
    if all(isinstance(n, _LITERAL) for n in ast.walk(node)):
        return repr(eval(compile(ast.Expression(node), "<lit>", "eval")))
    return None


def _one_literal(setting, keys, calls) -> bool:
    """Rule (c): every caller passes ``setting`` as one and the same
    literal, and none relies on the default."""
    if setting.name in keys:
        return False
    values = set()
    for call in calls:
        if setting.owner not in call.targets and not (
                setting.is_field and "replace" in call.targets
                and setting.name in call.words):
            continue
        if setting.name in call.words:
            value = call.words[setting.name]
        elif setting.index is not None and setting.index < len(call.args):
            value = call.args[setting.index]
        else:
            return False  # the default, or what a ** binds
        values.add(_literal(value))
    return len(values) == 1 and None not in values


def settable(found) -> list[Setting]:
    """The settings of ``found`` that count: not ``_``-named, and not
    the initial state of a :data:`STATE_HOLDERS` class.  CI ratchets
    ``len(settable(settings()))``."""
    return [s for s in found
            if not s.name.startswith("_") and s.owner not in STATE_HOLDERS]


def unset_settings(root=ROOT):
    """(``qual``, ``path:line``, why) of every setting no caller outside
    the tests sets (rules b, b′, b″), and of every setting each such
    caller passes as the same literal (rule c)."""
    _read, keys, calls = caller_usage(root)
    is_set = _set_words(keys, calls)
    out = []
    for s in settable([*settings(root), *function_settings(root)]):
        if not (is_set(s.owner, s.name, s.index) or (
                s.is_field and is_set("replace", s.name, None))):
            out.append((s.qual, s.where, "unset"))
        elif _one_literal(s, keys, calls):
            out.append((s.qual, s.where, "one literal"))
    return out


def unread_attributes(root=ROOT):
    read = caller_usage(root)[0]
    return sorted({
        (qual, where) for qual, where in stored_attributes(root)
        if qual.split(".", 1)[1] not in read
    })


def _check_allowlist(allowed: dict, found: set[str]) -> list[str]:
    problems = []
    design = (ROOT / "DESIGN.md").read_text()
    section1 = design[design.index("## 1."):design.index("## 2.")]
    for qual, (reason, evidence) in allowed.items():
        name = qual.rsplit(".", 1)[1]
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
    stray = [f"{where} {qual} ({why})" for qual, where, why in unset
             if qual not in UNSET_ALLOWED]
    assert not stray, (
        "settings that only tests set, or that every caller outside "
        "the tests passes as one literal (make them constants, give "
        "them a caller in src/, examples/ or benchmarks/ that sets "
        "another value, or allowlist them with a reason):\n  "
        + "\n  ".join(stray))
    problems = _check_allowlist(UNSET_ALLOWED, {q for q, _, _ in unset})
    assert not problems, "\n".join(problems)


# -- the rules themselves, on fixture trees ----------------------------------

def _unset(root):
    return {qual for qual, _where, _why in unset_settings(root)}


def _unread(root):
    return {qual for qual, _where in unread_attributes(root)}


def _tree(root, files: dict[str, str], scan):
    for d in CALLER_DIRS:
        (root / d).mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        (root / rel).write_text(text)
    return scan(root)


_DEFAULT_ONLY = "def build(n, scale=1.0):\n    return n * scale\n"

_PASS_THROUGH = """\
class Config:
    def __init__(self, spill=None):
        self.spill = spill


def make_config(spill=None):
    return Config(spill=spill)


def scenario(n, spill=None):
    return make_config(spill=spill)
"""

_LIBRARY_METHOD = """\
class Grid:
    def submit(self, job, priority=10):
        return job, priority
"""

_LIBRARY_CALLER = """\
from concurrent.futures import ThreadPoolExecutor

with ThreadPoolExecutor() as pool:
    pool.submit(print, 1)
    pool.submit(print, 2)
"""

_ONE_LITERAL = """\
class Load:
    def __init__(self, rate=1.0):
        self.rate = rate


def grid():
    return [Load(rate=2.0), Load(rate=2.0)]
"""


_OWN_UPDATE = """\
class Tally:
    def __init__(self):
        self.by_site = {}

    def add(self, site):
        self.by_site[site] = self.by_site.get(site, 0) + 1
"""


@pytest.mark.parametrize("scan, module, caller, flagged, other", [
    # (a) a counter whose only loads are its own updates
    (_unread, _OWN_UPDATE, "Tally().add('s0')\n", {"Tally.by_site"},
     "print(Tally().by_site)\n"),
    # (b') a public function's default no caller sets
    (_unset, _DEFAULT_ONLY, "build(3)\n", {"build.scale"},
     "build(3, scale=2.0)\n"),
    # (b'') a default that only passes through, to a class keyword
    (_unset, _PASS_THROUGH, "scenario(3)\n",
     {"Config.spill", "make_config.spill", "scenario.spill"},
     "scenario(3, spill=2)\n"),
    # (b‴) a library object's submit sets no src/ submit's priority
    (_unset, _LIBRARY_METHOD, _LIBRARY_CALLER, {"Grid.submit.priority"},
     "Grid().submit('j', 5)\nGrid().submit('k')\n"),
    # (c) every caller passes the one literal 2.0
    (_unset, _ONE_LITERAL, "grid()\n", {"Load.rate"}, "Load(rate=3.0)\n"),
], ids=("own-update", "default-only", "pass-through", "library-method",
         "one-literal"))
def test_each_rule_flags_its_fixture_and_a_second_value_clears_it(
        tmp_path, scan, module, caller, flagged, other):
    files = {"src/mod.py": module, "examples/use.py": caller}
    assert _tree(tmp_path / "one", files, scan) == flagged
    files["benchmarks/other.py"] = other
    assert _tree(tmp_path / "two", files, scan) == set()
