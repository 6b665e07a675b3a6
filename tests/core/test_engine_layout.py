"""Layout contract for the engine split.

``ReplicationEngine`` is composed by state ownership: ``engine.py``
keeps the wiring, routing, KV plumbing, decision path and completion
exits; the parked backlog, hedging, the single-function data path and
the distributed path each live in their own module.  These checks keep
the split from silently regrowing into one file, keep each protocol
fragment written once, and hold what ``benchmarks/e2e/tracing.py``
relies on: it patches ``ReplicationEngine.handle_event`` by name and
attributes a deployed handler — and everything it ``yield from``s — to
the module that defines it.  Package-wide checks ride along: the whole
package stays under its line budget, no subpackage ``__init__`` grows
back into a re-export barrel, and every trace record is emitted with a
shared ``keys`` tuple and one positional value per key — the schema
``core/task.py`` declares, for a record the trace checker reads.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro.core.engine as engine_mod
import repro.core.task as task
import repro.simcloud.faas as faas
from repro.core.config import ReplicaConfig
from repro.core.engine import ReplicationEngine
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud

CORE = Path(engine_mod.__file__).parent
PACKAGE = CORE.parent


def _lines(name: str) -> int:
    return len((CORE / name).read_text().splitlines())


def test_engine_module_stays_small():
    assert _lines("engine.py") <= 650


@pytest.mark.parametrize("name", ["backlog.py", "hedging.py", "transfer.py",
                                  "distributed.py", "task.py",
                                  "invariants.py"])
def test_split_out_modules_stay_small(name):
    assert _lines(name) <= 600


def test_package_stays_under_the_deletion_bar():
    total = sum(len(path.read_text().splitlines())
                for path in PACKAGE.rglob("*.py"))
    assert total <= 15_295, total


def test_subpackage_inits_import_nothing():
    """Callers name the submodule; an ``__init__`` is a docstring."""
    barrels = [path.parent.name for path in PACKAGE.glob("*/__init__.py")
               if any(isinstance(node, (ast.Import, ast.ImportFrom))
                      for node in ast.walk(ast.parse(path.read_text())))]
    assert barrels == []


def _tracer_calls():
    """``(path, call, consts)`` for every ``tracer.span(…)`` /
    ``….tracer.event(…)`` call in the package, and every call of the
    lifecycle runner's ``_event`` helper; ``consts`` maps the module's
    top-level tuple constants, and the schemas it imports from
    ``core/task.py``, to their lengths."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        consts = {target.id: len(node.value.elts) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Tuple)
                  for target in node.targets if isinstance(target, ast.Name)}
        consts.update((alias.name, len(getattr(task, alias.name)))
                      for node in tree.body
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "repro.core.task"
                      for alias in node.names
                      if alias.name.endswith("_KEYS"))
        for call in ast.walk(tree):
            func = getattr(call, "func", None)
            if (isinstance(call, ast.Call) and isinstance(func, ast.Attribute)
                    and (func.attr in ("span", "event")
                         and (isinstance(func.value, ast.Name)
                              and func.value.id == "tracer"
                              or isinstance(func.value, ast.Attribute)
                              and func.value.attr == "tracer")
                         or func.attr == "_event")):
                yield path, call, consts


def _module(path: Path):
    return importlib.import_module(
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts))


def test_trace_records_are_emitted_without_keywords():
    """A keyword call would build a dict per record on the hot path."""
    calls = list(_tracer_calls())
    assert len(calls) >= 50
    assert [f"{path.name}:{call.lineno}" for path, call, _ in calls
            if call.keywords] == []


def test_each_trace_record_passes_one_value_per_key():
    """``keys`` is a module constant and the values follow it one to
    one, else :meth:`~repro.core.tracing.Span.get` reads a neighbour.
    A record the trace checker reads — a name in ``task.SCHEMAS`` —
    passes one of that name's declared schemas, the very constant
    ``core/task.py`` holds, because the checker's handler reads its
    values by position; the FaaS substrate's two (``SUBSTRATE_READS``)
    pass the constants ``simcloud/faas.py`` keeps.  ``lifecycle``'s
    ``_event`` helper counts too: it passes the rule as the first
    value."""
    schemas = {**task.SCHEMAS, "chaos-corrupt": (faas.CHAOS_CORRUPT_KEYS,),
               "dead-letter": (faas.DEAD_LETTER_KEYS,)}
    assert set(schemas) - set(task.SCHEMAS) == set(task.SUBSTRATE_READS)
    mismatched, undeclared, checked, read = [], [], 0, 0
    for path, call, consts in _tracer_calls():
        helper = call.func.attr == "_event"
        fixed = 1 if helper else 5 if call.func.attr == "span" else 3
        args = call.args
        if len(args) <= fixed or any(isinstance(a, ast.Starred)
                                     for a in args):
            continue
        keys, where = args[fixed], f"{path.name}:{call.lineno}"
        assert isinstance(keys, ast.Name) and keys.id in consts, where
        checked += 1
        if len(args) - fixed - 1 + helper != consts[keys.id]:
            mismatched.append(where)
        name = args[0].value if isinstance(args[0], ast.Constant) else None
        if name in schemas:
            read += 1
            schema = getattr(_module(path), keys.id)
            if not any(schema is declared for declared in schemas[name]):
                undeclared.append(where)
    assert mismatched == [] and undeclared == []
    assert checked >= 50
    assert read >= len(schemas)


#: Fragments that used to be re-typed at several sites; each now has one
#: home under ``core/``.
WRITTEN_ONCE = (
    r"\bRETRANSFER_BUDGET\b(?! =)",
    r"max_clones_per_part > 0",
    r'"already-replicated"',
    r'stats\["retriggered"\]',
    r"(?<!class )\bPartPool\(",
    r'get_item\(f"done:',
    r'f"\{\w+\}:\{\w+\}:\{\w+\}:\{\w+\}"',
    # The lease rule: a stamp compared against a lease (locks.expired).
    r"[<>]=? [\w.]*(lease|LEASE)",
)


@pytest.mark.parametrize("pattern", WRITTEN_ONCE)
def test_each_protocol_fragment_is_written_once(pattern):
    hits = [f"{path.name}:{n}"
            for path in sorted(CORE.glob("*.py")) if path.name != "config.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line) and not line.lstrip().startswith("#")]
    assert len(hits) == 1, hits


def test_only_locks_py_knows_the_control_records():
    """``core/locks.py`` alone names a key's ``lock:`` or ``done:``
    record or reads a lock record's fields; every other module asks the
    ``ReplicationLockManager``."""
    pattern = r"[\"'](lock|done):|\b(held_seq|pending_seq|acquired_at)\b"
    hits = [f"{path.name}:{n}"
            for path in sorted(CORE.glob("*.py")) if path.name != "locks.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert hits == []
    assert re.search(pattern, (CORE / "locks.py").read_text())


def test_core_reads_no_kv_table_internals():
    """Control records are read through the table's requests or its
    ``peek`` / ``peek_prefix`` inspection, never its item dict."""
    assert [f"{path.name}:{n}"
            for path in sorted(CORE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\._items\b", line)] == []


def _rule(**cfg):
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4, **cfg))
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    return cloud, svc.add_rule(src, dst, profile=False)


def test_the_external_tracer_still_finds_its_seams():
    assert "handle_event" in vars(ReplicationEngine)
    cloud, rule = _rule()
    engine = rule.engine
    for region, names in (
            ("aws:us-east-1", [engine._orch_name, engine._rep_name]),
            ("azure:eastus", [engine._orch_name, engine._rep_name,
                              engine._applier_name])):
        for name in names:
            handler = cloud.faas(region)._deployments[name].handler
            assert handler.__module__ == "repro.core.engine", name
            assert handler.__self__ is engine


def test_hedging_state_exists_only_when_hedging_is_on():
    assert _rule()[1].engine.hedger is None
    assert _rule(hedging_enabled=True)[1].engine.hedger is not None
