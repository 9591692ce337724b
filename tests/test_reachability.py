"""A reachability ledger: every top-level function and class in src/catwalk
is reached from a root, or the ledger below says why it stays.

The graph's nodes are the top-level definitions of ``src/catwalk/*.py``
(``__init__`` excluded).  A definition's edges are the names and
``module.attr`` references anywhere in its source, decorators and defaults
included, resolved through the module's own definitions and its relative
imports.  A module-level assignment (``MODES = {...}``) is a node too, so
that a definition reading it reaches what it names; only functions and
classes are reported.  The roots are ``cli.main``, every name the README's
library example uses, every (module, function) that ``bench/spans.py``
traces or counts, and every name that ``bench/*.py`` imports from
``catwalk.*``.

Beside the ledger, an unused-import check: every name a module of
``src/catwalk`` (``__init__`` excluded) imports is read in that module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "catwalk"

# unreached definition -> why it stays in src/
LEDGER = {
    "dephasing.cross_term_weight": "reader for item 14",
    "dephasing.min_eigenvalue": "reader for item 6",
    "fock.run_cat_record": "reader for item 20",
}
REASON = re.compile(r"reader for item (\d+)")


def module_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def definitions(sources: dict) -> tuple:
    """({"mod.name": (kind, node)}, {module: {local name: target}}): every
    top-level definition and assignment, and what each module's names
    resolve to: "mod.name" for a definition, "mod" for an imported module."""
    nodes, scopes = {}, {}
    for mod, text in sources.items():
        scope = scopes.setdefault(mod, {})
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nodes[f"{mod}.{stmt.name}"] = ("def", stmt)
                scope[stmt.name] = f"{mod}.{stmt.name}"
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes[f"{mod}.{name.id}"] = ("value", stmt)
                            scope[name.id] = f"{mod}.{name.id}"
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    scope[local] = f"{stmt.module}.{alias.name}" if stmt.module else alias.name
    return nodes, scopes


def references(node: ast.AST, scope: dict) -> set:
    """The definitions a node's source names, through ``scope``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in scope:
            found.add(scope[sub.id])
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and "." not in scope.get(sub.value.id, ".")):
            found.add(f"{scope[sub.value.id]}.{sub.attr}")
    return found


def unreached(sources: dict, roots: set) -> dict:
    """{"mod.name": lines} of each function or class no root reaches."""
    nodes, scopes = definitions(sources)
    seen, todo = set(), [r for r in roots if r in nodes]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            mod = name.split(".")[0]
            todo.extend(r for r in references(nodes[name][1], scopes[mod]) if r in nodes)
    return {name: node.end_lineno - node.lineno + 1 for name, (kind, node) in nodes.items()
            if kind == "def" and name not in seen}


def package_exports() -> dict:
    """{name: "mod.name"} of what ``catwalk/__init__.py`` re-exports."""
    exports = {}
    for stmt in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
            exports.update({a.asname or a.name: f"{stmt.module}.{a.name}" for a in stmt.names})
    return exports


def readme_roots() -> set:
    """Every catwalk name the README's library example uses."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    tree, exports = ast.parse(block), package_exports()
    scope = {}  # local name -> "catwalk", a module, or "mod.name"
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for a in stmt.names:
                if a.name == "catwalk":
                    scope[a.asname or a.name] = "catwalk"
        elif isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("catwalk"):
            for a in stmt.names:
                sub = stmt.module.partition(".")[2]
                scope[a.asname or a.name] = f"{sub}.{a.name}" if sub else a.name
    roots = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and "." in scope.get(sub.id, ""):
            roots.add(scope[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner = scope.get(sub.value.id)
            if owner == "catwalk":
                roots.add(exports.get(sub.attr, sub.attr))
            elif owner and "." not in owner:
                roots.add(f"{owner}.{sub.attr}")
    return roots


def bench_roots() -> set:
    """The (module, function) pairs bench/spans.py traces or counts, and
    every name bench/*.py imports from catwalk.*."""
    roots = set()
    spans = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for stmt in spans.body:
        if (isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id in ("SPAN_TARGETS", "COUNT_TARGETS")):
            for entry in stmt.value.elts:
                mod, fn = (e.value for e in entry.elts[:2])
                roots.add(f"{mod}.{fn}")
    for path in sorted((ROOT / "bench").glob("*.py")):
        for stmt in ast.walk(ast.parse(path.read_text())):
            if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("catwalk."):
                sub = stmt.module.partition(".")[2]
                roots.update(f"{sub}.{a.name}" for a in stmt.names)
    return roots


def roots() -> set:
    return {"cli.main"} | readme_roots() | bench_roots()


def unused_imports(sources: dict) -> list:
    """"mod.name" of every name a module imports and never reads."""
    unused = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{mod}.{name}" for stmt in ast.walk(tree)
                   if isinstance(stmt, (ast.Import, ast.ImportFrom))
                   for name in (a.asname or a.name.partition(".")[0] for a in stmt.names)
                   if name not in read]
    return unused


def ledger_errors(sources: dict, roots: set, ledger: dict, roadmap: str) -> list:
    """Why the ledger does not hold: an unreached definition it does not
    list, an entry that is reached, or a reason naming no ROADMAP item."""
    missing = unreached(sources, roots)
    errors = [f"{name} ({lines} lines) is reached from no root and is not in the ledger"
              for name, lines in missing.items() if name not in ledger]
    errors += [f"{name} is in the ledger but reached" for name in ledger if name not in missing]
    for name, reason in ledger.items():
        item = REASON.fullmatch(reason)
        if not item:
            errors.append(f"{name}: reason {reason!r} is not 'reader for item N'")
        elif not re.search(rf"^### {item.group(1)}\. ", roadmap, re.M):
            errors.append(f"{name}: ROADMAP.md has no item {item.group(1)}")
    return errors


ROADMAP = (ROOT / "ROADMAP.md").read_text()


def test_every_definition_is_reached_or_ledgered():
    assert ledger_errors(module_sources(), roots(), LEDGER, ROADMAP) == []


def test_each_root_names_a_definition():
    # a root that resolves to nothing would hide a broken resolver
    nodes, _ = definitions(module_sources())
    assert sorted(r for r in roots() if r not in nodes) == []


def test_a_planted_definition_is_caught():
    sources = module_sources()
    sources["dephasing"] += "\n\ndef planted(rho):\n    return rho\n"
    assert ledger_errors(sources, roots(), LEDGER, ROADMAP) == [
        "dephasing.planted (2 lines) is reached from no root and is not in the ledger"]


def test_every_import_is_read():
    assert unused_imports(module_sources()) == []


def test_a_planted_import_is_caught():
    sources = module_sources()
    sources["dephasing"] = "import os\nfrom .algebra import TAU as turn\n" + sources["dephasing"]
    assert unused_imports(sources) == ["dephasing.os", "dephasing.turn"]


def test_a_stale_entry_is_caught():
    ledger = dict(LEDGER, **{"dephasing.purity": "reader for item 14"})
    assert ledger_errors(module_sources(), roots(), ledger, ROADMAP) == [
        "dephasing.purity is in the ledger but reached"]


@pytest.mark.parametrize("reason, error", [
    ("reader for item 99", "ROADMAP.md has no item 99"),
    ("kept for later", "reason 'kept for later' is not 'reader for item N'"),
])
def test_a_reason_without_an_item_is_caught(reason, error):
    ledger = dict(LEDGER, **{"fock.run_cat_record": reason})
    assert ledger_errors(module_sources(), roots(), ledger, ROADMAP) == [
        f"fock.run_cat_record: {error}"]
