"""Registry and import-boundary checks; none of them starts Ray.

- every ``oracle_sql()`` entry has a ``queries()`` row (a stale oracle
  would never run);
- the search system (``rayfts/{analysis,codec,index,query}``) imports
  nothing from ``rayfts.ops``;
- no file imports an operator module that has been removed;
- ``tools/check_oracle.py`` rejects unknown row names and counts stale
  oracles as failures.
"""

import ast
import importlib.util
import os
import subprocess
import sys

import __ray_entry__ as entrymod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_PACKAGES = ("analysis", "codec", "index", "query")
REMOVED_MODULES = tuple(f"rayfts.ops.{m}" for m in
                        ("multimodal", "media_codec", "events", "joins",
                         "ann", "lm", "chunk"))


def _py_files(*rel_paths):
    for rel in rel_paths:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            yield path
            continue
        for d, _, files in os.walk(path):
            yield from (os.path.join(d, f) for f in sorted(files)
                        if f.endswith(".py"))


def _imported_modules(path):
    """Absolute dotted names a file imports anywhere (function bodies
    too, relative imports resolved); ``from pkg import name`` yields
    both ``pkg`` and ``pkg.name`` because ``name`` may be a submodule."""
    package = os.path.relpath(path, ROOT).split(os.sep)[:-1]
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module
            out.add(mod)
            out.update(f"{mod}.{a.name}" for a in node.names)
    return out


def _within(module, prefix):
    return module == prefix or module.startswith(prefix + ".")


def test_every_oracle_has_a_query_row():
    assert set(entrymod.oracle_sql()) <= set(entrymod.queries())


def test_search_system_does_not_import_ops():
    files = list(_py_files(*(f"rayfts/{p}" for p in SEARCH_PACKAGES)))
    assert len(files) > 10
    bad = {os.path.relpath(f, ROOT): sorted(m for m in _imported_modules(f)
                                            if _within(m, "rayfts.ops"))
           for f in files}
    assert {f: m for f, m in bad.items() if m} == {}


def test_no_import_of_removed_modules():
    for mod in REMOVED_MODULES:
        assert not os.path.exists(
            os.path.join(ROOT, *mod.split(".")) + ".py"), mod
    files = _py_files("rayfts", "tests", "tools", "bench.py",
                      "__ray_entry__.py")
    bad = {os.path.relpath(f, ROOT): sorted(
        m for m in _imported_modules(f)
        if any(_within(m, r) for r in REMOVED_MODULES)) for f in files}
    assert {f: m for f, m in bad.items() if m} == {}


def test_check_oracle_rejects_unknown_and_stale_names():
    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(ROOT, "tools", "check_oracle.py"))
    co = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(co)
    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    assert co.name_problems(qs, oracles, {"term_topk"}) == ([], [])
    assert co.name_problems(qs, {**oracles, "gone_row": "SELECT 1"},
                            {"term_topk", "no_such_row"}) == (
        ["no_such_row"], ["gone_row"])
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "check_oracle.py"),
         "/nonexistent", "--only", "term_topk,no_such_row"],
        capture_output=True, text=True, timeout=120)
    # exits before running any row (the sf dir does not even exist)
    assert r.returncode == 2
    assert "unknown query names: no_such_row" in r.stdout
    assert "failures" not in r.stdout
