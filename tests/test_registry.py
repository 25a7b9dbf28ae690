"""Registry and import-boundary checks; none of them starts Ray.

- every ``oracle_sql()`` entry has a ``queries()`` row (a stale oracle
  would never run), and every ``queries()`` row but the named rows-only
  ones has an oracle (a half-removed row fails);
- the search system (``rayfts/{analysis,codec,index,query}``) imports
  nothing from ``rayfts.ops``;
- no file imports an operator module that has been removed, and every
  ``rayfts.*`` import (lazy ones inside functions too) names a module
  that exists and a name that module binds;
- ``tools/check_oracle.py`` rejects unknown row names and counts stale
  oracles as failures;
- ``manifest.commit`` is the only caller of ``write_manifest`` in the
  package, so every manifest change takes the commit lock.
"""

import ast
import functools
import importlib.util
import os
import subprocess
import sys

import __ray_entry__ as entrymod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_PACKAGES = ("analysis", "codec", "index", "query")
REMOVED_MODULES = tuple(f"rayfts.ops.{m}" for m in
                        ("multimodal", "media_codec", "events", "joins",
                         "ann", "lm", "chunk", "pack", "shuffle", "dsir",
                         "sketch", "profile", "quantile", "freq", "sample",
                         "cc", "clean", "substr", "scrub", "prep",
                         "repetition", "linededup", "decontam", "dedup",
                         "pjoin", "textstats"))
# rows with no SQL oracle: check_oracle.py prints only their value hash
ROWS_ONLY = {"snippets"}


def _py_files(*rel_paths):
    for rel in rel_paths:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            yield path
            continue
        for d, _, files in os.walk(path):
            yield from (os.path.join(d, f) for f in sorted(files)
                        if f.endswith(".py"))


@functools.lru_cache(maxsize=None)
def _imports(path):
    """``(module, name)`` pairs a file imports anywhere (function bodies
    too, relative imports resolved); ``name`` is None for ``import
    module`` and may be a submodule for ``from pkg import name``."""
    package = os.path.relpath(path, ROOT).split(os.sep)[:-1]
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.name, None) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module
            out.update((mod, a.name) for a in node.names)
    return out


def _imported_modules(path):
    """Absolute dotted names a file imports; ``from pkg import name``
    yields both ``pkg`` and ``pkg.name``."""
    pairs = _imports(path)
    return {m for m, _ in pairs} | {f"{m}.{n}" for m, n in pairs if n}


def _module_file(module):
    base = os.path.join(ROOT, *module.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


@functools.lru_cache(maxsize=None)
def _top_level_names(path):
    """Names a module binds at its top level: defs, classes, assignments
    and imports."""
    with open(path) as f:
        body = ast.parse(f.read(), filename=path).body
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _callers(path, callee):
    """Names of the functions in a file that call ``callee``: ``f`` matches
    ``f(...)`` and ``m.f(...)``, ``os.f`` only ``os.f(...)`` (``<module>``
    for a call outside any function)."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = getattr(fn, "id", None)
                if isinstance(fn, ast.Attribute):
                    name = f"{getattr(fn.value, 'id', '')}.{fn.attr}"
                if name == callee or (name or "").endswith("." + callee):
                    out.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return out


def _within(module, prefix):
    return module == prefix or module.startswith(prefix + ".")


def test_every_oracle_has_a_query_row():
    assert set(entrymod.oracle_sql()) <= set(entrymod.queries())


def test_every_query_row_has_an_oracle():
    assert set(entrymod.queries()) - set(entrymod.oracle_sql()) == ROWS_ONLY


def test_search_system_does_not_import_ops():
    files = list(_py_files(*(f"rayfts/{p}" for p in SEARCH_PACKAGES)))
    assert len(files) > 10
    bad = {os.path.relpath(f, ROOT): sorted(m for m in _imported_modules(f)
                                            if _within(m, "rayfts.ops"))
           for f in files}
    assert {f: m for f, m in bad.items() if m} == {}


def _callers_in(callee, *roots):
    callers = {os.path.relpath(f, ROOT): _callers(f, callee)
               for f in _py_files(*roots)}
    return {f: c for f, c in callers.items() if c}


def test_only_manifest_commit_writes_the_manifest():
    assert _callers_in("write_manifest", "rayfts") == {
        os.path.join("rayfts", "index", "manifest.py"): ["commit"]}


def test_only_the_two_writers_rename_into_the_index():
    """Segments and the manifest are published by rename in one place
    each: ``write_segment`` and ``write_manifest``."""
    index = os.path.join("rayfts", "index")
    assert _callers_in("os.replace", index) == {
        os.path.join(index, "manifest.py"): ["write_manifest"],
        os.path.join(index, "segment.py"): ["write_segment"]}
    assert _callers_in("os.rename", index) == {}


def test_index_builds_segments_with_no_shuffle():
    """Segments come from planned Parquet units or a Dataset's own blocks:
    nothing under ``rayfts/index/`` repartitions or groups corpus rows."""
    index = os.path.join("rayfts", "index")
    assert _callers_in("repartition", index) == {}
    assert _callers_in("groupby", index) == {}


def test_no_import_of_removed_modules():
    for mod in REMOVED_MODULES:
        assert not os.path.exists(
            os.path.join(ROOT, *mod.split(".")) + ".py"), mod
    files = _py_files("rayfts", "tests", "tools", "bench.py",
                      "__ray_entry__.py")
    bad, dangling = {}, {}
    for f in files:
        rel = os.path.relpath(f, ROOT)
        bad[rel] = sorted(m for m in _imported_modules(f)
                          if any(_within(m, r) for r in REMOVED_MODULES))
        # a lazy import inside a function only fails when it runs, so
        # every rayfts.* import must resolve: the module exists and each
        # imported name is bound at its top level or is a submodule
        dangling[rel] = sorted(
            f"{m}.{n}" if n else m for m, n in _imports(f)
            if _within(m, "rayfts") and (
                _module_file(m) is None
                or n is not None and n not in _top_level_names(_module_file(m))
                and _module_file(f"{m}.{n}") is None))
    assert {f: m for f, m in bad.items() if m} == {}
    assert {f: m for f, m in dangling.items() if m} == {}


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
