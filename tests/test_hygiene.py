"""Source hygiene: every name a package or test module imports is used in
it, the package reads the environment only through its two documented
keys, one function raises ResourceGuardError, every public function
or class is used beyond its definition, and every entry point the
benchmark's tracer wraps exists where it looks for it, every package
attribute the benchmark's workloads read exists, and the cache schema
number the README states is the package's."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

from kuzweyl.restriction_coeffs import SCHEMA_VERSION

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kuzweyl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
ENV_KEYS = {"KUZWEYL_CACHE_DIR", "KUZWEYL_OUTPUT_DIR"}


def unused_imports(source: str) -> list:
    """Names bound by import statements and never referenced afterwards.

    A reference is a load of the bare name (attribute chains start with
    one) or the name's string in `__all__`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom typing import Optional\n"
           "from json import dumps as dump_json\n"
           "__all__ = ['dump_json']\n"
           "def f(x: Optional[int]):\n    return os.path.join(x)\n")
    assert unused_imports(src) == [(2, "math")]


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def environment_reads(source: str) -> list:
    """(line, key) for every use of an `environ` or `getenv` name.

    key is the string constant read by `environ.get(...)`,
    `environ[...]` or `getenv(...)`, and None for any other use (a
    computed key, iteration, a copy of the whole mapping).
    """
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name not in ("environ", "getenv"):
            continue
        up = parent.get(node)
        key = None
        if name == "getenv" and isinstance(up, ast.Call) and up.args:
            key = up.args[0]
        elif isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif isinstance(up, ast.Attribute) and up.attr == "get":
            call = parent.get(up)
            if isinstance(call, ast.Call) and call.func is up and call.args:
                key = call.args[0]
        reads.append((node.lineno, key.value if isinstance(key, ast.Constant)
                      and isinstance(key.value, str) else None))
    return sorted(reads, key=lambda read: read[0])


def test_environment_scanner():
    src = ("import os\nfrom os import environ\n"
           "a = os.environ.get('KUZWEYL_CACHE_DIR', '.')\n"
           "b = os.environ['HOME']\nc = os.getenv(a)\nd = dict(environ)\n")
    assert environment_reads(src) == [(3, "KUZWEYL_CACHE_DIR"), (4, "HOME"),
                                      (5, None), (6, None)]


def test_environment_read_only_through_documented_keys():
    keys = {key for path in SRC.glob("*.py")
            for _, key in environment_reads(path.read_text())}
    assert keys <= ENV_KEYS


def guard_raises(source: str) -> list:
    """(line, enclosing function or None) for every raise of
    ResourceGuardError, called or bare, by name or as an attribute."""
    tree = ast.parse(source)
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = (exc.attr if isinstance(exc, ast.Attribute)
                    else exc.id if isinstance(exc, ast.Name) else None)
            if name == "ResourceGuardError":
                out.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_guard_raise_scanner():
    src = ("def _guard(c, b):\n    if c > b:\n"
           "        raise ResourceGuardError('x')\n"
           "def f():\n    def g():\n        raise errors.ResourceGuardError\n"
           "    raise ValueError('y')\n"
           "raise ResourceGuardError()\n")
    assert guard_raises(src) == [(3, "_guard"), (6, "g"), (8, None)]


def test_resource_guard_raised_only_by_guard():
    # every resource limit goes through model_spectra._guard, which checks
    # a count before the allocation it counts
    raises = {(path.name, func) for path in SRC.glob("*.py")
              for _, func in guard_raises(path.read_text())}
    assert raises == {("model_spectra.py", "_guard")}


def unreferenced_public(modules: dict, others) -> list:
    """(module, name) for every public module-level function or class in
    `modules` (file name -> source) that no source, of `modules` or of
    `others`, refers to beyond its definition.

    A reference is a loaded name, an attribute, an imported name or a
    string constant (a name looked up with getattr); the strings of an
    `__all__` list are not references.
    """
    used = set()
    for source in [*modules.values(), *others]:
        tree = ast.parse(source)
        listed = {id(e) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)
                  for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in listed):
                used.add(node.value)
    return sorted((name, node.name) for name, source in modules.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def test_unreferenced_public_scanner():
    modules = {
        "a.py": ("__all__ = ['used', 'unused', 'Orphan']\n"
                 "def used():\n    pass\ndef by_name():\n    pass\n"
                 "def unused():\n    pass\nclass Orphan:\n    pass\n"
                 "def helper():\n    pass\nclass Result:\n    pass\n"
                 "def _private():\n    pass\n"
                 "def api():\n    helper()\n    return Result()\n"),
        "b.py": "from .a import used\nx = 1\n",
        "__init__.py": "from .a import api\nfrom .b import x\n",
    }
    others = ["import a\nf = getattr(a, 'by_name')\n"]
    assert unreferenced_public(modules, others) == [("a.py", "Orphan"),
                                                    ("a.py", "unused")]


def test_every_public_name_is_used():
    # a public function or class serves the package, the package root's
    # exports or the benchmark; a test-only helper belongs in tests/oracles.py
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    bench = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert unreferenced_public(modules, bench) == []


def trace_targets(source: str) -> list:
    """The (module, attr) keys of the RULES dict in a tracer's source."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "RULES"
                        for t in node.targets)):
            return [tuple(e.value for e in key.elts) for key in node.value.keys]
    return []


def test_trace_targets_resolve():
    # the benchmark's tracer wraps each target by name; a method is taken
    # from its class's own __dict__, so it must be defined in the class body
    targets = trace_targets((ROOT / "perfbench" / "spans.py").read_text())
    assert ("kuznecov", "TestFunction.psi") in targets
    for mod_name, attr in targets:
        module = importlib.import_module(f"kuzweyl.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert inspect.isfunction(
                vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def module_attribute_refs(source: str) -> list:
    """(module, attr) for every attribute the source reads off a module it
    imports as `import kuzweyl.<module> as <alias>`."""
    tree = ast.parse(source)
    alias = {a.asname: a.name.split(".", 1)[1]
             for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names
             if a.asname and a.name.startswith("kuzweyl.")}
    return sorted({(alias[n.value.id], n.attr) for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id in alias})


def test_benchmark_workload_names_resolve():
    # the benchmark calls the package by these names and changes only in
    # its own revisions, so deleting or renaming one breaks the benchmark,
    # which no other test runs
    refs = module_attribute_refs(
        (ROOT / "perfbench" / "workloads.py").read_text())
    assert {mod for mod, _ in refs} == {
        "asymptotics", "cli", "kuznecov", "model_spectra",
        "oscillatory_models", "restriction_coeffs", "special_functions"}
    missing = [f"{mod}.{attr}" for mod, attr in refs
               if not hasattr(importlib.import_module(f"kuzweyl.{mod}"), attr)]
    assert missing == []


def test_readme_states_the_cache_schema_version():
    # a schema bump makes every cache file stale; the README must say so
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"schema\s+version\s+\((\d+)\)", readme) == [
        str(SCHEMA_VERSION)]
