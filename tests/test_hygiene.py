"""Hygiene of the package source: no unused imports, no stale ``__all__``
entries, one thread pool, no unbounded memo table, the block format's
strings spelled in ``seqio`` only, no config key that nothing reads, no
third-party HTTP library, and no CLI option that the README leaves out.

A name bound by an import counts as used when the module reads it anywhere,
lists it in ``__all__``, or mentions it inside a string annotation.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import click
import pytest

import slotweaver
from slotweaver import cli, seqio

PACKAGE_DIR = Path(slotweaver.__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
README = Path(__file__).parents[1] / "README.md"


def _bound_names(node):
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0]
        elif alias.name != "*":
            yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    for annotation in filter(None, _annotations(tree)):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str):
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _bound_names(node)
        if name not in used
    ]


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Optional, Union\n"
        "from .core import SlotSchema as Schema, SlotDef\n"
        "__all__ = ['SlotDef']\n"
        "def f(x: 'Optional[Schema]') -> List[int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(3, "Union")]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def stale_exports(module):
    """Names listed in the module's ``__all__`` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_export_checker_flags_unbound_names():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "deleted"]
    module.kept = object()
    assert stale_exports(module) == ["deleted"]


def test_every_export_is_bound():
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in stale_exports(importlib.import_module(
            "slotweaver" if path.stem == "__init__" else f"slotweaver.{path.stem}"
        ))
    ]
    assert found == []


def pool_constructions(source: str):
    """(line, enclosing top-level function or None) of every
    ``ThreadPoolExecutor(...)`` call, whether the name is imported or
    reached through ``concurrent.futures``."""
    tree = ast.parse(source)
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ThreadPoolExecutor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    return [
        (call.lineno, next((f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno), None))
        for call in calls
    ]


def test_pool_checker_finds_every_construction():
    source = (
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "POOL = ThreadPoolExecutor(2)\n"
        "def f():\n"
        "    with cf.ThreadPoolExecutor(4) as pool:\n"
        "        return pool\n"
    )
    assert sorted(pool_constructions(source)) == [(3, None), (5, "f")]


def test_one_thread_pool_in_the_package():
    """Every overlap of backend calls goes through ``backend.ordered_map``."""
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for _, name in pool_constructions(path.read_text(encoding="utf-8"))
    ]
    assert found == ["backend.py:ordered_map"]


def _functools_cache_names(tree):
    """Names under which the module reaches ``functools.cache`` and
    ``functools.lru_cache``, and the names bound to ``functools`` itself."""
    direct, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            direct.update({a.asname or a.name: a.name for a in node.names
                           if a.name in ("cache", "lru_cache")})
    return direct, modules


def unbounded_caches(source: str):
    """(line, name) of every ``functools.cache``, and of every ``lru_cache``
    not called with an explicit ``maxsize`` other than ``None``."""
    tree = ast.parse(source)
    direct, modules = _functools_cache_names(tree)

    def cache_name(node):
        if isinstance(node, ast.Name):
            return direct.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr in ("cache", "lru_cache")):
            return node.attr
        return None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if sizes and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                bounded.add(node.func)
    return sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if (name := cache_name(node)) and node not in bounded
    )


def test_cache_checker_flags_unbounded_caches():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as lc\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def a(x): return x\n"
        "@lc(256)\n"
        "def b(x): return x\n"
        "@ft.lru_cache\n"
        "def c(x): return x\n"
        "@lc(maxsize=None)\n"
        "def d(x): return x\n"
        "@cache\n"
        "def e(x): return x\n"
        "f = functools.cache(len)\n"
        "g = ft.lru_cache()(len)\n"
    )
    assert unbounded_caches(source) == [(8, "lru_cache"), (10, "lru_cache"), (12, "cache"),
                                        (14, "cache"), (15, "lru_cache")]


def test_every_cache_in_the_package_is_bounded():
    """A memo table that arbitrary input can grow must have a finite bound."""
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, name in unbounded_caches(path.read_text(encoding="utf-8"))
    ]
    assert found == []


FORMAT_STRINGS = (seqio.TYPES_HEADER, seqio.DIALOGUE_HEADER, seqio.VALUES_HEADER,
                  seqio.INSTRUCTION, seqio.REVISION_INSTRUCTION)


def format_literals(source: str):
    """(line, format string) of every string literal, f-string parts and
    docstrings included, that spells out a header or instruction of the
    block format."""
    return sorted(
        (node.lineno, fmt)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for fmt in FORMAT_STRINGS
        if fmt in node.value
    )


def test_format_checker_finds_spelled_headers():
    source = (
        "# Dialogue: a comment, not a literal\n"
        "from .seqio import DIALOGUE_HEADER\n"
        "A = f'{DIALOGUE_HEADER}\\n{{x}}'\n"
        "B = 'as a \\'# Key Information Values\\' block'\n"
        "C = f'{A}\\n# Dialogue\\n'\n"
    )
    assert format_literals(source) == [(4, seqio.VALUES_HEADER), (5, seqio.DIALOGUE_HEADER)]


def test_block_format_strings_live_in_seqio():
    """Every other module reaches the headers and instructions through
    ``seqio``'s constants, so the format has one owner."""
    found = [
        f"{path.name}:{line}: {fmt!r}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "seqio.py"
        for line, fmt in format_literals(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def config_key_problems(source: str, namespace):
    """Keys of ``namespace.CONFIG_KEYS`` that the module neither reads from
    their section nor passes through, and literal keys it reads from a
    section that the table does not list.

    A read is ``<x>.<section>.get("key", ...)`` or ``<x>.<section>["key"]``;
    ``_passed(<x>.<section>, TABLE, ...)`` passes every key of ``TABLE``.
    """
    table = namespace.CONFIG_KEYS
    used = {name: set() for name in table}
    read = {name: set() for name in table}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_passed":
            section, keys = node.args[:2]
            used[section.attr] |= set(getattr(namespace, keys.id))
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args:
            target, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr in table and isinstance(key, ast.Constant):
            read[target.attr].add(key.value)
    return [
        f"{name}.{key}: never read" for name in table for key in table[name]
        if key not in used[name] | read[name]
    ] + [
        f"{name}.{key}: read but not in CONFIG_KEYS" for name in table for key in sorted(read[name])
        if key not in table[name]
    ]


def test_config_key_checker_flags_dead_and_unlisted_keys():
    source = (
        "def f(cfg):\n"
        "    kind, url = cfg.backend.get('kind', 'scripted'), cfg.backend['endpoint']\n"
        "    n = cfg.simulation.get('scenarioz', 2)\n"
        "    return _passed(cfg.induction, RUN_KEYS, temperature=None)\n"
    )
    namespace = types.SimpleNamespace(
        RUN_KEYS={"max_output": "max_output"},
        CONFIG_KEYS={
            "backend": {"kind": None, "endpoint": None, "dead": None},
            "induction": {"max_output": "max_output", "window": "window_w"},
            "simulation": {},
        },
    )
    assert config_key_problems(source, namespace) == [
        "backend.dead: never read",
        "induction.window: never read",
        "simulation.scenarioz: read but not in CONFIG_KEYS",
    ]


def test_every_config_key_is_read():
    """A key the config loader accepts but nothing reads would be silently
    ignored, which is what refusing unknown keys is there to prevent."""
    assert config_key_problems(Path(cli.__file__).read_text(encoding="utf-8"), cli) == []


def test_cli_import_loads_no_http_library():
    """The backend speaks HTTP through the standard library alone."""
    code = "import sys, slotweaver.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    dependencies = " ".join(tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
                            ["project"]["dependencies"])
    assert "requests" not in dependencies and "urllib3" not in dependencies


def undocumented_options(group: click.Group, text: str):
    """``command --option`` for every long option of ``group``'s commands
    that ``text`` never spells as a whole word."""
    spelled = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    return [
        f"{name} {opt}"
        for name, command in group.commands.items()
        for param in command.params
        for opt in param.opts
        if opt.startswith("--") and opt not in spelled
    ]


def test_option_checker_matches_whole_options():
    @click.group()
    def group():
        pass

    @group.command()
    @click.option("--out")
    @click.option("--out-dir")
    @click.option("--seed")
    def run(out, out_dir, seed):
        pass

    assert undocumented_options(group, "run --out-dir x (`--seed`)") == ["run --out"]
    assert undocumented_options(group, "run --out-dir x --out y --seed 1") == []


def test_every_cli_option_is_in_the_readme():
    """An option the README never names is one a reader cannot find."""
    assert undocumented_options(cli.main, README.read_text(encoding="utf-8")) == []
