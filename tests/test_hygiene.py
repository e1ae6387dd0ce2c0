"""Hygiene of the package source: no unused imports, no stale ``__all__``
entries, no export that nothing reads, one thread pool, no unbounded memo
table, the block format's strings spelled in ``seqio`` only, no indented
``json.dumps``, no file written outside ``seqio``, no config key that
nothing reads, no
``HttpBackend``, ``SimConfig`` or ``FilterConfig`` parameter that no config
key sets, no value check that a CLI flag makes and its config key does not,
no third-party HTTP library, no command that loads code it does not run,
no CLI option that the README leaves out, no use of the ``gc`` module
outside ``cli``, no Python-level hash or equality on slot keys, no
per-turn state object built by ``evaluate``, and no gold state read outside
``core``, ``seqio`` and ``sim``.

A name bound by an import counts as used when the module reads it anywhere,
lists it in ``__all__``, or mentions it inside a string annotation.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import click
import pytest

import slotweaver
from click.testing import CliRunner

from slotweaver import backend, cli, refine, seqio, sim
from slotweaver.core import DialogueState, SlotKey

PACKAGE_DIR = Path(slotweaver.__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def _bound_names(node):
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0]
        elif alias.name != "*":
            yield alias.asname or alias.name


def _all_statement(tree):
    """The top-level ``__all__ = [...]`` statement, or None."""
    return next((
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ), None)


def _exported(tree):
    node = _all_statement(tree)
    if node is None:
        return set()
    return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}


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


def _top_level_bindings(tree) -> Counter:
    """How many top-level statements bind each name: a def, a class, an
    assignment or an import."""
    bound = Counter()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_bound_names(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


def dead_exports(source: str, elsewhere: str):
    """Names in the ``__all__`` of ``source``, other than ``__version__``,
    that neither ``elsewhere`` nor ``source`` spells as a whole word apart
    from the name's top-level bindings and its ``__all__`` entry."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exports = _all_statement(tree)
    if exports is not None:
        del lines[exports.lineno - 1:exports.end_lineno]
    rest = "\n".join(lines)
    bound = _top_level_bindings(tree)

    def spelled(name, text):
        return len(re.findall(rf"\b{re.escape(name)}\b", text))

    return [
        name for name in sorted(_exported(tree) - {"__version__"})
        if not spelled(name, elsewhere) and spelled(name, rest) <= bound[name]
    ]


def test_dead_export_checker_flags_names_nothing_else_spells():
    source = (
        "from .core import Imported\n"
        "__all__ = ['used', 'self_used', 'dead', 'Dead', 'Imported', '__version__']\n"
        "__version__ = '0'\n"
        "def used(): pass\n"
        "def self_used(): pass\n"
        "def dead(): pass\n"
        "class Dead: pass\n"
        "DEFAULT = self_used\n"
    )
    elsewhere = "from m import used\nref_dead = 'Dead_'\n"
    assert dead_exports(source, elsewhere) == ["Dead", "Imported", "dead"]


def test_every_export_is_used():
    """Each public name is read somewhere in the package, its tests, demos
    or benchmark, beyond where it is defined and exported."""
    root = Path(__file__).parents[1]
    sources = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    found = [
        f"{path.name}: {name}"
        for path in sorted((root / "src" / "slotweaver").glob("*.py"))
        for name in dead_exports(
            sources[path], "\n".join(text for p, text in sources.items() if p != path))
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


def indented_dumps(source: str):
    """(line, enclosing top-level function or None) of every ``dumps(...)``
    or ``dump(...)`` call, by bare name or as an attribute, that passes
    ``indent``."""
    tree = ast.parse(source)
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and {"dumps", "dump"} & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        and any(k.arg == "indent" for k in node.keywords)
    ]
    return [
        (call.lineno, next((f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno), None))
        for call in calls
    ]


def test_indent_checker_finds_every_indented_dump():
    source = (
        "import json\n"
        "from json import dumps\n"
        "A = json.dumps({}, indent=2)\n"
        "def f(fh):\n"
        "    json.dump({}, fh, indent=4)\n"
        "    return dumps({}, sort_keys=True) + dumps([], indent=None)\n"
    )
    assert indented_dumps(source) == [(3, None), (5, "f"), (6, "f")]


def test_indented_json_lives_in_canonical_json():
    """``seqio.canonical_json`` is the one spelling of the indented artifact
    format, and it writes it without the pure-Python encoder that
    ``indent`` selects; a property test holds it to ``json.dumps``'s bytes."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, _ in indented_dumps(path.read_text(encoding="utf-8"))
    ]
    assert found == []


_WRITE_MODE = re.compile(r"[rbt]*[wax+][rwxabt+]*")


def file_writes(source: str):
    """Line of every call that writes a file: ``open`` or ``.open`` with a
    mode that writes, creates or appends (or a mode that is not a literal),
    ``write_text``, ``write_bytes``, ``dump``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + [
                a for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            writes = any(
                not isinstance(m, ast.Constant) or _WRITE_MODE.fullmatch(str(m.value))
                for m in modes
            )
        else:
            writes = name in ("write_text", "write_bytes", "dump")
        if writes:
            lines.append(node.lineno)
    return sorted(lines)


def test_write_checker_finds_every_file_write():
    source = (
        "import json\n"
        "from pathlib import Path\n"
        "open('log.txt', 'a').write('x')\n"
        "with open(PATH, mode='wb') as fh:\n"
        "    json.dump({}, fh)\n"
        "Path('p').write_text('x')\n"
        "Path('p').open('w+')\n"
        "open(PATH, mode=m)\n"
        "Path('q').write_bytes(b'')\n"
        "A = open('in.txt', encoding='utf-8').read() + open(PATH, 'rb').read()\n"
        "B = Path('in.txt').read_text() + json.dumps({}) + json.load(open('x.json'))\n"
    )
    assert file_writes(source) == [3, 4, 5, 6, 7, 8, 9]


def test_only_seqio_writes_files():
    """Every artifact goes through ``seqio``'s one write, which creates the
    parent directory; no other module writes a file of its own."""
    writers = {
        path.name
        for path in PACKAGE_DIR.glob("*.py")
        if file_writes(path.read_text(encoding="utf-8"))
    }
    assert writers == {"seqio.py"}


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


def gc_uses(source: str):
    """Line of every import of the ``gc`` module or of a name from it, and
    of every call of a ``gc.<name>``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(alias.name == "gc" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = node.module == "gc"
        else:
            found = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and isinstance(node.func.value, ast.Name) and node.func.value.id == "gc")
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_gc_checker_finds_every_use():
    source = (
        "import gc, os\n"
        "from gc import freeze\n"
        "import gc as collector\n"
        "def f():\n"
        "    gc.disable()\n"
        "    return os.gc()\n"
    )
    assert gc_uses(source) == [1, 2, 3, 5]


def test_only_cli_manages_the_collector():
    """The policy for the cyclic collector (paused while a command loads its
    inputs, which are then frozen) lives in one place."""
    users = {
        path.name
        for path in PACKAGE_DIR.glob("*.py")
        if gc_uses(path.read_text(encoding="utf-8"))
    }
    assert users == {"cli.py"}


def gold_state_reads(source: str):
    """Line of every read of a ``gold_state`` attribute, spelled as an
    attribute or through ``getattr``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr == "gold_state"
        else:
            found = (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                     and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                     and node.args[1].value == "gold_state")
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_gold_state_checker_finds_every_read():
    source = (
        "def f(turn, dialogue, gold_state=None):\n"
        "    a = turn.gold_state\n"
        "    b = dialogue.turns[0].gold_state.keys()\n"
        "    c = getattr(turn, 'gold_state', None)\n"
        "    d = Turn('user', 'hi', gold_state=gold_state)\n"
        "    e = turn.gold_states, 'gold_state', getattr(turn, 'text')\n"
        "    return a if turn.gold_state is None else b\n"
    )
    assert gold_state_reads(source) == [2, 3, 4, 7]


def test_gold_turns_are_walked_in_seqio():
    """``core`` defines ``Turn``, ``sim`` labels turns with gold states and
    ``seqio`` reads and writes corpora; every other module reads gold turns
    through ``seqio.user_turn_states`` and ``seqio.gold_targets``."""
    readers = {
        path.name
        for path in PACKAGE_DIR.glob("*.py")
        if gold_state_reads(path.read_text(encoding="utf-8"))
    }
    assert readers <= {"core.py", "seqio.py", "sim.py"}


def test_slot_keys_hash_and_compare_in_c():
    """Keys are looked up in sets and dicts on every turn; a Python-level
    ``__hash__`` or ``__eq__`` would run on each lookup."""
    assert SlotKey.__hash__ is tuple.__hash__
    assert SlotKey.__eq__ is tuple.__eq__


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


@pytest.mark.parametrize("receiver, keys", [
    (backend.HttpBackend, cli.HTTP_KEYS),
    (sim.SimConfig, cli.SIM_KEYS),
    (refine.FilterConfig, cli.FILTER_KEYS),
])
def test_every_setting_parameter_has_a_config_key(receiver, keys):
    """A parameter that no config key sets is a knob only tests can turn; a
    fixed setting is a constant instead. The endpoint is the one parameter
    that the commands read themselves."""
    params = [name for name in inspect.signature(receiver).parameters if name != "endpoint"]
    assert params == list(keys.values())


def flag_only_checks(source: str):
    """(line, type) of every ``IntRange`` or ``FloatRange``, and of every
    ``Choice`` whose choices do not come from ``StateMode`` or ``REFINERS``:
    a check that click would make of a flag's value and not of its key's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        sources = {getattr(n, "id", None) or getattr(n, "attr", None)
                   for arg in node.args[:1] for n in ast.walk(arg)}
        if name in ("IntRange", "FloatRange") or (
                name == "Choice" and not sources & {"StateMode", "REFINERS"}):
            found.append((node.lineno, name))
    return sorted(found)


def test_flag_check_checker_finds_checks_on_the_flag_alone():
    source = (
        "import click\n"
        "from click import Choice, IntRange\n"
        "a = click.option('--n', type=click.IntRange(min=1))\n"
        "b = click.option('--refiner', type=click.Choice(['none', 'fifo']))\n"
        "c = click.option('--mode', type=click.Choice([m.value for m in StateMode]))\n"
        "d = click.option('--refiner', type=click.Choice(list(refine.REFINERS)))\n"
        "e = click.option('--p', type=click.FloatRange(0, 1))\n"
        "f = click.option('--k', type=IntRange(1), help='Choice')\n"
        "g = click.option('--m', type=Choice(('a', 'b')))\n"
    )
    assert flag_only_checks(source) == [(3, "IntRange"), (4, "Choice"), (7, "FloatRange"),
                                        (8, "IntRange"), (9, "Choice")]


def test_cli_flags_are_checked_by_the_code_that_reads_their_keys():
    """A flag overrides its config key, and the code that reads the key
    checks the value whichever way it came; a click range or literal choice
    would check the flag alone, with a message of its own."""
    assert flag_only_checks(Path(cli.__file__).read_text(encoding="utf-8")) == []


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


# Modules that only some commands run: the HTTP client and what it pulls in,
# the YAML parser, the simulator, the induction engine, the metrics, the
# thread pool that overlaps calls, the backends and logging.
OPTIONAL_MODULES = ("http.client", "ssl", "email", "yaml", "slotweaver.sim",
                    "slotweaver.induct", "slotweaver.http_backend", "slotweaver.evalx",
                    "concurrent.futures", "slotweaver.backend", "logging")


def loaded_by_command(args, cwd, modules=OPTIONAL_MODULES):
    """Which of ``modules`` a fresh interpreter in ``cwd`` has loaded after
    the CLI ran ``args`` and exited 0."""
    code = (
        "import json, sys\n"
        "from slotweaver.cli import main\n"
        "try:\n"
        f"    main({[str(a) for a in args]!r}, standalone_mode=False)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(json.dumps(sorted(set({list(modules)!r}) & set(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("command, flags, loaded", [
    ("evaluate", ["--predictions", DATA / "golden" / "states.jsonl",
                  "--gold", DATA / "corpus.json"], ["slotweaver.evalx"]),
    ("make-train-data", ["--corpus", DATA / "corpus.json", "--out", "pairs.jsonl"], []),
    # a scripted run closes its backend without loading the HTTP client, and
    # makes its calls one at a time without a thread pool
    ("induce", ["--config", "config.yaml", "--corpus", DATA / "corpus.json",
                "--out-dir", "run", "--two-pass"],
     ["slotweaver.backend", "slotweaver.induct", "yaml"]),
])
def test_each_command_loads_only_what_it_runs(tmp_path, command, flags, loaded):
    (tmp_path / "config.yaml").write_text(
        f"backend:\n  kind: scripted\n  script: {DATA / 'script.jsonl'}\n")
    assert loaded_by_command([command, *flags], tmp_path) == loaded


@pytest.mark.parametrize("mode", ["update", "state"])
def test_evaluate_builds_no_per_turn_state_objects(monkeypatch, tmp_path, mode):
    """``evaluate`` reads its two files straight into slot fills: neither
    constructor of a DialogueState runs, nor that of a StateLogEntry."""
    made = []

    def counting(name, build):
        def counted(*args, **kwargs):
            made.append(name)
            return build(*args, **kwargs)
        return counted

    for cls in (DialogueState, seqio.StateLogEntry):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(DialogueState, "from_values", classmethod(
        counting("DialogueState", DialogueState.from_values.__func__)))
    out = tmp_path / "metrics.json"
    result = CliRunner().invoke(cli.main, [
        "evaluate", "--predictions", str(DATA / "golden" / "states.jsonl"),
        "--gold", str(DATA / "corpus.json"), "--mode", mode, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.exists()
    assert made == []


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
