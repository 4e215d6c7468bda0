"""Source hygiene: every name a package module imports is used in it,
every name it defines at its top level is used somewhere, every method of
its classes is called somewhere, every named parameter of every
function it defines is read in that function, no module imports a
process or thread module or reads the environment, every absolute import
is of the standard library, every name the benchmark's tracer wraps
still exists, the row the tracer reads after an insert is int pairs, and
every console script ``pyproject.toml`` declares imports and is callable.

Stdlib ``ast`` only, but for the tracer, whose tables are read by loading
the file, and the scripts, whose targets are imported.  A name counts as used in a module when it appears as a load
anywhere in it, including inside string annotations.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from superkon.linalg import Echelon

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "superkon"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as -> "GaussRat"
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [f"{path.name}:{line}: {name}" for line, name in _imported(tree)
            if name not in used]


def _defined(tree):
    """``(line, name)`` of every name bound at the module's top level by a
    def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield node.lineno, n.id


def _read_from_outside(tree):
    """Names a module imports by name or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_names(modules, others) -> list:
    """Top-level names of ``modules`` that are neither loaded in their own
    module nor imported or attribute-read in another file of ``modules``
    or ``others``."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*modules, *others]}
    reads = {path: _read_from_outside(tree) for path, tree in trees.items()}
    found = []
    for path in modules:
        seen = _used(trees[path]).union(
            *(r for other, r in reads.items() if other != path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _defined(trees[path]) if name not in seen]
    return found


def test_no_unused_imports():
    found = [u for path in sorted(SRC.glob("*.py")) for u in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_detector_flags_an_unused_name(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "from math import gcd, lcm\n"
                   "import os\n"
                   "def f(x) -> \"lcm\":\n"
                   "    return gcd(x, 2)\n")
    assert unused_imports(mod) == ["m.py:3: os"]


def _others():
    """The test and benchmark files, which use the package from outside."""
    return sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def test_no_dead_module_names():
    found = dead_names(sorted(SRC.glob("*.py")), _others())
    assert not found, "module-level names nobody uses:\n" + "\n".join(found)


def test_dead_name_detector_flags_an_unused_name(tmp_path):
    mod, user = tmp_path / "m.py", tmp_path / "user.py"
    mod.write_text("USED = 1\n"
                   "DEAD = 2\n"
                   "EXPORTED = 3\n"
                   "def helper():\n"
                   "    return USED\n"
                   "def api():\n"
                   "    return helper()\n")
    user.write_text("import m\n"
                    "from m import EXPORTED\n"
                    "m.api(EXPORTED)\n")
    assert dead_names([mod], [user]) == ["m.py:2: DEAD"]


def _methods(tree):
    """``(line, class name, method name)`` of every method of every class
    in a module; dunder methods are left out, since Python calls them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.lineno, node.name, item.name


def _attribute_reads(tree):
    """Names a file reads as an attribute or writes as a whole string (as
    ``monkeypatch.setattr`` and a tracer's method table name them)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_methods(modules, others) -> list:
    """Methods of the classes of ``modules`` whose name no file of
    ``modules`` or ``others`` reads as an attribute or names as a string."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*modules, *others]}
    seen = set().union(*map(_attribute_reads, trees.values()))
    return [f"{path.name}:{line}: {cls}.{name}" for path in modules
            for line, cls, name in _methods(trees[path]) if name not in seen]


def test_no_dead_methods():
    found = dead_methods(sorted(SRC.glob("*.py")), _others())
    assert not found, "methods nobody calls:\n" + "\n".join(found)


def test_dead_method_detector_flags_an_uncalled_method(tmp_path):
    mod, user = tmp_path / "m.py", tmp_path / "user.py"
    mod.write_text("class C:\n"
                   "    def __len__(self):\n"
                   "        return self.used()\n"
                   "    def used(self):\n"
                   "        return 0\n"
                   "    def patched(self):\n"
                   "        return 1\n"
                   "    def called_outside(self):\n"
                   "        return 2\n"
                   "    def dead(self):\n"
                   "        return 3\n")
    user.write_text("import m\n"
                    "m.C().called_outside()\n"
                    "setattr(m.C, 'patched', None)\n"
                    "m.C.dead = None\n")
    assert dead_methods([mod], [user]) == ["m.py:10: C.dead"]


def unused_parameters(path: Path) -> list:
    """``file:line: function(parameter)`` for every named parameter of a
    ``def`` in ``path``, other than ``self`` and ``cls``, that its body
    never loads (a nested function's loads count).  ``*args`` and
    ``**kwargs`` are not checked: a protocol method such as a guarding
    ``__setattr__`` may take them to refuse every call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, f"{node.name}({a.arg})")
                  for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                  if a.arg not in ("self", "cls") and a.arg not in loaded]
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_no_unused_parameters():
    found = [u for path in sorted(SRC.glob("*.py"))
             for u in unused_parameters(path)]
    assert not found, "parameters never read:\n" + "\n".join(found)


def test_unused_parameter_detector_flags_an_unread_parameter(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("class C:\n"
                   "    def method(self, used, *, unread=None):\n"
                   "        return used\n"
                   "    def __setattr__(self, *a):\n"
                   "        raise AttributeError\n"
                   "def outer(x, y):\n"
                   "    def inner():\n"
                   "        return x\n"
                   "    return inner()\n")
    assert unused_parameters(mod) == ["m.py:2: method(unread)",
                                      "m.py:6: outer(y)"]


# The package runs every check in one process and reads no settings from
# the environment: a Report depends only on its arguments.
PROCESS_MODULES = {"multiprocessing", "concurrent", "threading"}
ENV_READS = {"environ", "getenv"}


def process_or_env_uses(path: Path) -> list:
    """``file:line: name`` for every import of a process or thread module
    and every read of ``os.environ`` or ``os.getenv`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in PROCESS_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in PROCESS_MODULES:
                found.append((node.lineno, node.module))
            elif node.module == "os":
                found += [(node.lineno, f"os.{a.name}") for a in node.names
                          if a.name in ENV_READS]
        elif (isinstance(node, ast.Attribute) and node.attr in ENV_READS
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def test_one_process_and_no_environment_reads():
    found = [u for path in sorted(SRC.glob("*.py"))
             for u in process_or_env_uses(path)]
    assert not found, ("process pools, threads or environment reads:\n"
                       + "\n".join(found))


def test_process_detector_flags_pools_threads_and_environment(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\n"
                   "import threading\n"
                   "from multiprocessing import get_context\n"
                   "import concurrent.futures as cf\n"
                   "from os import getenv, path\n"
                   "cap = os.environ.get('X')\n"
                   "n = os.cpu_count()\n")
    assert process_or_env_uses(mod) == ["m.py:2: threading",
                                        "m.py:3: multiprocessing",
                                        "m.py:4: concurrent.futures",
                                        "m.py:5: os.getenv",
                                        "m.py:6: os.environ"]


# pyproject.toml declares no dependencies: the package imports only the
# standard library and itself (relative imports).
def non_stdlib_imports(path: Path) -> list:
    """``file:line: name`` for every absolute import in ``path`` whose top
    package is not in ``sys.stdlib_module_names``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_the_standard_library():
    found = [u for path in sorted(SRC.glob("*.py"))
             for u in non_stdlib_imports(path)]
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def test_stdlib_detector_flags_a_third_party_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "import numpy as np\n"
                   "from fractions import Fraction\n"
                   "from sympy.core import Symbol\n"
                   "from . import algebra\n"
                   "from .exactnum import Scalar\n")
    assert non_stdlib_imports(mod) == ["m.py:3: numpy", "m.py:5: sympy.core"]


def _load_tracer(path):
    """A tracer file loaded as a module of its own; nothing is installed."""
    spec = importlib.util.spec_from_file_location("tracer_tables", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_names_missing(path) -> list:
    """The names a tracer file wraps that do not exist: each ``(module,
    attr, name)`` of its ``FUNCTIONS`` by ``getattr`` on the module, each
    ``(cls, attr, name)`` of its ``METHODS`` in ``cls.__dict__`` (where the
    tracer replaces it)."""
    tracer = _load_tracer(path)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    return missing + [f"{cls.__name__}.{attr}" for cls, attr, _ in tracer.METHODS
                      if attr not in cls.__dict__]


def test_every_traced_name_exists():
    missing = traced_names_missing(ROOT / "bench" / "tracer.py")
    assert not missing, "names bench/tracer.py wraps that are gone:\n" + "\n".join(missing)


def test_traced_name_detector_flags_a_missing_name(tmp_path):
    mod = tmp_path / "tracer.py"
    mod.write_text("from superkon.exactnum import Scalar\n"
                   "FUNCTIONS = (('superkon.algebra', 'bracket', 'x'),\n"
                   "             ('superkon.algebra', 'gone', 'y'))\n"
                   "METHODS = ((Scalar, 'at', 'z'), (Scalar, '__radd__', 'w'),\n"
                   "           (Scalar, 'gone', 'v'))\n")
    assert traced_names_missing(mod) == ["superkon.algebra.gone", "Scalar.gone"]


def test_tracer_reads_the_row_an_insert_stores():
    # after a "new" insert the tracer's outcome counter reads the last value
    # of Echelon.rows as int pairs: a unit row stores no free entry, and its
    # pivot's (den, 0) keeps that value nonempty
    tracer = _load_tracer(ROOT / "bench" / "tracer.py")
    t = tracer.Tracer()
    name = "linalg.Echelon.insert"
    t.stats[name] = {"calls": 0, "self_s": 0.0}
    e = Echelon(4, pivot_limit=3)
    for row in ({0: (1, 0)}, {1: (2, 1), 3: (-9, 0)}, {1: (0, 3), 2: (1, 0)}):
        outcome = e.insert(row)
        assert outcome == "new"
        last = list(next(reversed(e.rows.values())))
        assert last and all(type(x) is int and type(y) is int for x, y in last)
        t._count_insert(name, (e, row), outcome)
    assert t.stats[name]["new"] == 3 and t.max_coeff_bits > 1


def script_targets(pyproject: Path) -> list:
    """``(name, "module:attr")`` of every entry of the ``[project.scripts]``
    table of ``pyproject``, one ``name = "target"`` line each (read by
    hand: ``tomllib`` is not in Python 3.10)."""
    found, section = [], None
    for line in pyproject.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (x.strip().strip("\"'") for x in line.split("=", 1))
            found.append((name, target))
    return found


def broken_scripts(pyproject: Path) -> list:
    """``name = target: reason`` for every declared script whose target
    does not import or is not callable."""
    found = []
    for name, target in script_targets(pyproject):
        module, _, attr = target.partition(":")
        try:
            fn = importlib.import_module(module)
            for part in attr.split("."):
                fn = getattr(fn, part)
        except (ImportError, AttributeError) as e:
            found.append(f"{name} = {target}: {type(e).__name__}")
            continue
        if not callable(fn):
            found.append(f"{name} = {target}: not callable")
    return found


def test_every_declared_script_imports_and_is_callable():
    found = broken_scripts(ROOT / "pyproject.toml")
    assert not found, "console scripts that cannot run:\n" + "\n".join(found)


def test_script_detector_flags_a_missing_module_and_an_uncallable_target(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[project]\n"
                         "name = \"x\"\n"
                         "\n"
                         "[project.scripts]\n"
                         "ok = \"json:dumps\"  # a callable\n"
                         "gone = \"superkon.no_such_module:main\"\n"
                         "attr = \"superkon.report:no_such_name\"\n"
                         "flat = 'math:pi'\n"
                         "\n"
                         "[tool.other]\n"
                         "main = \"math:pi\"\n")
    assert broken_scripts(pyproject) == [
        "gone = superkon.no_such_module:main: ModuleNotFoundError",
        "attr = superkon.report:no_such_name: AttributeError",
        "flat = math:pi: not callable"]
