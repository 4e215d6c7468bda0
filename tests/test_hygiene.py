"""Source hygiene: every name a package module imports is used in it.

Stdlib ``ast`` only.  A name counts as used when it appears as a load
anywhere in the module, including inside string annotations.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "superkon"


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
        if isinstance(node, ast.Name):
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
