"""No module under ``src/`` or ``tests/`` imports a name it never uses.

CI runs ``ruff check src tests``, but ruff is not always installed where
the suite runs, and deleting code tends to strand the imports that fed
it.  This is the F401 part of that check as a plain ``ast`` scan, so the
suite itself catches a stranded import.  A name counts as used when it
is read anywhere in its module, listed in ``__all__``, or named inside a
string annotation.  Package ``__init__.py`` files are skipped: their
imports are re-exports.  An import line marked ``# noqa`` is skipped too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _imported(tree, lines):
    """``(line, bound name)`` for every import binding in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = node.names
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = node.names
        else:
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in aliases:
            if alias.name == "*":
                continue
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def _annotation_names(annotation):
    """Names read by an annotation, including quoted (string) parts."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def _used(tree):
    """Every name the module reads, exports, or annotates with."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return used


def unused_imports(path, root=ROOT):
    """``file:line:name`` for every unused import binding in ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    relative = path.relative_to(root)
    return [
        f"{relative}:{line}:{name}"
        for line, name in _imported(tree, source.splitlines())
        if name not in used
    ]


def test_no_unused_imports_in_src_and_tests():
    found = [
        entry
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os.path\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['List']\n"
        "def f(x: Optional['Decimal']) -> None:\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(sample, tmp_path) == [
        "sample.py:1:Dict",
        "sample.py:3:json",
    ]
