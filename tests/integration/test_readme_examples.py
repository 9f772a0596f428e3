"""The README's code blocks must actually run (doc-rot guard)."""

import re
from pathlib import Path


README = Path(__file__).resolve().parents[2] / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


def test_readme_quickstart_block_runs(capsys):
    blocks = python_blocks()
    namespace = {}
    # The blocks build on one another (the second uses `optimizer` and
    # `catalog` from the first), so execute them in sequence.
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "optimizer" in namespace
    out = capsys.readouterr().out
    assert out.strip(), "the quickstart should print a plan"


def test_docs_referenced_files_exist():
    text = README.read_text()
    for relative in re.findall(r"\]\((?!http)([^)#]+)\)", text):
        assert (README.parent / relative).exists(), f"README links to missing {relative}"
