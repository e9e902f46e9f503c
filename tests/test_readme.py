"""The README's Python example runs as written, so a renamed or removed
public name fails here instead of leaving the docs stale."""

import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def python_block(section: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n", text.index(section)) + len("```python\n")
    return text[start:text.index("\n```", start)]


def test_library_use_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example reads fixtures/ by relative path
    exec(compile(python_block("## Library use"), "README.md", "exec"), {})
    assert "relative_l1_change" in capsys.readouterr().out
