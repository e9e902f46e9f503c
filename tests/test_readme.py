"""The README's examples run as written, so a renamed or removed public name
or flag fails here instead of leaving the docs stale."""

import os
import shlex

from doctrain.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def code_block(section: str, lang: str) -> str:
    """The first ```lang block after the heading `section`."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    fence = f"```{lang}\n"
    start = text.index(fence, text.index(section)) + len(fence)
    return text[start:text.index("\n```", start)]


def test_library_use_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example reads fixtures/ by relative path
    exec(compile(code_block("## Library use", "python"), "README.md", "exec"),
         {})
    assert "relative_l1_change" in capsys.readouterr().out


def test_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Every `doctrain` command of the walkthrough exits 0 in a fresh
    directory, `$FIX` naming fixtures/, and the replay at its end verifies,
    as does a replay of every other manifest the walkthrough wrote.
    A command whose output path is one of its inputs would exit 2."""
    fixtures = os.path.abspath(os.path.join(ROOT, "fixtures"))
    block = code_block("## Command line", "sh").replace("\\\n", " ")
    commands = [line.strip() for line in block.splitlines()
                if line.strip().startswith("doctrain ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command.replace("$FIX", fixtures))[1:]
        assert main(argv) == 0, command
    assert "replay verified" in capsys.readouterr().out
    manifests = sorted(p.name for p in tmp_path.glob("*.manifest.json"))
    assert manifests == ["model.ckpt.manifest.json",
                         "triplets.jsonl.manifest.json",
                         "tuned.ckpt.manifest.json", "wl.json.manifest.json"]
    for manifest in manifests:
        assert main(["--replay", manifest]) == 0, manifest
        assert "replay verified" in capsys.readouterr().out, manifest
