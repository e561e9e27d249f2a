"""README's examples run as written: every command line of the "Command
line" block, and the "Library example" with the outputs its comments
state."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from monoalg.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.startswith("monoalg ")]


def test_the_command_block_is_read():
    assert COMMANDS, "no `monoalg ...` line found under README's Command line heading"


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys, tmp_path, monkeypatch):
    """Exit 0 or 1, never 2; a `# -> text` comment is the printed line."""
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) in (0, 1)
    stated = re.search(r"# -> (.*)$", line)
    if stated:
        assert capsys.readouterr().out.strip() == stated.group(1)


def test_library_example_prints_what_its_comments_state():
    code = _block("Library example", "python")
    stated = [
        re.search(r"# (.*)$", line).group(1).strip('"')
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == stated
