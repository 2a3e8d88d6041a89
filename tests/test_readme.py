"""Every python block of README.md runs as written, and so does every chordnoise line of its sh blocks.

The printed numbers are not checked: past the top few eigenvalues they sit at
the window's rounding floor, so their digits are not a property of the code.
"""

import re
import shlex
from pathlib import Path

import pytest

from chordnoise.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.S | re.M)
    for line in block.splitlines()
    if line.startswith("chordnoise ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_shell_commands_run(tmp_path, monkeypatch):
    # in order, in one directory: stability reads the files the lines before it write
    assert COMMANDS
    monkeypatch.chdir(tmp_path)
    for line in COMMANDS:
        assert main(shlex.split(line)[1:]) == 0, line
