"""Every Python code block and every ``wynercache`` command in README.md runs as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# the sh blocks' wynercache commands, continuation lines joined and comments dropped
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in (raw.split("#")[0].strip() for raw in block.replace("\\\n", " ").splitlines())
    if line.startswith("wynercache ")
]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_block_runs(code, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=[f"command{i}" for i in range(1, len(COMMANDS) + 1)])
def test_command_runs(command, tmp_path):
    argv = [sys.executable, "-m", "wynercache.cli", *shlex.split(command)[1:]]
    proc = subprocess.run(argv, cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, f"{command}\n{proc.stderr}"
