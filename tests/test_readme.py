"""README.md's Python examples and morseflow commands run as written."""

import os
import re
import shlex
import subprocess
import sys

import pytest

from morseflow.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blocks(language):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```%s\n(.*?)^```$" % language, text, re.M | re.S)


def morseflow_lines():
    """Each line of README's sh blocks that runs morseflow, as the list
    of its commands' argument lists (&& joins commands, # starts a
    comment)."""
    lines = []
    for block in blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["morseflow"]:
                continue
            commands = [[]]
            for word in words:
                if word == "&&":
                    commands.append([])
                else:
                    commands[-1].append(word)
            lines.append(commands)
    return lines


def test_the_readme_has_a_python_example():
    assert blocks("python")


@pytest.mark.parametrize("k", range(len(blocks("python"))))
def test_readme_python_block_runs(k):
    """Block k runs in a fresh interpreter from the repository root, with
    src on the path, and exits 0; its own assertions are the check."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", blocks("python")[k]],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_readme_runs_morseflow():
    assert morseflow_lines()


@pytest.mark.parametrize("commands", morseflow_lines(),
                         ids=lambda cs: " && ".join(map(" ".join, cs)))
def test_readme_morseflow_line_runs(commands, tmp_path, monkeypatch):
    """Each command of the line runs through cli.main, in order, from a
    temporary directory with --out pointed at it, and exits 0."""
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert words[0] == "morseflow"
        argv = words[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        else:
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 0, words
