"""README.md's Python examples and morseflow commands run as written."""

import builtins
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import morseflow
from morseflow.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blocks(language):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```%s\n(.*?)^```$" % language, text, re.M | re.S)


def library_names():
    """The backticked CamelCase names of README's two lists of library
    types: the paragraphs that open "Result records are" and "The value
    types derive from"."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        paragraphs = fh.read().split("\n\n")
    lists = [p for p in paragraphs if p.startswith(
        ("Result records are", "The value types derive from"))]
    assert len(lists) == 2
    return sorted({name for p in lists
                   for name in re.findall(r"`([A-Z][A-Za-z0-9]*)`", p)})


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


def test_the_readme_names_only_library_types_that_exist():
    """Each name of README's lists of records and value types is an
    attribute of some morseflow module; builtins such as AttributeError
    are exempt."""
    modules = [importlib.import_module("morseflow." + m.name)
               for m in pkgutil.iter_modules(morseflow.__path__)]
    names = library_names()
    assert len(names) > 30
    missing = [n for n in names if not hasattr(builtins, n)
               and not any(hasattr(m, n) for m in modules)]
    assert missing == []


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
