"""README.md's Python examples run as written."""

import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_blocks():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_the_readme_has_a_python_example():
    assert python_blocks()


@pytest.mark.parametrize("k", range(len(python_blocks())))
def test_readme_python_block_runs(k):
    """Block k runs in a fresh interpreter from the repository root, with
    src on the path, and exits 0; its own assertions are the check."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", python_blocks()[k]],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
