"""tests/linecov.py lists the statements a pytest run never executes."""

import os
import subprocess
import sys

import linecov

PLANTED = '''"""A module with one branch its test never takes."""

import os

LIMIT = 3


def clamp(x):
    """x, at most LIMIT."""
    global LIMIT
    if x > LIMIT:
        return LIMIT
    return x


if __name__ == "__main__":
    print(clamp(int(os.environ["X"])))
'''

PLANTED_TEST = '''from planted.mod import clamp


def test_small():
    assert clamp(1) == 1
'''


def test_the_one_branch_never_taken_is_listed(tmp_path):
    package = tmp_path / "src" / "planted"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(PLANTED, encoding="utf-8")
    (tmp_path / "test_planted.py").write_text(PLANTED_TEST, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, linecov; sys.exit(linecov.report(sys.argv[1], "
         "sys.argv[2:]))", str(package), str(tmp_path / "test_planted.py"),
         "-q", "-p", "no:cacheprovider"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            (linecov.HERE, str(tmp_path / "src")))))
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-2:] == [
        "src/planted/mod.py:12 return LIMIT",
        "linecov: 1 statements never ran"]
