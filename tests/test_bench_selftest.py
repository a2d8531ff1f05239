"""The benchmark's self-test passes on the working tree.

bench/selftest.py runs each workload once at a tiny size and checks its
outputs, so a program change that breaks a workload's run or its checks
fails here too.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
