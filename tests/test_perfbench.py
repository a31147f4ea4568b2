"""The benchmark's own self-test, at toy size, as part of the suite.

The benchmark calls and traces qgen functions by name (`skipgram_pairs`,
`pair_loss_grads`, `constraint_mask`, ...), so a refactor that renames or
breaks one of them fails here rather than only when the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
