"""The benchmark's self-test runs with the suite.

bench/selftest.py runs every workload at a tiny size against the
answers known from its generator, so a change that breaks one of them
fails here and not only in a timed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    pytest.importorskip("numpy")
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
