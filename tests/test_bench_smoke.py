"""The benchmark's smoke run: every workload at a tiny size, untraced and traced."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_passes():
    # the tracer wraps package functions by the names their callers look up
    # and reads the scale set, so a package refactor can break it while
    # every report stays the same
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
