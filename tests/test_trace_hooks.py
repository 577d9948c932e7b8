"""The benchmark's trace hooks still find every library name they wrap."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_trace_hooks_resolve():
    # instrument() rebinds module attributes for the rest of the process,
    # so it runs in a fresh interpreter; a missing name is an AttributeError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import properconn, tracing; tracing.instrument(tracing.Tracer(), properconn)",
        ],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
