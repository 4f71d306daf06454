"""Run a code snippet in a fresh interpreter, the package importable from its source tree.

What a first call imports (``numpy.random``, ``numpy.ma``) shows only in a
process that has not imported it yet, and the test process has.
"""

import os
import subprocess
import sys
from pathlib import Path

import foliated_flows

SRC = Path(foliated_flows.__file__).resolve().parents[1]


def run_snippet(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code *args`` under this interpreter with PYTHONPATH at the package's source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
