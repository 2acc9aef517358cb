"""Fixtures shared by the test modules."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run_python():
    """Run a fresh interpreter on the given arguments, capturing text
    output, with this checkout's src/ first on its PYTHONPATH: pytest's
    own pythonpath setting reaches only the process it runs in."""
    def run(*args):
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)
    return run
