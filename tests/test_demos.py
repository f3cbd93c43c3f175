import os
import pathlib
import subprocess
import sys

import pytest

import twospin

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


# each demo runs as a user runs it, in a fresh working directory (some write
# their outputs there), and a numpy RuntimeWarning fails it as it fails pytest
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twospin.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
