import os
import subprocess
import sys

import pytest

import attnsim

SRC = os.path.dirname(os.path.dirname(attnsim.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.slow
@pytest.mark.parametrize("script", ["three_regimes.py", "gap_dynamics.py",
                                    "verify_identities.py", "heatmap.py",
                                    "head_geometry.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
