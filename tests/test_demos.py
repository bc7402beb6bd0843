import ast
import importlib
import os
import subprocess
import sys

import pytest

import attnsim

SRC = os.path.dirname(os.path.dirname(attnsim.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.parametrize("script", sorted(
    f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_imports_resolve(script):
    # the demos run only under --runslow; this catches a demo importing a
    # name the library no longer has
    with open(os.path.join(DEMOS, script)) as fh:
        tree = ast.parse(fh.read(), filename=script)
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "attnsim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{script}: {node.module}.{alias.name}")


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
