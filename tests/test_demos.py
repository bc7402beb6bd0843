import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import attnsim

SRC = os.path.dirname(os.path.dirname(attnsim.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")
SCRIPTS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_imports_resolve(script):
    # the demos run only under --runslow; this catches a demo importing a
    # name the library no longer has, or passing one of its callables a
    # keyword that callable no longer takes
    with open(os.path.join(DEMOS, script)) as fh:
        tree = ast.parse(fh.read(), filename=script)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "attnsim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{script}: {node.module}.{alias.name}")
                imported[alias.asname or alias.name] = getattr(module,
                                                               alias.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(imported.get(node.func.id))):
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for kw in node.keywords:
            if kw.arg is None or takes_any:
                continue
            param = params.get(kw.arg)
            assert param is not None and param.kind != param.POSITIONAL_ONLY, (
                f"{script}:{node.lineno}: {node.func.id}({kw.arg}=...)")


@pytest.mark.slow
@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # a RuntimeWarning fails the demo, as pytest's filterwarnings makes it
    # fail the tests in process
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(DEMOS, script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
