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


def readme_blocks():
    """The ```python blocks of README.md."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        text = fh.read()
    return [block.split("```", 1)[0]
            for block in text.split("```python\n")[1:]]


def check_library_calls(source, where):
    """Every name ``source`` imports from attnsim exists, and every call of
    an imported callable binds to the callable's signature: no missing,
    surplus or unknown argument."""
    tree = ast.parse(source, filename=where)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "attnsim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if alias.name == "*":
                    imported.update((k, v) for k, v in vars(module).items()
                                    if not k.startswith("_"))
                    continue
                assert hasattr(module, alias.name), (
                    f"{where}: {node.module}.{alias.name}")
                imported[alias.asname or alias.name] = getattr(module,
                                                               alias.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(imported.get(node.func.id))):
            continue
        signature = inspect.signature(imported[node.func.id])
        args = node.args
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        bind = signature.bind
        # an unpacked *args or **kwargs hides how many arguments there are
        if any(isinstance(a, ast.Starred) for a in args):
            args, bind = [], signature.bind_partial
        if len(kwargs) < len(node.keywords):
            bind = signature.bind_partial
        try:
            bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{where}:{node.lineno}: {node.func.id}: {exc}")


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_imports_resolve(script):
    # the demos run only under --runslow; this catches a demo importing a
    # name the library no longer has, or calling one of its callables with
    # arguments it no longer takes
    with open(os.path.join(DEMOS, script)) as fh:
        check_library_calls(fh.read(), script)


@pytest.mark.parametrize("block", range(len(readme_blocks())))
def test_readme_calls_resolve(block):
    check_library_calls(readme_blocks()[block], f"README.md block {block}")


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
