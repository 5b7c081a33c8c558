import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinflow
from spinflow import analysis, maps, states, volterra

# the layers whose __all__ the package re-exports; spinflow.measure is the
# function, so its layer is looked up by module name
LAYERS = (states, maps, volterra, analysis, sys.modules["spinflow.measure"])


def test_package_exports_each_layers_public_names():
    assert len(spinflow.__all__) == len(set(spinflow.__all__))
    assert set(spinflow.__all__) == {"__version__"}.union(*(layer.__all__ for layer in LAYERS))
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(spinflow, name) is getattr(layer, name), name
    assert spinflow.__version__
    assert inspect.isfunction(spinflow.measure)
    assert spinflow.measure is LAYERS[-1].measure


def _names_used(tree: ast.AST) -> set:
    """Every name a module loads, its string annotations and __all__ included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names_used(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {sub.value for sub in ast.walk(node.value) if isinstance(sub, ast.Constant)}
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(spinflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno}: {bound}")
    assert unused == []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are counted in /proc")
@pytest.mark.parametrize("given", [None, "2"])
def test_spinflow_loads_numpy_with_one_blas_thread_unless_the_caller_sets_one(given):
    # a process that imports spinflow before numpy; a matmul large enough
    # for OpenBLAS to split would wake every thread it has
    script = """
import os
import spinflow.cli
import numpy as np
a = np.ones((400, 400))
a @ a
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(spinflow.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    threads, variable = result.stdout.split()
    assert variable == str(given)
    if given is None:
        assert threads == "1"
