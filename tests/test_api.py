import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tailgauge


def test_public_names_resolve_once():
    names = tailgauge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tailgauge, n)] == []


def test_runtime_imports_are_stdlib_and_numpy_only():
    # the one runtime dependency is numpy: every import in the package names
    # the standard library, numpy or the package itself (relative imports)
    allowed = sys.stdlib_module_names | {"numpy", "tailgauge"}
    seen, foreign = set(), []
    for path in sorted(pathlib.Path(tailgauge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                seen.add(top)
                if top not in allowed:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
    assert "numpy" in seen


def test_estimator_law_is_exported():
    assert "EstimatorLaw" in tailgauge.__all__
    density = importlib.import_module("tailgauge.density")
    assert tailgauge.EstimatorLaw is density.EstimatorLaw


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints numpy's OpenBLAS thread count (null without a bundled scipy-openblas)
# and the thread variables the process sees afterwards
_PROBE = """
import ctypes, glob, json, os
{imports}
import numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                              "numpy.libs", "libscipy_openblas*.so"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
if get is not None:
    get.argtypes, get.restype = [], ctypes.c_int
print(json.dumps({{"threads": get() if get else None,
                  "env": {{k: os.environ.get(k) for k in {names!r}}}}}))
"""


def _blas_threads(imports, **env):
    """OpenBLAS's thread count and the thread variables in a fresh interpreter
    that runs ``imports`` first, with only ``env`` of the thread variables set."""
    child_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tailgauge.__file__))
    out = subprocess.run([sys.executable, "-c", _PROBE.format(imports=imports,
                                                              names=_THREAD_VARS)],
                         env=child_env, capture_output=True, text=True, timeout=60,
                         check=True)
    report = json.loads(out.stdout)
    if report["threads"] is None:
        pytest.skip("numpy carries no scipy-openblas library")
    return report["threads"], report["env"]


def test_tailgauge_loads_openblas_with_one_thread():
    threads, env = _blas_threads("import tailgauge")
    assert threads == 1
    assert env == dict.fromkeys(_THREAD_VARS)


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_thread_count_is_kept(name):
    threads, env = _blas_threads("import tailgauge", **{name: "2"})
    assert threads == 2
    assert env == {**dict.fromkeys(_THREAD_VARS), name: "2"}


def test_numpy_imported_first_keeps_its_pool():
    default, _env = _blas_threads("")
    assert _blas_threads("import numpy; import tailgauge")[0] == default
