"""_lapack: scipy's LAPACK and SuperLU wrappers, loaded without their packages."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from hermite_tr import _lapack, pde2d, surrogate
from hermite_tr.kernels import make_kernel
from hermite_tr.surrogate import TrainingSet

REPO = Path(__file__).resolve().parent.parent
ONE_D = REPO / "scripts" / "configs" / "one_d.yaml"
PDE2D = REPO / "scripts" / "configs" / "pde2d.yaml"
# what importing scipy.linalg or scipy.sparse brings in and no problem uses
UNUSED = ["scipy.sparse", "scipy.linalg", "numpy.f2py", "scipy._lib._array_api"]
FLAPACK = "scipy.linalg._flapack"
SUPERLU = "scipy.sparse.linalg._dsolve._superlu"

# Records each call of the extension loader for _flapack and _superlu in
# `loads`, as (name, step); put before anything has imported them.
COUNT_LOADS = f"""
import json, sys
from importlib.machinery import ExtensionFileLoader
loads = []
def counted(step, method):
    def call(self, arg):
        if self.name in ({FLAPACK!r}, {SUPERLU!r}):
            loads.append((self.name, step))
        return method(self, arg)
    return call
for step in ("create_module", "exec_module"):
    setattr(ExtensionFileLoader, step, counted(step, getattr(ExtensionFileLoader, step)))
"""


def last_json_line(script, tmp_path):
    """Run script in a fresh process that imports src; its last stdout line, parsed."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, HERMITE_TR_OUTPUT_DIR=str(tmp_path / "out"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_the_routines_are_scipy_linalgs():
    assert surrogate.dpotrf is _lapack.dpotrf is scipy.linalg.lapack.dpotrf
    assert surrogate.dpotrs is _lapack.dpotrs is scipy.linalg.lapack.dpotrs
    assert pde2d.dsygvd is _lapack.dsygvd is scipy.linalg.lapack.dsygvd
    assert not hasattr(pde2d, "dpotrf") and not hasattr(pde2d, "dpotrs")
    assert pde2d.gstrf is scipy.sparse.linalg._dsolve._superlu.gstrf


def test_analytic_experiment_leaves_scipy_linalg_unloaded(tmp_path):
    # the CLI and a full bundled one_d experiment load _flapack once, and
    # neither SuperLU's extension nor scipy.linalg; a later
    # `import scipy.linalg` binds its own _flapack, with the same routines
    script = COUNT_LOADS + f"""
import hermite_tr.cli
code = hermite_tr.cli.main(["run", {str(ONE_D)!r}])
loaded = [name for name in {UNUSED!r} if name in sys.modules]
own_loads = list(loads)
import scipy.linalg
import hermite_tr.surrogate
print(json.dumps([code, loaded, own_loads, "_flapack" in vars(scipy.linalg),
                  scipy.linalg.lapack.dpotrf is hermite_tr.surrogate.dpotrf]))
"""
    code, loaded, own_loads, bound, same = last_json_line(script, tmp_path)
    assert code == 0
    assert loaded == []
    assert own_loads == [[FLAPACK, "create_module"], [FLAPACK, "exec_module"]]
    assert bound and same


def test_pde2d_experiment_leaves_scipy_sparse_unloaded(tmp_path):
    # the bundled pde2d experiment loads _flapack and _superlu once each,
    # and none of scipy.sparse or scipy.linalg; a later
    # `import scipy.sparse.linalg` binds its own _superlu, with the same
    # gstrf, and its splu factors
    script = COUNT_LOADS + f"""
import hermite_tr.cli
code = hermite_tr.cli.main(["run", {str(PDE2D)!r}])
loaded = [name for name in {UNUSED!r} if name in sys.modules]
own_loads = list(loads)
import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import hermite_tr.pde2d
lu = scipy.sparse.linalg.splu(scipy.sparse.csc_array(np.diag([2.0, 4.0])))
print(json.dumps([code, loaded, own_loads, lu.solve(np.ones(2)).tolist(),
                  scipy.sparse.linalg._dsolve._superlu.gstrf is hermite_tr.pde2d.gstrf]))
"""
    code, loaded, own_loads, x, same = last_json_line(script, tmp_path)
    assert code == 0
    assert loaded == []
    assert own_loads == [[name, step] for name in (FLAPACK, SUPERLU)
                         for step in ("create_module", "exec_module")]
    assert x == [0.5, 0.25] and same


def test_scipy_linalg_imported_first_shares_its_extension(tmp_path):
    # the package takes the extension scipy.linalg already loaded, and
    # leaves scipy.linalg's module registered
    script = COUNT_LOADS + f"""
import scipy.linalg
before = len(loads)
from hermite_tr import pde2d, surrogate
print(json.dumps([[name for name, _ in loads[before:]].count({FLAPACK!r}),
                  scipy.linalg.lapack.dpotrf is surrogate.dpotrf
                  and scipy.linalg.lapack.dsygvd is pde2d.dsygvd,
                  sys.modules[{FLAPACK!r}] is scipy.linalg._flapack]))
"""
    assert last_json_line(script, tmp_path) == [0, True, True]


def test_scipy_sparse_linalg_imported_first_shares_its_extension(tmp_path):
    # likewise pde2d takes the _superlu that scipy.sparse.linalg loaded
    script = COUNT_LOADS + f"""
import scipy.sparse.linalg
before = len(loads)
from hermite_tr import pde2d
print(json.dumps([len(loads) - before,
                  scipy.sparse.linalg._dsolve._superlu.gstrf is pde2d.gstrf,
                  sys.modules[{SUPERLU!r}] is scipy.sparse.linalg._dsolve._superlu]))
"""
    assert last_json_line(script, tmp_path) == [0, True, True]


def test_a_missing_extension_fails_the_import(tmp_path):
    # no fallback to scipy.linalg.lapack: without the extension where
    # scipy keeps it, importing the package fails
    script = f"""
import json, sys, scipy
scipy.__file__ = {str(tmp_path / "scipy" / "__init__.py")!r}
try:
    import hermite_tr.surrogate
except ImportError as exc:
    print(json.dumps([exc.name, "scipy.linalg" in sys.modules]))
"""
    assert last_json_line(script, tmp_path) == ["scipy.linalg._flapack", False]


@pytest.mark.parametrize("n, dim", [(1, 1), (14, 1), (55, 2), (81, 2)])
def test_batched_dpotrs_columns_have_one_column_bits(n, dim):
    """dpotrs on many right-hand sides gives each column a one-column call's bits.

    The factors are fitted surrogates' (the package's dpotrf), of order
    m = n(1 + dim) = 2, 28, 165 and 243, and the right-hand sides a
    block's scaled kernel rows, which PointBlock.power solves one row at a
    time.  A power batched over a block's rows keeps its bits only while
    this holds.  Like the golden output hashes, it rests on the CPU's BLAS
    kernels: an OpenBLAS that picks another kernel for a many-column
    triangular solve can fail it on unchanged code.
    """
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1.5, 1.5, (n, dim))
    s = surrogate.fit(make_kernel("gaussian", 2.0, dim),
                      TrainingSet(pts, rng.normal(size=n), rng.normal(size=(n, dim))), 1.0)
    assert len(s._factor) == n * (1 + dim)
    for rows in (2, 8, 31):
        rhs = s.block(rng.uniform(-2.0, 2.0, (rows, dim))).rows * s._scale
        batched, info = _lapack.dpotrs(s._factor, rhs.T, lower=True)
        assert info == 0
        for i, b in enumerate(rhs):
            assert batched[:, i].tobytes() == surrogate._potrs(s._factor, b).tobytes(), (rows, i)
