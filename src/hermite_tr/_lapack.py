"""dpotrf and dpotrs from scipy's compiled LAPACK wrappers, without scipy.linalg.

Importing scipy.linalg.lapack imports all of scipy.linalg, whose array-API
layer loads numpy.f2py and numpy.testing: over half the cold start of an
analytic problem.  This module loads the extension those routines live in,
scipy/linalg/_flapack, by itself; the routines, and so every output bit,
are the same.  A missing extension is an ImportError at import time.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

# on Windows, scipy's __init__ puts its bundled OpenBLAS on the DLL path
import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """The extension module: scipy.linalg's, if it is loaded, else loaded here."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    linalg_dir = str(Path(scipy.__file__).parent / "linalg")
    spec = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_NAME)
    if spec is None:
        raise ImportError(f"no {_NAME} extension in {linalg_dir}", name=_NAME)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython registers a single-phase extension in sys.modules by itself;
    # left there, it stops a later `import scipy.linalg` from binding
    # scipy.linalg._flapack.  Removed, that import finds the extension in
    # CPython's cache and binds the same routine objects.
    sys.modules.pop(_NAME, None)
    return module


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
