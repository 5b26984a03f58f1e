"""scipy's compiled extensions, loaded without the Python packages around them.

Importing scipy.linalg.lapack imports all of scipy.linalg, and importing
scipy.sparse.linalg imports scipy.sparse and scipy.linalg; both load
scipy's array-API layer, and with it numpy.f2py and numpy.testing.  That
is over half the cold start of a problem.  The package uses a few
routines of two extensions: dpotrf, dpotrs and dsygvd from
scipy/linalg/_flapack, bound here, and SuperLU's gstrf from
scipy/sparse/linalg/_dsolve/_superlu, which only the pde2d module loads.
scipy_extension loads such an extension by itself; the routines, and so
every output bit, are the same.  A missing extension is an ImportError at
import time.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

# on Windows, scipy's __init__ puts its bundled OpenBLAS on the DLL path
import scipy


def scipy_extension(name):
    """The extension module scipy.<...>: scipy's, if it is loaded, else loaded here."""
    if name in sys.modules:
        return sys.modules[name]
    package = name.split(".")[1:-1]
    directory = str(Path(scipy.__file__).parent.joinpath(*package))
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {directory}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython registers a single-phase extension in sys.modules by itself;
    # left there, it stops a later import of its package from binding it.
    # Removed, that import finds the extension in CPython's cache and binds
    # the same routine objects.
    sys.modules.pop(name, None)
    return module


_flapack = scipy_extension("scipy.linalg._flapack")
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dsygvd = _flapack.dsygvd
