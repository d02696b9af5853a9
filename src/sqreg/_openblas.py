"""numpy's bundled OpenBLAS, ``numpy.libs/libscipy_openblas64_*.so``: the
library ``np.linalg`` itself calls, which numpy has loaded already. Its
routines take 64-bit (ILP64) integers and carry a ``scipy_`` prefix and a
``64_`` suffix.

``set_num_threads``, ``dgetrf`` and ``dgetrs`` are its ctypes handles, each
None when numpy ships no such library (a numpy built against a system BLAS).
OpenBLAS's ``dgesv``, behind ``np.linalg.solve``, is ``dgetrf`` followed by
``dgetrs``, so at one BLAS thread lu_factor and lu_solve give its bits.
"""

import ctypes
import glob
import os

import numpy as np

_LIBDIR = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_PATHS = sorted(glob.glob(os.path.join(_LIBDIR, "libscipy_openblas64_*.so")))
_LIB = ctypes.CDLL(_PATHS[0]) if _PATHS else None

_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p


def _handle(name, argtypes):
    fn = getattr(_LIB, name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, None
    return fn


set_num_threads = _handle("scipy_openblas_set_num_threads64_", [ctypes.c_int])
# dgetrf(m, n, a, lda, ipiv, info)
dgetrf = _handle("scipy_dgetrf_64_", [_INT, _INT, _PTR, _INT, _PTR, _INT])
# dgetrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info), then the hidden
# Fortran length of the string trans
dgetrs = _handle("scipy_dgetrs_64_",
                 [ctypes.c_char_p, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT, ctypes.c_size_t])


def _check(a, piv):
    n = a.shape[0]
    if not (a.shape == (n, n) and a.dtype == np.float64 and a.flags.f_contiguous
            and a.flags.writeable and piv.shape == (n,) and piv.dtype == np.int64
            and piv.flags.c_contiguous and piv.flags.writeable):
        raise ValueError("LU needs a writable column-major n x n float64 array "
                         "and a contiguous int64 pivot vector of length n")
    return n


def lu_factor(a, piv):
    """LU-factor the n x n column-major float64 array ``a`` in place, with
    its row pivots in the int64 array ``piv``. Returns LAPACK's info: 0, or
    k > 0 when U[k-1, k-1] is exactly 0 (a singular matrix). Addresses are
    read at each call, so a copied array is never written through the
    original's."""
    size, info = ctypes.c_int64(_check(a, piv)), ctypes.c_int64(0)
    dgetrf(size, size, a.ctypes.data, size, piv.ctypes.data, info)
    return info.value


def lu_solve(a, piv, b):
    """The solution x of A x = b, in a new array, from the factors ``a`` and
    pivots ``piv`` that lu_factor left."""
    n = _check(a, piv)
    x = np.array(b, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError("right-hand side must have length n")
    size, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    dgetrs(b"N", size, one, a.ctypes.data, size, piv.ctypes.data, x.ctypes.data, size, info, 1)
    return x
