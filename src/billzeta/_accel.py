"""JIT toggle for the scalar loops in :mod:`billzeta._kernels`.

Those loops are written once, nopython-compatible, and decorated with
:func:`njit` from this module.  When numba is importable and the
environment variable ``BILLZETA_NUMBA`` is not set to ``0``/``false``/
``off``, :func:`njit` is the real compiler (with on-disk caching so
repeated runs skip compilation).  Otherwise it is a no-op decorator and
the same source runs as plain Python over numpy arrays.
"""

import os

__all__ = ["NUMBA_ENABLED", "njit"]


def _env_wants_jit() -> bool:
    value = os.environ.get("BILLZETA_NUMBA", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


NUMBA_ENABLED = False

if _env_wants_jit():
    try:
        import numba as _numba

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _numba = None

if NUMBA_ENABLED:

    def njit(*args, **kwargs):
        kwargs.setdefault("cache", True)
        if args and callable(args[0]) and len(args) == 1 and not kwargs:
            return _numba.njit(cache=True)(args[0])
        return _numba.njit(*args, **kwargs)

else:

    def njit(*args, **kwargs):
        # Plain-Python fallback: decorator becomes the identity.
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap
