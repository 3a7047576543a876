"""NumPy, the batched engine's data plane, loaded on demand.

The batched engine (:mod:`repro.array.engine`) runs its columns as
NumPy ``ndarray``s.  NumPy is an *optional* extra (``pip install
repro[fast]``); the core package keeps ``dependencies = []`` and
importing :mod:`repro.array` never imports NumPy.  Without it,
:func:`get_numpy` raises :class:`ArrayBackendUnavailable` — an
:class:`ArrayEligibilityError`, so ``run_sweep(backend="array")`` and
the serve fleet fall back, loudly, to the dependency-free reference
engine exactly as they do for any other refused batch.
"""

from __future__ import annotations

__all__ = [
    "ArrayBackendUnavailable",
    "ArrayEligibilityError",
    "get_numpy",
    "has_numpy",
]

_numpy_module = None
_numpy_checked = False


class ArrayEligibilityError(RuntimeError):
    """This (protocol, plan, topology, scale) tuple cannot be batched.

    Raised loudly so callers (``run_sweep(backend="array")``) can fall
    back to the reference engine instead of silently computing the
    wrong thing.
    """


class ArrayBackendUnavailable(ArrayEligibilityError):
    """NumPy, the array data plane, is not installed on this machine."""


def _load_numpy():
    global _numpy_module, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _numpy_module = numpy
        except ImportError:
            _numpy_module = None
    return _numpy_module


def has_numpy() -> bool:
    """True when the NumPy data plane is importable."""
    return _load_numpy() is not None


def get_numpy():
    """The ``numpy`` module, or raise :class:`ArrayBackendUnavailable`."""
    module = _load_numpy()
    if module is None:
        raise ArrayBackendUnavailable(
            "the array engine needs numpy, which is not installed; install "
            "the optional extra (pip install 'repro[fast]') or run the "
            "reference engine (run_sync)"
        )
    return module
