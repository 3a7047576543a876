"""``repro.array`` — the batched, vectorized synchronous engine.

A second execution backend for the synchronous model: one
:func:`run_array` call executes *all seeds of a sweep-point batch* as
lanes of flat per-process NumPy arrays (the ``repro[fast]`` extra).  It
is conformance-checked — for small ``n`` it reconstructs histories
that are digest-identical to :func:`repro.sync.engine.run_sync` —
and then runs four-plus orders of magnitude past the reference
engine's honest range (n = 10^4–10^6).

Entry points:

- :func:`run_array` / :class:`ArrayRunResult` — the batched driver.
- :func:`as_array_protocol` — maps reference protocols to their
  batched twins (see ``docs/array.md`` for how to add one).
- :mod:`repro.array.conformance` — digest-comparison harness.
- :func:`has_numpy` — is the NumPy data plane installed?

Ineligible combinations (no batched protocol, per-lane churn
disagreement, NumPy not installed, …) raise
:class:`ArrayEligibilityError`; ``run_sweep(backend="array")`` catches
exactly that and falls back, loudly, to the reference engine.
Importing this package never imports NumPy.
"""

from repro.array.backend import (
    ArrayBackendUnavailable,
    ArrayEligibilityError,
    has_numpy,
)
from repro.array.conformance import (
    ArrayConformance,
    LaneConformance,
    assert_conformance,
    check_conformance,
)
from repro.array.engine import ArrayRunResult, run_array
from repro.array.protocols import ArrayProtocol, as_array_protocol

__all__ = [
    "ArrayBackendUnavailable",
    "ArrayConformance",
    "ArrayEligibilityError",
    "ArrayProtocol",
    "ArrayRunResult",
    "LaneConformance",
    "as_array_protocol",
    "assert_conformance",
    "check_conformance",
    "has_numpy",
    "run_array",
]
