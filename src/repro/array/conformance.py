"""Conformance harness: is the batched engine the reference engine?

The only acceptable answer is *byte-identical histories*.  For small
``n`` the batched driver reconstructs a value-identical
:class:`ExecutionHistory` per lane (states read back from the columns
after each vectorized step, so the digests genuinely validate the
batched transition, not a shadow Python run).  This module runs the
same (protocol, plan, topology, seeds) scenario through ``run_sync``
and ``run_array`` and compares canonical digests — the exact trick
:mod:`repro.net.conformance` uses to hold the message-passing
substrates to the synchronous model.

Use :func:`check_conformance` in tests; :func:`assert_conformance` is
the raising flavor with a diff-friendly error message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.array.engine import ArrayRunResult, run_array
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import Topology
from repro.net.conformance import histories_equal, history_digest
from repro.sync.engine import run_sync
from repro.sync.protocol import SyncProtocol

__all__ = [
    "LaneConformance",
    "ArrayConformance",
    "assert_conformance",
    "check_conformance",
]


@dataclass(frozen=True)
class LaneConformance:
    """One lane's parity verdict against its reference run."""

    lane: int
    history_equal: bool
    sync_digest: Optional[str]
    array_digest: Optional[str]
    faulty_equal: bool
    final_states_equal: bool

    @property
    def ok(self) -> bool:
        return self.history_equal and self.faulty_equal and self.final_states_equal


@dataclass(frozen=True)
class ArrayConformance:
    """Full batch verdict: every lane."""

    lanes: Tuple[LaneConformance, ...]

    @property
    def ok(self) -> bool:
        return all(lane.ok for lane in self.lanes)

    def failures(self) -> Tuple[LaneConformance, ...]:
        return tuple(lane for lane in self.lanes if not lane.ok)


def check_conformance(
    protocol: SyncProtocol,
    n: int,
    rounds: int,
    plan_factories: Optional[Sequence[Optional[Any]]] = None,
    initial_states: Optional[Sequence[Optional[Mapping[int, Dict[str, Any]]]]] = None,
    topology: Optional[Topology] = None,
    first_round: int = 1,
    protocol_factory=None,
    chunk: Optional[int] = None,
) -> ArrayConformance:
    """Run both engines on the same scenario and compare lane by lane.

    ``plan_factories`` holds one zero-arg factory (or ``None``) per
    lane, each returning a fresh :class:`FaultPlan` — the same
    convention :mod:`repro.net.conformance` uses, because adversaries
    and corruption plans are seeded-*stateful*: a plan consumed by one
    engine cannot be replayed by another.  Shipped protocols are
    stateless so one shared instance serves both engines; pass
    ``protocol_factory`` to mint one per run otherwise.
    """
    lanes = len(plan_factories) if plan_factories is not None else (
        len(initial_states) if initial_states is not None else 1
    )
    factories = (
        list(plan_factories) if plan_factories is not None else [None] * lanes
    )
    overrides = (
        list(initial_states) if initial_states is not None else [None] * lanes
    )

    batched = run_array(
        protocol,
        n,
        rounds,
        fault_plans=[f() if f is not None else None for f in factories],
        initial_states=overrides,
        topology=topology,
        first_round=first_round,
        record_history=True,
        chunk=chunk,
    )

    verdicts: List[LaneConformance] = []
    for lane in range(lanes):
        reference_protocol = (
            protocol_factory() if protocol_factory is not None else protocol
        )
        factory = factories[lane]
        reference = run_sync(
            reference_protocol,
            n,
            rounds,
            fault_plan=factory() if factory is not None else None,
            initial_states=overrides[lane],
            topology=topology,
            first_round=first_round,
            record_history=True,
        )
        sync_history = reference.history
        array_history = batched.histories[lane]
        verdicts.append(
            LaneConformance(
                lane=lane,
                history_equal=histories_equal(sync_history, array_history),
                sync_digest=history_digest(sync_history),
                array_digest=history_digest(array_history),
                faulty_equal=frozenset(reference.faulty) == batched.faulty[lane],
                final_states_equal=_final_states_equal(reference, batched, lane, n),
            )
        )
    return ArrayConformance(lanes=tuple(verdicts))


def _final_states_equal(reference, batched: ArrayRunResult, lane: int, n: int) -> bool:
    array_finals = batched.final_states(lane)
    for pid in range(n):
        if reference.final_states.get(pid) != array_finals.get(pid):
            return False
    return True


def assert_conformance(*args, **kwargs) -> ArrayConformance:
    """:func:`check_conformance`, raising ``AssertionError`` on mismatch."""
    report = check_conformance(*args, **kwargs)
    if not report.ok:
        lines = ["run_array diverged from run_sync:"]
        for lane in report.failures():
            lines.append(
                f"  lane {lane.lane}: history_equal={lane.history_equal} "
                f"faulty_equal={lane.faulty_equal} "
                f"final_states_equal={lane.final_states_equal} "
                f"sync={lane.sync_digest and lane.sync_digest[:16]} "
                f"array={lane.array_digest and lane.array_digest[:16]}"
            )
        raise AssertionError("\n".join(lines))
    return report
