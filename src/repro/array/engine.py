"""``run_array``: the batched, vectorized synchronous engine.

Executes *many* independent runs ("lanes" — typically all seeds of a
sweep-point batch) of one protocol on one topology in a single pass,
representing the whole cluster as flat per-process columns instead of
one Python object per process per round.

Division of labor
-----------------
The **control plane** stays exact Python, per lane: adversary
``plan_round``/``validate`` calls, corruption plans (applied through
the real :class:`CorruptionPlan` objects so seeded rng streams match
the reference engine bit-for-bit), liveness and faulty-set bookkeeping.
This is O(faults + 1) per round per lane, independent of ``n`` on the
fault-free fast paths.  The **data plane** — who hears whom, and every
process's transition — is vectorized over ``(lanes, n)`` by the
:class:`~repro.array.protocols.ArrayProtocol`.

Why the adversary cannot be precompiled into masks: the reference
engine feeds each round's *filtered* deviation sets (a planned send
omission that drops no live edge is not recorded; a receive omission
is recorded only when a copy actually arrived) back into
``faulty_so_far``, which the adversary sees on the next
``plan_round``.  Replaying the adversary inside the loop, against the
same evolving views, is what makes the two engines digest-identical.

Conformance
-----------
With ``record_history=True`` (small ``n`` only — reconstruction is
O(n·deg) Python per round) the driver rebuilds a value-identical
:class:`ExecutionHistory` per lane: states read back from the columns,
payloads produced by the reference protocol's own ``send``, messages
in the engine's exact emission/delivery order.
:mod:`repro.array.conformance` byte-compares those histories' digests
against ``run_sync``.  At scale, recording is dropped and the run
costs O(lanes · n) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.array.backend import get_numpy
from repro.array.protocols import (
    ArrayEligibilityError,
    ArrayProtocol,
    as_array_protocol,
)
from repro.histories.history import (
    CLOCK_KEY,
    ExecutionHistory,
    Message,
    ProcessRoundRecord,
    RoundHistory,
)
from repro.kernel.faults import FaultPlan
from repro.kernel.snapshot import copy_payload
from repro.kernel.topology import (
    CompleteTopology,
    DynamicTopology,
    Topology,
    round_edges,
)
from repro.sync.adversary import Adversary, NullAdversary
from repro.sync.protocol import SyncProtocol
from repro.util.validation import require, require_positive, require_process_count

__all__ = ["ArrayRunResult", "run_array"]

ProcessId = int


# ---------------------------------------------------------------------------
# Wire: what the driver hands the protocol each round
# ---------------------------------------------------------------------------


class RoundWire:
    """One round's delivery structure, handed to the protocol's ``step``.

    ``csr`` protocols reduce over it with :meth:`reduce`, which hides
    the wire's form: the ``complete_fast`` form (global reduction;
    ``send_ok`` masks silenced senders) or the CSR form (``src``/
    ``indptr`` edge list grouped by receiver, plus an optional ``keep``
    mask), each optionally chunked.  ``dense`` protocols consume
    ``delivered``, a ``(lanes, n, n)`` bool cube ``[lane, receiver,
    sender]``.
    """

    __slots__ = (
        "lanes",
        "n",
        "complete_fast",
        "src",
        "indptr",
        "keep",
        "send_ok",
        "delivered",
        "chunk",
    )

    def __init__(self, lanes: int, n: int, chunk: Optional[int] = None):
        self.lanes = lanes
        self.n = n
        self.complete_fast = False
        self.src = None
        self.indptr = None
        self.keep = None
        self.send_ok = None
        self.delivered = None
        #: Memory bound on data-plane temporaries: at most ``chunk``
        #: cells *per lane* per intermediate array (None = unchunked).
        #: CSR reductions honor it as an edge budget per receiver block,
        #: complete_fast reductions as a column budget.
        self.chunk = chunk

    def reduce(self, values, op, identity: int):
        """Per-receiver ``op``-reduction of ``values`` over delivered senders.

        ``values`` is a ``(lanes, n)`` sender column and ``op`` a binary
        ufunc (``np.minimum``/``np.maximum``); masked-out copies count as
        ``identity``.  Returns a ``(lanes, n)`` receiver column (on the
        complete-graph fast path a read-only broadcast of one value per
        lane).  Chunked reductions are exact ``op`` compositions, so the
        result does not depend on ``chunk``.
        """
        np = get_numpy()
        chunk = self.chunk
        if self.complete_fast:
            red = None
            for a, b in _col_chunks(self.n, chunk or self.n):
                part = values[:, a:b]
                if self.send_ok is not None:
                    part = np.where(self.send_ok[:, a:b], part, identity)
                part = op.reduce(part, axis=1, keepdims=True)
                red = part if red is None else op(red, part)
            return np.broadcast_to(red, values.shape)
        src, indptr, keep = self.src, self.indptr, self.keep
        if chunk is None or int(indptr[-1]) <= chunk:
            vals = values[:, src]
            if keep is not None:
                vals = np.where(keep, vals, identity)
            return op.reduceat(vals, indptr[:-1], axis=1)
        out = np.empty_like(values)
        for a, b in _edge_chunks(np, indptr, chunk):
            lo, hi = int(indptr[a]), int(indptr[b])
            vals = values[:, src[lo:hi]]
            if keep is not None:
                vals = np.where(keep[:, lo:hi], vals, identity)
            out[:, a:b] = op.reduceat(vals, indptr[a:b] - lo, axis=1)
        return out


def _edge_chunks(np, indptr, chunk: int):
    """Receiver ranges ``[a, b)`` whose CSR edge segments fit ``chunk``.

    Greedy: each range holds as many whole receiver segments as fit in
    ``chunk`` edges (always at least one receiver, so a single segment
    larger than the budget still makes progress).  O(#chunks · log n),
    not O(n), so million-process rounds don't pay a Python loop.
    """
    n = int(indptr.shape[0]) - 1
    a = 0
    while a < n:
        b = int(np.searchsorted(indptr, int(indptr[a]) + chunk, side="right")) - 1
        if b <= a:
            b = a + 1
        b = min(b, n)
        yield a, b
        a = b


def _col_chunks(n: int, chunk: int):
    """Column ranges ``[a, b)`` of at most ``chunk`` columns each."""
    for a in range(0, n, chunk):
        yield a, min(a + chunk, n)


class _CsrGraph:
    """CSR edge list of one topology state: edges grouped by receiver.

    By the kernel's undirected-edges contract, ``receivers(p)`` is also
    the in-neighborhood of ``p``, so the segment of receiver ``p`` holds
    the ascending senders whose broadcasts reach ``p`` (self included).

    Only the ``indptr``/``src`` arrays exist up front.  Fault handling
    asks for more: :meth:`edge_id` bisects the receiver's ascending
    segment, and :meth:`out_edges` builds the sender grouping (one
    stable argsort) on its first call, i.e. only once a crash needs it.
    """

    def __init__(self, indptr, src):
        self.indptr = indptr
        self.src = src
        self.n = len(indptr) - 1
        self.num_edges = int(indptr[-1])
        self._by_sender = None  # (edge ids sorted by sender, per-sender starts)

    def edge_id(self, sender: int, receiver: int) -> Optional[int]:
        """Edge id of the copy sender→receiver, or None if no such edge."""
        if not 0 <= receiver < self.n:
            return None
        lo, hi = int(self.indptr[receiver]), int(self.indptr[receiver + 1])
        e = bisect_left(self.src, sender, lo, hi)
        return e if e < hi and self.src[e] == sender else None

    def out_edges(self, sender: int):
        """Edge ids of ``sender``'s copies, ascending."""
        if self._by_sender is None:
            np = get_numpy()
            order = np.argsort(self.src, kind="stable")
            starts = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.src, minlength=self.n), out=starts[1:])
            self._by_sender = (order, starts)
        order, starts = self._by_sender
        return order[starts[sender] : starts[sender + 1]]


# ---------------------------------------------------------------------------
# Per-lane control state
# ---------------------------------------------------------------------------


class _Lane:
    """Exact per-run bookkeeping, mirroring ``run_sync``'s loop state."""

    __slots__ = (
        "index",
        "adversary",
        "corruption",
        "mid_run",
        "crashed",
        "alive_order",
        "alive_view",
        "faulty",
        "rounds",  # reconstructed RoundHistory list (record mode)
    )

    def __init__(self, index: int, adversary: Adversary, corruption, mid_run, n: int):
        self.index = index
        self.adversary = adversary
        self.corruption = corruption
        self.mid_run = dict(mid_run)
        self.crashed: set = set()
        self.alive_order: List[int] = list(range(n))
        self.alive_view: frozenset = frozenset(self.alive_order)
        self.faulty: frozenset = frozenset()
        self.rounds: List[RoundHistory] = []


@dataclass
class _RoundFaults:
    """One lane's *effective* deviations this round (engine-filtered)."""

    crashing_now: set = field(default_factory=set)
    crash_deliveries: Dict[int, frozenset] = field(default_factory=dict)
    omitted_sends: Dict[int, set] = field(default_factory=dict)
    omitted_receives: Dict[int, set] = field(default_factory=dict)
    receive_plans: Dict[int, frozenset] = field(default_factory=dict)
    silent: frozenset = frozenset()
    #: Planned payload lies per broadcasting sender: pid -> {receiver: mutator}.
    forgeries: Dict[int, Mapping] = field(default_factory=dict)
    #: Wire-level forged targets (engine-filtered): pid -> frozenset(receivers).
    forged_sends: Dict[int, frozenset] = field(default_factory=dict)
    #: Forged copies on the wire: (sender, receiver) -> forged payload.
    forged_payloads: Dict[Tuple[int, int], Any] = field(default_factory=dict)

    @property
    def transient(self) -> bool:
        """Does this round need per-edge (not per-sender) masking?"""
        return bool(
            self.crash_deliveries or self.omitted_sends or self.receive_plans
        )

    def wire_receivers(
        self,
        sender: int,
        edges: Optional[Tuple[Tuple[int, ...], ...]],
        n: int,
    ) -> List[int]:
        """Who ``sender``'s copy reaches on the wire, in edge order.

        A crashing sender reaches only its crash survivors; any other
        reaches its receiver pool (everyone on the complete graph, where
        ``edges`` is None) minus its send omissions.  Dead receivers are
        not filtered: their copies are dropped at delivery.
        """
        if sender in self.crashing_now:
            targets = self.crash_deliveries.get(sender, frozenset())
            if edges is None:
                return sorted(targets)
            return [r for r in edges[sender] if r in targets]
        dropped = self.omitted_sends.get(sender, ())
        pool = range(n) if edges is None else edges[sender]
        return [r for r in pool if r not in dropped]


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


@dataclass
class ArrayRunResult:
    """Everything produced by one batched run.

    ``histories`` is ``None`` unless the run recorded them (small-n
    conformance mode); per-lane final states are read back from the
    columns on demand so million-process results stay cheap until
    someone actually asks for a dict.
    """

    protocol: SyncProtocol
    array_protocol: ArrayProtocol
    n: int
    lanes: int
    executed_rounds: int
    histories: Optional[List[ExecutionHistory]]
    faulty: List[frozenset]
    crashed: List[frozenset]
    last_disagreement: Optional[List[Optional[int]]]
    _state: Any
    _chunk: Optional[int] = None

    def final_state(self, lane: int, pid: int) -> Optional[Dict[str, Any]]:
        if pid in self.crashed[lane]:
            return None
        return self.array_protocol.read_state(self._state, lane, pid)

    def final_states(self, lane: int) -> Dict[int, Optional[Dict[str, Any]]]:
        return {pid: self.final_state(lane, pid) for pid in range(self.n)}

    def final_clocks(self, lane: int) -> Dict[int, Optional[int]]:
        states = self.final_states(lane)
        return {
            pid: None if state is None else state[CLOCK_KEY]
            for pid, state in states.items()
        }

    def clock_spread(self, lane: int) -> Optional[Tuple[int, int]]:
        """(min, max) final round variable over alive processes, fast."""
        row = self.array_protocol.clock_column(self._state)[lane]
        dead = self.crashed[lane]
        mask = None
        if dead:
            np = get_numpy()
            mask = np.ones(self.n, dtype=bool)
            mask[sorted(dead)] = False
        return _alive_min_max(row, mask, self._chunk)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_array(
    protocol: SyncProtocol,
    n: int,
    rounds: int,
    fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
    lanes: Optional[int] = None,
    initial_states: Optional[Sequence[Optional[Mapping[int, Dict[str, Any]]]]] = None,
    first_round: int = 1,
    topology: Optional[Topology] = None,
    record_history: bool = False,
    measure_disagreement: bool = False,
    chunk: Optional[int] = None,
) -> ArrayRunResult:
    """Execute ``lanes`` independent runs of ``protocol`` in one batch.

    Parameters mirror :func:`repro.sync.engine.run_sync` where they
    overlap; the batched extras are:

    ``fault_plans``
        One optional :class:`FaultPlan` per lane.  All lanes must share
        an equal churn schedule (the topology is per-batch, not
        per-lane) and distinct adversary objects (adversaries are
        stateful).  Payload forgeries run on the dense forgery path:
        the vectorized step proceeds with the true payloads and each
        receiver of a forged copy is then patched cell-wise with the
        reference protocol's exact transition (mutators called on the
        real rng streams, in the reference engine's order).
    ``lanes``
        Lane count when no plans/initial states imply one (default 1).
    ``initial_states``
        Per-lane explicit initial-state overrides (systemic failures).
    ``record_history``
        Reconstruct per-lane :class:`ExecutionHistory` (small n only).
    ``measure_disagreement``
        Track, per lane, the last round at whose *start* the alive
        round variables disagreed (``None`` = never) — the streaming
        replacement for history-based stabilization measurements.
    ``chunk``
        Explicit chunk size: at most this many cells per lane in any
        data-plane temporary (csr gathers, complete-graph reductions,
        streaming measurements).  Chunked reductions are exact min/max
        compositions, so results — and small-n digests — are identical
        to the unchunked plane.

    Raises :class:`ArrayEligibilityError` whenever this (protocol,
    plans, topology) combination cannot be batched faithfully — NumPy
    missing included (:class:`~repro.array.backend.ArrayBackendUnavailable`);
    callers fall back to the reference engine.
    """
    require_process_count(n)
    require_positive(rounds, "rounds")
    if chunk is not None:
        require_positive(chunk, "chunk")
    np = get_numpy()

    array_protocol = as_array_protocol(protocol)
    if array_protocol is None:
        raise ArrayEligibilityError(
            f"protocol {protocol.name!r} has no batched implementation"
        )

    if lanes is None:
        if fault_plans is not None:
            lanes = len(fault_plans)
        elif initial_states is not None:
            lanes = len(initial_states)
        else:
            lanes = 1
    require_positive(lanes, "lanes")
    plans: List[Optional[FaultPlan]] = (
        list(fault_plans) if fault_plans is not None else [None] * lanes
    )
    require(len(plans) == lanes, f"{len(plans)} fault plans for {lanes} lanes")
    overrides: List[Optional[Mapping[int, Dict[str, Any]]]] = (
        list(initial_states) if initial_states is not None else [None] * lanes
    )
    require(
        len(overrides) == lanes, f"{len(overrides)} initial-state maps for {lanes} lanes"
    )

    topo = _normalize_topology(n, plans, topology)

    lane_states = _build_lanes(plans, n)
    state = array_protocol.initial_states(n, lanes)
    _load_initial(array_protocol, state, overrides, lane_states, protocol, n)

    alive_mask = np.ones((lanes, n), dtype=bool)

    dense = array_protocol.kind == "dense"
    csr: Optional[_CsrGraph] = None
    csr_state_key: Any = _UNSET
    dead_keep = None  # CSR persistent keep (lanes, E)
    any_dead = False
    edges_cache: Optional[Tuple[Tuple[int, ...], ...]] = None

    last_disagreement: Optional[List[Optional[int]]] = (
        [None] * lanes if measure_disagreement else None
    )

    for round_no in range(first_round, first_round + rounds):
        # 1. systemic failures scheduled for this round
        for lane in lane_states:
            plan = lane.mid_run.get(round_no)
            if plan is not None:
                _apply_corruption(array_protocol, state, lane, plan, protocol, n)

        if measure_disagreement:
            _measure_round(
                array_protocol,
                state,
                lane_states,
                alive_mask,
                round_no,
                last_disagreement,
                chunk,
            )

        snapshots: Optional[List[Dict[int, Optional[Dict[str, Any]]]]] = None
        if record_history:
            snapshots = [
                dict(_lane_states(array_protocol, state, lane, n))
                for lane in lane_states
            ]

        # 2. adversary control plane (exact, per lane)
        round_faults: List[_RoundFaults] = []
        for lane in lane_states:
            plan = lane.adversary.plan_round(round_no, lane.alive_view, lane.faulty)
            lane.adversary.validate(plan, lane.faulty)
            round_faults.append(
                _effective_faults(
                    array_protocol, state, lane, plan, round_no, topo, n
                )
            )

        # 3. topology state for this round: the CSR always, the
        # per-pid receivers table only for consumers that walk it
        forging = any(faults.forgeries for faults in round_faults)
        edges = None
        if topo is not None:
            key = _topology_key(topo, round_no)
            if key != csr_state_key:
                csr_state_key = key
                csr = _CsrGraph(*topo.csr(round_no))
                edges_cache = None
                dead_keep = None
                if any_dead and not dense:
                    dead_keep = _rebuild_dead_keep(csr, lane_states, lanes)
            if edges_cache is None and (dense or record_history or forging):
                edges_cache = round_edges(topo, round_no)
            edges = edges_cache

        # 4. finish the filtered bookkeeping that needs edge sets
        graph = csr if topo is not None else None
        for lane, faults in zip(lane_states, round_faults):
            _filter_receive_omissions(lane, faults, graph)

        # 4b. dense forgery path: apply payload lies in the control
        # plane (pre-step snapshots) and precompute receiver patches
        patches: Optional[List[Dict[int, Dict[str, Any]]]] = None
        if forging:
            patches = [
                _compile_forgeries(
                    protocol, array_protocol, state, lane, faults,
                    edges, round_no, n,
                )
                for lane, faults in zip(lane_states, round_faults)
            ]

        # 5. build the wire and step the data plane
        wire = RoundWire(lanes, n, chunk)
        if dense:
            _build_dense_wire(wire, lane_states, round_faults, edges, alive_mask, n)
        else:
            dead_keep, csr = _build_csr_wire(
                wire,
                lane_states,
                round_faults,
                topo,
                csr,
                dead_keep,
                alive_mask,
                n,
                any_dead,
            )

        if record_history:
            _reconstruct_round(
                protocol,
                lane_states,
                round_faults,
                snapshots,
                edges,
                round_no,
                n,
            )

        array_protocol.step(state, wire)

        # 5b. overwrite forgery-affected receivers with their exact
        # reference transitions (the "forged-value columns")
        if patches is not None:
            for lane, lane_patches in zip(lane_states, patches):
                for pid, fresh in lane_patches.items():
                    array_protocol.load_state(state, lane.index, pid, fresh)

        # 6. commit deaths and deviations (exactly the engine's order)
        for lane, faults in zip(lane_states, round_faults):
            if faults.crashing_now:
                lane.crashed |= faults.crashing_now
                lane.alive_order = [
                    pid for pid in lane.alive_order if pid not in faults.crashing_now
                ]
                lane.alive_view = frozenset(lane.alive_order)
                any_dead = True
                for pid in faults.crashing_now:
                    alive_mask[lane.index, pid] = False
                if not dense and csr is not None:
                    if dead_keep is None:
                        dead_keep = np.ones((lanes, csr.num_edges), dtype=bool)
                    for pid in faults.crashing_now:
                        dead_keep[lane.index, csr.out_edges(pid)] = False
            if (
                faults.crashing_now
                or faults.omitted_sends
                or faults.omitted_receives
                or faults.forged_sends
            ):
                lane.faulty = (
                    lane.faulty
                    | lane.crashed
                    | faults.omitted_sends.keys()
                    | faults.omitted_receives.keys()
                    | faults.forged_sends.keys()
                )

    histories = None
    if record_history:
        histories = [ExecutionHistory(lane.rounds) for lane in lane_states]
    return ArrayRunResult(
        protocol=protocol,
        array_protocol=array_protocol,
        n=n,
        lanes=lanes,
        executed_rounds=rounds,
        histories=histories,
        faulty=[lane.faulty for lane in lane_states],
        crashed=[frozenset(lane.crashed) for lane in lane_states],
        last_disagreement=last_disagreement,
        _state=state,
        _chunk=chunk,
    )


_UNSET = object()


# ---------------------------------------------------------------------------
# Setup helpers
# ---------------------------------------------------------------------------


def _normalize_topology(
    n: int, plans: Sequence[Optional[FaultPlan]], topology: Optional[Topology]
) -> Optional[Topology]:
    """Engine-identical normalization, batched: one topology per run."""
    churns = [plan.churn if plan is not None else None for plan in plans]
    effective = [c for c in churns if c]
    churn = effective[0] if effective else None
    for other in churns:
        if (other or None) != (churn if effective else None) and (other or churn):
            if other != churn:
                raise ArrayEligibilityError(
                    "lanes disagree on the churn schedule; the batched "
                    "topology is shared, so churn must be identical "
                    "across lanes"
                )
    topo: Optional[Topology] = topology
    if churn:
        topo = DynamicTopology(topo or CompleteTopology(n), churn)
    elif topo is not None and topo.complete:
        topo = None
    if topo is not None:
        require(topo.n == n, f"topology is sized for n={topo.n}, run has n={n}")
    return topo


def _build_lanes(plans: Sequence[Optional[FaultPlan]], n: int) -> List[_Lane]:
    lanes: List[_Lane] = []
    seen_adversaries: Dict[int, int] = {}
    for index, plan in enumerate(plans):
        if plan is None:
            lanes.append(_Lane(index, NullAdversary(), None, {}, n))
            continue
        view = plan.to_sync()
        adversary = view.adversary or NullAdversary()
        if plan.omissions is not None:
            marker = id(plan.omissions)
            if marker in seen_adversaries:
                raise ArrayEligibilityError(
                    f"lanes {seen_adversaries[marker]} and {index} share one "
                    "adversary object; adversaries are stateful, give each "
                    "lane its own"
                )
            seen_adversaries[marker] = index
        lane = _Lane(index, adversary, view.corruption, view.mid_run_corruptions, n)
        lanes.append(lane)
    return lanes


def _load_initial(
    array_protocol: ArrayProtocol,
    state: Any,
    overrides: Sequence[Optional[Mapping[int, Dict[str, Any]]]],
    lane_states: Sequence[_Lane],
    protocol: SyncProtocol,
    n: int,
) -> None:
    """Apply explicit initial states, then each lane's initial corruption."""
    for lane, mapping in zip(lane_states, overrides):
        if mapping:
            for pid, override in mapping.items():
                require(0 <= pid < n, f"initial-state pid {pid} out of range")
                array_protocol.load_state(state, lane.index, pid, dict(override))
        if lane.corruption is not None:
            _apply_corruption(
                array_protocol, state, lane, lane.corruption, protocol, n
            )


class _LaneStates(Mapping):
    """Read-only ``pid -> state`` view of one lane (``None`` = crashed).

    What ``run_sync`` hands a corruption plan, without materializing
    ``n`` dicts up front: each lookup reads one cell.
    """

    def __init__(
        self,
        read: Callable[[int], Dict[str, Any]],
        n: int,
        crashed: AbstractSet[int],
    ):
        self._read = read
        self._pids = range(n)
        self._crashed = crashed

    def __getitem__(self, pid: int) -> Optional[Dict[str, Any]]:
        if pid in self._crashed:
            return None
        if pid in self._pids:
            return self._read(pid)
        raise KeyError(pid)

    def __iter__(self) -> Iterator[int]:
        return iter(self._pids)

    def __len__(self) -> int:
        return len(self._pids)


def _lane_states(
    array_protocol: ArrayProtocol, state: Any, lane: _Lane, n: int
) -> _LaneStates:
    return _LaneStates(array_protocol.read_lane(state, lane.index), n, lane.crashed)


def _apply_corruption(
    array_protocol: ArrayProtocol,
    state: Any,
    lane: _Lane,
    plan,
    protocol: SyncProtocol,
    n: int,
) -> None:
    """Route corruption through the real plan object: same rng stream."""
    corrupted = plan.corrupt(protocol, _lane_states(array_protocol, state, lane, n), n)
    array_protocol.load_lane(state, lane.index, n, corrupted, lane.crashed)


# ---------------------------------------------------------------------------
# Per-round control plane
# ---------------------------------------------------------------------------


def _effective_faults(
    array_protocol: ArrayProtocol,
    state: Any,
    lane: _Lane,
    plan,
    round_no: int,
    topo: Optional[Topology],
    n: int,
) -> _RoundFaults:
    """Apply the engine's send-side filtering rules to one lane's plan."""
    faults = _RoundFaults()
    any_forgeries = any(lies for lies in plan.forgeries.values())
    if not (
        plan.crashes or plan.send_omissions or plan.receive_omissions
        or any_forgeries
    ):
        return faults
    faults.silent = array_protocol.silent_pids(state, lane.index)
    alive = lane.alive_view
    if any_forgeries:
        for pid, lies in plan.forgeries.items():
            if lies and pid in alive and pid not in faults.silent:
                faults.forgeries[pid] = lies
    for pid in lane.alive_order:
        survivors = plan.crashes.get(pid)
        if survivors is not None:
            faults.crashing_now.add(pid)
            if pid not in faults.silent and survivors:
                faults.crash_deliveries[pid] = frozenset(survivors)
            continue
        if pid in faults.silent:
            continue  # no payload: nothing to omit
        dropped = set(plan.send_omissions.get(pid, frozenset()))
        if dropped:
            dropped.discard(pid)  # self-delivery is sacred
            if dropped:
                # edge intersection happens later, once edges are known
                faults.omitted_sends[pid] = dropped
    if plan.receive_omissions:
        for pid, drops in plan.receive_omissions.items():
            if pid in alive and pid not in faults.crashing_now and drops:
                faults.receive_plans[pid] = frozenset(drops)
    return faults


def _filter_receive_omissions(
    lane: _Lane, faults: _RoundFaults, graph: Optional[_CsrGraph]
) -> None:
    """Finish the engine's edge-aware filtering for this round.

    Send omissions intersect the sender's live out-edges (an omission
    aimed at a non-neighbor drops nothing and is not recorded); a
    receive omission is recorded only for copies that actually arrived
    — sender alive, broadcasting, reaching this receiver.  Cost is
    O(planned deviations), never O(n), so fault-free rounds stay cheap.
    ``graph`` is None on the complete graph, where every edge exists.
    """
    if graph is not None:
        for pid in list(faults.omitted_sends):
            dropped = faults.omitted_sends[pid]
            dropped.intersection_update(
                [r for r in dropped if graph.edge_id(pid, r) is not None]
            )
            if not dropped:
                del faults.omitted_sends[pid]
    if not faults.receive_plans:
        return
    alive = lane.alive_view
    for pid, drops in faults.receive_plans.items():
        arrived: set = set()
        for sender in drops:
            if sender == pid or sender not in alive or sender in faults.silent:
                continue
            if graph is not None and graph.edge_id(sender, pid) is None:
                continue
            crash_targets = faults.crash_deliveries.get(sender)
            if sender in faults.crashing_now:
                if crash_targets is None or pid not in crash_targets:
                    continue
            elif pid in faults.omitted_sends.get(sender, ()):
                continue
            arrived.add(sender)
        if arrived:
            faults.omitted_receives[pid] = arrived


def _compile_forgeries(
    protocol: SyncProtocol,
    array_protocol: ArrayProtocol,
    state: Any,
    lane: _Lane,
    faults: _RoundFaults,
    edges: Optional[Tuple[Tuple[int, ...], ...]],
    round_no: int,
    n: int,
) -> Dict[int, Dict[str, Any]]:
    """The dense forgery path: apply payload lies, precompute patches.

    Mirrors ``_send_phase``'s forgery block exactly: mutators run once
    per forged wire copy, in (sender asc, receiver asc) order, on a
    fresh copy of the true payload — the same seeded rng streams as the
    reference engine.  A sender enters ``forged_sends`` only when at
    least one forged copy is placed on the wire (copies addressed to
    already-dead receivers count; they are dropped at delivery, exactly
    as ``run_sync`` drops them).

    Every receiver that *delivers* at least one forged copy gets its
    entire transition recomputed by the reference protocol from the
    pre-step snapshots; the result is loaded back into the columns
    after the vectorized step.  Cost is O(n) state reads per affected
    receiver — proportional to the forgery footprint, not to the run.
    """
    cache: Dict[int, Dict[str, Any]] = {}

    def state_of(pid: int) -> Dict[str, Any]:
        got = cache.get(pid)
        if got is None:
            got = array_protocol.read_state(state, lane.index, pid)
            cache[pid] = got
        return got

    dead_now = lane.crashed | faults.crashing_now
    forged_payloads = faults.forged_payloads
    affected: set = set()
    for sender in lane.alive_order:
        lies = faults.forgeries.get(sender)
        if not lies:
            continue
        payload = protocol.send(sender, state_of(sender))
        if payload is None:
            continue
        payload = copy_payload(payload)
        forged: set = set()
        for receiver in faults.wire_receivers(sender, edges, n):
            if receiver in lies and receiver != sender:
                forged_payloads[(sender, receiver)] = lies[receiver](
                    copy_payload(payload)
                )
                forged.add(receiver)
        if not forged:
            continue
        faults.forged_sends[sender] = frozenset(forged)
        for receiver in forged:
            if receiver in dead_now:
                continue  # dropped at delivery: crashed receivers hear nothing
            drops = faults.receive_plans.get(receiver)
            if drops and sender in drops:
                continue  # dropped at delivery: receive omission
            affected.add(receiver)

    patches: Dict[int, Dict[str, Any]] = {}
    if not affected:
        return patches
    silent = faults.silent
    for receiver in sorted(affected):
        inbox: List[Message] = []
        drops = faults.receive_plans.get(receiver)
        for sender in lane.alive_order:
            if sender in silent:
                continue
            if edges is not None and receiver not in edges[sender]:
                continue
            if sender in faults.crashing_now:
                targets = faults.crash_deliveries.get(sender)
                if not targets or receiver not in targets:
                    continue
            elif receiver in faults.omitted_sends.get(sender, ()):
                continue
            if drops and sender in drops and sender != receiver:
                continue
            payload = forged_payloads.get((sender, receiver), _UNSET)
            if payload is _UNSET:
                payload = copy_payload(protocol.send(sender, state_of(sender)))
            inbox.append(
                Message(
                    sender=sender,
                    receiver=receiver,
                    sent_round=round_no,
                    payload=payload,
                )
            )
        patches[receiver] = protocol.update(receiver, state_of(receiver), inbox)
    return patches


# ---------------------------------------------------------------------------
# Wire building
# ---------------------------------------------------------------------------


def _rebuild_dead_keep(csr: _CsrGraph, lane_states, lanes: int):
    """After a churn-driven CSR rebuild, re-clear dead senders' edges."""
    np = get_numpy()
    dead_keep = np.ones((lanes, csr.num_edges), dtype=bool)
    for lane in lane_states:
        for pid in lane.crashed:
            dead_keep[lane.index, csr.out_edges(pid)] = False
    return dead_keep


def _build_csr_wire(
    wire: RoundWire,
    lane_states: List[_Lane],
    round_faults: List[_RoundFaults],
    topo: Optional[Topology],
    csr: Optional[_CsrGraph],
    dead_keep,
    alive_mask,
    n: int,
    any_dead: bool,
):
    """Fill ``wire`` for a csr-kind protocol; returns (dead_keep, csr)."""
    np = get_numpy()
    transient = any(f.transient for f in round_faults)
    crashes = any(f.crashing_now for f in round_faults)
    if topo is None and not transient:
        # complete graph, per-sender faults only: one global reduction
        wire.complete_fast = True
        if any_dead or crashes:
            send_ok = alive_mask.copy()
            for lane, faults in zip(lane_states, round_faults):
                for pid in faults.crashing_now:
                    send_ok[lane.index, pid] = False
            wire.send_ok = send_ok
        return dead_keep, csr

    if csr is None:
        # transient faults on the complete graph: materialize its CSR
        if wire.lanes * n * n > _COMPLETE_CSR_LIMIT:
            raise ArrayEligibilityError(
                f"per-edge faults on the complete graph need {n}x{n} "
                f"edges x {wire.lanes} lanes — over the "
                f"{_COMPLETE_CSR_LIMIT} cell limit; fall back"
            )
        csr = _CsrGraph(*CompleteTopology(n).csr())
        if any_dead:
            dead_keep = _rebuild_dead_keep(csr, lane_states, wire.lanes)

    wire.src = csr.src
    wire.indptr = csr.indptr

    if not transient:
        if not any_dead and not crashes:
            return dead_keep, csr
        # only permanent deaths (plus clean crashes) mask the wire
        if dead_keep is None:
            dead_keep = np.ones((wire.lanes, csr.num_edges), dtype=bool)
        if not crashes:
            wire.keep = dead_keep
            return dead_keep, csr
        keep = dead_keep.copy()
        for lane, faults in zip(lane_states, round_faults):
            for pid in faults.crashing_now:
                keep[lane.index, csr.out_edges(pid)] = False
        wire.keep = keep
        return dead_keep, csr

    # transient round: per-edge masking on top of the permanent drops
    if dead_keep is not None:
        keep = dead_keep.copy()
    else:
        keep = np.ones((wire.lanes, csr.num_edges), dtype=bool)
    for lane, faults in zip(lane_states, round_faults):
        row = lane.index
        for pid in faults.crashing_now:
            keep[row, csr.out_edges(pid)] = False
            for e in _survivor_edges(csr, pid, faults):
                keep[row, e] = True
        for pid, dropped in faults.omitted_sends.items():
            for receiver in dropped:
                e = csr.edge_id(pid, receiver)
                if e is not None:
                    keep[row, e] = False
        for pid, drops in faults.receive_plans.items():
            for sender in drops:
                if sender == pid:
                    continue
                e = csr.edge_id(sender, pid)
                if e is not None:
                    keep[row, e] = False
    wire.keep = keep
    return dead_keep, csr


def _survivor_edges(csr: _CsrGraph, pid: int, faults: _RoundFaults) -> List[int]:
    """Edge ids of the copies a crashing ``pid`` still gets out."""
    targets = faults.crash_deliveries.get(pid, ())
    ids = [csr.edge_id(pid, receiver) for receiver in targets]
    return [e for e in ids if e is not None]


#: Bound on materializing the complete graph's n^2-edge CSR.
_COMPLETE_CSR_LIMIT = 1 << 26


def _build_dense_wire(
    wire: RoundWire,
    lane_states: List[_Lane],
    round_faults: List[_RoundFaults],
    edges: Optional[Tuple[Tuple[int, ...], ...]],
    alive_mask,
    n: int,
) -> None:
    """Fill the dense delivered structure: [lane, receiver, sender]."""
    np = get_numpy()
    if edges is None:
        adj = np.ones((n, n), dtype=bool)
    else:
        adj = np.zeros((n, n), dtype=bool)
        for p, receivers in enumerate(edges):
            adj[list(receivers), p] = True  # p's broadcast reaches them
    deliv = adj[None, :, :] & alive_mask[:, :, None] & alive_mask[:, None, :]
    for lane, faults in zip(lane_states, round_faults):
        row = lane.index
        for pid in faults.crashing_now:
            targets = faults.crash_deliveries.get(pid)
            col = np.zeros(n, dtype=bool)
            if targets:
                col[sorted(targets)] = True
                col &= adj[:, pid]
                col &= alive_mask[row]
            deliv[row, :, pid] = col
        # rows zeroed after ALL columns: a crash column listing a
        # co-crashing survivor must not resurrect its zeroed row
        for pid in faults.crashing_now:
            deliv[row, pid, :] = False  # a crashing process receives nothing
        for pid, dropped in faults.omitted_sends.items():
            targets = sorted(dropped)
            deliv[row, targets, pid] = False
        for pid, drops in faults.receive_plans.items():
            for sender in drops:
                if sender != pid:
                    deliv[row, pid, sender] = False
    wire.delivered = deliv


# ---------------------------------------------------------------------------
# Measurement + history reconstruction
# ---------------------------------------------------------------------------


def _alive_min_max(row, mask, chunk: Optional[int]):
    """(min, max) of ``row`` over ``mask``, streamed per chunk."""
    size = int(row.shape[0])
    lo = hi = None
    for a, b in _col_chunks(size, chunk or size):
        part = row[a:b]
        if mask is not None:
            part = part[mask[a:b]]
        if part.size == 0:
            continue
        pmin, pmax = int(part.min()), int(part.max())
        lo = pmin if lo is None else min(lo, pmin)
        hi = pmax if hi is None else max(hi, pmax)
    if lo is None:
        return None
    return lo, hi


def _measure_round(
    array_protocol: ArrayProtocol,
    state: Any,
    lane_states: List[_Lane],
    alive_mask,
    round_no: int,
    last_disagreement: List[Optional[int]],
    chunk: Optional[int] = None,
) -> None:
    column = array_protocol.clock_column(state)
    for lane in lane_states:
        mask = alive_mask[lane.index] if lane.crashed else None
        spread = _alive_min_max(column[lane.index], mask, chunk)
        if spread is not None and spread[0] != spread[1]:
            last_disagreement[lane.index] = round_no


def _reconstruct_round(
    protocol: SyncProtocol,
    lane_states: List[_Lane],
    round_faults: List[_RoundFaults],
    snapshots: List[Dict[int, Optional[Dict[str, Any]]]],
    edges: Optional[Tuple[Tuple[int, ...], ...]],
    round_no: int,
    n: int,
) -> None:
    """Rebuild one RoundHistory per lane, in the recorder's exact shape."""
    for lane, faults, states in zip(lane_states, round_faults, snapshots):
        payloads: Dict[int, Any] = {}
        for pid in lane.alive_order:
            payloads[pid] = protocol.send(pid, states[pid])
        forged_payloads = faults.forged_payloads

        def wire_payload(sender: int, receiver: int):
            got = forged_payloads.get((sender, receiver), _UNSET)
            return payloads[sender] if got is _UNSET else got

        # who actually hears whom (the engine's delivery phase)
        inboxes: Dict[int, List[int]] = {}
        dead_now = lane.crashed | faults.crashing_now
        for sender in lane.alive_order:
            payload = payloads[sender]
            if payload is None:
                continue
            for receiver in faults.wire_receivers(sender, edges, n):
                if receiver in dead_now:
                    continue
                if receiver in faults.omitted_receives and sender in faults.omitted_receives[receiver]:
                    continue
                inboxes.setdefault(receiver, []).append(sender)

        records = []
        for pid in range(n):
            if pid in lane.crashed:
                records.append(
                    ProcessRoundRecord(
                        pid=pid, state_before=None, clock_before=None, crashed=True
                    )
                )
                continue
            snapshot = states[pid]
            clock_before = None if snapshot is None else snapshot.get(CLOCK_KEY)
            payload = payloads.get(pid)
            sent: Tuple[Message, ...] = ()
            if payload is not None:
                sent = tuple(
                    Message(
                        sender=pid,
                        receiver=receiver,
                        sent_round=round_no,
                        payload=wire_payload(pid, receiver),
                    )
                    for receiver in faults.wire_receivers(pid, edges, n)
                )
            if pid in faults.crashing_now:
                records.append(
                    ProcessRoundRecord(
                        pid=pid,
                        state_before=snapshot,
                        clock_before=clock_before,
                        sent=sent,
                        delivered=(),
                        crashed=True,
                    )
                )
                continue
            delivered = tuple(
                Message(
                    sender=sender,
                    receiver=pid,
                    sent_round=round_no,
                    payload=wire_payload(sender, pid),
                )
                for sender in sorted(inboxes.get(pid, ()))
            )
            records.append(
                ProcessRoundRecord(
                    pid=pid,
                    state_before=snapshot,
                    clock_before=clock_before,
                    sent=sent,
                    delivered=delivered,
                    crashed=False,
                    omitted_sends=frozenset(faults.omitted_sends.get(pid, ())),
                    omitted_receives=frozenset(
                        faults.omitted_receives.get(pid, ())
                    ),
                    forged_sends=faults.forged_sends.get(pid, frozenset()),
                )
            )
        lane.rounds.append(
            RoundHistory(round_no=round_no, records=tuple(records), edges=edges)
        )


def _topology_key(topo: Topology, round_no: int) -> Any:
    """Equality-comparable key identifying the topology's round state."""
    if isinstance(topo, DynamicTopology):
        return topo.state_key(round_no)
    return "static"
