"""The ``ArrayProtocol`` contract and its batched implementations.

A batched protocol represents the state of *every process in every
lane* (a lane = one seed/fault-plan of a sweep-point batch) as flat
columns — integer matrices of shape ``(lanes, n)`` plus, for the
full-information protocols, per-lane suspect matrices — and advances
all of them one round per :meth:`ArrayProtocol.step` call.  The driver
(:mod:`repro.array.engine`) owns the control plane (adversary replay,
corruption, liveness bookkeeping); the protocol owns the data plane.

Implementations must be *value-identical* to their reference
:class:`~repro.sync.protocol.SyncProtocol` twin: the conformance layer
reconstructs an :class:`~repro.histories.history.ExecutionHistory` from
these columns and byte-compares its digest against ``run_sync``.  That
is why every ``read_state`` result uses plain Python types (``int``,
``bool``, ``frozenset``, ``None``) — NumPy scalars would change the
canonical form.

Two wire kinds:

- ``kind="csr"`` — scalable protocols whose update is a neighborhood
  reduction (min/max over delivered clocks).  The driver hands them a
  CSR edge list (edge sources grouped by receiver, self-loop included)
  plus an optional per-edge keep mask; on the fault-free complete
  graph the reduction collapses to one global reduction per lane.
- ``kind="dense"`` — full-information protocols (FloodMin under
  Figure 2, and the Figure 3 compilation) that need per-(sender,
  receiver) delivery info.  The driver hands them a dense delivered
  matrix; size is eligibility-bounded.

To add a batched protocol: implement :class:`ArrayProtocol` for it and
append a matcher with :func:`register_array_protocol` (see
``docs/array.md``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional

from repro.array.backend import get_numpy
from repro.core.canonical import CanonicalRunner
from repro.core.compiler import CompiledProtocol
from repro.core.rounds import (
    FreeRunningRoundProtocol,
    MinMergeRoundProtocol,
    RoundAgreementProtocol,
)
from repro.detectors.stack import DetectorStack
from repro.detectors.strong import ALIVE, DEAD
from repro.histories.history import CLOCK_KEY
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.protocol import SyncProtocol

__all__ = [
    "ArrayEligibilityError",
    "ArrayProtocol",
    "as_array_protocol",
    "register_array_protocol",
]

#: Sentinels for masked reductions (int64-safe).
BIG = 1 << 62
SMALL = -(1 << 62)

#: Dense-kind memory bound: lanes * n * n cells.
DENSE_CELL_LIMIT = 1 << 26

#: Largest value universe a bitmask column can encode (int64 headroom).
MAX_UNIVERSE = 60


class ArrayEligibilityError(RuntimeError):
    """This (protocol, plan, topology, scale) tuple cannot be batched.

    Raised loudly so callers (``run_sweep(backend="array")``) can fall
    back to the reference engine instead of silently computing the
    wrong thing.
    """


class ArrayProtocol(ABC):
    """Batched twin of one :class:`SyncProtocol`.

    The state object returned by :meth:`initial_states` is opaque to
    the driver except through the methods below.  Cells belonging to
    crashed processes may hold garbage after their crash round — the
    driver masks dead senders/receivers out of every wire, and never
    reads a dead cell's state.
    """

    #: "csr" (neighborhood reduction) or "dense" (needs the full matrix).
    kind: str = "csr"

    def __init__(self, sync: SyncProtocol):
        #: The reference protocol this implementation must match.
        self.sync = sync

    @property
    def name(self) -> str:
        return self.sync.name

    @abstractmethod
    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        """Batched specified initial states for ``lanes`` x ``n`` cells."""

    @abstractmethod
    def load_state(self, state: Any, lane: int, pid: int, mapping: Mapping) -> None:
        """Ingest one explicit/corrupted state dict into the columns.

        Raises :class:`ArrayEligibilityError` when the mapping holds
        values the columns cannot encode (the caller then falls back).
        """

    @abstractmethod
    def read_state(self, state: Any, lane: int, pid: int) -> Dict[str, Any]:
        """One cell as the exact plain-Python dict ``run_sync`` would hold."""

    @abstractmethod
    def step(self, state: Any, wire: Any) -> None:
        """Advance every lane one round against the wire's deliveries."""

    # ------------------------------------------------------------------

    def read_lane(self, state: Any, lane: int) -> Callable[[int], Dict[str, Any]]:
        """A reader of one lane as it is now: ``read(pid)`` builds the
        same fresh dict as ``read_state(state, lane, pid)``.

        Bulk twins override this to copy the lane's columns once, so
        each later read is a plain lookup.
        """
        return lambda pid: self.read_state(state, lane, pid)

    def load_lane(
        self,
        state: Any,
        lane: int,
        n: int,
        mappings: Mapping[int, Optional[Mapping]],
        crashed: AbstractSet[int] = frozenset(),
    ) -> None:
        """``load_state`` for every pid below ``n`` that ``mappings`` maps.

        ``None`` entries and ``crashed`` pids are skipped: corruption
        never revives a process.  Validation and errors are exactly
        ``load_state``'s, raised for the lowest offending pid.
        """
        for pid in range(n):
            mapping = mappings.get(pid)
            if mapping is not None and pid not in crashed:
                self.load_state(state, lane, pid, mapping)

    def clock_column(self, state: Any):
        """The ``(lanes, n)`` round-variable matrix (for measurements)."""
        return state["clock"]

    def silent_pids(self, state: Any, lane: int) -> frozenset:
        """Processes broadcasting ``None`` this round (default: none)."""
        return frozenset()


# ---------------------------------------------------------------------------
# Shared column helpers
# ---------------------------------------------------------------------------


def _int_matrix(backend: str, lanes: int, n: int, fill: int):
    if backend == "numpy":
        np = get_numpy()
        return np.full((lanes, n), fill, dtype=np.int64)
    return [[fill] * n for _ in range(lanes)]


def _require_clock(mapping: Mapping) -> int:
    if CLOCK_KEY not in mapping:
        raise ArrayEligibilityError(
            f"state {dict(mapping)!r} lacks the round variable ({CLOCK_KEY!r})"
        )
    value = mapping[CLOCK_KEY]
    if type(value) is bool or not isinstance(value, int):
        raise ArrayEligibilityError(f"non-integer clock {value!r} cannot be batched")
    return value


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


def _csr_reduce_python(
    row: List[int],
    src: List[int],
    indptr: List[int],
    dropped: Optional[set],
    best_of: Callable[[int, int], int],
    identity: int,
) -> List[int]:
    """Per-receiver reduction over kept edges for one lane (python path)."""
    out = []
    for p in range(len(row)):
        best = identity
        for e in range(indptr[p], indptr[p + 1]):
            if dropped is not None and e in dropped:
                continue
            best = best_of(best, row[src[e]])
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# Clock-merge family: Figure 1 round agreement, min-merge, min-unison
# ---------------------------------------------------------------------------


class _ClockColumn(ArrayProtocol):
    """Twins whose whole state is one ``(lanes, n)`` clock matrix."""

    def load_state(self, state, lane, pid, mapping) -> None:
        value = _require_clock(mapping)
        extra = set(mapping) - {CLOCK_KEY}
        if extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected state fields {sorted(extra)}"
            )
        state["clock"][lane][pid] = value

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        return {CLOCK_KEY: int(state["clock"][lane][pid])}

    def read_lane(self, state, lane) -> Callable[[int], Dict[str, Any]]:
        row = state["clock"][lane]
        clocks = row.tolist() if state["backend"] == "numpy" else list(map(int, row))
        return lambda pid: {CLOCK_KEY: clocks[pid]}

    def load_lane(self, state, lane, n, mappings, crashed=frozenset()) -> None:
        # one pass to validate, one column write; any irregular cell
        # falls back to load_state so errors stay exactly its own
        cells = [mappings.get(pid) for pid in range(n)]
        for pid in crashed:
            cells[pid] = None
        pids = None  # every pid
        if None in cells:
            pids = [pid for pid, cell in enumerate(cells) if cell is not None]
            cells = [cells[pid] for pid in pids]
        try:
            clocks = [cell[CLOCK_KEY] for cell in cells]
            valid = all(type(c) is int for c in clocks) and all(
                len(cell) == 1 for cell in cells
            )
        except (KeyError, TypeError):
            valid = False
        if not valid:
            # load_state itself, in pid order: the same error for the
            # same lowest offender (and int subclasses load, as there)
            for pid, cell in zip(range(n) if pids is None else pids, cells):
                self.load_state(state, lane, pid, cell)
            return
        row = state["clock"][lane]
        if pids is None:
            row[:] = clocks  # numpy: OverflowError beyond int64, like load_state
        elif state["backend"] == "numpy":
            row[pids] = clocks
        else:
            for pid, clock in zip(pids, clocks):
                row[pid] = clock


class ArrayClockMerge(_ClockColumn):
    """Single-clock protocols: ``c := merge(delivered clocks) + 1``.

    Covers :class:`RoundAgreementProtocol` (max), its min-merge
    ablation, :class:`MinUnison` (min), and the free-running ablation
    (no merge at all).  State is one ``(lanes, n)`` clock matrix.
    """

    kind = "csr"

    def __init__(self, sync: SyncProtocol, merge: str):
        super().__init__(sync)
        if merge not in ("max", "min", "free"):
            raise ValueError(f"unknown merge {merge!r}")
        self.merge = merge

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        initial = self.sync.initial_state(0, n)[CLOCK_KEY]
        return {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, initial),
        }

    def step(self, state, wire) -> None:
        if self.merge == "free":
            if state["backend"] == "numpy":
                state["clock"] = state["clock"] + 1
            else:
                state["clock"] = [[c + 1 for c in row] for row in state["clock"]]
            return
        lowest = self.merge == "min"
        identity = BIG if lowest else SMALL
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            reduce = np.minimum if lowest else np.maximum
            chunk = wire.chunk
            if wire.complete_fast:
                if chunk is not None and state["n"] > chunk:
                    red = None
                    for a, b in _col_chunks(state["n"], chunk):
                        part = clock[:, a:b]
                        if wire.send_ok is not None:
                            part = np.where(wire.send_ok[:, a:b], part, identity)
                        part_red = (
                            part.min(axis=1, keepdims=True)
                            if lowest
                            else part.max(axis=1, keepdims=True)
                        )
                        red = part_red if red is None else reduce(red, part_red)
                else:
                    vals = clock
                    if wire.send_ok is not None:
                        vals = np.where(wire.send_ok, clock, identity)
                    red = (
                        vals.min(axis=1, keepdims=True)
                        if lowest
                        else vals.max(axis=1, keepdims=True)
                    )
                state["clock"] = np.broadcast_to(red + 1, clock.shape).copy()
                return
            if chunk is not None and int(wire.indptr[-1]) > chunk:
                out = np.empty_like(clock)
                for a, b in _edge_chunks(np, wire.indptr, chunk):
                    lo, hi = int(wire.indptr[a]), int(wire.indptr[b])
                    vals = clock[:, wire.src[lo:hi]]
                    if wire.keep is not None:
                        vals = np.where(wire.keep[:, lo:hi], vals, identity)
                    out[:, a:b] = reduce.reduceat(
                        vals, wire.indptr[a:b] - lo, axis=1
                    )
                out += 1
                state["clock"] = out
                return
            vals = clock[:, wire.src]
            if wire.keep is not None:
                vals = np.where(wire.keep, vals, identity)
            red = reduce.reduceat(vals, wire.indptr[:-1], axis=1)
            state["clock"] = red + 1
            return
        best_of = min if lowest else max
        clock = state["clock"]
        for lane in range(state["lanes"]):
            row = clock[lane]
            if wire.complete_fast:
                silenced = wire.send_ok[lane] if wire.send_ok is not None else None
                pool = (
                    row
                    if not silenced
                    else [row[q] for q in range(state["n"]) if q not in silenced]
                )
                merged = (min(pool) if lowest else max(pool)) if pool else identity
                clock[lane] = [merged + 1] * state["n"]
                continue
            dropped = wire.keep[lane] if wire.keep is not None else None
            red = _csr_reduce_python(
                row, wire.src, wire.indptr, dropped, best_of, identity
            )
            clock[lane] = [value + 1 for value in red]


class ArrayBoundedUnison(_ClockColumn):
    """Batched :class:`BoundedUnison`: the tail-plus-ring update rule.

    Three reductions per round (min, max, and min over strictly-inner
    ring values) reproduce the reference's four-way case split exactly,
    including the wrap pair ``{0, K-1}``.
    """

    kind = "csr"

    def __init__(self, sync: BoundedUnison):
        super().__init__(sync)
        self.K = sync.K
        self.alpha = sync.alpha

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        return {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 0),
        }

    def _next_value(self, lowest: int, highest: int, has_inner: bool) -> int:
        if lowest < 0:
            return lowest + 1
        if highest - lowest <= 1:
            return (lowest + 1) % self.K
        if not has_inner:
            return 0  # seen <= {0, K-1}: the wrap pair
        return -self.alpha

    def step(self, state, wire) -> None:
        K, alpha = self.K, self.alpha
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            chunk = wire.chunk

            def reductions(vals, mask):
                """(min, max, inner-min) of one clamped value block."""
                clamped = np.where((vals >= -alpha) & (vals < K), vals, -alpha)
                mn_v = clamped if mask is None else np.where(mask, clamped, BIG)
                mx_v = clamped if mask is None else np.where(mask, clamped, SMALL)
                inner_sel = (clamped > 0) & (clamped < K - 1)
                if mask is not None:
                    inner_sel &= mask
                in_v = np.where(inner_sel, clamped, BIG)
                return mn_v, mx_v, in_v

            if wire.complete_fast:
                if chunk is not None and state["n"] > chunk:
                    mn = mx = inner = None
                    for a, b in _col_chunks(state["n"], chunk):
                        ok = None if wire.send_ok is None else wire.send_ok[:, a:b]
                        mn_v, mx_v, in_v = reductions(clock[:, a:b], ok)
                        p_mn = mn_v.min(axis=1, keepdims=True)
                        p_mx = mx_v.max(axis=1, keepdims=True)
                        p_in = in_v.min(axis=1, keepdims=True)
                        mn = p_mn if mn is None else np.minimum(mn, p_mn)
                        mx = p_mx if mx is None else np.maximum(mx, p_mx)
                        inner = p_in if inner is None else np.minimum(inner, p_in)
                    has_inner = inner < BIG
                else:
                    mn_v, mx_v, in_v = reductions(clock, wire.send_ok)
                    mn = mn_v.min(axis=1, keepdims=True)
                    mx = mx_v.max(axis=1, keepdims=True)
                    has_inner = in_v.min(axis=1, keepdims=True) < BIG
            elif chunk is not None and int(wire.indptr[-1]) > chunk:
                lanes_n = clock.shape
                mn = np.empty(lanes_n, dtype=clock.dtype)
                mx = np.empty(lanes_n, dtype=clock.dtype)
                inner = np.empty(lanes_n, dtype=clock.dtype)
                for a, b in _edge_chunks(np, wire.indptr, chunk):
                    lo, hi = int(wire.indptr[a]), int(wire.indptr[b])
                    keep = None if wire.keep is None else wire.keep[:, lo:hi]
                    mn_v, mx_v, in_v = reductions(clock[:, wire.src[lo:hi]], keep)
                    starts = wire.indptr[a:b] - lo
                    mn[:, a:b] = np.minimum.reduceat(mn_v, starts, axis=1)
                    mx[:, a:b] = np.maximum.reduceat(mx_v, starts, axis=1)
                    inner[:, a:b] = np.minimum.reduceat(in_v, starts, axis=1)
                has_inner = inner < BIG
            else:
                mn_v, mx_v, in_v = reductions(clock[:, wire.src], wire.keep)
                starts = wire.indptr[:-1]
                mn = np.minimum.reduceat(mn_v, starts, axis=1)
                mx = np.maximum.reduceat(mx_v, starts, axis=1)
                has_inner = np.minimum.reduceat(in_v, starts, axis=1) < BIG
            new = np.where(
                mn < 0,
                mn + 1,
                np.where(mx - mn <= 1, (mn + 1) % K, np.where(has_inner, -alpha, 0)),
            )
            if wire.complete_fast:
                new = np.broadcast_to(new, clock.shape).copy()
            state["clock"] = new
            return

        def clamp(value: int) -> int:
            return value if -alpha <= value < K else -alpha

        clock = state["clock"]
        for lane in range(state["lanes"]):
            row = clock[lane]
            if wire.complete_fast:
                silenced = wire.send_ok[lane] if wire.send_ok is not None else None
                seen = {
                    clamp(row[q])
                    for q in range(state["n"])
                    if silenced is None or q not in silenced
                }
                if not seen:
                    continue  # every sender dead: no live receivers either
                lowest, highest = min(seen), max(seen)
                has_inner = any(0 < v < K - 1 for v in seen)
                clock[lane] = [self._next_value(lowest, highest, has_inner)] * state[
                    "n"
                ]
                continue
            dropped = wire.keep[lane] if wire.keep is not None else None
            out = []
            for p in range(state["n"]):
                lowest, highest, has_inner = BIG, SMALL, False
                for e in range(wire.indptr[p], wire.indptr[p + 1]):
                    if dropped is not None and e in dropped:
                        continue
                    value = clamp(row[wire.src[e]])
                    lowest = min(lowest, value)
                    highest = max(highest, value)
                    if 0 < value < K - 1:
                        has_inner = True
                if lowest == BIG:  # dead receiver: frozen garbage
                    out.append(row[p])
                    continue
                out.append(self._next_value(lowest, highest, has_inner))
            clock[lane] = out


# ---------------------------------------------------------------------------
# FloodMin as bitmask columns: Figure 2 runner and Figure 3 compilation
# ---------------------------------------------------------------------------


def _universe_of(canonical: FloodMinConsensus) -> tuple:
    universe = tuple(sorted(set(canonical.proposals) | set(canonical.domain)))
    if len(universe) > MAX_UNIVERSE:
        raise ArrayEligibilityError(
            f"floodmin value universe has {len(universe)} members; the "
            f"bitmask columns support at most {MAX_UNIVERSE}"
        )
    return universe


class _FloodMinCodec:
    """Shared encode/decode between value sets and bitmask ints."""

    def __init__(self, canonical: FloodMinConsensus):
        self.canonical = canonical
        self.universe = _universe_of(canonical)
        self.index = {value: i for i, value in enumerate(self.universe)}
        self.final_round = canonical.final_round

    def encode_value(self, value, what: str) -> int:
        index = self.index.get(value)
        if index is None:
            raise ArrayEligibilityError(
                f"{what} {value!r} outside the floodmin value universe"
            )
        return index

    def encode_values(self, values, what: str) -> int:
        mask = 0
        for value in values:
            mask |= 1 << self.encode_value(value, what)
        return mask

    def decode_values(self, mask: int) -> frozenset:
        out = []
        index = 0
        while mask:
            if mask & 1:
                out.append(self.universe[index])
            mask >>= 1
            index += 1
        return frozenset(out)

    def encode_decision(self, decision, what: str) -> int:
        if decision is None:
            return 0
        return self.encode_value(decision, what) + 1

    def decode_decision(self, code: int):
        return None if code == 0 else self.universe[code - 1]

    def inner_dict(self, prop_idx: int, vmask: int, dec_code: int) -> Dict[str, Any]:
        return {
            "proposal": self.universe[prop_idx],
            "values": self.decode_values(vmask),
            "decision": self.decode_decision(dec_code),
        }

    def load_inner(self, inner: Mapping) -> tuple:
        extra = set(inner) - {"proposal", "values", "decision"}
        if extra:
            raise ArrayEligibilityError(
                f"floodmin inner state has unexpected fields {sorted(extra)}"
            )
        prop = self.encode_value(inner["proposal"], "proposal")
        vmask = self.encode_values(inner["values"], "value")
        dec = self.encode_decision(inner.get("decision"), "decision")
        return prop, vmask, dec

    def initial_columns(self, n: int):
        prop = [self.encode_value(self.canonical.proposal_for(pid), "proposal")
                for pid in range(n)]
        vmask = [1 << index for index in prop]
        return prop, vmask

    def lowest_bit_python(self, mask: int) -> int:
        return (mask & -mask).bit_length() - 1


def _check_dense_size(n: int, lanes: int) -> None:
    if lanes * n * n > DENSE_CELL_LIMIT:
        raise ArrayEligibilityError(
            f"dense wire of {lanes} x {n} x {n} cells exceeds the "
            f"{DENSE_CELL_LIMIT} limit; batch fewer lanes or fall back"
        )


class ArrayFtFloodMin(ArrayProtocol):
    """Batched Figure 2 runner over FloodMin (``ft:floodmin(f=..)``).

    Value sets become bitmask ints over the sorted value universe, so
    the flood-merge is a masked bitwise-OR reduction and decide-min is
    the lowest set bit.  The halted flag freezes cells exactly as the
    reference runner does.
    """

    kind = "dense"

    def __init__(self, sync: CanonicalRunner):
        super().__init__(sync)
        self.codec = _FloodMinCodec(sync.canonical)

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        prop0, vmask0 = self.codec.initial_columns(n)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 1),
            "halted": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "vmask": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = prop0[pid]
                state["vmask"][lane][pid] = vmask0[pid]
        if backend == "numpy":
            np = get_numpy()
            state["prop"] = np.asarray(state["prop"], dtype=np.int64)
            state["vmask"] = np.asarray(state["vmask"], dtype=np.int64)
        return state

    def load_state(self, state, lane, pid, mapping) -> None:
        value = _require_clock(mapping)
        extra = set(mapping) - {CLOCK_KEY, "inner", "halted", "n"}
        if extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected state fields {sorted(extra)}"
            )
        if mapping.get("n") != state["n"]:
            raise ArrayEligibilityError(
                f"{self.name}: state n={mapping.get('n')!r} != run n={state['n']}"
            )
        prop, vmask, dec = self.codec.load_inner(mapping["inner"])
        state["clock"][lane][pid] = value
        state["halted"][lane][pid] = 1 if mapping["halted"] else 0
        state["prop"][lane][pid] = prop
        state["vmask"][lane][pid] = vmask
        state["dec"][lane][pid] = dec

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        return {
            CLOCK_KEY: int(state["clock"][lane][pid]),
            "inner": self.codec.inner_dict(
                int(state["prop"][lane][pid]),
                int(state["vmask"][lane][pid]),
                int(state["dec"][lane][pid]),
            ),
            "halted": bool(state["halted"][lane][pid]),
            "n": state["n"],
        }

    def silent_pids(self, state, lane) -> frozenset:
        halted = state["halted"][lane]
        return frozenset(pid for pid in range(state["n"]) if halted[pid])

    def step(self, state, wire) -> None:
        FR = self.codec.final_round
        if state["backend"] == "numpy":
            np = get_numpy()
            clock, halted = state["clock"], state["halted"].astype(bool)
            vmask, dec = state["vmask"], state["dec"]
            deliv = wire.delivered & ~halted[:, None, :]
            contrib = np.where(deliv, vmask[:, None, :], 0)
            merged = vmask | np.bitwise_or.reduce(contrib, axis=2)
            decide = (~halted) & (clock == FR) & (merged != 0)
            low = merged & -merged
            low_idx = np.log2(np.where(low > 0, low, 1).astype(np.float64)).astype(
                np.int64
            )
            state["vmask"] = np.where(halted, vmask, merged)
            state["dec"] = np.where(decide, low_idx + 1, dec)
            state["clock"] = np.where(halted, clock, clock + 1)
            state["halted"] = (halted | (clock == FR)).astype(np.int64)
            return
        lanes, n = state["lanes"], state["n"]
        for lane in range(lanes):
            clock, halted = state["clock"][lane], state["halted"][lane]
            vmask, dec = state["vmask"][lane], state["dec"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            new_clock, new_halted, new_vmask, new_dec = [], [], [], []
            for p in range(n):
                if halted[p]:
                    new_clock.append(clock[p])
                    new_halted.append(1)
                    new_vmask.append(vmask[p])
                    new_dec.append(dec[p])
                    continue
                merged = vmask[p]
                for q in senders[p]:
                    if not halted[q]:
                        merged |= vmask[q]
                decided = dec[p]
                if clock[p] == FR and merged:
                    decided = self.codec.lowest_bit_python(merged) + 1
                new_clock.append(clock[p] + 1)
                new_halted.append(1 if clock[p] == FR else 0)
                new_vmask.append(merged)
                new_dec.append(decided)
            state["clock"][lane] = new_clock
            state["halted"][lane] = new_halted
            state["vmask"][lane] = new_vmask
            state["dec"][lane] = new_dec


class ArrayCompiledFloodMin(ArrayProtocol):
    """Batched Figure 3 compilation Π⁺ over FloodMin.

    The suspect sets become per-lane ``(n, n)`` boolean matrices, the
    round-tag bookkeeping becomes broadcast comparisons against the
    clock column, and the iteration reset is a masked restore of the
    canonical initial columns.  Honors ``use_suspects`` (the
    ABL-SUSPECT ablation).
    """

    kind = "dense"

    def __init__(self, sync: CompiledProtocol):
        super().__init__(sync)
        self.codec = _FloodMinCodec(sync.canonical)
        self.use_suspects = sync.use_suspects

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        prop0, vmask0 = self.codec.initial_columns(n)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "vmask": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
            "last_dec": _int_matrix(backend, lanes, n, 0),
            "dec_at": _int_matrix(backend, lanes, n, 0),
            "dec_at_set": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = prop0[pid]
                state["vmask"][lane][pid] = vmask0[pid]
        if backend == "numpy":
            np = get_numpy()
            state["prop"] = np.asarray(state["prop"], dtype=np.int64)
            state["vmask"] = np.asarray(state["vmask"], dtype=np.int64)
            state["suspect"] = np.zeros((lanes, n, n), dtype=bool)
            state["init_prop"] = np.asarray(prop0, dtype=np.int64)
            state["init_vmask"] = np.asarray(vmask0, dtype=np.int64)
        else:
            state["suspect"] = [[set() for _ in range(n)] for _ in range(lanes)]
            state["init_prop"] = list(prop0)
            state["init_vmask"] = list(vmask0)
        return state

    def load_state(self, state, lane, pid, mapping) -> None:
        value = _require_clock(mapping)
        allowed = {CLOCK_KEY, "inner", "suspect", "n", "last_decision",
                   "decided_at_clock"}
        extra = set(mapping) - allowed
        if extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected state fields {sorted(extra)}"
            )
        if mapping.get("n") != state["n"]:
            raise ArrayEligibilityError(
                f"{self.name}: state n={mapping.get('n')!r} != run n={state['n']}"
            )
        suspects = mapping["suspect"]
        for q in suspects:
            if not (isinstance(q, int) and 0 <= q < state["n"]):
                raise ArrayEligibilityError(
                    f"{self.name}: suspect entry {q!r} is not a pid"
                )
        prop, vmask, dec = self.codec.load_inner(mapping["inner"])
        last_dec = self.codec.encode_decision(
            mapping.get("last_decision"), "last_decision"
        )
        decided_at = mapping.get("decided_at_clock")
        if decided_at is not None and not isinstance(decided_at, int):
            raise ArrayEligibilityError(
                f"{self.name}: decided_at_clock {decided_at!r} is not an int"
            )
        state["clock"][lane][pid] = value
        state["prop"][lane][pid] = prop
        state["vmask"][lane][pid] = vmask
        state["dec"][lane][pid] = dec
        state["last_dec"][lane][pid] = last_dec
        state["dec_at"][lane][pid] = 0 if decided_at is None else decided_at
        state["dec_at_set"][lane][pid] = 0 if decided_at is None else 1
        if state["backend"] == "numpy":
            state["suspect"][lane, pid, :] = False
            for q in suspects:
                state["suspect"][lane, pid, q] = True
        else:
            state["suspect"][lane][pid] = set(suspects)

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        if state["backend"] == "numpy":
            np = get_numpy()
            suspect = frozenset(
                int(q) for q in np.nonzero(state["suspect"][lane, pid])[0]
            )
        else:
            suspect = frozenset(state["suspect"][lane][pid])
        decided_at = (
            int(state["dec_at"][lane][pid])
            if state["dec_at_set"][lane][pid]
            else None
        )
        return {
            CLOCK_KEY: int(state["clock"][lane][pid]),
            "inner": self.codec.inner_dict(
                int(state["prop"][lane][pid]),
                int(state["vmask"][lane][pid]),
                int(state["dec"][lane][pid]),
            ),
            "suspect": suspect,
            "n": state["n"],
            "last_decision": self.codec.decode_decision(
                int(state["last_dec"][lane][pid])
            ),
            "decided_at_clock": decided_at,
        }

    def step(self, state, wire) -> None:
        FR = self.codec.final_round
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            vmask, dec = state["vmask"], state["dec"]
            suspect = state["suspect"]
            deliv = wire.delivered
            clock_q = clock[:, None, :]
            clock_p = clock[:, :, None]
            tags = np.where(deliv, clock_q, SMALL)
            new_clock = tags.max(axis=2) + 1
            at_my = deliv & (clock_q == clock_p)
            contrib_mask = at_my & ~suspect if self.use_suspects else at_my
            merged = vmask | np.bitwise_or.reduce(
                np.where(contrib_mask, vmask[:, None, :], 0), axis=2
            )
            suspects_new = suspect | ~at_my
            k = clock % FR + 1
            decide = (k == FR) & (merged != 0)
            low = merged & -merged
            low_idx = np.log2(np.where(low > 0, low, 1).astype(np.float64)).astype(
                np.int64
            )
            dec_new = np.where(decide, low_idx + 1, dec)
            journal = (k == FR) & (dec_new != 0)
            state["last_dec"] = np.where(journal, dec_new, state["last_dec"])
            state["dec_at"] = np.where(journal, clock, state["dec_at"])
            state["dec_at_set"] = state["dec_at_set"] | journal
            reset = (new_clock % FR + 1) == 1
            state["vmask"] = np.where(reset, state["init_vmask"][None, :], merged)
            state["prop"] = np.where(reset, state["init_prop"][None, :], state["prop"])
            state["dec"] = np.where(reset, 0, dec_new)
            state["suspect"] = np.where(reset[:, :, None], False, suspects_new)
            state["clock"] = new_clock
            return
        lanes, n = state["lanes"], state["n"]
        for lane in range(lanes):
            clock = state["clock"][lane]
            vmask, dec = state["vmask"][lane], state["dec"][lane]
            prop = state["prop"][lane]
            last_dec, dec_at = state["last_dec"][lane], state["dec_at"][lane]
            dec_at_set = state["dec_at_set"][lane]
            suspect = state["suspect"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            out = {key: [] for key in
                   ("clock", "vmask", "dec", "prop", "last_dec", "dec_at",
                    "dec_at_set", "suspect")}
            for p in range(n):
                arrived = senders[p]
                if arrived:
                    tag_max = max(clock[q] for q in arrived)
                else:  # dead receiver: frozen garbage
                    tag_max = clock[p] - 1
                new_clock = tag_max + 1
                at_my = {q for q in arrived if clock[q] == clock[p]}
                merged = vmask[p]
                for q in at_my:
                    if not self.use_suspects or q not in suspect[p]:
                        merged |= vmask[q]
                suspects_new = suspect[p] | (set(range(n)) - at_my)
                k = clock[p] % FR + 1
                decided = dec[p]
                if k == FR and merged:
                    decided = self.codec.lowest_bit_python(merged) + 1
                if k == FR and decided:
                    last, at, at_set = decided, clock[p], 1
                else:
                    last, at, at_set = last_dec[p], dec_at[p], dec_at_set[p]
                if new_clock % FR + 1 == 1:
                    out["vmask"].append(state["init_vmask"][p])
                    out["prop"].append(state["init_prop"][p])
                    out["dec"].append(0)
                    out["suspect"].append(set())
                else:
                    out["vmask"].append(merged)
                    out["prop"].append(prop[p])
                    out["dec"].append(decided)
                    out["suspect"].append(suspects_new)
                out["clock"].append(new_clock)
                out["last_dec"].append(last)
                out["dec_at"].append(at)
                out["dec_at_set"].append(at_set)
            state["clock"][lane] = out["clock"]
            state["vmask"][lane] = out["vmask"]
            state["dec"][lane] = out["dec"]
            state["prop"][lane] = out["prop"]
            state["last_dec"][lane] = out["last_dec"]
            state["dec_at"][lane] = out["dec_at"]
            state["dec_at_set"][lane] = out["dec_at_set"]
            state["suspect"][lane] = out["suspect"]


# ---------------------------------------------------------------------------
# Phase-queen consensus: the Figure 2 runner over Berman-Garay
# ---------------------------------------------------------------------------


def _require_binary(value, what: str) -> int:
    if type(value) is not int or value not in (0, 1):
        raise ArrayEligibilityError(f"{what} {value!r} is not a binary value")
    return value


def _require_bounded_int(value, what: str) -> int:
    if type(value) is bool or not isinstance(value, int):
        raise ArrayEligibilityError(f"{what} {value!r} is not an int")
    if not -(1 << 40) < value < (1 << 40):
        raise ArrayEligibilityError(f"{what} {value!r} overflows the int64 columns")
    return value


class ArrayPhaseQueen(ArrayProtocol):
    """Batched Figure 2 runner over phase-queen (``ft:phase-queen(f=..)``).

    All inner fields are binary or small ints, so the whole protocol
    fits seven ``(lanes, n)`` integer columns.  The ballot round is two
    masked sums (the 0-tally and the 1-tally; the tie-toward-0 rule
    becomes ``count1 > count0``); the queen round gathers the per-cell
    queen's broadcast majority with ``take_along_axis``.  Corruption
    can desynchronize clocks, so every cell branches on its own clock
    parity rather than the round number.
    """

    kind = "dense"

    def __init__(self, sync: CanonicalRunner):
        super().__init__(sync)
        canonical = sync.canonical
        self.f = canonical.f
        self.final_round = canonical.final_round

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        canonical = self.sync.canonical
        props = [canonical.proposal_for(pid) for pid in range(n)]
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 1),
            "halted": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "value": _int_matrix(backend, lanes, n, 0),
            "majority": _int_matrix(backend, lanes, n, 0),
            "count": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = props[pid]
                state["value"][lane][pid] = props[pid]
                state["majority"][lane][pid] = props[pid]
        if backend == "numpy":
            np = get_numpy()
            for key in ("prop", "value", "majority"):
                state[key] = np.asarray(state[key], dtype=np.int64)
        return state

    def load_state(self, state, lane, pid, mapping) -> None:
        value = _require_clock(mapping)
        extra = set(mapping) - {CLOCK_KEY, "inner", "halted", "n"}
        if extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected state fields {sorted(extra)}"
            )
        if mapping.get("n") != state["n"]:
            raise ArrayEligibilityError(
                f"{self.name}: state n={mapping.get('n')!r} != run n={state['n']}"
            )
        inner = mapping["inner"]
        inner_extra = set(inner) - {"proposal", "value", "majority", "count", "decision"}
        if inner_extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected inner fields {sorted(inner_extra)}"
            )
        decision = inner.get("decision")
        if decision is not None:
            _require_binary(decision, "decision")
        state["clock"][lane][pid] = value
        state["halted"][lane][pid] = 1 if mapping["halted"] else 0
        state["prop"][lane][pid] = _require_binary(inner["proposal"], "proposal")
        state["value"][lane][pid] = _require_binary(inner["value"], "value")
        state["majority"][lane][pid] = _require_binary(inner["majority"], "majority")
        state["count"][lane][pid] = _require_bounded_int(inner["count"], "count")
        state["dec"][lane][pid] = 0 if decision is None else decision + 1

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        dec = int(state["dec"][lane][pid])
        return {
            CLOCK_KEY: int(state["clock"][lane][pid]),
            "inner": {
                "proposal": int(state["prop"][lane][pid]),
                "value": int(state["value"][lane][pid]),
                "majority": int(state["majority"][lane][pid]),
                "count": int(state["count"][lane][pid]),
                "decision": None if dec == 0 else dec - 1,
            },
            "halted": bool(state["halted"][lane][pid]),
            "n": state["n"],
        }

    def silent_pids(self, state, lane) -> frozenset:
        halted = state["halted"][lane]
        return frozenset(pid for pid in range(state["n"]) if halted[pid])

    def step(self, state, wire) -> None:
        FR, f = self.final_round, self.f
        n = state["n"]
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            halted = state["halted"].astype(bool)
            value, majority = state["value"], state["majority"]
            count, dec = state["count"], state["dec"]
            deliv = wire.delivered & ~halted[:, None, :]
            # Ballot round (odd clocks): masked binary tallies.
            sent = value[:, None, :]
            count1 = (deliv & (sent == 1)).sum(axis=2)
            count0 = (deliv & (sent == 0)).sum(axis=2)
            total = count0 + count1
            best = (count1 > count0).astype(np.int64)
            ballot_majority = np.where(total > 0, best, value)
            ballot_count = np.where(
                total > 0, np.where(count1 > count0, count1, count0), 0
            )
            # Queen round (even clocks): keep when sure, else adopt the
            # queen's broadcast majority, else keep the local majority.
            phase = (clock + 1) // 2
            queen = (phase - 1) % n
            queen_sent = np.take_along_axis(deliv, queen[:, :, None], axis=2)[:, :, 0]
            queen_majority = np.take_along_axis(majority, queen, axis=1)
            sure = 2 * count > n + 2 * f
            queen_value = np.where(
                sure, majority, np.where(queen_sent, queen_majority, majority)
            )
            odd = clock % 2 == 1
            new_value = np.where(odd, value, queen_value)
            new_majority = np.where(odd, ballot_majority, majority)
            new_count = np.where(odd, ballot_count, count)
            new_dec = np.where(~odd & (clock == FR), queen_value + 1, dec)
            state["value"] = np.where(halted, value, new_value)
            state["majority"] = np.where(halted, majority, new_majority)
            state["count"] = np.where(halted, count, new_count)
            state["dec"] = np.where(halted, dec, new_dec)
            state["clock"] = np.where(halted, clock, clock + 1)
            state["halted"] = (halted | (clock == FR)).astype(np.int64)
            return
        for lane in range(state["lanes"]):
            clock, halted = state["clock"][lane], state["halted"][lane]
            value, majority = state["value"][lane], state["majority"][lane]
            count, dec = state["count"][lane], state["dec"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            out = {key: [] for key in
                   ("clock", "halted", "value", "majority", "count", "dec")}
            for p in range(n):
                if halted[p]:
                    for key, column in (
                        ("clock", clock), ("halted", halted), ("value", value),
                        ("majority", majority), ("count", count), ("dec", dec),
                    ):
                        out[key].append(column[p])
                    continue
                k = clock[p]
                arrived = [q for q in sorted(senders[p]) if not halted[q]]
                if k % 2 == 1:
                    count1 = sum(1 for q in arrived if value[q] == 1)
                    count0 = len(arrived) - count1
                    if arrived:
                        new_majority = 1 if count1 > count0 else 0
                        new_count = count1 if count1 > count0 else count0
                    else:
                        new_majority, new_count = value[p], 0
                    new_value, new_dec = value[p], dec[p]
                else:
                    queen = ((k + 1) // 2 - 1) % n
                    if 2 * count[p] > n + 2 * f or queen not in arrived:
                        new_value = majority[p]
                    else:
                        new_value = majority[queen]
                    new_majority, new_count = majority[p], count[p]
                    new_dec = new_value + 1 if k == FR else dec[p]
                out["clock"].append(k + 1)
                out["halted"].append(1 if k == FR else 0)
                out["value"].append(new_value)
                out["majority"].append(new_majority)
                out["count"].append(new_count)
                out["dec"].append(new_dec)
            for key, column in out.items():
                state[key][lane] = column


# ---------------------------------------------------------------------------
# The ◇S detector stack: suspect-matrix columns
# ---------------------------------------------------------------------------

#: Integer encodings of the Figure 4 verdicts in the status matrix.
_ALIVE_CODE, _DEAD_CODE = 0, 1


class ArrayDetectorStack(ArrayProtocol):
    """Batched :class:`DetectorStack`: heartbeat-◇P + Figure 4 as matrices.

    Per lane, every per-target vector becomes an ``(n, n)`` matrix
    indexed ``[process, target]``: ``last_heard``/``timeout``/``num``
    as int64, ``suspected`` as bool, ``status`` as 0/1 codes.  The
    heartbeat and tick layers vectorize directly (each slot is
    independent); the Figure 4 adoption folds senders in ascending
    order, which collapses to first-max-wins — ``argmax`` over the
    delivered-masked version offers picks the same winner the
    sequential fold does, one target column at a time.
    """

    kind = "dense"

    def __init__(self, sync: DetectorStack):
        super().__init__(sync)
        self.max_timeout = sync.max_timeout

    def _matrix_stack(self, backend: str, lanes: int, n: int, fill: int):
        if backend == "numpy":
            np = get_numpy()
            return np.full((lanes, n, n), fill, dtype=np.int64)
        return [[[fill] * n for _ in range(n)] for _ in range(lanes)]

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 0),
            "last_heard": self._matrix_stack(backend, lanes, n, 0),
            "timeout": self._matrix_stack(
                backend, lanes, n, self.sync.initial_timeout
            ),
            "suspected": self._matrix_stack(backend, lanes, n, 0),
            "num": self._matrix_stack(backend, lanes, n, 0),
            "status": self._matrix_stack(backend, lanes, n, _ALIVE_CODE),
        }
        if backend == "numpy":
            np = get_numpy()
            state["suspected"] = state["suspected"].astype(bool)
            state["eye"] = np.eye(n, dtype=bool)
        return state

    def load_state(self, state, lane, pid, mapping) -> None:
        value = _require_clock(mapping)
        allowed = {CLOCK_KEY, "last_heard", "timeout", "suspected", "num", "status"}
        extra = set(mapping) - allowed
        if extra:
            raise ArrayEligibilityError(
                f"{self.name}: unexpected state fields {sorted(extra)}"
            )
        n = state["n"]
        vectors = {}
        for key in ("last_heard", "timeout", "suspected", "num", "status"):
            vector = mapping[key]
            if not isinstance(vector, (list, tuple)) or len(vector) != n:
                raise ArrayEligibilityError(
                    f"{self.name}: {key} is not a length-{n} vector"
                )
            vectors[key] = vector
        _require_bounded_int(value, CLOCK_KEY)
        for key in ("last_heard", "timeout", "num"):
            for entry in vectors[key]:
                _require_bounded_int(entry, key)
        for flag in vectors["suspected"]:
            if not isinstance(flag, bool):
                raise ArrayEligibilityError(
                    f"{self.name}: suspected entry {flag!r} is not a bool"
                )
        codes = []
        for verdict in vectors["status"]:
            if verdict not in (ALIVE, DEAD):
                raise ArrayEligibilityError(
                    f"{self.name}: status entry {verdict!r} is not a verdict"
                )
            codes.append(_DEAD_CODE if verdict == DEAD else _ALIVE_CODE)
        state["clock"][lane][pid] = value
        if state["backend"] == "numpy":
            np = get_numpy()
            state["last_heard"][lane, pid, :] = vectors["last_heard"]
            state["timeout"][lane, pid, :] = vectors["timeout"]
            state["suspected"][lane, pid, :] = np.asarray(
                vectors["suspected"], dtype=bool
            )
            state["num"][lane, pid, :] = vectors["num"]
            state["status"][lane, pid, :] = codes
        else:
            state["last_heard"][lane][pid] = [int(v) for v in vectors["last_heard"]]
            state["timeout"][lane][pid] = [int(v) for v in vectors["timeout"]]
            state["suspected"][lane][pid] = [bool(v) for v in vectors["suspected"]]
            state["num"][lane][pid] = [int(v) for v in vectors["num"]]
            state["status"][lane][pid] = codes

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        row = lambda key: state[key][lane][pid]  # noqa: E731
        return {
            CLOCK_KEY: int(state["clock"][lane][pid]),
            "last_heard": [int(v) for v in row("last_heard")],
            "timeout": [int(v) for v in row("timeout")],
            "suspected": [bool(v) for v in row("suspected")],
            "num": [int(v) for v in row("num")],
            "status": [DEAD if v else ALIVE for v in row("status")],
        }

    def step(self, state, wire) -> None:
        mt = self.max_timeout
        n = state["n"]
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            heard, timeout = state["last_heard"], state["timeout"]
            suspected = state["suspected"]
            num, status = state["num"], state["status"]
            deliv = wire.delivered
            now = clock[:, :, None]
            eye = state["eye"]
            # 1. heartbeats: unsuspect + backoff, refresh last_heard.
            timeout = np.where(
                suspected & deliv, np.minimum(timeout * 2, mt), timeout
            )
            suspected = suspected & ~deliv
            heard = np.where(deliv, now, heard)
            # 2. first-max-wins adoption, one target column at a time.
            new_num, new_status = num.copy(), status.copy()
            for s in range(n):
                offers = np.where(deliv, num[:, :, s][:, None, :], SMALL)
                best = offers.max(axis=2)
                winner = offers.argmax(axis=2)  # the first best sender
                adopt = best > num[:, :, s]
                winner_status = np.take_along_axis(status[:, :, s], winner, axis=1)
                new_num[:, :, s] = np.where(adopt, best, num[:, :, s])
                new_status[:, :, s] = np.where(
                    adopt, winner_status, status[:, :, s]
                )
            num, status = new_num, new_status
            # 3. suspicion tick with the corruption guards.
            heard = np.where(eye, now, np.minimum(heard, now))
            timeout = np.where(eye | ((timeout > 0) & (timeout <= mt)), timeout, mt)
            suspected = (suspected | (now - heard > timeout)) & ~eye
            # 4. Figure 4 tick: suspicion increments, then self.
            num = num + suspected + eye
            status = np.where(
                eye, _ALIVE_CODE, np.where(suspected, _DEAD_CODE, status)
            )
            state["clock"] = clock + 1
            state["last_heard"] = heard
            state["timeout"] = timeout
            state["suspected"] = suspected
            state["num"] = num
            state["status"] = status
            return
        for lane in range(state["lanes"]):
            senders = wire.delivered[lane]  # per-receiver sender sets
            clock = state["clock"][lane]
            heard_l, timeout_l = state["last_heard"][lane], state["timeout"][lane]
            sus_l = state["suspected"][lane]
            num_l, status_l = state["num"][lane], state["status"][lane]
            new = {key: [] for key in
                   ("clock", "last_heard", "timeout", "suspected", "num", "status")}
            for p in range(n):
                now = clock[p]
                heard, timeout = list(heard_l[p]), list(timeout_l[p])
                sus = list(sus_l[p])
                num, status = list(num_l[p]), list(status_l[p])
                arrived = sorted(senders[p])
                for q in arrived:
                    if sus[q]:
                        sus[q] = False
                        timeout[q] = min(timeout[q] * 2, mt)
                    heard[q] = now
                for q in arrived:
                    offered_num, offered_status = num_l[q], status_l[q]
                    for s in range(n):
                        if offered_num[s] > num[s]:
                            num[s] = offered_num[s]
                            status[s] = offered_status[s]
                for s in range(n):
                    if s == p:
                        sus[s] = False
                        heard[s] = now
                        continue
                    if heard[s] > now:
                        heard[s] = now
                    if not 0 < timeout[s] <= mt:
                        timeout[s] = mt
                    if now - heard[s] > timeout[s]:
                        sus[s] = True
                for s in range(n):
                    if sus[s]:
                        num[s] += 1
                        status[s] = _DEAD_CODE
                    if s == p:
                        num[s] += 1
                        status[s] = _ALIVE_CODE
                new["clock"].append(now + 1)
                new["last_heard"].append(heard)
                new["timeout"].append(timeout)
                new["suspected"].append(sus)
                new["num"].append(num)
                new["status"].append(status)
            for key, column in new.items():
                state[key][lane] = column


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Extension point: each matcher maps a SyncProtocol to an ArrayProtocol
#: (or None).  Matchers added via register_array_protocol run first.
_MATCHERS: List[Callable[[SyncProtocol], Optional[ArrayProtocol]]] = []


def register_array_protocol(
    matcher: Callable[[SyncProtocol], Optional[ArrayProtocol]],
) -> None:
    """Register a custom SyncProtocol -> ArrayProtocol matcher."""
    _MATCHERS.insert(0, matcher)


def _builtin_matcher(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    # Exact type matches: a user subclass may override update() in ways
    # the batched twin would silently ignore, so it must fall back.
    kind = type(protocol)
    if kind is RoundAgreementProtocol:
        return ArrayClockMerge(protocol, "max")
    if kind is MinMergeRoundProtocol:
        return ArrayClockMerge(protocol, "min")
    if kind is FreeRunningRoundProtocol:
        return ArrayClockMerge(protocol, "free")
    if kind is MinUnison:
        return ArrayClockMerge(protocol, "min")
    if kind is BoundedUnison:
        return ArrayBoundedUnison(protocol)
    if kind is CanonicalRunner and type(protocol.canonical) is FloodMinConsensus:
        return ArrayFtFloodMin(protocol)
    if kind is CanonicalRunner and type(protocol.canonical) is PhaseQueenConsensus:
        return ArrayPhaseQueen(protocol)
    if kind is CompiledProtocol and type(protocol.canonical) is FloodMinConsensus:
        return ArrayCompiledFloodMin(protocol)
    if kind is DetectorStack:
        return ArrayDetectorStack(protocol)
    return None


def as_array_protocol(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    """The batched twin of ``protocol``, or ``None`` if it has none."""
    for matcher in _MATCHERS:
        batched = matcher(protocol)
        if batched is not None:
            return batched
    return _builtin_matcher(protocol)
