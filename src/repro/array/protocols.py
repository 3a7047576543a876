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
  reduction (min/max over delivered clocks).  They reduce through the
  wire's one primitive, ``wire.reduce(values, op, identity)``, which
  owns the wire's forms: a CSR edge list (edge sources grouped by
  receiver, self-loop included) with an optional per-edge keep mask,
  the complete graph's one global reduction per lane, and chunking.
- ``kind="dense"`` — full-information protocols (FloodMin under
  Figure 2, and the Figure 3 compilation) that need per-(sender,
  receiver) delivery info.  The driver hands them a dense delivered
  matrix; size is eligibility-bounded.

To add a batched protocol: implement :class:`ArrayProtocol` for it and
add its exact-type match to :func:`as_array_protocol` (see
``docs/array.md``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Any, Callable, Dict, Mapping, Optional

from repro.array.backend import ArrayEligibilityError, get_numpy
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
]

#: Sentinels for masked reductions (int64-safe).
BIG = 1 << 62
SMALL = -(1 << 62)

#: Dense-kind memory bound: lanes * n * n cells.
DENSE_CELL_LIMIT = 1 << 26

#: Largest value universe a bitmask column can encode (int64 headroom).
MAX_UNIVERSE = 60


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
    def initial_states(self, n: int, lanes: int) -> Any:
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


def _int_matrix(lanes: int, n: int, fill: int):
    np = get_numpy()
    return np.full((lanes, n), fill, dtype=np.int64)


def _require_clock(mapping: Mapping) -> int:
    if CLOCK_KEY not in mapping:
        raise ArrayEligibilityError(
            f"state {dict(mapping)!r} lacks the round variable ({CLOCK_KEY!r})"
        )
    value = mapping[CLOCK_KEY]
    if type(value) is bool or not isinstance(value, int):
        raise ArrayEligibilityError(f"non-integer clock {value!r} cannot be batched")
    return value


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
        clocks = state["clock"][lane].tolist()
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
            row[:] = clocks  # OverflowError beyond int64, like load_state
        else:
            row[pids] = clocks


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

    def initial_states(self, n: int, lanes: int) -> Any:
        initial = self.sync.initial_state(0, n)[CLOCK_KEY]
        return {"n": n, "clock": _int_matrix(lanes, n, initial)}

    def step(self, state, wire) -> None:
        if self.merge == "free":
            state["clock"] = state["clock"] + 1
            return
        np = get_numpy()
        if self.merge == "min":
            merged = wire.reduce(state["clock"], np.minimum, BIG)
        else:
            merged = wire.reduce(state["clock"], np.maximum, SMALL)
        state["clock"] = merged + 1


class ArrayBoundedUnison(_ClockColumn):
    """Batched :class:`BoundedUnison`: the tail-plus-ring update rule.

    Three reductions per round (min, max, and min over strictly-inner
    ring values) reproduce the reference's four-way case split exactly,
    including the wrap pair ``{0, K-1}``.  Clamping out-of-range clocks
    is elementwise, so it runs once on the senders' column rather than
    on every gathered edge.
    """

    kind = "csr"

    def __init__(self, sync: BoundedUnison):
        super().__init__(sync)
        self.K = sync.K
        self.alpha = sync.alpha

    def initial_states(self, n: int, lanes: int) -> Any:
        return {"n": n, "clock": _int_matrix(lanes, n, 0)}

    def step(self, state, wire) -> None:
        K, alpha = self.K, self.alpha
        np = get_numpy()
        clock = state["clock"]
        clamped = np.where((clock >= -alpha) & (clock < K), clock, -alpha)
        inner = np.where((clamped > 0) & (clamped < K - 1), clamped, BIG)
        mn = wire.reduce(clamped, np.minimum, BIG)
        mx = wire.reduce(clamped, np.maximum, SMALL)
        has_inner = wire.reduce(inner, np.minimum, BIG) < BIG
        state["clock"] = np.where(
            mn < 0,
            mn + 1,
            np.where(mx - mn <= 1, (mn + 1) % K, np.where(has_inner, -alpha, 0)),
        )


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
        """Every process's specified ``(proposal index, value mask)``."""
        np = get_numpy()
        prop = np.array(
            [self.encode_value(self.canonical.proposal_for(pid), "proposal")
             for pid in range(n)],
            dtype=np.int64,
        )
        return prop, 1 << prop


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

    def initial_states(self, n: int, lanes: int) -> Any:
        _check_dense_size(n, lanes)
        np = get_numpy()
        prop0, vmask0 = self.codec.initial_columns(n)
        return {
            "n": n,
            "clock": _int_matrix(lanes, n, 1),
            "halted": _int_matrix(lanes, n, 0),
            "prop": np.tile(prop0, (lanes, 1)),
            "vmask": np.tile(vmask0, (lanes, 1)),
            "dec": _int_matrix(lanes, n, 0),
        }

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

    def initial_states(self, n: int, lanes: int) -> Any:
        _check_dense_size(n, lanes)
        np = get_numpy()
        prop0, vmask0 = self.codec.initial_columns(n)
        return {
            "n": n,
            "clock": _int_matrix(lanes, n, 0),
            "prop": np.tile(prop0, (lanes, 1)),
            "vmask": np.tile(vmask0, (lanes, 1)),
            "dec": _int_matrix(lanes, n, 0),
            "last_dec": _int_matrix(lanes, n, 0),
            "dec_at": _int_matrix(lanes, n, 0),
            "dec_at_set": _int_matrix(lanes, n, 0),
            "suspect": np.zeros((lanes, n, n), dtype=bool),
            "init_prop": prop0,
            "init_vmask": vmask0,
        }

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
        state["suspect"][lane, pid, :] = False
        for q in suspects:
            state["suspect"][lane, pid, q] = True

    def read_state(self, state, lane, pid) -> Dict[str, Any]:
        np = get_numpy()
        suspect = frozenset(int(q) for q in np.nonzero(state["suspect"][lane, pid])[0])
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

    def initial_states(self, n: int, lanes: int) -> Any:
        _check_dense_size(n, lanes)
        np = get_numpy()
        canonical = self.sync.canonical
        props = np.array([canonical.proposal_for(pid) for pid in range(n)], dtype=np.int64)
        return {
            "n": n,
            "clock": _int_matrix(lanes, n, 1),
            "halted": _int_matrix(lanes, n, 0),
            "prop": np.tile(props, (lanes, 1)),
            "value": np.tile(props, (lanes, 1)),
            "majority": np.tile(props, (lanes, 1)),
            "count": _int_matrix(lanes, n, 0),
            "dec": _int_matrix(lanes, n, 0),
        }

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

    def initial_states(self, n: int, lanes: int) -> Any:
        _check_dense_size(n, lanes)
        np = get_numpy()
        shape = (lanes, n, n)
        return {
            "n": n,
            "clock": _int_matrix(lanes, n, 0),
            "last_heard": np.zeros(shape, dtype=np.int64),
            "timeout": np.full(shape, self.sync.initial_timeout, dtype=np.int64),
            "suspected": np.zeros(shape, dtype=bool),
            "num": np.zeros(shape, dtype=np.int64),
            "status": np.full(shape, _ALIVE_CODE, dtype=np.int64),
            "eye": np.eye(n, dtype=bool),
        }

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
        state["last_heard"][lane, pid, :] = vectors["last_heard"]
        state["timeout"][lane, pid, :] = vectors["timeout"]
        state["suspected"][lane, pid, :] = vectors["suspected"]
        state["num"][lane, pid, :] = vectors["num"]
        state["status"][lane, pid, :] = codes

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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def as_array_protocol(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    """The batched twin of ``protocol``, or ``None`` if it has none."""
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

