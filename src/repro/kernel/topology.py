"""Pluggable communication topologies for all three substrates.

The paper's model (and the seed engine) hard-codes a completely
connected network: a broadcast is one message to every process.  The
related dynamic-unison literature generalizes exactly this layer — the
protocol stays "broadcast my state each round", but *broadcast* comes
to mean "send along my current out-edges".  This module supplies that
edge relation as a first-class object:

- :class:`CompleteTopology` — the default; behaviorally identical to
  the seed engine (engines normalize it away entirely, so complete-
  graph runs stay byte-for-byte what they were).
- :class:`RingTopology`, :class:`GridTopology`, :class:`TreeTopology`,
  :class:`RandomTopology`, :class:`ExplicitTopology` — static sparse
  graphs (closed-form diameter for the ring and grid, BFS otherwise).
- :class:`DynamicTopology` — a base graph whose effective edge set
  varies per round under a :class:`ChurnSchedule` of join / leave /
  partition / heal events (carried in the ``FaultPlan``).

Conventions shared by every substrate:

- ``receivers(pid, round_no)`` returns the destinations of ``pid``'s
  broadcast in that round, in ascending pid order, **always including
  ``pid`` itself** — self-delivery is sacred kernel-wide and survives
  leaves and partitions (a detached process keeps executing against
  its own state; it is *not* faulty).
- Edges are undirected: ``q in receivers(p)`` iff ``p in
  receivers(q)``.
- Round numbers are the sync engine's (1-based); static topologies
  ignore them.
- :meth:`Topology.csr` is the same edge relation in the batched
  engine's form: NumPy ``(indptr, src)`` grouped by receiver.  Static
  topologies memoize it (ring, grid and complete graph in closed form);
  a dynamic topology masks its base CSR by the round's churn state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.util.rng import make_rng

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "CompleteTopology",
    "DynamicTopology",
    "ExplicitTopology",
    "GridTopology",
    "RandomTopology",
    "RingTopology",
    "Topology",
    "TreeTopology",
    "round_edges",
]


class Topology:
    """Edge relation consulted by every substrate's delivery layer."""

    n: int
    #: True only for the complete graph; lets engines skip topology
    #: work entirely (the invisible-default guarantee).
    complete: bool = False

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        """Destinations of ``pid``'s broadcast: ascending, includes ``pid``."""
        raise NotImplementedError

    def neighbors(self, pid: int, round_no: int = 1) -> Tuple[int, ...]:
        """``receivers`` without the self-edge."""
        return tuple(q for q in self.receivers(pid, round_no) if q != pid)

    def diameter(self) -> int:
        """Longest shortest path of the (static / base) graph."""
        raise NotImplementedError

    def csr(self, round_no: int = 1):
        """One round's edges grouped by receiver, as NumPy int64 ``(indptr, src)``.

        ``src[indptr[p]:indptr[p + 1]]`` holds receiver ``p``'s
        ascending senders, self included — exactly ``round_edges(self,
        round_no)[p]``, because edges are undirected.  The batched
        engine's wire; NumPy is imported here, never at module import.
        """
        return _csr_from_table(round_edges(self, round_no))

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range for n={self.n}")


def _csr_from_table(table: Sequence[Sequence[int]]):
    """``(indptr, src)`` of a per-pid receivers table."""
    import numpy as np

    indptr = _indptr_of(np, [len(row) for row in table])
    src = np.fromiter(
        (q for row in table for q in row), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, src


def _indptr_of(np, sizes):
    """CSR row pointers from per-receiver segment sizes."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


class CompleteTopology(Topology):
    """Everyone hears everyone — the seed engine's implicit network."""

    complete = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._receivers = range(n)  # shared, like the engine fast path
        self._csr = None

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        return self._receivers

    def diameter(self) -> int:
        return 1 if self.n > 1 else 0

    def csr(self, round_no: int = 1):
        if self._csr is None:
            import numpy as np

            n = self.n
            self._csr = (
                np.arange(0, n * n + 1, n, dtype=np.int64),
                np.tile(np.arange(n, dtype=np.int64), n),
            )
        return self._csr

    def __repr__(self) -> str:
        return f"CompleteTopology(n={self.n})"


class _StaticTopology(Topology):
    """Shared machinery: a memoized receivers table and CSR, BFS diameter.

    Both views are built on first use only, so a topology that only
    ever feeds the batched engine never pays for n Python tuples.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._table: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._csr = None
        self._diameter: Optional[int] = None

    def _receivers_table(self) -> Tuple[Tuple[int, ...], ...]:
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.receivers(pid) for pid in range(self.n))

    def csr(self, round_no: int = 1):
        if self._csr is None:
            self._csr = self._build_csr()
        return self._csr

    def diameter(self) -> int:
        if self._diameter is None:
            table = self._receivers_table()
            worst = 0
            for source in range(self.n):
                dist = {source: 0}
                frontier = [source]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for v in table[u]:
                            if v not in dist:
                                dist[v] = dist[u] + 1
                                nxt.append(v)
                    frontier = nxt
                if len(dist) < self.n:
                    raise ValueError("graph is disconnected; diameter undefined")
                worst = max(worst, max(dist.values()))
            self._diameter = worst
        return self._diameter


class _EdgeListTopology(_StaticTopology):
    """A static graph given by an undirected edge list."""

    def __init__(self, n: int, undirected_edges: Iterable[Tuple[int, int]]):
        super().__init__(n)
        pairs = []
        for u, v in undirected_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            pairs.append((u, v))
        self._pairs: Tuple[Tuple[int, int], ...] = tuple(pairs)

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        return self._receivers_table()[pid]

    def _build_table(self) -> Tuple[Tuple[int, ...], ...]:
        adjacency: List[set] = [{pid} for pid in range(self.n)]
        for u, v in self._pairs:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return tuple(tuple(sorted(adjacency[pid])) for pid in range(self.n))

    def _build_csr(self):
        import numpy as np

        n = self.n
        ends = np.array(self._pairs, dtype=np.int64).reshape(-1, 2)
        pids = np.arange(n, dtype=np.int64)
        # (receiver, sender) keys: both directions of every edge, plus
        # every self-loop; unique() sorts and drops duplicates at once.
        keys = np.unique(
            np.concatenate(
                (ends[:, 1] * n + ends[:, 0], ends[:, 0] * n + ends[:, 1], pids * n + pids)
            )
        )
        return _indptr_of(np, np.bincount(keys // n, minlength=n)), keys % n


class RingTopology(_StaticTopology):
    """Bidirectional cycle 0–1–…–(n−1)–0; diameter ``n // 2``."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("a ring needs n >= 2")
        super().__init__(n)

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        n = self.n
        if n == 2:
            return (0, 1)
        if pid == 0:
            return (0, 1, n - 1)
        if pid == n - 1:
            return (0, n - 2, n - 1)
        return (pid - 1, pid, pid + 1)

    def _build_csr(self):
        import numpy as np

        n = self.n
        if n == 2:
            return np.array([0, 2, 4], dtype=np.int64), np.array([0, 1, 0, 1], dtype=np.int64)
        pids = np.arange(n, dtype=np.int64)
        rows = np.stack((pids - 1, pids, pids + 1), axis=1)
        rows[0] = (0, 1, n - 1)
        rows[n - 1] = (0, n - 2, n - 1)
        return np.arange(0, 3 * n + 1, 3, dtype=np.int64), rows.reshape(-1)

    def diameter(self) -> int:
        return self.n // 2

    def __repr__(self) -> str:
        return f"RingTopology(n={self.n})"


class GridTopology(_StaticTopology):
    """``rows`` × ``cols`` 4-neighbor mesh; diameter rows+cols−2.

    Row-major numbering: process ``r * cols + c`` sits at (r, c).  The
    workhorse sparse graph for diameter-law sweeps — diameter grows as
    Θ(√n) instead of the ring's Θ(n), so stabilization-time laws can be
    separated from size effects at large n.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("a grid needs rows >= 1 and cols >= 1")
        self.rows = rows
        self.cols = cols
        super().__init__(rows * cols)

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        cols = self.cols
        r, c = divmod(pid, cols)
        # up, left, self, right, down: already ascending
        out = []
        if r > 0:
            out.append(pid - cols)
        if c > 0:
            out.append(pid - 1)
        out.append(pid)
        if c + 1 < cols:
            out.append(pid + 1)
        if r + 1 < self.rows:
            out.append(pid + cols)
        return tuple(out)

    def _build_csr(self):
        import numpy as np

        cols = self.cols
        pids = np.arange(self.n, dtype=np.int64)
        r, c = np.divmod(pids, cols)
        # candidate senders per receiver in ascending order (up, left,
        # self, right, down); the mask drops the ones off the mesh
        candidates = np.stack((pids - cols, pids - 1, pids, pids + 1, pids + cols), axis=1)
        on_mesh = np.stack(
            (r > 0, c > 0, np.ones(self.n, dtype=bool), c + 1 < cols, r + 1 < self.rows),
            axis=1,
        )
        return _indptr_of(np, on_mesh.sum(axis=1)), candidates[on_mesh]

    def diameter(self) -> int:
        return self.rows + self.cols - 2

    def __repr__(self) -> str:
        return f"GridTopology(rows={self.rows}, cols={self.cols})"


class TreeTopology(_EdgeListTopology):
    """Complete ``arity``-ary tree rooted at 0 (heap numbering)."""

    def __init__(self, n: int, arity: int = 2):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        super().__init__(n, (((pid - 1) // arity, pid) for pid in range(1, n)))

    def __repr__(self) -> str:
        return f"TreeTopology(n={self.n}, arity={self.arity})"


class RandomTopology(_EdgeListTopology):
    """Seeded G(n, p) unioned with a seeded random spanning tree.

    The spanning tree guarantees connectivity (so ``diameter`` is always
    defined and unison always converges); the G(n, p) overlay controls
    density.  Same ``(n, p, seed)`` → same graph, everywhere.
    """

    def __init__(self, n: int, p: float = 0.2, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self.seed = seed
        edges = set()
        rng = make_rng(seed, f"gnp:{n}:{p!r}")
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            attach = order[rng.randrange(i)]
            edges.add((min(order[i], attach), max(order[i], attach)))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
        super().__init__(n, sorted(edges))

    def __repr__(self) -> str:
        return f"RandomTopology(n={self.n}, p={self.p}, seed={self.seed})"


class ExplicitTopology(_EdgeListTopology):
    """An arbitrary undirected edge list, given outright."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        self.edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        super().__init__(n, self.edges)

    def __repr__(self) -> str:
        return f"ExplicitTopology(n={self.n}, edges={self.edges})"


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------

_CHURN_KINDS = ("leave", "join", "partition", "heal")


@dataclass(frozen=True)
class ChurnEvent:
    """One topology change, effective from ``round_no`` onward.

    - ``leave``: ``pids`` detach — they keep running (self-delivery
      only) but no edge touches them.  Not a fault: a detached process
      is correct, merely unreachable.
    - ``join``: ``pids`` re-attach.
    - ``partition``: the network splits into ``groups`` (disjoint pid
      sets); edges live only within a group.  Pids in no group form one
      implicit residual group.
    - ``heal``: the partition ends.
    """

    round_no: int
    kind: str
    pids: Tuple[int, ...] = ()
    groups: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self):
        if self.kind not in _CHURN_KINDS:
            raise ValueError(f"unknown churn kind {self.kind!r}")
        if self.round_no < 1:
            raise ValueError("churn round_no must be >= 1")
        object.__setattr__(self, "pids", tuple(sorted(self.pids)))
        object.__setattr__(
            self, "groups", tuple(frozenset(g) for g in self.groups)
        )
        if self.kind in ("leave", "join") and not self.pids:
            raise ValueError(f"{self.kind} event needs pids")
        if self.kind == "partition":
            seen: set = set()
            for group in self.groups:
                if seen & group:
                    raise ValueError("partition groups must be disjoint")
                seen |= group


@dataclass(frozen=True)
class ChurnSchedule:
    """An ordered script of :class:`ChurnEvent`\\ s (carried in FaultPlan)."""

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: e.round_no)),
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def last_round(self) -> int:
        """Round of the final event (0 when empty) — recovery starts after."""
        return self.events[-1].round_no if self.events else 0


class DynamicTopology(Topology):
    """A base graph filtered per round by a :class:`ChurnSchedule`.

    An edge (u, v) of the base graph is live in round r iff neither
    endpoint is detached and both sit in the same partition group at r.
    The self-edge always survives.
    """

    def __init__(self, base: Topology, schedule: ChurnSchedule):
        self.base = base
        self.schedule = schedule
        self.n = base.n
        for event in schedule.events:
            for pid in event.pids:
                base._check_pid(pid)
            for group in event.groups:
                for pid in group:
                    base._check_pid(pid)
        # round -> (detached frozenset, block-of map or None)
        self._states: Dict[int, Tuple[FrozenSet[int], Optional[Dict[int, int]]]] = {}

    def _state(self, round_no: int):
        cached = self._states.get(round_no)
        if cached is not None:
            return cached
        detached: set = set()
        blocks: Optional[Dict[int, int]] = None
        for event in self.schedule.events:
            if event.round_no > round_no:
                break
            if event.kind == "leave":
                detached.update(event.pids)
            elif event.kind == "join":
                detached.difference_update(event.pids)
            elif event.kind == "partition":
                blocks = {}
                for index, group in enumerate(event.groups):
                    for pid in group:
                        blocks[pid] = index
            elif event.kind == "heal":
                blocks = None
        state = (frozenset(detached), blocks)
        self._states[round_no] = state
        return state

    def state_key(self, round_no: int):
        """Equality-comparable churn state at ``round_no``.

        Two rounds with equal keys have identical edge sets; batched
        engines use this to reuse compiled adjacency across rounds.
        """
        return self._state(round_no)

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        detached, blocks = self._state(round_no)
        base_receivers = self.base.receivers(pid, round_no)
        if not detached and blocks is None:
            return base_receivers
        if pid in detached:
            return (pid,)
        if blocks is None:
            return tuple(q for q in base_receivers if q == pid or q not in detached)
        my_block = blocks.get(pid, -1)
        return tuple(
            q
            for q in base_receivers
            if q == pid or (q not in detached and blocks.get(q, -1) == my_block)
        )

    def csr(self, round_no: int = 1):
        """The base CSR with the edges this round's churn state cuts masked out."""
        indptr, src = self.base.csr(round_no)
        detached, blocks = self._state(round_no)
        if not detached and blocks is None:
            return indptr, src
        import numpy as np

        n = self.n
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        cut = np.zeros(n, dtype=bool)
        cut[list(detached)] = True
        block = np.full(n, -1, dtype=np.int64)
        for pid, index in (blocks or {}).items():
            block[pid] = index
        live = (src == dst) | (~cut[src] & ~cut[dst] & (block[src] == block[dst]))
        return _indptr_of(np, np.bincount(dst[live], minlength=n)), src[live]

    def diameter(self) -> int:
        return self.base.diameter()

    def __repr__(self) -> str:
        return f"DynamicTopology({self.base!r}, events={len(self.schedule.events)})"


def round_edges(topology: Topology, round_no: int) -> Tuple[Tuple[int, ...], ...]:
    """The per-pid receiver sets of one round, as narrated/recorded.

    This is the exact value the engines hand to ``Observer.on_topology``
    and recorders attach to ``RoundHistory.edges`` — index p holds p's
    receivers (ascending, self included).  Static topologies hand out
    one memoized table, so per-round callers share it.
    """
    if isinstance(topology, _StaticTopology):
        return topology._receivers_table()
    return tuple(
        tuple(topology.receivers(pid, round_no)) for pid in range(topology.n)
    )
