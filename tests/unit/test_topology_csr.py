"""``Topology.csr()`` is the receivers table in the batched engine's form.

Flattening ``csr(round_no)`` segment by segment must give exactly
``round_edges(topology, round_no)`` for every family — the closed-form
ring/grid/complete builders, the edge-list builder behind trees, random
graphs and explicit graphs, and the churn mask of a dynamic topology.
The batched engine relies on that equality to skip the receivers table
altogether on fault-free csr runs.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    CompleteTopology,
    DynamicTopology,
    ExplicitTopology,
    GridTopology,
    RandomTopology,
    RingTopology,
    TreeTopology,
    round_edges,
)


def _flatten(topology, round_no=1):
    indptr, src = topology.csr(round_no)
    assert indptr.dtype.name == src.dtype.name == "int64"
    assert int(indptr[0]) == 0 and int(indptr[-1]) == len(src)
    return tuple(
        tuple(int(q) for q in src[indptr[p] : indptr[p + 1]])
        for p in range(topology.n)
    )


STATIC = [
    RingTopology(2),
    RingTopology(3),
    RingTopology(4),
    RingTopology(11),
    GridTopology(1, 1),
    GridTopology(1, 5),
    GridTopology(5, 1),
    GridTopology(3, 4),
    GridTopology(4, 3),
    TreeTopology(1),
    TreeTopology(9),
    TreeTopology(10, arity=3),
    TreeTopology(6, arity=1),
    RandomTopology(12, p=0.25, seed=3),
    RandomTopology(7, p=0.0, seed=1),
    ExplicitTopology(5, [(0, 1), (1, 0), (2, 2), (3, 4), (4, 3)]),
    ExplicitTopology(4, []),
    CompleteTopology(1),
    CompleteTopology(5),
]


class TestStaticFamilies:
    @pytest.mark.parametrize("topology", STATIC, ids=repr)
    def test_flattened_csr_is_round_edges(self, topology):
        pytest.importorskip("numpy")
        assert _flatten(topology) == round_edges(topology, 1)

    @pytest.mark.parametrize("topology", STATIC, ids=repr)
    def test_csr_is_memoized(self, topology):
        pytest.importorskip("numpy")
        assert topology.csr() is topology.csr(7)

    @pytest.mark.parametrize(
        "topology, edges",
        [
            (RingTopology(2), [(0, 1)]),
            (RingTopology(3), [(p, (p + 1) % 3) for p in range(3)]),
            (RingTopology(9), [(p, (p + 1) % 9) for p in range(9)]),
            (GridTopology(1, 4), [(0, 1), (1, 2), (2, 3)]),
            (GridTopology(3, 1), [(0, 1), (1, 2)]),
            (GridTopology(2, 3), [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),
        ],
        ids=lambda value: repr(value) if not isinstance(value, list) else "",
    )
    def test_arithmetic_receivers_match_the_edge_list(self, topology, edges):
        explicit = ExplicitTopology(topology.n, edges)
        for pid in range(topology.n):
            assert tuple(topology.receivers(pid)) == explicit.receivers(pid)
        assert round_edges(topology, 1) == round_edges(explicit, 1)

    def test_static_round_edges_is_one_shared_table(self):
        ring = RingTopology(6)
        assert round_edges(ring, 1) is round_edges(ring, 9)

    def test_ring_receivers_table_is_lazy(self):
        ring = RingTopology(10**6)  # would take seconds with an eager table
        assert ring.receivers(0) == (0, 1, 10**6 - 1)
        assert ring.receivers(10**6 - 1) == (0, 10**6 - 2, 10**6 - 1)
        assert ring.diameter() == 500_000


class TestRingDiameter:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_closed_form_matches_bfs(self, n):
        bfs = ExplicitTopology(n, [(p, (p + 1) % n) for p in range(n)]).diameter()
        assert RingTopology(n).diameter() == n // 2 == bfs


def _churn(*events):
    return ChurnSchedule(tuple(events))


DYNAMIC = [
    (
        RingTopology(8),
        _churn(
            ChurnEvent(2, "leave", pids=(1, 3)),
            ChurnEvent(3, "partition", groups=(frozenset({0, 1, 2}), frozenset({4, 5}))),
            ChurnEvent(5, "join", pids=(1,)),
            ChurnEvent(6, "heal"),
        ),
    ),
    (
        GridTopology(3, 3),
        _churn(
            ChurnEvent(2, "partition", groups=(frozenset({0, 1, 3, 4}),)),
            ChurnEvent(3, "leave", pids=(4,)),
            ChurnEvent(4, "heal"),
            ChurnEvent(5, "join", pids=(4,)),
        ),
    ),
    (
        CompleteTopology(6),
        _churn(
            ChurnEvent(1, "leave", pids=(0,)),
            ChurnEvent(3, "partition", groups=(frozenset({1, 2}), frozenset({3, 4, 5}))),
            ChurnEvent(4, "heal"),
        ),
    ),
]


class TestDynamic:
    @pytest.mark.parametrize("base, schedule", DYNAMIC, ids=["ring", "grid", "complete"])
    def test_masked_csr_is_round_edges_every_round(self, base, schedule):
        pytest.importorskip("numpy")
        topology = DynamicTopology(base, schedule)
        for round_no in range(1, schedule.last_round + 3):
            assert _flatten(topology, round_no) == round_edges(topology, round_no)


@settings(max_examples=60, deadline=None)
@given(
    data=st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=3 * n,
            ),
        )
    )
)
def test_explicit_csr_is_round_edges(data):
    pytest.importorskip("numpy")
    n, edges = data
    topology = ExplicitTopology(n, edges)
    assert _flatten(topology) == round_edges(topology, 1)


# ---------------------------------------------------------------------------
# What the batched engine and the kernel must not pay for
# ---------------------------------------------------------------------------


def _forbid_round_edges(monkeypatch):
    import repro.array.engine
    import repro.kernel.topology

    def forbidden(topology, round_no):
        raise AssertionError("round_edges called on a fault-free csr run")

    monkeypatch.setattr(repro.kernel.topology, "round_edges", forbidden)
    monkeypatch.setattr(repro.array.engine, "round_edges", forbidden)


@pytest.mark.parametrize(
    "topology, plan_kwargs",
    [
        (RingTopology(40), {}),
        (GridTopology(5, 6), {}),
        (
            RingTopology(12),
            {
                "churn": _churn(
                    ChurnEvent(2, "leave", pids=(3,)),
                    ChurnEvent(3, "partition", groups=(frozenset(range(6)),)),
                    ChurnEvent(5, "heal"),
                )
            },
        ),
    ],
    ids=["ring", "grid", "ring-churn"],
)
def test_fault_free_csr_run_never_builds_the_receivers_table(
    monkeypatch, topology, plan_kwargs
):
    pytest.importorskip("numpy")
    from repro.array import run_array
    from repro.kernel.faults import FaultPlan
    from repro.protocols.unison import MinUnison
    from repro.sync.corruption import RandomCorruption

    _forbid_round_edges(monkeypatch)
    plans = [
        FaultPlan(initial_corruption=RandomCorruption(seed=seed), **plan_kwargs)
        for seed in (1, 2)
    ]
    result = run_array(
        MinUnison(), topology.n, 8, fault_plans=plans, topology=topology, backend="numpy"
    )
    assert result.clock_spread(0) is not None


def test_kernel_imports_without_numpy():
    src = str(pathlib.Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, repro.kernel; sys.exit('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0, "importing repro.kernel pulled in numpy"
