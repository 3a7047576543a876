"""Property-based conformance: the batched engine IS the reference engine.

Hypothesis draws random (protocol, topology, fault plan, seeds)
scenarios — crashes, omission campaigns, initial and mid-run systemic
corruption, churn — and requires digest-identical histories, identical
faulty sets and identical final states between ``run_sync`` and
``run_array``.  This is the generative widening of the pinned scenarios
in ``tests/unit/test_array_engine.py``; the last property pins the
wire's reduction primitive itself against a per-receiver loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import assert_conformance, has_numpy, run_array
from repro.array.engine import RoundWire
from repro.array.protocols import BIG, SMALL
from repro.net.conformance import history_digest
from repro.core.compiler import compile_protocol
from repro.core.rounds import RoundAgreementProtocol
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    ExplicitTopology,
    GridTopology,
    RingTopology,
)
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import ClockSkewCorruption, RandomCorruption

pytestmark = pytest.mark.skipif(not has_numpy(), reason="the array engine needs numpy")

ROUNDS = 8


def _make_protocol(name, n):
    if name == "min-unison":
        return MinUnison()
    if name == "round-agreement":
        return RoundAgreementProtocol()
    if name == "bounded-unison":
        return BoundedUnison(n=n)
    return compile_protocol(
        FloodMinConsensus(f=1, proposals=[(3 * pid + 1) % 7 for pid in range(n)])
    )


def _make_topology(name, n):
    if name == "ring":
        return RingTopology(n)
    if name == "grid":
        return GridTopology(2, n // 2)
    return None  # complete graph


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    if n % 2:
        topology_name = draw(st.sampled_from(["complete", "ring"]))
    else:
        topology_name = draw(st.sampled_from(["complete", "ring", "grid"]))
    protocol_name = draw(
        st.sampled_from(
            ["min-unison", "round-agreement", "bounded-unison", "compiled-floodmin"]
        )
    )

    lanes = draw(st.integers(min_value=1, max_value=3))
    lane_specs = []
    churn_flag = draw(st.booleans()) and topology_name != "complete"
    for _ in range(lanes):
        crash_pids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), max_size=2, unique=True
            )
        )
        spec = {
            "crashes": {
                pid: float(draw(st.integers(min_value=1, max_value=ROUNDS)))
                for pid in crash_pids
            },
            "adversary": None,
            "corrupt_seed": draw(st.one_of(st.none(), st.integers(0, 50))),
            "skew_round": draw(st.one_of(st.none(), st.integers(2, ROUNDS - 1))),
            "skew_pid": draw(st.integers(0, n - 1)),
            "skew_value": draw(st.integers(-3, 12)),
        }
        if draw(st.booleans()):
            spec["adversary"] = (
                draw(st.integers(min_value=0, max_value=2)),  # f
                draw(
                    st.sampled_from(
                        [
                            FaultMode.CRASH,
                            FaultMode.SEND_OMISSION,
                            FaultMode.RECEIVE_OMISSION,
                            FaultMode.GENERAL_OMISSION,
                        ]
                    )
                ),
                draw(st.floats(min_value=0.0, max_value=0.5)),
                draw(st.integers(0, 100)),  # seed
            )
        lane_specs.append(spec)
    churn = None
    if churn_flag:
        leave_pid = draw(st.integers(0, n - 1))
        events = [ChurnEvent(2, "leave", pids=(leave_pid,))]
        if draw(st.booleans()):
            events.append(
                ChurnEvent(
                    4,
                    "partition",
                    groups=(frozenset(range(n // 2)),),
                )
            )
            events.append(ChurnEvent(6, "heal"))
        events.append(ChurnEvent(ROUNDS - 1, "join", pids=(leave_pid,)))
        churn = ChurnSchedule(tuple(events))
    return n, protocol_name, topology_name, tuple(lane_specs), churn


def _plan_factory(n, spec, churn):
    def make():
        adversary = None
        if spec["adversary"] is not None:
            f, mode, rate, seed = spec["adversary"]
            adversary = RandomAdversary(n, f, mode=mode, rate=rate, seed=seed)
        mid = {}
        if spec["skew_round"] is not None:
            mid[float(spec["skew_round"])] = ClockSkewCorruption(
                {spec["skew_pid"]: spec["skew_value"]}
            )
        return FaultPlan(
            crashes=dict(spec["crashes"]),
            omissions=adversary,
            initial_corruption=(
                RandomCorruption(seed=spec["corrupt_seed"])
                if spec["corrupt_seed"] is not None
                else None
            ),
            mid_corruptions=mid,
            churn=churn,
        )

    return make


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_random_scenarios_are_digest_identical(scenario):
    n, protocol_name, topology_name, lane_specs, churn = scenario
    assert_conformance(
        _make_protocol(protocol_name, n),
        n=n,
        rounds=ROUNDS,
        plan_factories=[_plan_factory(n, spec, churn) for spec in lane_specs],
        topology=_make_topology(topology_name, n),
    )


# -- chunk boundaries: bounded temporaries never change a digest -------------
#
# Explicit ``chunk=`` values are honored verbatim (no floor), so tiny
# chunks at property-test sizes force many boundary crossings per round
# — and the drawn crashes / mid-run corruption / churn epochs land on
# or next to those edges.  Conformance against ``run_sync`` pins the
# chunked run to the reference engine; the direct chunked-vs-unchunked
# digest comparison pins it to the unchunked batched run as well.


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios(), chunk=st.integers(min_value=1, max_value=40))
def test_chunked_random_scenarios_match_run_sync(scenario, chunk):
    n, protocol_name, topology_name, lane_specs, churn = scenario
    assert_conformance(
        _make_protocol(protocol_name, n),
        n=n,
        rounds=ROUNDS,
        plan_factories=[_plan_factory(n, spec, churn) for spec in lane_specs],
        topology=_make_topology(topology_name, n),
        chunk=chunk,
    )


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios(), chunk=st.integers(min_value=1, max_value=40))
def test_chunked_equals_unchunked_batched_run(scenario, chunk):
    n, protocol_name, topology_name, lane_specs, churn = scenario

    def batched(**kwargs):
        return run_array(
            _make_protocol(protocol_name, n),
            n,
            ROUNDS,
            fault_plans=[_plan_factory(n, spec, churn)() for spec in lane_specs],
            topology=_make_topology(topology_name, n),
            record_history=True,
            **kwargs,
        )

    plain = batched()
    chunked = batched(chunk=chunk)
    assert chunked.faulty == plain.faulty
    for lane in range(len(lane_specs)):
        assert history_digest(chunked.histories[lane]) == history_digest(
            plain.histories[lane]
        )
        assert chunked.final_states(lane) == plain.final_states(lane)


# -- the wire's reduction primitive, against a per-receiver loop -------------


@st.composite
def wires(draw):
    """A random wire: CSR over a random graph, or the complete-graph form."""
    import numpy as np

    n = draw(st.integers(min_value=1, max_value=12))
    lanes = draw(st.integers(min_value=1, max_value=3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    indptr, src = ExplicitTopology(n, edges).csr()
    values = np.array(
        draw(st.lists(st.integers(-50, 50), min_size=lanes * n, max_size=lanes * n)),
        dtype=np.int64,
    ).reshape(lanes, n)
    complete = draw(st.booleans())
    masked = draw(st.booleans())
    width = n if complete else int(indptr[-1])
    mask = None
    if masked:
        cells = draw(
            st.lists(st.booleans(), min_size=lanes * width, max_size=lanes * width)
        )
        mask = np.array(cells, dtype=bool).reshape(lanes, width)
    return n, lanes, indptr, src, values, complete, mask


def _wire(n, lanes, indptr, src, complete, mask, chunk):
    wire = RoundWire(lanes, n, chunk)
    if complete:
        wire.complete_fast = True
        wire.send_ok = mask
    else:
        wire.src, wire.indptr, wire.keep = src, indptr, mask
    return wire


@settings(max_examples=200, deadline=None)
@given(
    drawn=wires(),
    lowest=st.booleans(),
    chunk=st.integers(min_value=1, max_value=40),
)
def test_wire_reduce_chunked_equals_unchunked_equals_loop(drawn, lowest, chunk):
    import numpy as np

    n, lanes, indptr, src, values, complete, mask = drawn
    op, identity, best = (
        (np.minimum, BIG, min) if lowest else (np.maximum, SMALL, max)
    )
    expected = []
    for lane in range(lanes):
        row = []
        for p in range(n):
            if complete:
                senders = [(q, q) for q in range(n)]  # (sender, mask column)
            else:
                senders = [(int(src[e]), e) for e in range(indptr[p], indptr[p + 1])]
            acc = identity
            for q, column in senders:
                if mask is None or mask[lane, column]:
                    acc = best(acc, int(values[lane, q]))
            row.append(acc)
        expected.append(row)

    plain = _wire(n, lanes, indptr, src, complete, mask, None)
    chunked = _wire(n, lanes, indptr, src, complete, mask, chunk)
    unchunked_out = plain.reduce(values, op, identity)
    chunked_out = chunked.reduce(values, op, identity)
    assert unchunked_out.shape == chunked_out.shape == (lanes, n)
    assert unchunked_out.tolist() == expected
    assert chunked_out.tolist() == expected
