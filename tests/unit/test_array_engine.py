"""The batched array engine against the reference engine, byte for byte.

Every scenario here runs through :func:`repro.array.conformance
.check_conformance`, which reconstructs a value-identical
``ExecutionHistory`` per lane from the array columns and compares
canonical digests against ``run_sync`` on the same (protocol, plan,
topology).  Eligibility failures must be loud ``ArrayEligibilityError``s,
never silent wrong answers.
"""

import pytest

from repro.array import (
    ArrayEligibilityError,
    as_array_protocol,
    assert_conformance,
    has_numpy,
    run_array,
)
from repro.core.canonical import CanonicalRunner
from repro.core.compiler import compile_protocol
from repro.core.rounds import RoundAgreementProtocol
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    GridTopology,
    RingTopology,
)
from repro.detectors.stack import DetectorStack
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.adversary import (
    ByzantineAdversary,
    FaultMode,
    RandomAdversary,
    RoundFaultPlan,
    ScriptedAdversary,
)
from repro.histories.history import CLOCK_KEY
from repro.sync.corruption import (
    ClockSkewCorruption,
    CorruptionPlan,
    ExplicitCorruption,
    RandomCorruption,
)

pytestmark = pytest.mark.skipif(not has_numpy(), reason="the array engine needs numpy")


def test_fault_free_complete_graph():
    assert_conformance(MinUnison(), n=6, rounds=8)


def test_ring_with_crashes_multi_lane():
    def crashy(seed):
        return lambda: FaultPlan(
            crashes={seed % 5: 2.0, (seed + 2) % 5: 4.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=5,
        rounds=10,
        plan_factories=[crashy(0), crashy(1), None],
        topology=RingTopology(5),
    )


def test_grid_omissions_and_mid_run_corruption():
    def plan():
        script = {
            2: RoundFaultPlan(send_omissions={1: frozenset({2, 5})}),
            3: RoundFaultPlan(receive_omissions={4: frozenset({0, 7})}),
            5: RoundFaultPlan(crashes={3: frozenset({0, 6})}),
        }
        return FaultPlan(
            omissions=ScriptedAdversary(3, script),
            initial_corruption=RandomCorruption(seed=11),
            mid_corruptions={6.0: ClockSkewCorruption({0: 9, 4: 2, 8: 5})},
        )

    assert_conformance(
        MinUnison(),
        n=9,
        rounds=12,
        plan_factories=[plan, plan],
        topology=GridTopology(3, 3),
    )


@pytest.mark.parametrize("mode", [FaultMode.CRASH, FaultMode.GENERAL_OMISSION])
def test_floodmin_compiled_random_adversary(mode):
    protocol = compile_protocol(FloodMinConsensus(f=2, proposals=[4, 1, 3, 2, 5, 0]))

    def plan():
        return FaultPlan(
            omissions=RandomAdversary(6, 2, mode=mode, rate=0.4, seed=7),
            initial_corruption=RandomCorruption(seed=3),
        )

    assert_conformance(
        protocol, n=6, rounds=8, plan_factories=[plan, plan]
    )


def test_ft_floodmin_crashes():
    protocol = CanonicalRunner(FloodMinConsensus(f=2, proposals=[4, 1, 3, 2, 5]))

    def plan():
        return FaultPlan(crashes={0: 1.0, 4: 2.0})

    assert_conformance(protocol, n=5, rounds=4, plan_factories=[plan])


def test_bounded_unison_conformance():
    def plan():
        return FaultPlan(initial_corruption=RandomCorruption(seed=2))

    assert_conformance(
        BoundedUnison(n=6), n=6, rounds=9, plan_factories=[plan]
    )


def test_churn_gauntlet_on_ring():
    churn = ChurnSchedule(
        (
            ChurnEvent(2, "leave", pids=(1,)),
            ChurnEvent(4, "partition", groups=(frozenset({0, 2, 3}),)),
            ChurnEvent(6, "heal"),
            ChurnEvent(7, "join", pids=(1,)),
        )
    )

    def plan():
        return FaultPlan(
            crashes={5: 3.0},
            churn=churn,
            initial_corruption=RandomCorruption(seed=9),
        )

    assert_conformance(
        MinUnison(),
        n=6,
        rounds=10,
        plan_factories=[plan, plan],
        topology=RingTopology(6),
    )


def test_round_agreement_fig1():
    def plan():
        return FaultPlan(
            omissions=RandomAdversary(
                5, 1, mode=FaultMode.SEND_OMISSION, rate=0.3, seed=13
            ),
            initial_corruption=RandomCorruption(seed=1),
        )

    assert_conformance(
        RoundAgreementProtocol(), n=5, rounds=8, plan_factories=[plan]
    )


# -- batched twins for PhaseQueen consensus and the detector stack -----------


def test_phase_queen_twin_conformance():
    def protocol():
        return CanonicalRunner(PhaseQueenConsensus(f=1, n=5, proposals=[1, 0, 1, 0, 1]))

    def plan(seed):
        return lambda: FaultPlan(
            crashes={seed % 5: 2.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        protocol(),
        n=5,
        rounds=6,
        plan_factories=[plan(0), plan(3), None],
        protocol_factory=protocol,
    )


def test_detector_stack_twin_conformance():
    def plan():
        return FaultPlan(
            crashes={1: 3.0},
            omissions=RandomAdversary(
                6, 1, mode=FaultMode.GENERAL_OMISSION, rate=0.3, seed=5
            ),
            initial_corruption=RandomCorruption(seed=4),
        )

    assert_conformance(
        DetectorStack(initial_timeout=1, max_timeout=4),
        n=6,
        rounds=12,
        plan_factories=[plan, plan],
    )


# -- the dense forgery path: Byzantine plans stay on the array engine --------


def test_scripted_forgeries_conform():
    def plan():
        return FaultPlan(
            omissions=ScriptedAdversary(
                1,
                {
                    2: RoundFaultPlan(
                        forgeries={0: {1: lambda payload: payload + 40, 3: lambda _: 0}}
                    ),
                    4: RoundFaultPlan(forgeries={0: {2: lambda payload: payload * 2}}),
                },
            ),
            initial_corruption=RandomCorruption(seed=6),
        )

    assert_conformance(
        MinUnison(), n=4, rounds=7, plan_factories=[plan, plan]
    )


def test_byzantine_adversary_conforms():
    def mutator(rng, payload):
        return (payload or 0) + rng.randrange(-3, 4)

    def plan(seed):
        return lambda: FaultPlan(
            omissions=ByzantineAdversary(5, 1, mutator, rate=0.6, seed=seed),
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=5,
        rounds=9,
        plan_factories=[plan(1), plan(8)],
        topology=RingTopology(5),
    )


def test_forged_detector_vectors_conform():
    def scramble(rng, payload):
        nums, statuses = payload
        forged = list(nums)
        forged[rng.randrange(len(forged))] = rng.randrange(0, 1 << 20)
        return (tuple(forged), statuses)

    def plan():
        return FaultPlan(omissions=ByzantineAdversary(5, 1, scramble, rate=0.5, seed=2))

    assert_conformance(
        DetectorStack(initial_timeout=1, max_timeout=4),
        n=5,
        rounds=10,
        plan_factories=[plan],
    )


# -- chunked execution: bounded-memory temporaries, identical digests --------


@pytest.mark.parametrize("chunk", [2, 5])
def test_chunked_conformance_on_ring(chunk):
    def plan(seed):
        return lambda: FaultPlan(
            crashes={seed % 6: 3.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=6,
        rounds=9,
        plan_factories=[plan(0), plan(4)],
        topology=RingTopology(6),
        chunk=chunk,
    )


# -- eligibility: loud refusals, never silent wrong answers ------------------


def test_unencodable_forged_patch_is_rejected():
    def plan():
        return FaultPlan(
            omissions=ScriptedAdversary(
                1,
                {2: RoundFaultPlan(forgeries={0: {1: lambda payload: 0.5}})},
            )
        )

    with pytest.raises(ArrayEligibilityError):
        run_array(MinUnison(), 4, 5, fault_plans=[plan()])


def test_shared_adversary_object_across_lanes_is_rejected():
    adversary = RandomAdversary(4, 1, mode=FaultMode.CRASH, seed=0)
    plans = [FaultPlan(omissions=adversary), FaultPlan(omissions=adversary)]
    with pytest.raises(ArrayEligibilityError):
        run_array(MinUnison(), 4, 5, fault_plans=plans)


def test_lanes_with_different_churn_are_rejected():
    churned = FaultPlan(churn=ChurnSchedule((ChurnEvent(2, "leave", pids=(1,)),)))
    with pytest.raises(ArrayEligibilityError):
        run_array(
            MinUnison(),
            4,
            5,
            fault_plans=[churned, None],
            topology=RingTopology(4),
        )


def test_protocol_without_batched_twin_is_rejected():
    class Custom(MinUnison):
        """A subclass may override update(); exact-type match must miss."""

    assert as_array_protocol(Custom()) is None
    with pytest.raises(ArrayEligibilityError):
        run_array(Custom(), 4, 5)


def test_measure_disagreement_matches_history_scan():
    plans = [
        FaultPlan(initial_corruption=RandomCorruption(seed=seed)) for seed in range(3)
    ]
    measured = run_array(
        MinUnison(),
        8,
        12,
        fault_plans=plans,
        topology=RingTopology(8),
        measure_disagreement=True,
    )
    recorded = run_array(
        MinUnison(),
        8,
        12,
        fault_plans=[
            FaultPlan(initial_corruption=RandomCorruption(seed=seed))
            for seed in range(3)
        ],
        topology=RingTopology(8),
        record_history=True,
    )
    for lane in range(3):
        last = 0
        for round_history in recorded.histories[lane]:
            clocks = {
                record.clock_before
                for record in round_history.records
                if record.clock_before is not None
            }
            if len(clocks) > 1:
                last = round_history.round_no
        assert (measured.last_disagreement[lane] or 0) == last


def test_grid_topology_shape():
    grid = GridTopology(3, 4)
    assert grid.n == 12
    assert grid.diameter() == 5
    # Interior process: 4 neighbors + self.
    assert set(grid.receivers(5)) == {1, 4, 5, 6, 9}
    # Corner: 2 neighbors + self.
    assert set(grid.receivers(0)) == {0, 1, 4}


# -- bulk lane corruption: read_lane / load_lane -----------------------------

CLOCK_TWINS = [MinUnison(), BoundedUnison(n=5)]

#: Cells the int64 clock columns cannot take, and why.
BAD_CELLS = {
    "bool-clock": {CLOCK_KEY: True},
    "extra-field": {CLOCK_KEY: 3, "stray": 1},
    "no-clock": {"stray": 1},
    "str-clock": {CLOCK_KEY: "7"},
    "beyond-int64": {CLOCK_KEY: 1 << 63},
}


def _outcome(call):
    try:
        call()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("sync", CLOCK_TWINS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("bad", sorted(BAD_CELLS))
def test_load_lane_fails_exactly_like_load_state(sync, bad):
    twin = as_array_protocol(sync)
    n = 5
    cells = {pid: {CLOCK_KEY: pid} for pid in range(n)}
    cells[2] = BAD_CELLS[bad]
    cells[4] = {CLOCK_KEY: False}  # a later offender must not be the one named

    def per_pid():
        state = twin.initial_states(n, 1)
        for pid in range(n):
            twin.load_state(state, 0, pid, cells[pid])

    def bulk():
        twin.load_lane(twin.initial_states(n, 1), 0, n, cells)

    expected = _outcome(per_pid)
    assert expected is not None
    assert _outcome(bulk) == expected
    if bad == "beyond-int64":
        assert expected[0] is OverflowError
    else:
        assert expected[0] is ArrayEligibilityError


@pytest.mark.parametrize("bad", ["bool-clock", "extra-field"])
def test_unencodable_corruption_is_refused_through_the_bulk_path(bad):
    plan = FaultPlan(initial_corruption=ExplicitCorruption({3: BAD_CELLS[bad]}))
    with pytest.raises(ArrayEligibilityError):
        run_array(
            MinUnison(), 6, 3, fault_plans=[plan], topology=RingTopology(6)
        )


def test_out_of_int64_corruption_overflows_on_the_numpy_plane():
    plan = FaultPlan(initial_corruption=ExplicitCorruption({1: {CLOCK_KEY: -(1 << 70)}}))
    with pytest.raises(OverflowError):
        run_array(MinUnison(), 4, 2, fault_plans=[plan])


@pytest.mark.parametrize("sync", CLOCK_TWINS, ids=lambda p: type(p).__name__)
def test_load_lane_never_revives_crashed_cells(sync):
    twin = as_array_protocol(sync)
    n = 5
    state = twin.initial_states(n, 2)
    for pid in range(n):
        twin.load_state(state, 1, pid, {CLOCK_KEY: 1})
    twin.load_lane(
        state, 1, n, {pid: {CLOCK_KEY: 3} for pid in range(n)}, crashed={0, 3}
    )
    assert [twin.read_state(state, 1, pid)[CLOCK_KEY] for pid in range(n)] == [
        1, 3, 3, 1, 3
    ]
    assert twin.read_state(state, 0, 2) == twin.read_state(
        twin.initial_states(n, 1), 0, 2
    )


class _Reviver(CorruptionPlan):
    """A buggy plan: hands every pid a state, crashed ones included."""

    def corrupt(self, protocol, states, n):
        assert [pid for pid in states if states[pid] is None] == [1]
        return {pid: {CLOCK_KEY: 40 + pid} for pid in range(n)}


def test_mid_run_corruption_cannot_revive_a_crashed_process():
    plan = FaultPlan(crashes={1: 1.0}, mid_corruptions={3.0: _Reviver()})
    result = run_array(
        MinUnison(), 5, 4, fault_plans=[plan], topology=RingTopology(5)
    )
    assert result.crashed[0] == frozenset({1})
    assert result.final_state(0, 1) is None
    assert result.final_state(0, 3) == {CLOCK_KEY: 42}  # min over {2, 3, 4} + 2


@pytest.mark.parametrize(
    "protocol",
    [
        MinUnison(),
        BoundedUnison(n=6),
        compile_protocol(FloodMinConsensus(f=1, proposals=[4, 1, 3, 2, 5, 0])),
    ],
    ids=["min-unison", "bounded-unison", "compiled-floodmin"],
)
def test_mid_run_corruption_after_crashes_conforms(protocol):
    def plan():
        return FaultPlan(
            crashes={2: 2.0, 5: 3.0},
            initial_corruption=RandomCorruption(seed=5),
            mid_corruptions={4.0: RandomCorruption(seed=9)},
        )

    assert_conformance(
        protocol,
        n=6,
        rounds=8,
        plan_factories=[plan, plan],
        topology=RingTopology(6),
    )
