"""The benchmark's four workloads.

Each workload builds its inputs from the ``--seed`` alone and hands the
program only those inputs.  Its amount of work is fixed by ``(seed,
seconds)``: ``seconds`` sets how many operations run, at the per-
operation times measured on a 2-core x86-64 box, so a traced and an
untraced run of the same seed do identical work and must produce the
same output digest.

Life cycle: ``setup()`` (repeatable; the runner times several calls),
``measure()`` (the timed phase; returns a :class:`Measured`),
``check(measured)`` (untimed output checks; returns failure messages),
``close()``.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

import repro.cache
import repro.verify
from repro.array import check_conformance, run_array
from repro.core.compiler import compile_protocol
from repro.core.problems import RepeatedConsensusProblem
from repro.core.solvability import ftss_check
from repro.experiments import fig1
from repro.experiments.base import run_sweep
from repro.explore import explore
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import GridTopology, RingTopology
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.unison import MinUnison
from repro.serve import ServeClient, ServerThread
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync


@dataclass
class Measured:
    """What one timed phase produced."""

    #: Wall seconds of each operation, per window of the run, in issue
    #: order.  Latency percentiles are taken per window and their
    #: median reported, so one stalled window cannot set the figure.
    windows: List[List[float]]
    #: Units of work completed (see each workload's ``work_unit``).
    work: int
    #: Per-operation outputs; checked by ``check`` and digested.
    outputs: List[Any]

    @property
    def operations(self) -> int:
        return sum(len(window) for window in self.windows)

    def latency_ms(self, fraction: float) -> float:
        """Median over windows of each window's ``fraction`` percentile."""
        return statistics.median(percentile(w, fraction) for w in self.windows) * 1e3

    def digest(self) -> str:
        return digest_of(self.outputs)


def canonical(value: Any) -> str:
    """A text form that does not depend on set or dict iteration order."""
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(canonical(item) for item in value) + ")"
    return repr(value)


def digest_of(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def _ops(seconds: int, op_seconds: float) -> int:
    return max(1, round(seconds / op_seconds))


class Workload:
    name = ""
    #: What one unit of ``Measured.work`` is.
    work_unit = ""

    def __init__(self, seed: int, seconds: int, scratch: Path):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Measured:
        raise NotImplementedError

    def check(self, measured: Measured) -> List[str]:
        """Failure messages from the output checks (untimed)."""
        raise NotImplementedError

    def checks(self, measured: Measured) -> int:
        """How many output checks ``check`` made."""
        return len(measured.outputs)

    def close(self) -> None:
        # Flush and detach the process-wide cache before the runner
        # removes the scratch directory, so nothing is written at exit.
        repro.cache.configure(root=self.scratch / "unused-cache", enabled=False)


# ---------------------------------------------------------------------------
# sync-sweep: recorded compiled FloodMin runs through run_sweep
# ---------------------------------------------------------------------------

SYNC_N, SYNC_F, SYNC_ROUNDS = 32, 5, 60
#: Runs per ``run_sweep`` call; each call's runs form one latency window.
SYNC_RUNS_PER_BATCH = 8
SYNC_BATCH_S = 1.7

SyncTask = Tuple[Tuple[int, ...], int, int]


def floodmin_run(task: SyncTask) -> Tuple[bool, str]:
    """One recorded Fig 3 Π⁺ run of FloodMin, judged by ``ftss_check``."""
    proposals, adversary_seed, corruption_seed = task
    pi = FloodMinConsensus(f=SYNC_F, proposals=list(proposals))
    sigma = RepeatedConsensusProblem(pi.final_round, valid_proposals=frozenset(proposals))
    result = run_sync(
        compile_protocol(pi),
        n=SYNC_N,
        rounds=SYNC_ROUNDS,
        adversary=RandomAdversary(
            n=SYNC_N,
            f=SYNC_F,
            mode=FaultMode.GENERAL_OMISSION,
            rate=0.2,
            seed=adversary_seed,
        ),
        corruption=RandomCorruption(seed=corruption_seed),
    )
    holds = ftss_check(result.history, sigma, pi.final_round).holds
    return holds, digest_of((result.final_states, result.faulty))


class SyncSweep(Workload):
    name = "sync-sweep"
    work_unit = "process-rounds"

    def setup(self) -> None:
        repro.cache.configure(root=self.scratch / "unused-cache", enabled=False)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.batches = [
            [
                (
                    tuple(rng.randrange(1000) for _ in range(SYNC_N)),
                    rng.getrandbits(62),
                    rng.getrandbits(62),
                )
                for _ in range(SYNC_RUNS_PER_BATCH)
            ]
            for _ in range(_ops(self.seconds, SYNC_BATCH_S))
        ]

    def measure(self) -> Measured:
        windows, outputs = [], []
        for batch in self.batches:
            stamps = [time.perf_counter()]
            outputs.extend(
                run_sweep(
                    floodmin_run,
                    batch,
                    jobs=1,
                    on_outcome=lambda *_: stamps.append(time.perf_counter()),
                )
            )
            windows.append([end - start for start, end in zip(stamps, stamps[1:])])
        work = len(outputs) * SYNC_N * SYNC_ROUNDS
        return Measured(windows, work, outputs)

    def check(self, measured: Measured) -> List[str]:
        return [
            f"run {index}: ftss_check does not hold"
            for index, (holds, _digest) in enumerate(measured.outputs)
            if not holds
        ]


# ---------------------------------------------------------------------------
# explore-verify: EXPLORE over five targets, then VERIFY fig1, cold cache
# ---------------------------------------------------------------------------

#: (target, budget, violations expected)
EXPLORATIONS = (
    ("fig1", 2000, False),
    ("fig3", 1000, False),
    ("fig4", 60, False),
    ("thm1", 200, True),
    ("thm2", 200, True),
)
EXPLORE_UNIT_S = 12.0


class ExploreVerify(Workload):
    name = "explore-verify"
    work_unit = "specs and plans examined"

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.unit_seeds = [
            rng.getrandbits(31) for _ in range(_ops(self.seconds, EXPLORE_UNIT_S))
        ]
        self.cache_dirs = [self.fresh_dir("explore-cache-") for _ in self.unit_seeds]

    def measure(self) -> Measured:
        windows, outputs, work = [], [], 0
        for unit_seed, cache_dir in zip(self.unit_seeds, self.cache_dirs):
            repro.cache.configure(root=cache_dir, enabled=True)
            latencies = []
            windows.append(latencies)
            for target, budget, _expected in EXPLORATIONS:
                start = time.perf_counter()
                result = explore(target, budget=budget, seed=unit_seed, jobs=1)
                latencies.append(time.perf_counter() - start)
                work += result.examined
                outputs.append(
                    (
                        target,
                        result.exhaustive,
                        result.examined,
                        len(result.flagged),
                        [
                            (
                                finding.minimal.to_jsonable(),
                                finding.shrink_oracle_calls,
                            )
                            for finding in result.findings
                        ],
                        len(result.mismatches),
                    )
                )
            start = time.perf_counter()
            proof = repro.verify.verify("fig1", jobs=1)
            repro.cache.flush()
            latencies.append(time.perf_counter() - start)
            work += proof.examined
            outputs.append(
                (
                    "verify:fig1",
                    proof.verdict,
                    proof.examined,
                    proof.violating,
                    proof.frontier.digest,
                    len(proof.mismatches),
                )
            )
        return Measured(windows, work, outputs)

    def check(self, measured: Measured) -> List[str]:
        expected = {target: want for target, _budget, want in EXPLORATIONS}
        failures = []
        for output in measured.outputs:
            if output[0] == "verify:fig1":
                _name, verdict, examined, violating, _digest, mismatches = output
                if verdict != "proved" or violating or mismatches or not examined:
                    failures.append(
                        f"verify fig1: {verdict}, {violating} violating, "
                        f"{mismatches} mismatches over {examined} plans"
                    )
                continue
            target, exhaustive, _examined, _flagged, findings, mismatches = output
            if mismatches:
                failures.append(f"{target}: {mismatches} streaming/confirm mismatches")
            if expected[target]:
                if not exhaustive:
                    failures.append(f"{target}: space not exhausted")
                if not any(calls > 0 for _spec, calls in findings):
                    failures.append(f"{target}: no confirmed, shrunk violation")
            elif findings:
                failures.append(f"{target}: {len(findings)} confirmed violations")
        return failures


# ---------------------------------------------------------------------------
# array-unison: MinUnison on the NumPy plane, ring 10^6 and grid 256x256
# ---------------------------------------------------------------------------

RING_N, RING_LANES, RING_ROUNDS = 1_000_000, 2, 20
GRID_SIDE, GRID_LANES = 256, 4
ARRAY_UNIT_S = 7.5
CONFORMANCE_N, CONFORMANCE_ROUNDS = 12, 10


def _corrupted(seed: int) -> FaultPlan:
    return FaultPlan(initial_corruption=RandomCorruption(seed=seed))


class ArrayUnison(Workload):
    name = "array-unison"
    work_unit = "process-round-lanes"

    def setup(self) -> None:
        repro.cache.configure(root=self.scratch / "unused-cache", enabled=False)
        self.ring = self.grid = None  # free the previous set-up's topologies first
        rng = random.Random(f"{self.name}:{self.seed}")
        self.ring = RingTopology(RING_N)
        self.grid = GridTopology(GRID_SIDE, GRID_SIDE)
        self.diameter = self.grid.diameter()
        self.units = [
            (
                [rng.getrandbits(62) for _ in range(RING_LANES)],
                [rng.getrandbits(62) for _ in range(GRID_LANES)],
            )
            for _ in range(_ops(self.seconds, ARRAY_UNIT_S))
        ]
        seeds = [rng.getrandbits(62) for _ in range(2)]
        self.conformance = check_conformance(
            MinUnison(),
            CONFORMANCE_N,
            CONFORMANCE_ROUNDS,
            plan_factories=[lambda s=s: _corrupted(s) for s in seeds],
            topology=RingTopology(CONFORMANCE_N),
        )

    def measure(self) -> Measured:
        windows, outputs, work = [], [], 0
        grid_n = GRID_SIDE * GRID_SIDE
        grid_rounds = self.diameter + 10
        for ring_seeds, grid_seeds in self.units:
            latencies = []
            windows.append(latencies)
            start = time.perf_counter()
            ring = run_array(
                MinUnison(),
                RING_N,
                RING_ROUNDS,
                fault_plans=[_corrupted(s) for s in ring_seeds],
                topology=self.ring,
            )
            latencies.append(time.perf_counter() - start)
            spreads = [ring.clock_spread(lane) for lane in range(RING_LANES)]
            del ring
            start = time.perf_counter()
            grid = run_array(
                MinUnison(),
                grid_n,
                grid_rounds,
                fault_plans=[_corrupted(s) for s in grid_seeds],
                topology=self.grid,
                measure_disagreement=True,
            )
            latencies.append(time.perf_counter() - start)
            outputs.append(("ring", spreads))
            outputs.append(("grid", list(grid.last_disagreement)))
            del grid
            work += RING_N * RING_ROUNDS * RING_LANES + grid_n * grid_rounds * GRID_LANES
        return Measured(windows, work, outputs)

    def check(self, measured: Measured) -> List[str]:
        failures = []
        if not self.conformance.ok:
            failures.append("run_array digests differ from run_sync at small n")
        for kind, values in measured.outputs:
            if kind == "ring" and any(spread is None for spread in values):
                failures.append("ring: a lane has no live process")
            if kind == "grid":
                late = [last for last in values if (last or 0) > self.diameter]
                if late:
                    failures.append(
                        f"grid: disagreement at rounds {late} > diameter {self.diameter}"
                    )
        return failures

    def checks(self, measured: Measured) -> int:
        return 1 + len(measured.outputs)

    def close(self) -> None:
        self.ring = self.grid = None
        super().close()


# ---------------------------------------------------------------------------
# serve-mix: closed-loop FIG1 sweeps against a ServerThread
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 2
#: Requests per second of ``--seconds``: 10 000 at 25 s, about 16 s of
#: traffic at the 2-core box's ~640 requests/s, leaving time for the
#: output check.
SERVE_REQUESTS_PER_S = 400
SERVE_POINT = (6, 1)
SERVE_PREFILL = 64
SERVE_SEEDS_PER_REQUEST = 2
SERVE_MISS_SHARE = 0.1
#: Latency windows per run: 2000 requests each at 25 s, so a window's
#: 99th percentile has twenty samples beyond it.
SERVE_WINDOWS = 5


class ServeMix(Workload):
    name = "serve-mix"
    work_unit = "requests"

    def __init__(self, seed: int, seconds: int, scratch: Path):
        super().__init__(seed, seconds, scratch)
        self.server: Optional[ServerThread] = None

    def setup(self) -> None:
        self._stop_server()
        rng = random.Random(f"{self.name}:{self.seed}")
        count = SERVE_REQUESTS_PER_S * self.seconds
        seeds = rng.sample(range(1 << 30), SERVE_PREFILL + SERVE_SEEDS_PER_REQUEST * count)
        self.prefill, fresh = seeds[:SERVE_PREFILL], iter(seeds[SERVE_PREFILL:])
        self.requests: List[Tuple[int, ...]] = []
        for _ in range(count):
            if rng.random() < SERVE_MISS_SHARE:
                chosen = [next(fresh) for _ in range(SERVE_SEEDS_PER_REQUEST)]
            else:
                chosen = rng.sample(self.prefill, SERVE_SEEDS_PER_REQUEST)
            self.requests.append(tuple(chosen))
        repro.cache.configure(root=self.fresh_dir("serve-cache-"), enabled=True)
        self.server = ServerThread(fleet_kind="inproc", workers=2).start()
        summary = ServeClient(self.server.url).sweep(
            "FIG1", points=[SERVE_POINT], seeds=self.prefill
        )
        if not summary.ok:
            raise RuntimeError(f"serve-mix prefill failed: {summary.end}")

    def measure(self) -> Measured:
        count = len(self.requests)
        latencies: List[float] = [0.0] * count
        outcomes: List[Any] = [None] * count
        url = self.server.url

        def client_loop(first: int) -> None:
            client = ServeClient(url)
            for index in range(first, count, SERVE_CLIENTS):
                start = time.perf_counter()
                try:
                    summary = client.sweep(
                        "FIG1", points=[SERVE_POINT], seeds=list(self.requests[index])
                    )
                except Exception as error:  # a failed request, counted by check()
                    outcomes[index] = ("error", repr(error))
                else:
                    outcomes[index] = (
                        ("ok", summary.outcomes) if summary.ok else ("bad-end", summary.end)
                    )
                latencies[index] = time.perf_counter() - start

        threads = [
            threading.Thread(target=client_loop, args=(k,), name=f"client-{k}")
            for k in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        completed = sum(1 for out in outcomes if out is not None and out[0] == "ok")
        size = math.ceil(count / SERVE_WINDOWS)
        windows = [latencies[i : i + size] for i in range(0, count, size)]
        return Measured(windows, completed, outcomes)

    def check(self, measured: Measured) -> List[str]:
        seeds = sorted({seed for request in self.requests for seed in request})
        local = run_sweep(
            fig1._measure, [(*SERVE_POINT, seed) for seed in seeds], jobs=1
        )
        expected = dict(zip(seeds, local))
        failures = []
        for index, (request, outcome) in enumerate(zip(self.requests, measured.outputs)):
            if outcome is None or outcome[0] != "ok":
                failures.append(f"request {index}: {outcome}")
            elif outcome[1] != [expected[seed] for seed in request]:
                failures.append(f"request {index}: outcomes differ from a local run_sweep")
        return failures

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self._stop_server()
        super().close()


WORKLOADS = {
    workload.name: workload
    for workload in (SyncSweep, ExploreVerify, ArrayUnison, ServeMix)
}


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile within the sample's range."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
