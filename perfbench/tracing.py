"""Outside-in tracing: wrap the public functions of each layer in spans.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces
each layer's public entry points with wrappers -- in every loaded
``repro`` module that holds a reference to the original, so ``from x
import f`` bindings are covered too -- and each wrapper records one
span per call on a per-thread stack.

A span's self time is its duration minus the durations of the spans
opened inside it.  A call that re-enters the span name already on top
of the stack (a compiled protocol delegating to its inner protocol's
``update``) joins that span instead of opening a nested one, so call
counts count transitions, not delegation hops.

Per-name totals are aggregated online; the first ``KEEP_SPANS`` spans
are also kept as ``(id, parent, name, start, end, thread)`` rows and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics, in report order: ``(name, unit, better, what it
#: is, which end-to-end metric it should move, on which workload)``.
#: ``*_s`` metrics are self times summed over the traced run.
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    (
        "protocol.update_s", "s", "lower", "protocol instance update()",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "protocol.update_calls", "count", "lower", "protocol update() calls",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "protocol.send_s", "s", "lower", "protocol instance send()",
        "work_rate on sync-sweep and explore-verify",
    ),
    ("sync.run_self_s", "s", "lower", "run_sync self time", "work_rate on sync-sweep"),
    ("sync.runs", "count", "lower", "run_sync calls", "work_rate on sync-sweep"),
    ("sync.rounds", "count", "lower", "rounds executed by run_sync", "work_rate on sync-sweep"),
    (
        "histories.message_s", "s", "lower", "Message construction in repro.sync.engine",
        "work_rate on sync-sweep",
    ),
    (
        "histories.messages", "count", "lower", "Messages constructed in repro.sync.engine",
        "work_rate on sync-sweep",
    ),
    (
        "kernel.snapshot_s", "s", "lower", "snapshot_states",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "kernel.snapshot_calls", "count", "lower", "snapshot_states calls",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "kernel.copy_payload_s", "s", "lower", "copy_payload",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "kernel.copy_payload_calls", "count", "lower", "copy_payload calls",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "kernel.record_s", "s", "lower", "HistoryRecorder hooks and history()",
        "work_rate and peak_rss_mb on sync-sweep",
    ),
    (
        "kernel.record_calls", "count", "lower", "HistoryRecorder hook calls",
        "work_rate and peak_rss_mb on sync-sweep",
    ),
    (
        "kernel.fault_plan_s", "s", "lower", "FaultPlan.to_sync, Adversary.plan_round/validate",
        "work_rate on sync-sweep",
    ),
    (
        "kernel.topology_s", "s", "lower", "round_edges",
        "work_rate on array-unison (zero on sync-sweep)",
    ),
    (
        "kernel.round_edges_calls", "count", "lower", "round_edges calls",
        "work_rate on array-unison (zero on sync-sweep)",
    ),
    ("asyncnet.run_s", "s", "lower", "AsyncScheduler.run self time", "work_rate on explore-verify"),
    (
        "core.check_s", "s", "lower", "ftss_check, check_definition",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "core.check_calls", "count", "lower", "ftss_check/check_definition calls",
        "work_rate on sync-sweep and explore-verify",
    ),
    (
        "explore.generate_s", "s", "lower", "PlanSpace enumerate/sample iteration",
        "work_rate on explore-verify",
    ),
    ("explore.dedupe_s", "s", "lower", "dedupe", "work_rate on explore-verify"),
    (
        "explore.dedupe_ratio", "ratio", "higher", "specs deduplicated away / generated",
        "work_rate on explore-verify",
    ),
    (
        "explore.streaming_s", "s", "lower", "target streaming checker",
        "work_rate on explore-verify",
    ),
    (
        "explore.streaming_calls", "count", "lower", "streaming checker calls",
        "work_rate on explore-verify",
    ),
    ("explore.confirm_s", "s", "lower", "target confirm checker", "work_rate on explore-verify"),
    (
        "explore.confirm_calls", "count", "lower", "confirm checker calls",
        "work_rate on explore-verify",
    ),
    (
        "explore.confirmed_ratio", "ratio", "higher", "confirmed violations / flagged specs",
        "work_rate on explore-verify",
    ),
    ("explore.shrink_s", "s", "lower", "shrink self time", "work_rate on explore-verify"),
    (
        "explore.shrink_oracle_calls", "count", "lower", "shrink oracle calls",
        "work_rate on explore-verify",
    ),
    ("verify.run_self_s", "s", "lower", "verify() self time", "work_rate on explore-verify"),
    (
        "verify.states_visited", "count", "lower", "frontier states visited",
        "work_rate on explore-verify",
    ),
    (
        "verify.dedup_hit_ratio", "ratio", "higher", "frontier dedup hits / states visited",
        "work_rate on explore-verify",
    ),
    (
        "array.run_self_s", "s", "lower", "run_array self time (CSR, wire, lane control plane)",
        "work_rate and peak_rss_mb on array-unison",
    ),
    ("array.step_s", "s", "lower", "ArrayProtocol.step", "work_rate on array-unison"),
    ("array.step_calls", "count", "lower", "ArrayProtocol.step calls", "work_rate on array-unison"),
    (
        "array.corrupt_s", "s", "lower", "CorruptionPlan.corrupt and load_state under run_array",
        "work_rate on array-unison",
    ),
    (
        "cache.key_s", "s", "lower", "RunCache.key",
        "work_rate on explore-verify; latency_p50_ms on serve-mix",
    ),
    (
        "cache.keys", "count", "lower", "RunCache.key calls",
        "work_rate on explore-verify; latency_p50_ms on serve-mix",
    ),
    ("cache.get_s", "s", "lower", "RunCache.get", "latency_p50_ms and latency_p99_ms on serve-mix"),
    (
        "cache.gets", "count", "lower", "RunCache.get calls",
        "latency_p50_ms and latency_p99_ms on serve-mix",
    ),
    (
        "cache.hit_ratio", "ratio", "higher", "RunCache.get hits / gets",
        "latency_p50_ms and latency_p99_ms on serve-mix",
    ),
    (
        "cache.put_s", "s", "lower", "RunCache.put",
        "work_rate on explore-verify and serve-mix",
    ),
    (
        "cache.puts", "count", "lower", "RunCache.put calls",
        "work_rate on explore-verify and serve-mix",
    ),
    (
        "cache.flush_s", "s", "lower", "RunCache.flush",
        "work_rate on explore-verify and serve-mix",
    ),
    (
        "cache.flushes", "count", "lower", "RunCache.flush calls",
        "work_rate on explore-verify and serve-mix",
    ),
    (
        "cache.bytes_written", "count", "lower", "entry bytes stored by RunCache.put",
        "work_rate on explore-verify",
    ),
    ("sweep.run_self_s", "s", "lower", "run_sweep self time", "work_rate on every workload"),
    (
        "serve.fleet_wait_s", "s", "lower", "WorkerFleet.submit to execute_tasks start, summed",
        "latency_p99_ms on serve-mix",
    ),
    (
        "serve.execute_s", "s", "lower", "execute_tasks self time",
        "latency_p50_ms and latency_p99_ms on serve-mix",
    ),
    (
        "serve.shards", "count", "lower", "shards submitted to the fleet",
        "latency_p99_ms on serve-mix",
    ),
    (
        "codec.encode_s", "s", "lower", "encode_frame, encode_stream_line",
        "latency_p50_ms on serve-mix",
    ),
    (
        "codec.decode_s", "s", "lower", "FrameDecoder.feed, decode_stream_line",
        "latency_p50_ms on serve-mix",
    ),
    (
        "trace.overhead_s", "s", "lower", "traced wall minus untraced wall of the measured phase",
        "none: cost of tracing",
    ),
    (
        "trace.overhead_ratio", "ratio", "lower", "trace.overhead_s / untraced wall",
        "none: cost of tracing",
    ),
    ("trace.spans", "count", "lower", "spans recorded", "none: cost of tracing"),
)


class _ThreadState:
    __slots__ = ("stack", "table", "counts", "name")

    def __init__(self) -> None:
        #: Open spans: ``[name, child_seconds, span_id]``.
        self.stack: List[list] = []
        #: ``name -> [calls, total_seconds, self_seconds]``.
        self.table: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.name = threading.current_thread().name


#: Spans kept individually for the trace file; totals cover every span.
KEEP_SPANS = 100_000


class Tracer:
    """Span recorder with per-thread stacks and online aggregation."""

    def __init__(self) -> None:
        #: Cleared after the measured phase, so output checks run unwrapped.
        self.active = True
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending_shards: Dict[int, Tuple[Any, float]] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        skip_under: Optional[str] = None,
        only_under: Optional[str] = None,
    ) -> Callable:
        """``fn`` with each call recorded as a span called ``name``.

        ``after(result, *args)`` runs after each traced call.  The span
        is skipped (a plain call) inside an open ``skip_under`` span, or
        outside any open ``only_under`` span.
        """
        state_of = self._state
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if skip_under is not None and any(f[0] == skip_under for f in stack):
                return fn(*args, **kwargs)
            if only_under is not None and not any(f[0] == only_under for f in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                row = state.table.get(name)
                if row is None:
                    row = state.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[2], parent, name, start, end, state.name))
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def add(self, name: str, amount: float = 1) -> None:
        if not self.active:
            return
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    # -- shard hand-off between the event loop and fleet threads ------------

    def shard_submitted(self, tasks: Any) -> None:
        with self._lock:
            self._pending_shards[id(tasks)] = (tasks, time.perf_counter())
        self.add("serve.shards")

    def shard_started(self, tasks: Any) -> None:
        with self._lock:
            entry = self._pending_shards.pop(id(tasks), None)
        if entry is not None and entry[0] is tasks:
            self.add("serve.fleet_wait_s", time.perf_counter() - entry[1])

    # -- results ---------------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Merged ``(span table, counters)`` over every thread."""
        table: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in list(state.table.items()):
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for name, amount in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + amount
        return table, counts

    def write(self, path, metrics: Dict[str, Any]) -> None:
        table, _counts = self.totals()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "metrics": metrics,
                    "spans_by_name": {
                        name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                        for name, row in sorted(table.items())
                    },
                    "spans_kept": len(self.spans),
                    "span_fields": ["id", "parent", "name", "start", "end", "thread"],
                },
                handle,
                indent=1,
            )
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


def _iter_wrapper(
    tracer: Tracer, name: str, fn: Callable, skip_under: Optional[str] = None
) -> Callable:
    """Time each ``next()`` of a generator as a segment of span ``name``."""

    step = tracer.wrap(name, next, skip_under=skip_under)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            yield item

    return wrapper


def _rebind(original: Any, replacement: Any, extra_modules: Sequence[Any]) -> None:
    """Point every repro-module binding of ``original`` at ``replacement``."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module in modules + list(extra_modules):
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(base: type) -> List[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _wrap_methods(
    tracer: Tracer,
    base: type,
    methods: Sequence[str],
    name: str,
    after: Optional[Callable] = None,
    skip_under: Optional[str] = None,
    only_under: Optional[str] = None,
) -> None:
    """Wrap ``methods`` wherever a subclass of ``base`` defines them."""
    for cls in _subclasses(base):
        for method in methods:
            fn = cls.__dict__.get(method)
            if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            setattr(cls, method, tracer.wrap(name, fn, after, skip_under, only_under))


def install(tracer: Tracer, extra_modules: Sequence[Any] = ()) -> None:
    """Wrap every layer's public functions; call after the workload's set-up.

    ``extra_modules`` are non-``repro`` modules (the benchmark's own)
    whose bindings of the wrapped functions are rebound as well.
    """
    # Load every module whose classes or bindings are wrapped below, so
    # the wrapping reaches them.
    import repro.array.engine
    import repro.array.protocols
    import repro.asyncnet.scheduler
    import repro.cache
    import repro.cache.store
    import repro.core.compiler
    import repro.core.impossibility
    import repro.core.rounds
    import repro.core.solvability
    import repro.experiments.base
    import repro.explore.engine
    import repro.explore.shrink
    import repro.explore.space
    import repro.explore.targets
    import repro.kernel.faults
    import repro.kernel.recorders
    import repro.kernel.snapshot
    import repro.kernel.topology
    import repro.net.framing
    import repro.protocols
    import repro.protocols.floodmin
    import repro.protocols.unison
    import repro.serve.fleet
    import repro.serve.protocol
    import repro.sync.adversary
    import repro.sync.corruption
    import repro.sync.engine
    import repro.sync.protocol
    import repro.verify
    import repro.workloads.spaces  # noqa: F401

    def function(module_name, attr, name, after=None, skip_under=None):
        # By name: a package may re-export a function that shadows its
        # submodule (``repro.explore.shrink``).
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(name, original, after, skip_under)
        _rebind(original, wrapped, extra_modules)

    def iterator_method(cls, attr, name, skip_under=None):
        setattr(cls, attr, _iter_wrapper(tracer, name, cls.__dict__[attr], skip_under))

    # protocol transitions
    _wrap_methods(tracer, repro.sync.protocol.SyncProtocol, ["update"], "protocol.update")
    _wrap_methods(tracer, repro.sync.protocol.SyncProtocol, ["send"], "protocol.send")

    # the reference engine and what it builds per round
    def count_rounds(result, *_args):
        tracer.add("sync.rounds", result.rounds_executed)

    function("repro.sync.engine", "run_sync", "sync.run", after=count_rounds)
    message = repro.sync.engine.Message
    repro.sync.engine.Message = tracer.wrap("histories.message", message)
    function("repro.kernel.snapshot", "snapshot_states", "kernel.snapshot")
    function("repro.kernel.snapshot", "copy_payload", "kernel.copy_payload")
    _wrap_methods(
        tracer,
        repro.kernel.recorders.HistoryRecorder,
        [
            attr
            for attr in vars(repro.kernel.recorders.HistoryRecorder)
            if attr.startswith("on_") or attr == "history"
        ],
        "kernel.record",
    )
    _wrap_methods(
        tracer, repro.sync.adversary.Adversary, ["plan_round", "validate"], "kernel.fault_plan"
    )
    _wrap_methods(tracer, repro.kernel.faults.FaultPlan, ["to_sync"], "kernel.fault_plan")
    function("repro.kernel.topology", "round_edges", "kernel.topology")

    # other planes
    _wrap_methods(tracer, repro.asyncnet.scheduler.AsyncScheduler, ["run"], "asyncnet.run")
    function("repro.core.solvability", "ftss_check", "core.check")
    function("repro.core.solvability", "check_definition", "core.check")

    # exploration
    for attr in ("enumerate_plans", "sample_plans"):
        iterator_method(repro.explore.space.PlanSpace, attr, "explore.generate", "verify.run")
    function("repro.explore.space", "dedupe", "explore.dedupe", skip_under="verify.run")

    targets: Dict[str, Any] = {}
    get_target = repro.explore.targets.get_target

    def traced_target(name):
        target = targets.get(name)
        if target is None:
            import dataclasses

            plain = get_target(name)
            target = targets[name] = dataclasses.replace(
                plain,
                streaming=tracer.wrap("explore.streaming", plain.streaming),
                confirm=tracer.wrap("explore.confirm", plain.confirm),
            )
        return target

    _rebind(get_target, functools.wraps(get_target)(traced_target), extra_modules)

    def count_shrink(result, *_args):
        tracer.add("explore.shrink_oracle_calls", result[1])

    function("repro.explore.shrink", "shrink", "explore.shrink", after=count_shrink)

    def count_exploration(result, *_args):
        tracer.add("explore.generated", result.generated)
        tracer.add("explore.deduped_away", result.deduped_away)
        tracer.add("explore.flagged", len(result.flagged))
        tracer.add("explore.confirmed", len(result.findings))

    original_explore = repro.explore.engine.explore

    @functools.wraps(original_explore)
    def explore(*args, **kwargs):
        result = original_explore(*args, **kwargs)
        count_exploration(result)
        return result

    _rebind(original_explore, explore, extra_modules)

    def count_frontier(result, *_args):
        tracer.add("verify.states_visited", result.frontier.states_visited)
        tracer.add("verify.dedup_hits", result.frontier.dedup_hits)

    function("repro.verify", "verify", "verify.run", after=count_frontier)

    # array plane
    function("repro.array.engine", "run_array", "array.run")
    _wrap_methods(tracer, repro.array.protocols.ArrayProtocol, ["step"], "array.step")
    _wrap_methods(
        tracer, repro.array.protocols.ArrayProtocol, ["load_state"], "array.corrupt",
        only_under="array.run",
    )
    _wrap_methods(
        tracer, repro.sync.corruption.CorruptionPlan, ["corrupt"], "array.corrupt",
        only_under="array.run",
    )

    # run cache
    run_cache = repro.cache.store.RunCache

    def count_hit(result, *_args):
        tracer.add("cache.hits", 1 if result[0] else 0)

    _wrap_methods(tracer, run_cache, ["key"], "cache.key")
    _wrap_methods(tracer, run_cache, ["get"], "cache.get", after=count_hit)
    _wrap_methods(tracer, run_cache, ["flush"], "cache.flush")
    put = tracer.wrap("cache.put", run_cache.put)

    @functools.wraps(put)
    def traced_put(self, *args, **kwargs):
        before = self.stats.bytes_written
        result = put(self, *args, **kwargs)
        tracer.add("cache.bytes_written", self.stats.bytes_written - before)
        return result

    run_cache.put = traced_put

    # sweeps
    function("repro.experiments.base", "run_sweep", "sweep.run")

    # serving: fleet hand-off and the codecs
    fleet = repro.serve.fleet.WorkerFleet
    submit = fleet.submit

    @functools.wraps(submit)
    async def traced_submit(self, shard):
        tracer.shard_submitted(shard.tasks)
        return await submit(self, shard)

    fleet.submit = traced_submit
    execute_tasks = repro.serve.fleet.execute_tasks
    execute = tracer.wrap("serve.execute", execute_tasks)

    def traced_execute(worker, tasks, *args, **kwargs):
        tracer.shard_started(tasks)
        return execute(worker, tasks, *args, **kwargs)

    _rebind(execute_tasks, functools.wraps(execute_tasks)(traced_execute), extra_modules)
    function("repro.net.framing", "encode_frame", "codec.encode")
    function("repro.serve.protocol", "encode_stream_line", "codec.encode")
    function("repro.serve.protocol", "decode_stream_line", "codec.decode")
    _wrap_methods(tracer, repro.net.framing.FrameDecoder, ["feed"], "codec.decode")


def layer_metrics(
    tracer: Tracer, untraced_wall_s: float, traced_wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``."""
    table, counts = tracer.totals()

    def own(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[2]

    def calls(name: str) -> int:
        return int(table.get(name, [0, 0.0, 0.0])[0])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    overhead = traced_wall_s - untraced_wall_s
    values = {
        "protocol.update_s": own("protocol.update"),
        "protocol.update_calls": calls("protocol.update"),
        "protocol.send_s": own("protocol.send"),
        "sync.run_self_s": own("sync.run"),
        "sync.runs": calls("sync.run"),
        "sync.rounds": int(counts.get("sync.rounds", 0)),
        "histories.message_s": own("histories.message"),
        "histories.messages": calls("histories.message"),
        "kernel.snapshot_s": own("kernel.snapshot"),
        "kernel.snapshot_calls": calls("kernel.snapshot"),
        "kernel.copy_payload_s": own("kernel.copy_payload"),
        "kernel.copy_payload_calls": calls("kernel.copy_payload"),
        "kernel.record_s": own("kernel.record"),
        "kernel.record_calls": calls("kernel.record"),
        "kernel.fault_plan_s": own("kernel.fault_plan"),
        "kernel.topology_s": own("kernel.topology"),
        "kernel.round_edges_calls": calls("kernel.topology"),
        "asyncnet.run_s": own("asyncnet.run"),
        "core.check_s": own("core.check"),
        "core.check_calls": calls("core.check"),
        "explore.generate_s": own("explore.generate"),
        "explore.dedupe_s": own("explore.dedupe"),
        "explore.dedupe_ratio": ratio(
            counts.get("explore.deduped_away", 0), counts.get("explore.generated", 0)
        ),
        "explore.streaming_s": own("explore.streaming"),
        "explore.streaming_calls": calls("explore.streaming"),
        "explore.confirm_s": own("explore.confirm"),
        "explore.confirm_calls": calls("explore.confirm"),
        "explore.confirmed_ratio": ratio(
            counts.get("explore.confirmed", 0), counts.get("explore.flagged", 0)
        ),
        "explore.shrink_s": own("explore.shrink"),
        "explore.shrink_oracle_calls": int(counts.get("explore.shrink_oracle_calls", 0)),
        "verify.run_self_s": own("verify.run"),
        "verify.states_visited": int(counts.get("verify.states_visited", 0)),
        "verify.dedup_hit_ratio": ratio(
            counts.get("verify.dedup_hits", 0), counts.get("verify.states_visited", 0)
        ),
        "array.run_self_s": own("array.run"),
        "array.step_s": own("array.step"),
        "array.step_calls": calls("array.step"),
        "array.corrupt_s": own("array.corrupt"),
        "cache.key_s": own("cache.key"),
        "cache.keys": calls("cache.key"),
        "cache.get_s": own("cache.get"),
        "cache.gets": calls("cache.get"),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0), calls("cache.get")),
        "cache.put_s": own("cache.put"),
        "cache.puts": calls("cache.put"),
        "cache.flush_s": own("cache.flush"),
        "cache.flushes": calls("cache.flush"),
        "cache.bytes_written": int(counts.get("cache.bytes_written", 0)),
        "sweep.run_self_s": own("sweep.run"),
        "serve.fleet_wait_s": float(counts.get("serve.fleet_wait_s", 0.0)),
        "serve.execute_s": own("serve.execute"),
        "serve.shards": int(counts.get("serve.shards", 0)),
        "codec.encode_s": own("codec.encode"),
        "codec.decode_s": own("codec.decode"),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": ratio(overhead, untraced_wall_s),
        "trace.spans": sum(int(row[0]) for row in table.values()),
    }
    return {name: (values[name], unit) for name, unit, _better, _what, _moves in PER_LAYER}
