"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sync-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
the same workload and seed untraced in a child interpreter, then runs it
again with every layer's public functions wrapped in spans, checks that
both runs produced the same output digest, and prints the per-layer
metrics (the trace itself goes to ``.perfbench/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sync-sweep", "explore-verify", "array-unison", "serve-mix")
#: End-to-end metrics, as named in ``BENCHMARK.json``.
END_TO_END = ("setup_s", "work_rate", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb")
#: Set-up runs per invocation.  ``setup_s`` is the median time for a fresh
#: interpreter to import the program plus the median in-process set-up.
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _untraced_reference(args) -> dict:
    """Run the same workload and seed untraced in a fresh interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if child.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {child.stderr[-2000:]}")
    lines = child.stdout.strip().splitlines()
    reference = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        if key in ("digest", "measured_s"):
            reference[key] = value.strip()
    return reference


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the workloads."""
    command = [
        sys.executable,
        "-c",
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads",
        str(ROOT / "src"),
        str(Path(__file__).resolve().parent),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _check_declared(per_layer) -> None:
    """Refuse to run when ``BENCHMARK.json`` names other metrics than these."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, names in (("end_to_end", END_TO_END), ("per_layer", per_layer)):
        if [metric["name"] for metric in declared[key]] != list(names):
            raise SystemExit(f"perfbench: BENCHMARK.json {key} does not match the code")


def main(argv=None) -> int:
    args = _parse(argv)
    import tracing

    _check_declared([row[0] for row in tracing.PER_LAYER])
    os.environ.pop("REPRO_CACHE_REMOTE", None)
    reference = _untraced_reference(args) if args.trace else None

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program from src/: {error}", file=sys.stderr)
        return 2
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro resolved outside src/: {repro.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    tracer = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, [workloads])
        start = time.perf_counter()
        measured = workload.measure()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        failures = workload.check(measured)
        attempted = workload.checks(measured)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    digest = measured.digest()
    print(f"workload {args.workload} seed {args.seed}: {measured.operations} "
          f"operations, {measured.work} {workload.work_unit} in {wall:.3f} s")
    print(f"digest {digest}")
    print(f"measured_s {wall!r}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    if tracer is None:
        metrics = {
            "setup_s": (_import_seconds() + statistics.median(setup_times), "s"),
            "work_rate": (measured.work / wall, "1/s"),
            "latency_p50_ms": (measured.latency_ms(0.50), "ms"),
            "latency_p99_ms": (measured.latency_ms(0.99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        same = digest == reference.get("digest")
        if not same:
            failures.append(
                f"traced digest {digest} differs from untraced {reference.get('digest')}"
            )
        if not reference["result"]["correct"]:
            failures.append("untraced reference run was not correct")
        attempted += 2
        metrics = tracing.layer_metrics(tracer, float(reference["measured_s"]), wall)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {name: value for name, (value, _unit) in metrics.items()})
        print(f"trace written to {trace_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = min(len(failures), attempted)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
