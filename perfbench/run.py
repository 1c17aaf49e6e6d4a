"""Benchmark of the fault-injection campaigns and the mission-control service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-serial --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``campaign-serial``,
``campaign-pruned``, ``campaign-pool`` and ``service-storm``.

One run, in one process:

1. prepares the workload's inputs from ``--seed`` outside all timing (the
   service's telemetry is recorded once per seed and cached under
   ``.perfbench_cache/``);
2. times the program's own set-up several times and keeps the median;
3. runs one untimed warm-up round, then repeats rounds for ``--seconds``;
4. with ``--trace 1``, runs two more rounds with every layer wrapped
   (``layers.py``) and reports per-layer self time, share and calls;
5. checks every output of the measured rounds against a reference,
   outside the timed region;
6. prints a readable report, writes it with the spans to
   ``.perfbench_out/``, and prints one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``, tracing off):

* ``throughput_per_s`` -- trials classified (campaigns) or telemetry rows
  processed (service) per second inside the entry-point calls; median
  over rounds.
* ``latency_p50_ms`` / ``latency_tail_ms`` -- service: the service's
  reported enqueue-to-decision latency, p50 and p99.  Campaigns: wall
  time of one campaign call, p50 and p75 (a run holds a few dozen calls,
  too few for p99).
* ``setup_s`` -- median of repeated program set-ups.
* ``peak_rss_mb`` -- peak resident memory of this process after the
  measured rounds.

Failed outputs over attempted outputs is the error rate; the JSON line
carries both counts and the readable report prints the rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Rounds run with the layer wrappers installed (fixed, so the traced
#: work counters repeat exactly for a seed).
TRACE_ROUNDS = 2

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from layers import LAYERS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "other_s": "s",
        "other.share": "ratio",
        "ir.interp.instructions": "count",
        "ir.interp.minstr_per_s": "Minstr/s",
        "faults.campaign.trials_executed": "count",
        "faults.campaign.trials_pruned": "count",
        "faults.campaign.prune_rate": "ratio",
        "faults.campaign.plan_replay_s": "s",
        "perf.cache.golden_hits": "count",
        "perf.pool.chunks": "count",
        "perf.pool.created": "count",
        "perf.pool.reused": "count",
        "perf.pool.stderr_tracebacks": "count",
        "detect.fleet.rows_scored": "count",
        "service.queues.shed": "count",
        "service.alarms": "count",
        "service.reboots": "count",
        "tracing.traced_wall_s": "s",
        "tracing.untraced_wall_s": "s",
        "tracing.overhead_ratio": "ratio",
        "tracing.unwrapped": "count",
        "host.available_cpus": "count",
    })
    return units


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    against any other copy of the program."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def engine_counter(name: str) -> int:
    from repro.obs.metrics import ENGINE_METRICS

    counter = ENGINE_METRICS.counters.get(name)
    return counter.value if counter is not None else 0


def golden_hits() -> int:
    from repro.perf.cache import GOLDEN_CACHE

    return GOLDEN_CACHE.stats.hits


def run_name(args) -> str:
    """File stem of one run's outputs under :data:`OUT`."""
    return (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-tiny" if args.tiny else "")
    )


def round_wall(calls) -> float:
    return sum(call.elapsed_s for call in calls)


def traced_rounds(
    workload, state, untraced_wall: float, spans_path: Path
) -> tuple[dict, list, list[str]]:
    """Run :data:`TRACE_ROUNDS` rounds with every layer wrapped.

    Returns (per-layer metrics, the traced rounds, unwrapped targets).
    """
    from layers import LAYERS, SpanRecorder
    from repro.faults.parallel import available_cpus

    recorder = SpanRecorder()
    pool_before = (
        engine_counter("warm_pool.created"),
        engine_counter("warm_pool.reused"),
    )
    hits_before = golden_hits()
    gc.collect()
    recorder.install()
    try:
        rounds = [workload.round(state) for _ in range(TRACE_ROUNDS)]
    finally:
        recorder.uninstall()
    recorder.save(spans_path)

    wall = sum(round_wall(r) for r in rounds)
    times = recorder.layer_times()
    metrics: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        _total, own, calls = times.get(layer, (0.0, 0.0, 0))
        attributed += own
        metrics[f"{layer}_s"] = own
        metrics[f"{layer}.share"] = own / wall
        metrics[f"{layer}.calls"] = calls
    work = workload.work(rounds)
    counters = recorder.counters
    interp_s = metrics["ir.interp.run_s"]
    pruned = counters["faults.campaign.trials_pruned"]
    planned = counters["faults.campaign.planned_trials"]
    metrics.update({
        "other_s": wall - attributed,
        "other.share": (wall - attributed) / wall,
        "ir.interp.instructions": counters["ir.interp.instructions"],
        "ir.interp.minstr_per_s": (
            counters["ir.interp.instructions"] / interp_s / 1e6
            if interp_s > 0 else 0.0
        ),
        "faults.campaign.trials_executed": work.get("trials", 0) - pruned,
        "faults.campaign.trials_pruned": pruned,
        "faults.campaign.prune_rate": pruned / planned if planned else 0.0,
        "faults.campaign.plan_replay_s": recorder.child_duration(
            "faults.campaign.plan", "ir.interp.run"
        ),
        "perf.cache.golden_hits": golden_hits() - hits_before,
        "perf.pool.chunks": counters["perf.pool.chunks"],
        "perf.pool.created": engine_counter("warm_pool.created")
        - pool_before[0],
        "perf.pool.reused": engine_counter("warm_pool.reused")
        - pool_before[1],
        "perf.pool.stderr_tracebacks": 0,
        "detect.fleet.rows_scored": counters["detect.fleet.rows_scored"],
        "service.queues.shed": work.get("rows_shed", 0),
        "service.alarms": work.get("alarms", 0),
        "service.reboots": work.get("reboots", 0),
        "tracing.traced_wall_s": wall / TRACE_ROUNDS,
        "tracing.untraced_wall_s": untraced_wall,
        "tracing.overhead_ratio": wall / TRACE_ROUNDS / untraced_wall,
        "tracing.unwrapped": len(recorder.unwrapped),
        "host.available_cpus": available_cpus(),
    })
    return metrics, rounds, recorder.unwrapped


def run(args) -> dict:
    from workloads import WORKLOADS
    from repro.faults.parallel import available_cpus

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.tiny)
    workload.prepare(ROOT)

    setup_samples = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        started = perf_counter()
        state = workload.setup()
        setup_samples.append(perf_counter() - started)

    warm = workload.round(state)
    rounds = []
    began = perf_counter()
    while not rounds or perf_counter() - began < args.seconds:
        gc.collect()
        rounds.append(workload.round(state))
    peak = peak_rss_mb()

    throughput = statistics.median(
        sum(call.items for call in r) / round_wall(r) for r in rounds
    )
    p50_ms, tail_ms, latency_note = workload.latency(rounds)
    metrics = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak,
    }
    checked = [call for r in rounds for call in r]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "available_cpus": available_cpus(),
            "python": platform.python_version(),
        },
        "rounds": len(rounds),
        "seconds_measured": sum(round_wall(r) for r in rounds),
        "item": workload.item,
        "latency": latency_note,
        "setup_samples_s": setup_samples,
        # One round is fixed work, so these repeat exactly for a seed.
        "work_per_round": workload.work([warm]),
        "end_to_end": metrics,
        "per_layer": None,
    }
    if args.trace:
        untraced = statistics.median(round_wall(r) for r in rounds)
        report["per_layer"], traced, report["unwrapped"] = traced_rounds(
            workload, state, untraced, OUT / f"{run_name(args)}-spans.npz"
        )
        checked += [call for r in traced for call in r]

    reference = workload.reference(state, warm)
    if args.corrupt_reference:
        workload.corrupt(reference)
    attempted, failed = workload.check(checked, reference)
    report.update(
        attempted=attempted, failed=failed, error_rate=failed / attempted
    )
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    host = report["host"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} "
        f"trace={report['trace']}: {report['rounds']} rounds, "
        f"{report['seconds_measured']:.2f} s measured; "
        f"available_cpus={host['available_cpus']} "
        f"python={host['python']}"
    )
    e2e = report["end_to_end"]
    print(f"  {report['item']}_per_s: {e2e['throughput_per_s']:.6g} 1/s")
    print(f"  latency: {report['latency']}")
    for name, unit in END_TO_END.items():
        print(f"  {name}: {e2e[name]:.6g} {unit}")
    print(
        f"  error_rate: {report['error_rate']:.6g} "
        f"({report['failed']} failed of {report['attempted']} attempted)"
    )
    print(
        "  work per round: "
        + json.dumps(report["work_per_round"], sort_keys=True)
    )
    if report["per_layer"]:
        for name, value in report["per_layer"].items():
            print(f"  {name}: {value:.6g} {units[name]}")
        if report.get("unwrapped"):
            print(f"  unwrapped targets: {', '.join(report['unwrapped'])}")


def result_line(report: dict, units: dict[str, str]) -> dict:
    chosen = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in chosen.items()
        },
    }


def run_counting_tracebacks(argv: list[str]) -> int:
    """Run this benchmark in a child process and count the tracebacks in
    its stderr as ``perf.pool.stderr_tracebacks``.

    Tracebacks printed by pool or shared-memory helper processes at exit
    never reach this process's own exception handling; only the stderr
    of a whole run shows them.
    """
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--child"],
        capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        return child.returncode or 1
    result = json.loads(lines[-1])
    result["metrics"]["perf.pool.stderr_tracebacks"]["value"] = (
        child.stderr.count("Traceback (most recent call last)")
    )
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def stop_helper_processes() -> None:
    """Terminate warm pools and wait for the shared-memory tracker."""
    from multiprocessing import resource_tracker

    from repro.perf.pool import POOL_REGISTRY

    POOL_REGISTRY.clear()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test and internal switches.
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="plant a wrong reference record (self-test)")
    parser.add_argument("--record-telemetry", metavar="PATH",
                        help="record the service telemetry and exit")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.record_telemetry:
        WORKLOADS[args.workload](args.workload, args.seed, args.tiny).record(
            Path(args.record_telemetry)
        )
        return 0
    if args.trace and args.workload == "campaign-pool" and not args.child:
        return run_counting_tracebacks(
            sys.argv[1:] if argv is None else argv
        )

    try:
        report = run(args)
    finally:
        stop_helper_processes()
    units = dict(END_TO_END, **per_layer_units())
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_name(args)}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print_report(report, units)
    print(json.dumps(result_line(report, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
