"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that:

* with ``--trace 0`` the last line of stdout is the result object, with
  exactly the end-to-end metrics of ``BENCHMARK.json``, each carrying its
  unit, and every output passes its correctness check;
* with ``--trace 1`` the same holds for the per-layer metrics, and the
  traced work counters repeat exactly in a second run of the same seed;
* a deliberately corrupted reference makes ``failed`` (and so the error
  rate) greater than zero.

Finally it checks that the benchmark exits non-zero without a result
line in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
#: Counts that need not repeat: the defect they expose is intermittent.
NONDETERMINISTIC_COUNTS = {"perf.pool.stderr_tracebacks"}


def bench(root: Path, workload: str, trace: int, *extra: str):
    """Run the benchmark at tiny sizes; (exit code, stdout, result)."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", str(trace), "--tiny", *extra,
    ]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def check(condition: bool, message: str, output: str = "") -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}\n{output[-3000:]}")


def check_result(workload: str, trace: int, code: int, output: str, result):
    label = f"{workload} --trace {trace}"
    check(code == 0 and result is not None, f"{label}: no result", output)
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}", output,
    )
    check(
        set(result["metrics"]) == set(UNITS[trace]),
        f"{label}: metric names differ from BENCHMARK.json", output,
    )
    for name, metric in result["metrics"].items():
        check(
            metric.get("unit") == UNITS[trace][name]
            and isinstance(metric.get("value"), (int, float)),
            f"{label}: {name} lacks its unit or value", output,
        )
    check(
        result["correct"] and result["failed"] == 0
        and result["attempted"] >= 1,
        f"{label}: outputs failed their check", output,
    )


def counts(result) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count" and name not in NONDETERMINISTIC_COUNTS
    }


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, output, result = bench(ROOT, workload, 0)
        check_result(workload, 0, code, output, result)

        code, output, first = bench(ROOT, workload, 1)
        check_result(workload, 1, code, output, first)
        code, output, second = bench(ROOT, workload, 1)
        check_result(workload, 1, code, output, second)
        check(
            counts(first) == counts(second),
            f"{workload}: traced work counters differ between runs",
            json.dumps([counts(first), counts(second)]),
        )

        code, output, result = bench(
            ROOT, workload, 0, "--corrupt-reference"
        )
        check(
            code == 0 and result is not None and result["failed"] > 0
            and not result["correct"],
            f"{workload}: corrupted reference went unnoticed", output,
        )
        print(f"selftest {workload}: ok", flush=True)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, output, result = bench(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    check(
        code != 0 and result is None,
        "benchmark ran without the program source", output,
    )
    print("selftest bare directory: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
