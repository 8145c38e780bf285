"""Smoke run of the benchmark itself: every workload at reduced size.

    python3 perfbench/smoke.py

From the root of a checkout, runs each workload once untraced and once
traced with `--smoke` (smaller inputs, same stages and checks) and
requires a correct result with no failed operation that names exactly
the metrics BENCHMARK.json lists.  Then copies BENCHMARK.json and the
benchmark's files into an empty directory and requires run.py to fail
there without printing a result.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def fail(message):
    print(f"smoke: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            child = run(root, workload, trace)
            if child.returncode != 0:
                fail(f"{workload} trace={trace} exited with {child.returncode}")
            result = json.loads(child.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 5:
                fail(f"{workload} trace={trace}: {result}")
            if set(result["metrics"]) != wanted[trace]:
                fail(f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
            # Every layer does work on every workload; only the overhead may be <= 0.
            if any(not m["value"] > 0 for name, m in result["metrics"].items()
                   if name != "trace.overhead_pct"):
                fail(f"{workload} trace={trace}: a metric is not positive")
            print(f"smoke: ok {workload} trace={trace}", flush=True)

    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = run(bare, workloads[0], 0, smoke=False)
    if child.returncode == 0 or child.stdout.strip():
        fail("run.py succeeded without the program's sources")
    shutil.rmtree(bare)
    print("smoke: ok refuses to run without sources")


if __name__ == "__main__":
    main()
