"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-bond --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout.  The workload itself runs in one
child process (worker.py) that imports `lrnn` from the checkout's `src/`;
this process only starts it, waits for it and reports.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones: stage
times scaled to a reference host speed (hostspeed.py) and the child's
peak resident memory; with --trace 1 they are the per-layer metrics of
the traced rounds.  Inputs, outputs, results and
traces go to `.perfbench/` in the checkout.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; a round is under 15 s.
CHILD_GRACE_S = 120


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a name from worker.WORKLOADS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes (smoke.py)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lrnn" / "__init__.py").is_file():
        print(f"error: no lrnn sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = root / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    for sub in ("results", "traces"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(out / "work" / tag)]
    if args.trace:
        cmd += ["--trace-file", str(out / "traces" / f"{tag}.json")]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    report = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if not args.trace:
        # Only one child ever ran, so the children's peak is the workload's.
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    (out / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, rounds=report["rounds"])) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
