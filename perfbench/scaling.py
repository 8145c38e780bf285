"""Reference figures only, not a workload: `lrnn ground` against graph size.

    PYTHONPATH=src python3 perfbench/scaling.py [--nodes 100,200,400] [--repeats 3] [--seed 1]

For each size, generates one ground-graph input (out-degree 3, same
template) under `.perfbench/scaling/` and prints the median wall time of
the whole `lrnn ground` command over the repeats, with its quartiles.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import gen
import lrnn.cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nodes", default="100,200,400")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    out = Path(".perfbench") / "scaling"
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'nodes':>6} {'edges':>6} {'median_s':>9} {'q1_s':>8} {'q3_s':>8}")
    for n in (int(part) for part in args.nodes.split(",")):
        inputs = gen.random_graphs(args.seed, count=1, nodes=n)
        (out / "template.lrnn").write_text(inputs.template, encoding="utf-8")
        (out / "examples.lrnn").write_text(inputs.examples, encoding="utf-8")
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            code = lrnn.cli.main(["ground", "--template", str(out / "template.lrnn"),
                                  "--examples", str(out / "examples.lrnn"),
                                  "--out", str(out / f"ground-{n}")])
            times.append(time.perf_counter() - start)
            if code != 0:
                sys.exit(f"lrnn ground exited with {code} at n={n}")
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{n:6d} {3 * n:6d} {med:9.3f} {q1:8.3f} {q3:8.3f}", flush=True)


if __name__ == "__main__":
    main()
