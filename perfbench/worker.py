"""One run of one workload, in a process of its own (started by run.py).

A round runs the user's whole pipeline on the workload's generated
inputs, one timed stage after another:

    setup_s    read and parse template, examples and queries, then compile
               every example's network (CompiledTask) before training
    train_s    train() over all restarts and epochs on the compiled task
    predict_s  `lrnn predict` over every example with the trained parameters
    ground_s   `lrnn ground`: parse, model, instances, build, CSV output
    xval_s     cli.crossvalidate over the parsed inputs

Each run of a stage is one operation; its checks run outside the timed
region and a failed check counts the operation as failed.  Rounds repeat
until the run length is as close to --seconds as whole rounds allow (at
least one round).  Right before and right after each timed stage the worker runs
the host speed probe (hostspeed.py), and each sample is the stage time
scaled to the probe's reference speed; each metric is the median over
all its samples, and the unscaled medians go to standard error and the
results file.  With --trace 1, untraced and traced rounds alternate and
the run reports the per-layer metrics of the traced rounds plus the
tracing overhead.
"""

import argparse
import gc
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import gen
import hostspeed
import lrnn
import lrnn.cli
import spans

STAGES = ("setup_s", "train_s", "predict_s", "ground_s", "xval_s")
TEMPLATE, EXAMPLES, QUERIES, PARAMS = "template.lrnn", "examples.lrnn", "queries.lrnn", "params.txt"


@dataclass
class Workload:
    make: object  # gen function: seed, **size -> gen.Inputs
    size: dict
    family: str
    train: dict  # TrainConfig arguments besides the seed
    xval: tuple  # folds, lr grid, restarts grid, epochs
    checks: dict  # stage -> check(round)
    smoke: dict  # reduced `size`, and `train` overrides that keep the checks passing


def _bond_ground(st):
    checks.check_instance_counts(st.instance_rows, checks.bond_instances(st.inputs.truth))


def _bond_train(st):
    checks.check_accuracy(st.compiled, st.params, st.inputs.truth, 0.95)
    checks.check_gradients(st.compiled, st.params, st.seed)


def _graph_setup(st):
    checks.check_graph_values(st.compiled, st.template.params, st.inputs.truth, gen.GRAPH_WEIGHTS)


def _graph_train(st):
    # Under godel with fixed clause weights nothing is learnable.
    checks.require(st.params.values == st.template.params.values,
                   "training moved parameters that godel keeps fixed")


def _graph_ground(st):
    clause_ids = [f"{TEMPLATE}:{i}" for i in range(3)]
    checks.check_graph_grounding(st.instance_rows, st.stat_rows, st.inputs.truth, clause_ids)


def _chain_ground(st):
    checks.check_instance_counts(st.instance_rows, checks.chain_instances(st.inputs.truth))


def _chain_train(st):
    checks.check_gradients(st.compiled, st.params, st.seed)


WORKLOADS = {
    "train-bond": Workload(
        gen.bond_molecules, {"count": 200}, "ms",
        {"learning_rate": 20.0, "epochs": 20, "restarts": 4, "init_range": (0.0, 1.0)},
        (2, [20.0], [1], 2),
        {"train_s": _bond_train, "ground_s": _bond_ground},
        {"size": {"count": 40}, "train": {"epochs": 100, "restarts": 1}}),
    "ground-graph": Workload(
        gen.random_graphs, {"count": 2, "nodes": 120, "out_degree": 3}, "godel",
        {"epochs": 10, "restarts": 1}, (2, [0.5], [1], 1),
        {"setup_s": _graph_setup, "train_s": _graph_train, "ground_s": _graph_ground},
        {"size": {"count": 2, "nodes": 30, "out_degree": 3}}),
    "xval-chains": Workload(
        gen.chain_molecules, {"count": 10}, "ms",
        {"learning_rate": 2.0, "epochs": 20, "restarts": 1}, (3, [0.5, 2.0], [1], 3),
        {"train_s": _chain_train, "ground_s": _chain_ground},
        {"size": {"count": 4}}),
}


class Round:
    """The stages of one round, sharing what earlier stages produced."""

    def __init__(self, wl, inputs, workdir, seed):
        self.wl, self.inputs, self.dir, self.seed = wl, inputs, workdir, seed

    def _path(self, name):
        return str(self.dir / name)

    def _cli(self, argv):
        code = lrnn.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lrnn {argv[0]} exited with {code}")

    def setup_s(self):
        read = lambda name: (self.dir / name).read_text(encoding="utf-8")
        self.template = lrnn.parse_template(read(TEMPLATE), TEMPLATE, self.wl.family)
        self.examples = lrnn.parse_examples(read(EXAMPLES), EXAMPLES)
        self.queries = lrnn.parse_queries(read(QUERIES), QUERIES)
        cfg = lrnn.TrainConfig(seed=self.seed, **self.wl.train)
        self.task = lrnn.TrainingTask(self.template, self.examples, self.queries, cfg, self.wl.family)
        self.compiled = lrnn.CompiledTask(self.task)

    def train_s(self):
        self.params, self.report = lrnn.train(self.task, self.compiled)

    def before_predict(self):
        # The parameter file format: `param <id> = <decimal>`, repr precision.
        text = "".join(f"param {pid} = {self.params[pid]!r}\n" for pid in self.params)
        (self.dir / PARAMS).write_text(text, encoding="utf-8")

    def predict_s(self):
        self._cli(["predict", "--template", self._path(TEMPLATE), "--examples", self._path(EXAMPLES),
                   "--queries", self._path(QUERIES), "--params", self._path(PARAMS),
                   "--family", self.wl.family, "--out", self._path("scores.csv")])

    def ground_s(self):
        self._cli(["ground", "--template", self._path(TEMPLATE), "--examples", self._path(EXAMPLES),
                   "--out", self._path("ground")])

    def before_xval(self):
        self.reader = checks.CountingReader()

    def xval_s(self):
        k, lr_grid, restarts_grid, epochs = self.wl.xval
        self.folds = lrnn.cli.crossvalidate(self.template, self.examples, self.queries, k, lr_grid,
                                            restarts_grid, epochs, self.seed, self.wl.family,
                                            target_reader=self.reader)

    def check(self, stage):
        if stage == "setup_s":
            checks.require(len(self.compiled.nets) == len(self.inputs.truth),
                           "CompiledTask did not build one network per example")
        elif stage == "train_s":
            checks.check_final_cost(self.compiled, self.params, self.report)
        elif stage == "predict_s":
            checks.check_predict(checks.read_csv(self._path("scores.csv")), self.compiled, self.params)
        elif stage == "ground_s":
            self.instance_rows = checks.read_csv(self._path("ground/instances.csv"))
            self.stat_rows = checks.read_csv(self._path("ground/stats.csv"))
        elif stage == "xval_s":
            checks.check_xval(self.reader.reads, self.folds, self.queries, self.wl.xval[0])
        extra = self.wl.checks.get(stage)
        if extra is not None:
            extra(self)


def run_round(wl, inputs, workdir, seed, tracer=None):
    """One round: each stage once, each time one operation.  Returns
    (stage -> [start, seconds, probe before, probe after], attempted,
    failed, wrong)."""
    rnd = Round(wl, inputs, workdir, seed)
    samples = {}
    failed, wrong = 0, False
    if tracer is not None:
        tracer.new_round()
    for i, stage in enumerate(STAGES):
        prepare = getattr(rnd, "before_" + stage[:-2], None)
        try:
            if prepare is not None:
                prepare()
            # Every stage starts from the same collector state, so a full
            # collection of the previous stage's garbage is not charged to it.
            gc.collect()
            before = hostspeed.probe()
            start = time.perf_counter()
            if tracer is not None:
                with tracer.active():
                    getattr(rnd, stage)()
            else:
                getattr(rnd, stage)()
            seconds = time.perf_counter() - start
            samples[stage] = [start, seconds, before, hostspeed.probe()]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += len(STAGES) - i  # later operations need this one's output
            break
        try:
            rnd.check(stage)
        except checks.CheckFailed as err:
            print(f"check failed in {stage}: {err}", file=sys.stderr)
            failed += 1
            wrong = True
    return samples, len(STAGES), failed, wrong


def write_inputs(wl, seed, workdir):
    inputs = wl.make(seed, **wl.size)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in ((TEMPLATE, inputs.template), (EXAMPLES, inputs.examples),
                       (QUERIES, inputs.queries)):
        (workdir / name).write_text(text, encoding="utf-8")
    return inputs


def median_metrics(rounds, unit):
    """Median over every sample of every round, per name."""
    samples = {}
    for rnd in rounds:
        for name, values in rnd.items():
            samples.setdefault(name, []).extend(values)
    return {name: {"value": statistics.median(v), "unit": unit(name)}
            for name, v in sorted(samples.items()) if v}


def column(rounds, index):
    """stage -> [value] per round, from one field of the samples."""
    return [{stage: [sample[index]] for stage, sample in rnd.items()} for rnd in rounds]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = replace(wl, size=wl.smoke["size"], train=dict(wl.train, **wl.smoke.get("train", {})))
    workdir = Path(args.workdir)
    inputs = write_inputs(wl, args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None
    attempted = failed = 0
    correct = True
    plain, traced, layers = [], [], []
    start = last = time.perf_counter()
    lengths = []
    while True:
        # In the traced run, each untraced round is followed by a traced one.
        for t in ([None, tracer] if tracer else [None]):
            samples, n_ops, n_failed, wrong = run_round(wl, inputs, workdir, args.seed, t)
            attempted += n_ops
            failed += n_failed
            correct = correct and not wrong
            (traced if t else plain).append(samples)
            if t:
                layers.append({k: [v] for k, v in t.layer_metrics(t.rounds[-1]).items()})
        now = time.perf_counter()
        lengths.append(now - last)
        last = now
        # Stop when another round would end further past --seconds than
        # stopping now falls short of it.
        if now - start + statistics.median(lengths) / 2 > args.seconds:
            break
    # Each sample gains its scaled time as a fifth field.
    timed = [sample for rnd in plain + traced for sample in rnd.values()]
    for sample, value in zip(timed, hostspeed.scale(timed)):
        sample.append(value)

    if tracer:
        units = {name: unit for name, (unit, _) in spans.LAYERS.items()}
        metrics = median_metrics(layers, units.get)
        round_time = lambda rnd: sum(sample[4] for sample in rnd.values())
        base = statistics.median(map(round_time, plain))
        with_trace = statistics.median(map(round_time, traced))
        metrics["trace.overhead_pct"] = {"value": 100.0 * (with_trace / base - 1.0), "unit": "%"}
        for name in tracer.unmeasured():
            print(f"unmeasured layer: {name}", file=sys.stderr)
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed})
    else:
        metrics = median_metrics(column(plain, 4), lambda k: "s")
        measured = median_metrics(column(plain, 1), lambda k: "s")
        print("unscaled medians: " + ", ".join(f"{k} {m['value']:.4f} s" for k, m in measured.items()),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "rounds": {"plain": plain, "traced": traced}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
