"""Command-line interface.

Subcommands:

    ground       write per-example rule-instance lists and neuron-count stats (CSV)
    train        fit learnable parameters; writes a parameter file and a JSONL report
    predict      score query atoms under a parameter file (CSV)
    xval         k-fold cross-validation with inner grid selection on training risk
    export-dot   write one Graphviz file per example

Exit codes: 0 success, 2 malformed input, bad configuration or an
output path that cannot be written, 3 recursive template, 4 grounding
capacity exceeded.  The environment variable LRNN_CAPACITY overrides the
default grounding budget (model atoms plus rule instances, the
substitutions of one join step, and neurons per network).
All outputs are deterministic functions of the inputs and --seed.
"""

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from .activations import FAMILIES
from .errors import CapacityError, LrnnError, ParseError, RecursiveTemplateError
from .grounding import DEFAULT_CAPACITY, ground
from .logic import parse_examples, parse_params, parse_queries, parse_template, render_params
from .network import build, census, export_dot
from .training import (COST_KINDS, CompiledTask, TrainConfig, TrainingTask, crossvalidate, train,
                       zero_one_error)


# ---------------------------------------------------------------------------
# Commands


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read file: {err}", str(path))


def _capacity() -> int:
    raw = os.environ.get("LRNN_CAPACITY")
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise ParseError(f"LRNN_CAPACITY must be a positive integer, got {raw!r}", "environment")
    return cap


def _load_inputs(args):
    """The template, the examples and, for a command that takes them, the queries."""
    template = parse_template(_read(args.template), Path(args.template).name)
    examples = parse_examples(_read(args.examples), Path(args.examples).name)
    path = getattr(args, "queries", None)
    return template, examples, path and parse_queries(_read(path), Path(path).name)


def _check_outputs(*paths):
    """Fail before any work on an output file that could not be written:
    it must name no directory and sit in one that exists.  Nothing is
    created or truncated here."""
    for path in filter(None, paths):
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise OSError(f"{path} is not a file in an existing directory")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_ground(args) -> int:
    template, examples, _ = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    capacity, instance_rows, stat_rows = _capacity(), [], []
    for ex in examples:
        grounding = ground(template, ex.facts, capacity)
        # Each atom rendered once: the instances hold the relations' own atoms.
        texts = {id(atom): str(atom) for rows in grounding.model.relations.values()
                 for atom in rows.values()}
        for inst in grounding.instances:
            theta = " ".join(f"{v}={c}" for v, c in inst.theta)
            body = ", ".join([texts[id(b)] for b in inst.body])
            instance_rows.append([ex.example_id, inst.clause_id, theta, texts[id(inst.head)], body])
        stat_rows.append([ex.example_id, *census(grounding, capacity)])
    _write_csv(out / "instances.csv",
               ["example_id", "clause_id", "substitution", "head", "body"], instance_rows)
    _write_csv(out / "stats.csv",
               ["example_id", "atom_neurons", "fact_neurons", "rule_neurons", "aggregation_neurons"],
               stat_rows)
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs, restarts=args.restarts,
                       seed=args.seed, init_range=tuple(args.init_range),
                       cost_kind=args.cost, train_offsets=not args.freeze_offsets)


def cmd_train(args) -> int:
    _check_outputs(args.out_params, args.report)
    template, examples, queries = _load_inputs(args)
    task = TrainingTask(template, examples, queries, _train_config(args),
                        args.family, _capacity())
    compiled = CompiledTask(task)
    params, report = train(task, compiled)
    Path(args.out_params).write_text(render_params(params), encoding="utf-8")
    if args.report:
        Path(args.report).write_text(report.jsonl(), encoding="utf-8")
    pairs = [(score, q.target) for q, score, _ in compiled.scores(params)]
    sys.stdout.write(f"best_restart {report.best_restart}\n")
    sys.stdout.write(f"final_cost {repr(dict(report.finals)[report.best_restart])}\n")
    sys.stdout.write(f"train_accuracy {repr(1.0 - zero_one_error(pairs))}\n")
    return 0


def cmd_predict(args) -> int:
    _check_outputs(args.out)
    template, examples, queries = _load_inputs(args)
    params = template.params
    if args.params:
        params = parse_params(_read(args.params), params, Path(args.params).name)
    wanted = {q.example_id for q in queries}
    task = TrainingTask(template, [ex for ex in examples if ex.example_id in wanted], queries,
                        family=args.family, capacity=_capacity())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["example_id", "atom", "score", "missing"])
    for q, score, missing in CompiledTask(task).scores(params):
        if not math.isfinite(score):
            raise ValueError(f"example {q.example_id}: score of {q.atom} is not finite ({score!r})")
        writer.writerow([q.example_id, str(q.atom), repr(score), "true" if missing else "false"])
    if args.out:
        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_xval(args) -> int:
    _check_outputs(args.out)
    template, examples, queries = _load_inputs(args)
    results = crossvalidate(template, examples, queries, args.folds, args.lr_grid,
                            args.restarts_grid, args.epochs, args.seed, args.family,
                            args.cost, _capacity())
    mean = sum(err for _, err in results) / len(results)
    rows = [[str(fold), repr(err)] for fold, err in results] + [["mean", repr(mean)]]
    _write_csv(args.out, ["fold", "error"], rows)
    sys.stdout.write(f"mean_error {repr(mean)}\n")
    return 0


def cmd_export_dot(args) -> int:
    template, examples, _ = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    capacity = _capacity()
    for ex in examples:  # one network held at a time
        net = build(ground(template, ex.facts, capacity), template, ex.example_id, capacity)
        (out / f"{ex.example_id}.dot").write_text(export_dot(net), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _comma_floats(text: str) -> list:
    return [float(part) for part in text.split(",") if part]


def _comma_ints(text: str) -> list:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrnn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    cfg, shown = TrainConfig(), " (default: %(default)s)"  # each training default, written once

    def add_common(p, family=True, queries=None, training=False):
        """Options shared by subcommands; `queries` is the query file's help."""
        p.add_argument("--template", required=True, help="template file")
        p.add_argument("--examples", required=True, help="example set file")
        if family:  # unset, `TrainingTask` takes the template's: ms for a parsed file
            p.add_argument("--family", choices=FAMILIES,
                           help="activation family (default: the template's, ms)")
        if queries:
            p.add_argument("--queries", required=True, help=queries)
        if training:
            p.add_argument("--epochs", type=int, default=cfg.epochs,
                           help="online passes over the examples per restart" + shown)
            p.add_argument("--seed", type=int, default=cfg.seed,
                           help="master seed of the restarts (and of the folds)" + shown)
            p.add_argument("--cost", choices=COST_KINDS, default=cfg.cost_kind,
                           help="per-query cost" + shown)

    p = sub.add_parser("ground", help="write instance lists and neuron stats")
    add_common(p, family=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_ground)

    p = sub.add_parser("train", help="fit learnable parameters")
    add_common(p, queries="query file with targets", training=True)
    p.add_argument("--lr", type=float, default=cfg.learning_rate, help="SGD step size" + shown)
    p.add_argument("--restarts", type=int, default=cfg.restarts,
                   help="random restarts; the lowest final cost wins" + shown)
    p.add_argument("--init-range", type=float, nargs=2, default=cfg.init_range,
                   metavar=("LO", "HI"), help="range of the uniform initial weights" + shown)
    p.add_argument("--freeze-offsets", action="store_true",
                   help="keep conjunction/disjunction offsets at their initial values")
    p.add_argument("--out-params", required=True, help="parameter file to write")
    p.add_argument("--report", help="JSONL cost-curve report to write")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="score query atoms")
    add_common(p, queries="query file (targets ignored)")
    p.add_argument("--params", help="parameter file from train")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("xval", help="k-fold cross-validation")
    add_common(p, queries="query file with targets", training=True)
    p.add_argument("--folds", type=int, required=True, help="number of folds (k)")
    p.add_argument("--lr-grid", type=_comma_floats, default=[cfg.learning_rate],
                   help=f"comma-separated learning rates (default: {cfg.learning_rate})")
    p.add_argument("--restarts-grid", type=_comma_ints, default=[cfg.restarts],
                   help=f"comma-separated restart counts (default: {cfg.restarts})")
    p.add_argument("--out", required=True, help="per-fold error CSV to write")
    p.set_defaults(fn=cmd_xval)

    p = sub.add_parser("export-dot", help="write Graphviz files")
    add_common(p, family=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LrnnError) as err:
        print(f"error: {err}", file=sys.stderr)
        return {RecursiveTemplateError: 3, CapacityError: 4}.get(type(err), 2)
    except OSError as err:  # inputs are read by _read, so this is an output
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
