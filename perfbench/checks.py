"""Correctness checks for the benchmark's outputs.

Every expected value is computed here, independently of the program,
from the generator's own view of the inputs (labels, adjacency sets,
typed atoms) or from a property of the method (central differences,
equal scores along two paths).  No check compares against a stored copy
of earlier output.
"""

import csv
import math
import random

import lrnn


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Expected grounding sizes


def bond_instances(truth):
    """explosives: each typed atom gives one gr1 and one gr2 instance, and
    each directed bond fact one `explosive` instance."""
    return {ex: 2 * t["typed_atoms"] + t["directed_bonds"] for ex, t in truth.items()}


def chain_instances(truth):
    """generic_chains: every atom and bond is typed, so each atom matches one
    clause of each of the three atom groups, each bond one clause of each
    bond group, each chain clause holds for every directed two-step walk
    (sum of squared degrees), and each of the three target clauses fires."""
    return {ex: 3 * t["atoms"] + 3 * t["bonds"] + 3 * sum(d * d for d in t["degrees"]) + 3
            for ex, t in truth.items()}


def graph_reference(adj, weights):
    """Max-min path values of the three strata, from adjacency sets."""
    w_hop, w_reach, w_target = weights
    walks = 0
    best = {}
    for x, succ in adj.items():
        for y, wxy in succ.items():
            for z, wyz in adj[y].items():
                walks += 1
                v = min(wxy, wyz)
                if v > best.get((x, z), -1.0):
                    best[(x, z)] = v
    hop2 = {pair: w_hop * v for pair, v in best.items()}
    reach_best = {}
    for (x, _), v in hop2.items():
        reach_best[x] = max(reach_best.get(x, -1.0), v)
    reach = {x: w_reach * v for x, v in reach_best.items()}
    target = w_target * max(reach.values()) if reach else None
    return walks, hop2, reach, target


def check_instance_counts(instance_rows, expected):
    got = {}
    for row in instance_rows:
        got[row["example_id"]] = got.get(row["example_id"], 0) + 1
    require(set(got) == set(expected), "examples with rule instances differ from the input set")
    for ex, n in expected.items():
        require(got[ex] == n, f"{ex}: {got[ex]} rule instances, expected {n}")


def check_graph_grounding(instance_rows, stat_rows, truth, clause_ids):
    """Per clause: instances and distinct heads; per example: neuron counts."""
    for ex, t in truth.items():
        walks, hop2, reach, target = graph_reference(t["adj"], (1.0, 1.0, 1.0))
        mine = [r for r in instance_rows if r["example_id"] == ex]
        expected = {clause_ids[0]: (walks, len(hop2)),
                    clause_ids[1]: (len(hop2), len(reach)),
                    clause_ids[2]: (len(reach), 1)}
        for cid, (n_inst, n_heads) in expected.items():
            rows = [r for r in mine if r["clause_id"] == cid]
            heads = {r["head"] for r in rows}
            require(len(rows) == n_inst, f"{ex} {cid}: {len(rows)} instances, expected {n_inst}")
            require(len(heads) == n_heads, f"{ex} {cid}: {len(heads)} head atoms, expected {n_heads}")
        edges = sum(len(succ) for succ in t["adj"].values())
        stats = [r for r in stat_rows if r["example_id"] == ex]
        require(len(stats) == 1, f"{ex}: expected one stats row")
        want = {"atom_neurons": edges + len(hop2) + len(reach) + 1,
                "fact_neurons": edges,
                "rule_neurons": walks + len(hop2) + len(reach),
                "aggregation_neurons": len(hop2) + len(reach) + 1}
        for column, n in want.items():
            require(int(stats[0][column]) == n, f"{ex}: {column} {stats[0][column]}, expected {n}")


def check_graph_values(compiled, params, truth, weights):
    """Every derived atom under godel equals the max-min evaluation to 1e-12."""
    for net, ex in zip(compiled.nets, compiled.task.examples):
        _, hop2, reach, target = graph_reference(truth[ex.example_id]["adj"], weights)
        want = {("hop2", (f"v{x}", f"v{z}")): v for (x, z), v in hop2.items()}
        want.update({("reach", (f"v{x}",)): v for x, v in reach.items()})
        want[("target", ())] = target
        values = lrnn.forward(net, params, "godel").values
        got = {(atom.pred, tuple(c.name for c in atom.args)): values[nid]
               for atom, nid in net.outputs.items() if atom.pred in ("hop2", "reach", "target")}
        require(set(got) == set(want), f"{ex.example_id}: derived atoms differ from the reference")
        for key, v in want.items():
            require(abs(got[key] - v) <= 1e-12, f"{ex.example_id} {key}: {got[key]!r} != {v!r}")


# ---------------------------------------------------------------------------
# Training and scoring


def check_final_cost(compiled, params, report):
    """The reported final cost is the training cost at the returned parameters."""
    final = dict(report.finals)[report.best_restart]
    require(final == compiled.total_cost(params),
            f"reported final cost {final!r} is not the cost at the returned parameters")


def check_accuracy(compiled, params, truth, floor):
    pairs = []
    for q, score, missing in compiled.scores(params):
        require(not missing, f"{q.example_id}: query atom {q.atom} not derivable")
        require(q.target == (1.0 if truth[q.example_id]["label"] else 0.0),
                f"{q.example_id}: query target disagrees with the planted label")
        pairs.append((score > 0.5) == truth[q.example_id]["label"])
    accuracy = sum(pairs) / len(pairs)
    require(accuracy >= floor, f"training accuracy {accuracy} below {floor}")


def _example_cost(net, queries, params, family, kind):
    vm = lrnn.forward(net, params, family)
    return math.fsum(lrnn.cost(vm.output(net, q.atom)[0], q.target, kind)[0] for q in queries)


def check_gradients(compiled, params, seed, examples=3, max_params=16, h=1e-6):
    """Backward gradients agree with central differences of the cost."""
    task = compiled.task
    family, kind = task.family, task.config.cost_kind
    rng = random.Random(f"gradcheck/{seed}")
    learnable = sorted(compiled.learnable())
    picked = [i for i in range(len(compiled.nets)) if compiled.queries[i]]
    for idx in rng.sample(picked, min(examples, len(picked))):
        net, queries = compiled.nets[idx], compiled.queries[idx]
        vm = lrnn.forward(net, params, family)
        seeds = {}
        for q in queries:
            y, missing = vm.output(net, q.atom)
            if not missing:
                seeds[q.atom] = seeds.get(q.atom, 0.0) + lrnn.cost(y, q.target, kind)[1]
        grads = lrnn.backward(net, vm, seeds, params)
        for pid in rng.sample(learnable, min(max_params, len(learnable))):
            moved = params.copy()
            moved[pid] = params[pid] + h
            up = _example_cost(net, queries, moved, family, kind)
            moved[pid] = params[pid] - h
            down = _example_cost(net, queries, moved, family, kind)
            fd = (up - down) / (2 * h)
            g = grads.get(pid, 0.0)
            require(abs(g - fd) <= 1e-6 + 1e-4 * abs(fd),
                    f"{net.example_id} {pid}: backward {g!r}, central difference {fd!r}")


def check_predict(score_rows, compiled, params):
    """`lrnn predict` scores equal CompiledTask.scores for the same parameters."""
    want = compiled.scores(params)
    require(len(score_rows) == len(want), f"{len(score_rows)} predict rows, expected {len(want)}")
    for row, (q, y, missing) in zip(score_rows, want):
        require((row["example_id"], row["atom"]) == (q.example_id, str(q.atom)),
                f"predict row {row} out of order")
        require(float(row["score"]) == y, f"{q.example_id}: predict {row['score']} != {y!r}")
        require((row["missing"] == "true") == missing, f"{q.example_id}: missing flag differs")


# ---------------------------------------------------------------------------
# Cross-validation


class CountingReader:
    """target_reader that records every (row, fold, purpose) read."""

    def __init__(self):
        self.reads = []

    def __call__(self, row, fold, purpose):
        self.reads.append(((row.example_id, str(row.atom)), fold, purpose))
        return row.target


def check_xval(reads, results, queries, k):
    """Held-out rows are read for `test` once, only in their own fold; no
    row is read for `train` or `risk` in its held-out fold; every row is
    read for `train` in every other fold; fold sizes differ by at most one."""
    rows = {(q.example_id, str(q.atom)) for q in queries}
    require([fold for fold, _ in results] == list(range(k)), "xval did not report every fold")
    require(all(0.0 <= err <= 1.0 for _, err in results), "xval error outside [0, 1]")
    test_fold = {}
    for row, fold, purpose in reads:
        if purpose == "test":
            require(row not in test_fold, f"{row} read for test twice")
            test_fold[row] = fold
    require(set(test_fold) == rows, "some rows were never read for test")
    trained = {}
    for row, fold, purpose in reads:
        if purpose in ("train", "risk"):
            require(fold != test_fold[row], f"{row} read for {purpose} in its held-out fold")
            trained.setdefault(row, set()).add(fold)
    for row, fold in test_fold.items():
        require(trained.get(row, set()) == set(range(k)) - {fold},
                f"{row} not trained on in every other fold")
    per_fold = {}
    for row, fold in test_fold.items():
        per_fold.setdefault(fold, set()).add(row[0])
    sizes = [len(per_fold.get(f, ())) for f in range(k)]
    require(max(sizes) - min(sizes) <= 1, f"fold sizes {sizes} differ by more than one")
