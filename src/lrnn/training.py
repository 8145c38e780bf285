"""Weight learning: online SGD with restarts, over the networks and
passes of `network`.

Updates are online: after each example's queries are backpropagated,
weights move at once by w <- w - lr * grad, written straight into the
store's values.  The first online step (or `train`, before it forks)
merges the queried examples' networks and keeps per example its part:
its merged ids, the merged id of each of its neurons and of each
query atom, and its network's cone order, read off the merge.  The
merge depends only on the task's networks and queries, so one compiled
task may be trained under several configs in turn (as `crossvalidate`
does per fold).  Each step runs `forward` over the example's merged ids
and `backward` over its own network, in that order, on the one buffer
`forward` wrote.  The epoch cost sums
`CompiledTask.scores`; with nothing learnable `train` prices the task
once for every epoch.  Restarts redraw the learnable weights from
Uniform(init_range) with seeds derived from the master seed, and the
restart with the lowest final training cost wins; a restart whose
parameters, final cost or final scores go non-finite is skipped and
noted in the report.

A restart depends only on its seed, so `train` deals the restarts of a
task with something learnable to as many processes as it has CPUs, on
forked copies of the compiled task (where it can fork and no other
thread runs), and merges their outcomes in restart order.  Only
outcomes come back: `train` runs again, in its own process, each
restart that raised, whose process ended without a reply or could not
be forked, so the same bytes, or the same exception, come out on any
number of CPUs.
"""

import hashlib
import json
import marshal
import math
import os
import random
import sys
from dataclasses import dataclass, field, replace

from .activations import CONJUNCTION, operations, sigmoid
from .errors import AllRestartsFailedError, DivergenceError
from .grounding import DEFAULT_CAPACITY, ground
from .logic import ParameterStore, QueryRow, Template
from .network import FACT, _sweep_orders, backward, build, forward, merge

SQUARED_SIGMOID = "squared_sigmoid"
CROSS_ENTROPY = "cross_entropy"
COST_KINDS = (SQUARED_SIGMOID, CROSS_ENTROPY)


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of parts (hash-seed proof)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def cost(y: float, target: float, kind: str = SQUARED_SIGMOID) -> tuple:
    """Per-query cost and its derivative in the raw score y.

    squared_sigmoid: 0.5 * (sigm(target) - sigm(y))^2  (the target passes
    through the same squashing as the score); cross_entropy: logistic
    loss of sigm(y) against the target.
    """
    if kind == SQUARED_SIGMOID:
        st, sy = sigmoid(target), sigmoid(y)
        return 0.5 * (st - sy) ** 2, (sy - st) * sy * (1.0 - sy)
    if kind == CROSS_ENTROPY:
        return target * _softplus(-y) + (1.0 - target) * _softplus(y), sigmoid(y) - target
    raise ValueError(f"unknown cost kind {kind!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 100
    restarts: int = 3
    seed: int = 0
    init_range: tuple = (-1.0, 1.0)
    cost_kind: str = SQUARED_SIGMOID
    train_offsets: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError("learning_rate must be a finite number >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        lo, hi = self.init_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("init_range must be a finite open interval (lo < hi)")
        if self.cost_kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.cost_kind!r}")


@dataclass
class TrainingTask:
    template: Template
    examples: list
    queries: list  # QueryRow-like: .example_id, .atom, .target
    config: TrainConfig = field(default_factory=TrainConfig)
    family: str | None = None  # None -> template.family
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        self.family = self.family or self.template.family
        operations(self.family)  # rejects an unknown family
        ids = set()
        for ex in self.examples:
            if ex.example_id in ids:
                raise ValueError(f"example id {ex.example_id!r} is given twice")
            ids.add(ex.example_id)
        for q in self.queries:
            if q.example_id not in ids:
                raise ValueError(f"query references unknown example {q.example_id!r}")
            if not math.isfinite(q.target):
                raise ValueError(f"query target for {q.atom} is not finite")


@dataclass
class TrainReport:
    curves: list = field(default_factory=list)  # (restart, epoch, cost)
    finals: list = field(default_factory=list)  # (restart, final cost)
    skipped: list = field(default_factory=list)  # (restart, reason)
    best_restart: int | None = None

    def jsonl(self) -> str:
        lines = [json.dumps({"restart": r, "epoch": e, "cost": c}) for r, e, c in self.curves]
        lines += [json.dumps({"restart": r, "status": "diverged", "reason": reason})
                  for r, reason in self.skipped]
        if self.best_restart is not None:
            best = dict(self.finals)[self.best_restart]
            lines.append(json.dumps({"best_restart": self.best_restart, "final_cost": best}))
        return "".join(line + "\n" for line in lines)


def compile_networks(template: Template, examples, capacity: int = DEFAULT_CAPACITY) -> dict:
    """Example id -> ground network.  An example's network depends only
    on the template and its facts, so tasks over the same examples can
    share these."""
    return {ex.example_id: build(ground(template, ex.facts, capacity), template,
                                 ex.example_id, capacity) for ex in examples}


class CompiledTask:
    """One network per example, reused across epochs and restarts, and
    from the first online step on, or before `train` forks, one merge of
    the queried ones.

    `nets` (example id -> network, as from `compile_networks`) lets tasks
    over the same examples share networks; without it the task's
    examples are grounded here.  The merge depends only on the networks
    and the queries, not on `task.config`, so one compiled task may be
    trained under several configs in turn, with `task.config` set before
    each `train`.

    `scores` alone chooses how the task is priced, and `total_cost` sums
    its rows.  It builds no merge: a one-shot pass (predict, held-out
    folds, a task with nothing learnable) would not win it back.
    """

    def __init__(self, task: TrainingTask, nets: dict | None = None):
        self.task = task
        if nets is None:
            nets = compile_networks(task.template, task.examples, task.capacity)
        self.nets = [nets[ex.example_id] for ex in task.examples]
        by_example = {ex.example_id: [] for ex in task.examples}
        for q in task.queries:
            by_example[q.example_id].append(q)
        self.queries = [by_example[ex.example_id] for ex in task.examples]
        self._shared = None  # built by `_share`

    def _weights(self) -> list:
        """The learnable clause weights, in drawing order."""
        return sorted(c.clause_id for c in self.task.template.clauses if c.learnable)

    def learnable(self) -> frozenset:
        slope = operations(self.task.family)[CONJUNCTION][1]
        if self.task.config.train_offsets and slope is not None:  # a min ignores its offset
            return self.task.template.params.learnable
        return frozenset(self._weights())

    def initial_params(self, restart_seed: int) -> ParameterStore:
        params = self.task.template.params.copy()
        rng = random.Random(restart_seed)
        lo, hi = self.task.config.init_range
        for pid in self._weights():
            params[pid] = rng.uniform(lo, hi)
        return params

    def total_cost(self, params) -> float:
        """Summed cost of `scores`' rows, in their order; NaN when a score
        is not finite, since a cost would hide an infinite score."""
        total = 0.0
        kind = self.task.config.cost_kind
        for q, y, _missing in self.scores(params):
            total += cost(y, q.target, kind)[0] if math.isfinite(y) else math.nan
        return total

    def _share(self) -> tuple:
        """The queried examples' networks merged once: (network, (query,
        merged id or None) per query, per example None if unqueried, else
        (its merged ids sorted, but the facts', the merged id of each of
        its neurons, its network's cone order for `backward`, read off
        the merge, and per distinct query atom the network has, in first
        query order, (atom, (query, merged id) per query of it)))."""
        if self._shared is None:
            queried = [i for i, queries in enumerate(self.queries) if queries]
            shared, index = merge([self.nets[i] for i in queried])
            facts = {nid for nid, n in enumerate(shared.neurons) if n.kind == FACT}
            rows, parts = [], [None] * len(self.nets)
            for i, ids, order in zip(queried, index, _sweep_orders(shared.neurons, index)):
                scored = {}
                for q in self.queries[i]:
                    nid = self.nets[i].outputs.get(q.atom)
                    rows.append((q, None if nid is None else ids[nid]))
                    if nid is not None:
                        scored.setdefault(q.atom, []).append((q, ids[nid]))
                parts[i] = (sorted(set(ids) - facts), ids, order, list(scored.items()))
            self._shared = (shared, rows, parts)
        return self._shared

    def scores(self, params) -> list:
        """(query, score, missing) for every query, in example order: one
        `forward` over the task's merge once training has built it, else
        one per queried example.  A merged score differs from its example's
        own at most in the sign of a zero, which no cost tells apart."""
        if self._shared is not None:
            net, rows, _parts = self._shared
            values = forward(net, params, self.task.family).values
            return [(q, 0.0, True) if nid is None else (q, values[nid], False) for q, nid in rows]
        out = []
        for net, queries in zip(self.nets, self.queries):
            if not queries:
                continue
            vm = forward(net, params, self.task.family)
            for q in queries:
                y, missing = vm.output(net, q.atom)
                out.append((q, y, missing))
        return out


def sgd_epoch(compiled: CompiledTask, params, learnable, rng, epoch: int = 0) -> float:
    """One online pass: per-example gradient step, then the epoch cost
    over all queries under the post-epoch parameters.  Each step runs
    `forward` over the example's merged ids in the task's merge (built
    on the first step and kept with the task), reads each query's score
    off its merged id, and runs `backward` over the example's network
    itself, in the cone order kept with the merge, reading each neuron's
    value in place through the example's index: a merged twin's value
    differs at most in the sign of a zero, which no gradient tells
    apart.  The steps share one buffer per epoch: a step writes each
    slot it reads but the one fact slot, 1.0 throughout."""
    task = compiled.task
    cfg = task.config
    shared, _rows, parts = compiled._share()
    buffer = [1.0] * len(shared.neurons)
    order = list(range(len(compiled.nets)))
    rng.shuffle(order)
    lr, pv, kind = cfg.learning_rate, params.values, cfg.cost_kind
    for idx in order:
        if parts[idx] is None:  # no query
            continue
        ids, index, sweep, scored = parts[idx]
        vm = forward(shared, params, task.family, ids, buffer)
        values, query_grads = vm.values, {}
        for atom, pairs in scored:  # each score read off its merged twin's slot
            g = 0.0
            for q, nid in pairs:
                g += cost(values[nid], q.target, kind)[1]
            query_grads[atom] = g
        if not query_grads:
            continue
        vm.index = index  # each neuron's value is its merged twin's, read in place
        # Every gradient key is an id `forward` read from the store.
        for pid, g in backward(compiled.nets[idx], vm, query_grads, params, sweep).items():
            if pid in learnable:
                value = pv[pid] - lr * g
                if not math.isfinite(value):
                    raise DivergenceError(pid, epoch)
                pv[pid] = value
    return compiled.total_cost(params)


def _process_count() -> int:
    """CPUs this process may run restarts on; 1 without `os.fork` or
    while another thread runs, since a forked threaded process can deadlock."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _dealt(restart, restarts: int, processes: int) -> list:
    """`[restart(r) for r in range(restarts)]`, dealt round robin to
    `processes` groups: this process runs group 0 and forks a child per
    other group.  A group runs its restarts up to the first that raises;
    a child sends back marshal(their outcomes) and ends with `os._exit`.
    Once every child has replied or ended, this process runs, in restart
    order, each restart with no outcome: one that raised, or one whose
    child ended without a reply.  A restart depends only on its seed, so
    a lost one gives the same bytes here, and the lowest-numbered failing
    one raises its own exception, as in one process.  When a pipe or a
    fork fails, no more children are forked: the groups left have no
    outcome and run here.  No child outlives the call."""

    def run(group) -> dict:
        done = {}
        for r in range(group, restarts, processes):
            try:
                done[r] = restart(r)
            except Exception:  # raised again, in order, below
                break
        return done

    reads, pids = [], []
    try:
        for group in range(1, processes):
            import signal  # only a forking call pays for the import; `finally` kills with it
            try:
                read, write = os.pipe()
                reads.append(read)
                with open(write, "wb") as out:  # the parent's end closes after the fork
                    pid = os.fork()
                    if pid == 0:
                        try:
                            out.write(marshal.dumps(run(group)))
                            out.flush()
                            os._exit(0)
                        finally:
                            os._exit(1)
            except OSError:  # no process or pipe to spare: the groups left run here
                break
            pids.append(pid)
        outcomes = run(0)
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                reply = pipe.read()
            if reply:
                outcomes.update(marshal.loads(reply))
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a child that has replied is already ending
            os.waitpid(pid, 0)
    return [outcomes[r] if r in outcomes else restart(r) for r in range(restarts)]


def train(task: TrainingTask, compiled: CompiledTask | None = None) -> tuple:
    """Run all restarts; return (best ParameterStore, TrainReport).
    ValueError when `compiled` was built from another task.  With
    something learnable the restarts run on up to `_process_count()`
    processes, with the same result on any number."""
    compiled = compiled or CompiledTask(task)
    if compiled.task is not task:
        raise ValueError("train: `compiled` was built from another task")
    learnable = compiled.learnable()
    cfg = task.config
    # With nothing learnable every epoch of every restart prices the template's store.
    fixed = None if learnable else compiled.total_cost(task.template.params)

    def restart(r) -> tuple:
        """(epoch costs, final cost or why it is skipped, parameter values or None)."""
        seed = derive_seed(cfg.seed, "restart", r)
        params = compiled.initial_params(seed)
        rng = random.Random(derive_seed(seed, "shuffle"))
        costs = []
        try:
            for epoch in range(cfg.epochs):
                costs.append(sgd_epoch(compiled, params, learnable, rng, epoch) if learnable else fixed)
        except DivergenceError as err:
            return costs, str(err), None
        if not math.isfinite(costs[-1]):
            return costs, f"final cost {costs[-1]!r} is not finite", None
        return costs, costs[-1], params.values

    processes = min(_process_count(), cfg.restarts) if learnable else 1
    if processes > 1:  # the children share the merge and its cone orders copy-on-write
        compiled._share()
    outcomes = _dealt(restart, cfg.restarts, processes)
    report, best = TrainReport(), None
    for r, (costs, final, values) in enumerate(outcomes):
        report.curves += [(r, epoch, c) for epoch, c in enumerate(costs)]
        if isinstance(final, str):
            report.skipped.append((r, final))
            continue
        report.finals.append((r, final))
        if best is None or final < best[0]:
            best = (final, r, values)
    if best is None:
        raise AllRestartsFailedError("all restarts diverged")
    report.best_restart = best[1]
    return ParameterStore(best[2], task.template.params.learnable), report


def zero_one_error(pairs) -> float:
    """Mean classification disagreement at threshold 0.5 over (score, target)."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    wrong = sum(1 for score, target in pairs if (score > 0.5) != (target >= 0.5))
    return wrong / len(pairs)


def make_folds(example_ids, k: int, seed: int) -> dict:
    """Seeded shuffle + round robin: fold sizes differ by at most one."""
    ids = sorted(example_ids)
    if k < 2:
        raise ValueError("xval needs at least 2 folds")
    if len(ids) < k:
        raise ValueError("more folds than examples")
    rng = random.Random(derive_seed(seed, "folds"))
    rng.shuffle(ids)
    return {example_id: i % k for i, example_id in enumerate(ids)}


def crossvalidate(template: Template, examples, queries, k: int, lr_grid, restarts_grid,
                  epochs: int, seed: int, family: str | None = None,
                  cost_kind: str = SQUARED_SIGMOID, capacity: int = DEFAULT_CAPACITY,
                  target_reader=None) -> list:
    """Per-fold held-out 0/1 errors at threshold 0.5.

    Inner selection trains each (learning rate, restarts) grid point on
    the training folds and picks the lowest training risk (0/1 error,
    ties broken by the best restart's final cost, then grid order).
    Held-out targets are read only for the final fold evaluation; all
    target reads go through `target_reader(row, fold, purpose)` so tests
    can verify that.  The grid is validated before any grounding.  Each
    example is grounded once; every fold and grid point reuses its
    network.  A fold has one compiled task, trained under each grid
    point's config in turn, so its merge is built once for them all.
    """
    reader = target_reader or (lambda row, fold, purpose: row.target)
    folds = make_folds([ex.example_id for ex in examples], k, seed)
    for name, values in (("lr_grid", lr_grid), ("restarts_grid", restarts_grid)):
        if not values:
            raise ValueError(f"xval grid {name} is empty")
    for q in queries:
        if q.example_id not in folds:
            raise ValueError(f"query references unknown example {q.example_id!r}")
    grid = [TrainConfig(learning_rate=lr, epochs=epochs, restarts=restarts, cost_kind=cost_kind)
            for lr in lr_grid for restarts in restarts_grid]
    nets = compile_networks(template, examples, capacity)
    results = []
    for fold in range(k):
        train_examples = [ex for ex in examples if folds[ex.example_id] != fold]
        held_examples = [ex for ex in examples if folds[ex.example_id] == fold]
        rows = [QueryRow(q.example_id, q.atom, reader(q, fold, "train"))
                for q in queries if folds[q.example_id] != fold]
        task = TrainingTask(template, train_examples, rows, family=family)
        compiled, best = CompiledTask(task, nets), None
        for gi, cfg in enumerate(grid):
            task.config = replace(cfg, seed=derive_seed(seed, "fold", fold, "cfg", gi))
            try:
                params, report = train(task, compiled)
            except AllRestartsFailedError:
                continue
            pairs = [(score, reader(q, fold, "risk"))
                     for (q, score, _missing) in compiled.scores(params)]
            key = (zero_one_error(pairs), dict(report.finals)[report.best_restart], gi)
            if best is None or key < best[0]:
                best = (key, params)
        if best is None:
            raise AllRestartsFailedError(f"every grid point diverged on fold {fold}")
        rows = [QueryRow(q.example_id, q.atom, reader(q, fold, "test"))
                for q in queries if folds[q.example_id] == fold]
        held = CompiledTask(TrainingTask(template, held_examples, rows, family=family), nets)
        pairs = [(score, q.target) for q, score, _missing in held.scores(best[1])]
        results.append((fold, zero_one_error(pairs)))
    return results
