"""Weight learning: online SGD with restarts, over the networks and
passes of `network`.

Updates are online: after each example's queries are backpropagated,
weights move at once by w <- w - lr * grad; with nothing learnable the
online step is skipped and only the epoch cost is priced.  The online
step's `forward` runs over the example's compact form and `backward`
over the example's own network.  Restarts redraw the learnable weights
from Uniform(init_range) with seeds derived from the master seed, and
the restart with the lowest final training cost wins; a restart whose
parameters, final cost or final scores go non-finite is skipped and
noted in the report.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from .activations import CONJUNCTION, operations, sigmoid
from .errors import AllRestartsFailedError, DivergenceError
from .grounding import DEFAULT_CAPACITY, ground
from .logic import KIND_WEIGHT, ParameterStore, QueryRow, Template
from .network import backward, build, forward, merge

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
        ids = {ex.example_id for ex in self.examples}
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


def ground_networks(template: Template, examples, capacity: int = DEFAULT_CAPACITY):
    """Yield (example, grounding, network) for each example, in order.

    An example's network depends only on the template and its facts, so
    every caller that needs networks compiles them here, once.
    """
    for ex in examples:
        grounding = ground(template, ex.facts, capacity)
        yield ex, grounding, build(grounding, template, ex.example_id, capacity)


def compile_networks(template: Template, examples, capacity: int = DEFAULT_CAPACITY) -> dict:
    """Example id -> ground network."""
    return {ex.example_id: net for ex, _, net in ground_networks(template, examples, capacity)}


class CompiledTask:
    """One network per example, reused across epochs and restarts, and
    for the cost pass one merged network of the queried examples.

    `nets` (example id -> network, as from `compile_networks`) lets tasks
    over the same examples share networks; without it the task's
    examples are grounded here.

    `total_cost` prices its first call per example and merges on the
    second, since the merge costs one to two per-example passes that a
    task priced once would not win back; from then on a call is one
    `forward`, with a bit-identical sum.  `scores` (predict, held-out
    folds, xval's ranking) stays per example: a one-shot pass would pay
    more for the merge than it saves.
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
        self._priced = False
        self._shared = None  # (shared network, [(target, shared id or None)] per query)

    def learnable(self) -> frozenset:
        params = self.task.template.params
        pids = {pid for pid in params.learnable if params.kinds[pid] == KIND_WEIGHT}
        slope = operations(self.task.family)[CONJUNCTION][1]
        if self.task.config.train_offsets and slope is not None:  # a min ignores its offset
            pids.update(pid for pid in params.learnable if params.kinds[pid] != KIND_WEIGHT)
        return frozenset(pids)

    def initial_params(self, restart_seed: int) -> ParameterStore:
        params = self.task.template.params.copy()
        rng = random.Random(restart_seed)
        lo, hi = self.task.config.init_range
        for pid in sorted(p for p in params.learnable if params.kinds[p] == KIND_WEIGHT):
            params[pid] = rng.uniform(lo, hi)
        return params

    def total_cost(self, params) -> float:
        """Summed cost of every query, in input order; NaN when a score
        is not finite, since a cost would hide an infinite score."""
        if not self._priced:
            self._priced = True
            pairs = [(q.target, y) for q, y, _missing in self.scores(params)]
        else:
            if self._shared is None:
                self._shared = self._share()
            net, rows = self._shared
            values = forward(net, params, self.task.family).values
            pairs = [(target, 0.0 if nid is None else values[nid]) for target, nid in rows]
        total = 0.0
        kind = self.task.config.cost_kind
        for target, y in pairs:
            total += cost(y, target, kind)[0] if math.isfinite(y) else math.nan
        return total

    def _share(self) -> tuple:
        """The queried examples' networks merged, and (target, merged id
        or None) per query."""
        queried = [(net, queries) for net, queries in zip(self.nets, self.queries) if queries]
        shared, index = merge([net for net, _ in queried])
        rows = []
        for (net, queries), ids in zip(queried, index):
            for q in queries:
                nid = net.outputs.get(q.atom)
                rows.append((q.target, None if nid is None else ids[nid]))
        return shared, rows

    def scores(self, params) -> list:
        """(query, score, missing) for every query, input order."""
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
    `forward` over the example's compact form (built on its first step
    and kept with the network, so xval's folds share it) and `backward`
    over the network itself: a merged twin's value differs at most in
    the sign of a zero, which no gradient tells apart."""
    if not learnable:  # no gradient would be applied
        return compiled.total_cost(params)
    task = compiled.task
    cfg = task.config
    order = list(range(len(compiled.nets)))
    rng.shuffle(order)
    lr = cfg.learning_rate
    for idx in order:
        queries = compiled.queries[idx]
        if not queries:
            continue
        net = compiled.nets[idx]
        small, index = net.compact()
        vm = forward(small, params, task.family)
        vm.values = list(map(vm.values.__getitem__, index))  # each neuron's merged twin
        query_grads = {}
        for q in queries:
            y, missing = vm.output(net, q.atom)
            if missing:
                continue
            dy = cost(y, q.target, cfg.cost_kind)[1]
            query_grads[q.atom] = query_grads.get(q.atom, 0.0) + dy
        if not query_grads:
            continue
        grads = backward(net, vm, query_grads, params)
        for pid, g in grads.items():
            if pid in learnable:
                value = params[pid] - lr * g
                if not math.isfinite(value):
                    raise DivergenceError(pid, epoch)
                params[pid] = value
    return compiled.total_cost(params)


def train(task: TrainingTask, compiled: CompiledTask | None = None) -> tuple:
    """Run all restarts; return (best ParameterStore, TrainReport)."""
    compiled = compiled or CompiledTask(task)
    learnable = compiled.learnable()
    cfg = task.config
    report = TrainReport()
    best = None
    for restart in range(cfg.restarts):
        seed = derive_seed(cfg.seed, "restart", restart)
        params = compiled.initial_params(seed)
        rng = random.Random(derive_seed(seed, "shuffle"))
        final = None
        try:
            for epoch in range(cfg.epochs):
                final = sgd_epoch(compiled, params, learnable, rng, epoch)
                report.curves.append((restart, epoch, final))
        except DivergenceError as err:
            report.skipped.append((restart, str(err)))
            continue
        if not math.isfinite(final):
            report.skipped.append((restart, f"final cost {final!r} is not finite"))
            continue
        report.finals.append((restart, final))
        if best is None or final < best[0]:
            best = (final, restart, params.copy())
    if best is None:
        raise AllRestartsFailedError("all restarts diverged")
    report.best_restart = best[1]
    return best[2], report


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
    can verify that.  Each example is grounded once; every fold and grid
    point reuses its network.
    """
    reader = target_reader or (lambda row, fold, purpose: row.target)
    folds = make_folds([ex.example_id for ex in examples], k, seed)
    for name, values in (("lr_grid", lr_grid), ("restarts_grid", restarts_grid)):
        if not values:
            raise ValueError(f"xval grid {name} is empty")
    for q in queries:
        if q.example_id not in folds:
            raise ValueError(f"query references unknown example {q.example_id!r}")
    nets = compile_networks(template, examples, capacity)
    grid = [(lr, rs) for lr in lr_grid for rs in restarts_grid]
    results = []
    for fold in range(k):
        train_examples = [ex for ex in examples if folds[ex.example_id] != fold]
        held_examples = [ex for ex in examples if folds[ex.example_id] == fold]
        train_rows = [q for q in queries if folds[q.example_id] != fold]
        held_rows = [q for q in queries if folds[q.example_id] == fold]
        best = None
        for gi, (lr, restarts) in enumerate(grid):
            cfg = TrainConfig(learning_rate=lr, epochs=epochs, restarts=restarts,
                              seed=derive_seed(seed, "fold", fold, "cfg", gi),
                              cost_kind=cost_kind)
            rows = [QueryRow(q.example_id, q.atom, reader(q, fold, "train")) for q in train_rows]
            task = TrainingTask(template, train_examples, rows, cfg, family)
            compiled = CompiledTask(task, nets)
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
        rows = [QueryRow(q.example_id, q.atom, reader(q, fold, "test")) for q in held_rows]
        held = CompiledTask(TrainingTask(template, held_examples, rows, family=family), nets)
        pairs = [(score, q.target) for q, score, _missing in held.scores(best[1])]
        results.append((fold, zero_one_error(pairs)))
    return results
