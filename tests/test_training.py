"""Cost functions, reverse-mode gradients, SGD, restarts, prediction."""

import json
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lrnn import (FAMILIES, AllRestartsFailedError, Atom, CompiledTask, Constant,
                  DivergenceError, TrainConfig, TrainingTask, backward, build,
                  compile_networks, cost, crossvalidate, derive_seed, forward, ground,
                  parse_examples, parse_template, sgd_epoch, sigmoid, train, zero_one_error)
from lrnn import network, training
from lrnn.fixtures import fixture_names
from lrnn.logic import Example, QueryRow
from lrnn.network import GroundNetwork
from lrnn.training import COST_KINDS

from helpers import (compact_forward, grad_bits, load_examples, load_queries, load_template,
                     untied_copy)
from molecules import make_bond_dataset, planted_label
from oracles import (central_difference, per_example_total_cost, random_gradcheck_instance,
                     random_nonrecursive_program, randomize_params, rel_close)

LOG_TWO = 0.6931471805599453


def _atom(pred, *names):
    return Atom(pred, tuple(Constant(n) for n in names))


# ---------------------------------------------------------------------------
# Cost functions


def test_squared_sigmoid_pinned_value():
    value, _ = cost(0.0, 1.0, "squared_sigmoid")
    assert value == 0.026694033379259078
    assert cost(0.0, 0.0, "squared_sigmoid")[0] == 0.0
    assert cost(0.7, 0.7, "squared_sigmoid")[0] == 0.0


def test_squared_sigmoid_derivative():
    y, t = 0.3, 0.9
    _, dy = cost(y, t, "squared_sigmoid")
    sy, st = sigmoid(y), sigmoid(t)
    assert math.isclose(dy, (sy - st) * sy * (1.0 - sy), rel_tol=0, abs_tol=1e-15)
    fd = central_difference(lambda v: cost(v, t, "squared_sigmoid")[0], y)
    assert rel_close(dy, fd, 1e-7)


def test_cross_entropy_pinned_value():
    assert cost(0.0, 1.0, "cross_entropy")[0] == LOG_TWO
    assert cost(0.0, 0.0, "cross_entropy")[0] == LOG_TWO
    assert cost(0.0, 0.5, "cross_entropy")[1] == 0.0


def test_cross_entropy_derivative():
    for y, t in ((0.2, 1.0), (-3.0, 0.0), (40.0, 0.25), (-900.0, 1.0)):
        value, dy = cost(y, t, "cross_entropy")
        assert math.isfinite(value)
        assert math.isclose(dy, sigmoid(y) - t, rel_tol=0, abs_tol=1e-15)
    fd = central_difference(lambda v: cost(v, 0.25, "cross_entropy")[0], 0.7)
    assert rel_close(cost(0.7, 0.25, "cross_entropy")[1], fd, 1e-7)


def test_unknown_cost_kind_rejected():
    with pytest.raises(ValueError):
        cost(0.0, 1.0, "hinge")


# ---------------------------------------------------------------------------
# Seeds


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(0, "restart", 1) == derive_seed(0, "restart", 1)
    assert derive_seed(0, "restart", 1) != derive_seed(0, "restart", 2)
    assert derive_seed(0, "restart", 1) != derive_seed(1, "restart", 1)
    assert derive_seed("a", "b") != derive_seed("ab")


# ---------------------------------------------------------------------------
# Reverse-mode gradients vs central finite differences


def _loss_and_grads(template, facts, query_targets, params, family):
    net = build(ground(template, facts), template)
    vm = forward(net, params, family)
    seeds = {}
    total = 0.0
    for query, target in query_targets:
        y, missing = vm.output(net, query)
        assert not missing
        value, dy = cost(y, target)
        total += value
        seeds[query] = seeds.get(query, 0.0) + dy
    return net, vm, total, backward(net, vm, seeds, params)


def _check_gradients(instance, family, tol=1e-5, label="drawn program"):
    template, facts, query_targets, params = instance
    _, _, _, grads = _loss_and_grads(template, facts, query_targets, params, family)

    def loss_at(pid, v):
        probe = params.copy()
        probe[pid] = v
        _, _, total, _ = _loss_and_grads(template, facts, query_targets,
                                         probe, family)
        return total

    for pid in sorted(params.learnable):
        fd = central_difference(lambda v: loss_at(pid, v), params[pid])
        assert rel_close(grads.get(pid, 0.0), fd, tol), f"family {family} {label} pid {pid}"


def _run_gradcheck(family, wanted, tol=1e-5):
    checked, seed = 0, 0
    while checked < wanted:
        seed += 1
        assert seed < 400, "generator starved"
        instance = random_gradcheck_instance(seed, family)
        if instance is None:
            continue
        _check_gradients(instance, family, tol, f"seed {seed}")
        checked += 1
    return checked


def test_gradients_match_finite_differences_mean_family():
    assert _run_gradcheck("as", 25) == 25


def test_gradients_match_finite_differences_max_family():
    assert _run_gradcheck("ms", 25) == 25


@pytest.mark.parametrize("family", ["as", "ms"])
@given(st.randoms(use_true_random=False))
def test_gradients_match_finite_differences_on_drawn_programs(family, rng):
    # The program is drawn from Hypothesis's random, so a failing one shrinks.
    instance = random_gradcheck_instance(rng, family)
    assume(instance is not None)
    _check_gradients(instance, family)


def test_untied_gradients_sum_to_tied_gradient():
    for family in ("ms", "as"):
        checked, seed = 0, 0
        while checked < 8:
            seed += 1
            assert seed < 200
            instance = random_gradcheck_instance(seed, family)
            if instance is None:
                continue
            template, facts, query_targets, params = instance
            net, vm, _, tied = _loss_and_grads(template, facts, query_targets,
                                               params, family)
            copy, store, mapping = untied_copy(net, params)
            vm2 = forward(copy, store, family)
            assert vm2.values == vm.values
            seeds = {}
            for query, target in query_targets:
                y, _ = vm2.output(copy, query)
                seeds[query] = seeds.get(query, 0.0) + cost(y, target)[1]
            untied = backward(copy, vm2, seeds, store)
            summed = {}
            for new_pid, old_pid in mapping.items():
                summed[old_pid] = summed.get(old_pid, 0.0) + untied.get(new_pid, 0.0)
            for pid in set(tied) | set(summed):
                assert abs(tied.get(pid, 0.0) - summed.get(pid, 0.0)) <= 1e-10
            checked += 1


def test_max_aggregation_routes_gradient_to_winner_only():
    t = parse_template("? :: out :- inp(X).", "src")
    facts = ((0.9, _atom("inp", "a")), (0.2, _atom("inp", "b")))
    params = t.params.copy()
    params["src:0"] = 1.0
    net = build(ground(t, facts), t)
    copy, store, mapping = untied_copy(net, params)
    vm = forward(copy, store, "ms")
    grads = backward(copy, vm, {Atom("out", ()): 1.0}, store)
    # after untying, each ground rule has its own conjunction offset, so
    # only the argmax branch (the inp(a) instance) may receive gradient
    winner_nid = copy.outputs[_atom("inp", "a")]
    conj_pids = {}
    for neuron in copy.neurons:
        if neuron.offset_pid is not None and mapping.get(neuron.offset_pid) == "src:0:conj":
            conj_pids[neuron.offset_pid] = winner_nid in neuron.inputs
    assert sorted(conj_pids.values()) == [False, True]
    for pid, is_winner in conj_pids.items():
        assert (grads.get(pid, 0.0) != 0.0) == is_winner


# ---------------------------------------------------------------------------
# SGD mechanics


def _tiny_task(**overrides):
    defaults = dict(learning_rate=0.5, epochs=10, restarts=1, seed=0)
    defaults.update(overrides)
    # learnable rewrite of the pressure rules so there is something to train
    text = "? :: highPressure(X) :- stressed(X).\n" \
           "? :: highPressure(X) :- obese(X).\n" \
           "? :: highPressure(X) :- exercises(X)."
    template = parse_template(text, "pressure")
    examples = load_examples("pressure")
    queries = load_queries("pressure")
    cfg = TrainConfig(**defaults)
    return TrainingTask(template, examples, queries, cfg, "ms")


def test_zero_learning_rate_keeps_parameters():
    task = _tiny_task(learning_rate=0.0, epochs=3)
    compiled = CompiledTask(task)
    params = compiled.initial_params(derive_seed(0, "restart", 0))
    before = params.copy()
    rng = random.Random(1)
    returned = sgd_epoch(compiled, params, compiled.learnable(), rng)
    assert params == before
    assert returned == compiled.total_cost(params)


def test_single_example_step_is_linear_in_learning_rate():
    base = _tiny_task(epochs=1)
    compiled = CompiledTask(base)
    start = compiled.initial_params(derive_seed(7, "restart", 0))
    deltas = {}
    for lr in (0.25, 0.5):
        task = _tiny_task(learning_rate=lr, epochs=1)
        c = CompiledTask(task)
        params = start.copy()
        sgd_epoch(c, params, c.learnable(), random.Random(3))
        deltas[lr] = {pid: params[pid] - start[pid] for pid in params}
    for pid, small in deltas[0.25].items():
        assert math.isclose(deltas[0.5][pid], 2.0 * small, rel_tol=0, abs_tol=1e-12)


def test_training_descends_on_tiny_task():
    task = _tiny_task(epochs=40, learning_rate=1.0)
    compiled = CompiledTask(task)
    start = compiled.initial_params(derive_seed(0, "restart", 0))
    initial = compiled.total_cost(start)
    params, report = train(task, compiled)
    assert compiled.total_cost(params) < initial


def test_train_is_deterministic():
    task1 = _tiny_task(epochs=5, restarts=2, seed=11)
    task2 = _tiny_task(epochs=5, restarts=2, seed=11)
    params1, report1 = train(task1)
    params2, report2 = train(task2)
    assert params1 == params2
    assert report1.jsonl() == report2.jsonl()


def test_different_seeds_differ():
    params1, _ = train(_tiny_task(epochs=5, seed=1))
    params2, _ = train(_tiny_task(epochs=5, seed=2))
    assert params1 != params2


def test_best_restart_minimises_final_cost():
    task = _tiny_task(epochs=6, restarts=4, seed=3)
    compiled = CompiledTask(task)
    params, report = train(task, compiled)
    assert len(report.finals) == 4
    best_restart, best_cost = min(report.finals, key=lambda rc: rc[1])
    assert report.best_restart == best_restart
    assert compiled.total_cost(params) == best_cost
    assert len(report.curves) == 4 * 6
    for line in report.jsonl().splitlines():
        json.loads(line)


def test_returned_parameters_are_a_copy():
    task = _tiny_task(epochs=2)
    params, _ = train(task)
    pid = sorted(params.learnable)[0]
    params[pid] = 123.0
    assert task.template.params[pid] != 123.0


def test_initial_params_reproducible_and_offsets_reset():
    task = _tiny_task()
    compiled = CompiledTask(task)
    a = compiled.initial_params(42)
    b = compiled.initial_params(42)
    c = compiled.initial_params(43)
    assert a == b and a != c
    for pid in a:
        if pid.endswith(":conj"):
            assert a[pid] == 1.0
        elif pid.endswith(":disj"):
            assert a[pid] == 0.0
        else:
            assert -1.0 <= a[pid] <= 1.0


def test_divergence_detected_on_poisoned_parameters():
    task = _tiny_task()
    compiled = CompiledTask(task)
    params = compiled.initial_params(0)
    pid = sorted(compiled.learnable())[0]
    params[pid] = float("nan")
    with pytest.raises(DivergenceError) as exc:
        sgd_epoch(compiled, params, compiled.learnable(), random.Random(0))
    assert exc.value.pid


def test_all_restarts_failed(monkeypatch):
    task = _tiny_task(restarts=3, epochs=2)

    def poisoned(self, restart_seed):
        params = self.task.template.params.copy()
        for pid in params.learnable:
            params[pid] = float("nan")
        return params

    monkeypatch.setattr(CompiledTask, "initial_params", poisoned)
    with pytest.raises(AllRestartsFailedError):
        train(task)


def test_partial_restart_failure_is_skipped(monkeypatch):
    task = _tiny_task(restarts=3, epochs=3, seed=5)
    original = CompiledTask.initial_params
    calls = []

    def first_poisoned(self, restart_seed):
        params = original(self, restart_seed)
        calls.append(restart_seed)
        if len(calls) == 1:
            for pid in params.learnable:
                params[pid] = float("nan")
        return params

    monkeypatch.setattr(CompiledTask, "initial_params", first_poisoned)
    params, report = train(task)
    assert [r for r, _reason in report.skipped] == [0]
    assert {r for r, _ in report.finals} == {1, 2}
    assert report.best_restart in (1, 2)


def test_non_finite_final_cost_restart_is_skipped(monkeypatch):
    task = _tiny_task(restarts=3, epochs=2, seed=5)
    real_epoch = training.sgd_epoch
    calls = []

    def nan_first_restart(*args, **kwargs):
        calls.append(1)
        final = real_epoch(*args, **kwargs)
        return math.nan if len(calls) <= 2 else final

    monkeypatch.setattr(training, "sgd_epoch", nan_first_restart)
    _params, report = train(task)
    assert [r for r, _reason in report.skipped] == [0]
    assert "not finite" in report.skipped[0][1]
    assert {r for r, _ in report.finals} == {1, 2}
    assert report.best_restart in (1, 2)


# ---------------------------------------------------------------------------
# Configuration validation


@pytest.mark.parametrize("overrides", [
    dict(learning_rate=-0.1),
    dict(epochs=0),
    dict(restarts=0),
    dict(init_range=(1.0, 1.0)),
    dict(init_range=(2.0, -2.0)),
    dict(cost_kind="mse"),
    dict(learning_rate=math.nan),
    dict(learning_rate=math.inf),
    dict(init_range=(-math.inf, 0.0)),
    dict(init_range=(0.0, math.inf)),
    dict(init_range=(math.nan, 1.0)),
])
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        TrainConfig(**overrides)


def test_task_validation():
    template = load_template("pressure")
    examples = load_examples("pressure")
    queries = load_queries("pressure")
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        TrainingTask(template, examples, queries, cfg, "boolean")
    stray = [QueryRow("ghost", Atom("highPressure", (Constant("alice"),)), 1.0)]
    with pytest.raises(ValueError):
        TrainingTask(template, examples, queries + stray, cfg, "ms")
    bad_target = [QueryRow("p", Atom("highPressure", (Constant("alice"),)), float("nan"))]
    with pytest.raises(ValueError):
        TrainingTask(template, examples, bad_target, cfg, "ms")


def test_offsets_follow_family_and_freeze_flag():
    task_ms = _tiny_task()
    assert any(pid.endswith((":conj", ":disj")) for pid in CompiledTask(task_ms).learnable())

    frozen_cfg = TrainConfig(train_offsets=False)
    template = task_ms.template
    task_frozen = TrainingTask(template, task_ms.examples, task_ms.queries,
                               frozen_cfg, "ms")
    learnable = CompiledTask(task_frozen).learnable()
    assert not any(pid.endswith((":conj", ":disj")) for pid in learnable)

    task_godel = TrainingTask(template, task_ms.examples, task_ms.queries,
                              TrainConfig(), "godel")
    learnable = CompiledTask(task_godel).learnable()
    assert not any(pid.endswith((":conj", ":disj")) for pid in learnable)


@pytest.mark.parametrize("train_offsets", [True, False])
@pytest.mark.parametrize("family", FAMILIES)
def test_learnable_sets_per_family(family, train_offsets):
    weights = {"pressure:0", "pressure:1", "pressure:2"}
    offsets = {"pressure:0:conj", "pressure:1:conj", "pressure:2:conj", "pressure:0:disj"}
    tiny = _tiny_task(train_offsets=train_offsets)
    task = TrainingTask(tiny.template, tiny.examples, tiny.queries, tiny.config, family)
    want = weights | offsets if train_offsets and family != "godel" else weights
    assert CompiledTask(task).learnable() == want


def test_frozen_offsets_keep_initial_values():
    task = _tiny_task(epochs=5, train_offsets=False)
    params, _ = train(task)
    for pid in params:
        if pid.endswith(":conj"):
            assert params[pid] == 1.0
        elif pid.endswith(":disj"):
            assert params[pid] == 0.0


# ---------------------------------------------------------------------------
# Prediction helpers


def _scores(template, params, example, atoms, family=None):
    """(score, missing) per query atom, through CompiledTask.scores."""
    rows = [QueryRow(example.example_id, atom, 0.0) for atom in atoms]
    task = TrainingTask(template, [example], rows, family=family)
    return [(score, missing) for _q, score, missing in CompiledTask(task).scores(params)]


def test_predict_pinned_family_values():
    template = load_template("family", family="godel")
    example = load_examples("family")[0]
    assert _scores(template, template.params, example,
                   [_atom("mother", "bob", "alice"), _atom("father", "bob", "alice")]) == [
        (1.0, False), (0.0, True)]


def test_predict_fact_passthrough():
    template = parse_template("", "src")
    example = Example("e", ((0.7, _atom("p", "a")),))
    assert _scores(template, template.params, example, [_atom("p", "a")], "ms") == [(0.7, False)]


def test_zero_one_error_threshold():
    assert zero_one_error([(0.6, 1.0), (0.4, 0.0)]) == 0.0
    assert zero_one_error([(0.6, 0.0), (0.4, 1.0)]) == 1.0
    assert zero_one_error([(0.5, 0.5)]) == 1.0  # 0.5 scores as negative
    assert zero_one_error([(0.51, 0.5)]) == 0.0


# ---------------------------------------------------------------------------
# Planted-rule dataset


def test_bond_dataset_shape_and_balance():
    examples, queries = make_bond_dataset(20, seed=0)
    assert len(examples) == len(queries) == 20
    assert len({ex.example_id for ex in examples}) == 20
    targets = [q.target for q in queries]
    assert targets.count(1.0) == targets.count(0.0) == 10
    by_id = {ex.example_id: ex for ex in examples}
    for q in queries:
        assert planted_label(by_id[q.example_id].facts) == (q.target == 1.0)


def test_bond_dataset_deterministic():
    a = make_bond_dataset(12, seed=4)
    b = make_bond_dataset(12, seed=4)
    assert a == b
    c = make_bond_dataset(12, seed=5)
    assert a != c


def test_compiled_task_uses_prebuilt_networks():
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=1)
    nets = compile_networks(template, examples)
    task = TrainingTask(template, examples[2:], queries[2:], TrainConfig(), "ms")
    shared = CompiledTask(task, nets)
    assert [id(net) for net in shared.nets] == [id(nets[ex.example_id]) for ex in examples[2:]]
    own = CompiledTask(task)
    params = own.initial_params(5)
    assert shared.scores(params) == own.scores(params)
    assert shared.total_cost(params) == own.total_cost(params)


def test_crossvalidate_grounds_each_example_once(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(10, seed=0)
    grounded = []
    real_ground = training.ground

    def counting_ground(tmpl, facts, capacity):
        grounded.append(facts)
        return real_ground(tmpl, facts, capacity)

    monkeypatch.setattr(training, "ground", counting_ground)
    crossvalidate(template, examples, queries, 5, [0.5, 2.0], [1, 2], 1, 0, "ms")
    assert grounded == [ex.facts for ex in examples]


def test_crossvalidate_ranks_by_reported_final_cost(monkeypatch):
    # Every cost pass belongs to an SGD epoch; grid points are ranked by
    # the final cost train() reported, not by one more pass.
    template = load_template("explosives")
    examples, queries = make_bond_dataset(10, seed=0)
    calls = []
    real_total_cost = CompiledTask.total_cost

    def counting_total_cost(self, params):
        calls.append(1)
        return real_total_cost(self, params)

    monkeypatch.setattr(CompiledTask, "total_cost", counting_total_cost)
    k, lr_grid, restarts_grid, epochs = 5, [0.5, 2.0], [1, 2], 2
    crossvalidate(template, examples, queries, k, lr_grid, restarts_grid, epochs, 0, "ms")
    assert len(calls) == k * len(lr_grid) * sum(restarts_grid) * epochs


# ---------------------------------------------------------------------------
# The cost pass over the network shared by all examples


def _cost_bits(compiled, params):
    """(total_cost, per-example reference) as exact bit patterns."""
    return compiled.total_cost(params).hex(), per_example_total_cost(compiled, params).hex()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", fixture_names())
def test_total_cost_is_per_example_sum_on_fixtures(name, family):
    template = load_template(name, family)
    examples, queries = load_examples(name), load_queries(name)
    rng = random.Random(f"{name}/{family}")
    for kind in COST_KINDS:
        task = TrainingTask(template, examples, queries, TrainConfig(cost_kind=kind), family)
        compiled = CompiledTask(task)
        for _ in range(3):  # the first call prices per example, later ones share
            got, want = _cost_bits(compiled, randomize_params(template, rng))
            assert got == want, kind
        assert compiled._shared is not None


@pytest.mark.parametrize("family", FAMILIES)
@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_total_cost_is_per_example_sum_on_drawn_programs(family, rng, weighted_facts):
    template, facts = random_nonrecursive_program(rng, weighted_facts=weighted_facts,
                                                  learnable_rules=True)
    examples = [Example(f"e{i}", tuple(f for f in facts if rng.random() < 0.7))
                for i in range(4)] + [Example("all", facts), Example("again", facts)]
    atoms = sorted({a for net in compile_networks(template, examples).values()
                    for a in net.outputs}, key=str)
    assume(atoms)
    queries = [QueryRow(ex.example_id, rng.choice(atoms), round(rng.random(), 3))
               for ex in examples for _ in range(rng.randint(0, 3))]
    task = TrainingTask(template, examples, queries, TrainConfig(), family)
    compiled = CompiledTask(task)
    for _ in range(3):
        got, want = _cost_bits(compiled, randomize_params(template, rng))
        assert got == want


def test_renamed_constants_add_no_shared_neuron():
    # The renaming keeps the constants' order, so instances keep theirs.
    template = load_template("explosives")
    examples, queries = make_bond_dataset(1, seed=3)
    (ex,), (q,) = examples, queries

    def rename(atom):
        return Atom(atom.pred, tuple(Constant("z" + c.name) for c in atom.args))

    copy = Example("copy", tuple((w, rename(atom)) for w, atom in ex.facts))
    sizes = []
    for exs, qs in (([ex], [q]), ([ex, copy], [q, QueryRow("copy", rename(q.atom), q.target)])):
        compiled = CompiledTask(TrainingTask(template, exs, qs, TrainConfig(), "ms"))
        params = compiled.initial_params(1)
        compiled.total_cost(params)
        compiled.total_cost(params)
        sizes.append(len(compiled._shared[0].neurons))
    assert sizes[0] == sizes[1] < len(compiled.nets[0].neurons)


@pytest.mark.parametrize("family", FAMILIES)
def test_signed_zero_fact_weights_cost_the_same(family):
    # ConstRef(0.0) == ConstRef(-0.0): the two examples' fact edges merge.
    template = parse_template("0.5 :: p(X) :- e(X).\n-0.5 :: q :- p(X), e(X).", "t")
    examples = parse_examples("#example pos\n0.0 :: e(a).\n#example neg\n-0.0 :: e(a).\n")
    a = Atom("e", (Constant("a"),))
    queries = [QueryRow(ex.example_id, atom, target) for ex in examples
               for atom, target in ((a, 1.0), (Atom("p", a.args), 0.0), (Atom("q", ()), 1.0))]
    for kind in COST_KINDS:
        compiled = CompiledTask(TrainingTask(template, examples, queries,
                                             TrainConfig(cost_kind=kind), family))
        for _ in range(3):
            got, want = _cost_bits(compiled, template.params)
            assert got == want, kind
        assert len(compiled._shared[0].neurons) == len(compiled.nets[0].neurons)


# ---------------------------------------------------------------------------
# The online step over each example's compact form


def _train_bits(task, monkeypatch, compact):
    """train() with or without the compact form: (parameter bits, report)."""
    with monkeypatch.context() as m:
        if not compact:
            m.setattr(GroundNetwork, "compact",
                      lambda self: (self, list(range(len(self.neurons)))))
        params, report = train(task, CompiledTask(task))
    return [(pid, params[pid].hex()) for pid in params], report.jsonl()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", fixture_names())
def test_training_is_the_same_with_and_without_compaction(name, family, monkeypatch):
    template = load_template(name, family)
    task = TrainingTask(template, load_examples(name), load_queries(name),
                        TrainConfig(learning_rate=2.0, epochs=3, restarts=2, seed=7), family)
    assert _train_bits(task, monkeypatch, True) == _train_bits(task, monkeypatch, False)


def test_signed_zero_facts_train_the_same_with_and_without_compaction(monkeypatch):
    # Under godel p(b) = max(w * 1.0, -0.0) = -0.0 for w < 0; the compact
    # form merges p(b) into p(a), whose value is 0.0.
    template = parse_template("? :: p(X) :- e(X).\n? :: q :- p(X).", "t")
    (ex,) = parse_examples("#example z\n1.0 :: e(a).\n1.0 :: e(b).\n0.0 :: p(a).\n-0.0 :: p(b).\n")
    queries = [QueryRow("z", Atom("q", ()), 1.0), QueryRow("z", _atom("p", "b"), 0.0)]
    cfg = TrainConfig(learning_rate=0.5, epochs=4, restarts=3, init_range=(-1.0, -0.1))
    flipped = 0
    for family in FAMILIES:
        task = TrainingTask(template, [ex], queries, cfg, family)
        compiled = CompiledTask(task)
        net, params = compiled.nets[0], compiled.initial_params(1)
        got, want = compact_forward(net, params, family), forward(net, params, family)
        assert got.values == want.values
        flipped += [v.hex() for v in got.values] != [v.hex() for v in want.values]
        seeds = {q.atom: 0.25 for q in queries}
        assert grad_bits(backward(net, got, seeds, params)) == \
            grad_bits(backward(net, want, seeds, params))
        assert _train_bits(task, monkeypatch, True) == _train_bits(task, monkeypatch, False)
    assert flipped  # the example does show a zero whose sign the merge flips


def _count_compactions(monkeypatch):
    """The networks passed to each merge the compact form makes."""
    merged = []
    real = network.merge

    def counting(nets):
        merged.append([id(net) for net in nets])
        return real(nets)

    monkeypatch.setattr(network, "merge", counting)
    return merged


def test_crossvalidate_compacts_each_example_at_most_once(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(10, seed=0)
    merged = _count_compactions(monkeypatch)
    crossvalidate(template, examples, queries, 5, [0.5, 2.0], [1, 2], 2, 0, "ms")
    nets = [net_id for call in merged for net_id in call]
    assert all(len(call) == 1 for call in merged)
    assert 0 < len(nets) == len(set(nets)) <= len(examples)


def test_scores_never_compact(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=1)
    merged = _count_compactions(monkeypatch)
    compiled = CompiledTask(TrainingTask(template, examples, queries, TrainConfig(), "ms"))
    compiled.scores(compiled.initial_params(3))
    assert merged == []
    assert all(net._compact is None for net in compiled.nets)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(training, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, name, counting)
    return calls


def test_train_forward_calls_per_epoch_and_restart(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=2)
    queries = [q for q in queries if q.example_id != examples[0].example_id]
    epochs, restarts, n = 3, 2, len(examples) - 1
    task = TrainingTask(template, examples, queries,
                        TrainConfig(epochs=epochs, restarts=restarts), "ms")
    compiled = CompiledTask(task)
    calls = _count_calls(monkeypatch, "forward")
    train(task, compiled)
    # The online step is per example; the first cost pass prices each
    # example, every later one runs once over the shared network.
    assert len(calls) == n * epochs * restarts + n + (epochs * restarts - 1)


def test_nothing_learnable_skips_the_online_step(monkeypatch):
    # Fixed clause weights under godel: no parameter can move.
    template = parse_template("0.5 :: gr1(A) :- o(A).\n-0.5 :: gr2(A) :- h(A).\n"
                              "1.0 :: explosive :- gr1(A), b(A,B), gr2(B).", "fixed")
    examples, queries = make_bond_dataset(6, seed=2)
    cfg = TrainConfig(epochs=3, restarts=2)
    runs = []
    for patched in (False, True):
        task = TrainingTask(template, examples, queries, cfg, "godel")
        compiled = CompiledTask(task)
        assert compiled.learnable() == frozenset()
        if patched:  # a pid no gradient names: the online step runs, moves nothing
            monkeypatch.setattr(compiled, "learnable", lambda: frozenset({"no such pid"}))
        forwards = _count_calls(monkeypatch, "forward")
        backwards = _count_calls(monkeypatch, "backward")
        params, report = train(task, compiled)
        runs.append((params, report, len(forwards), len(backwards)))
        monkeypatch.undo()
    (skipped, report, forwards, backwards), (full, full_report, full_forwards, _) = runs
    assert (forwards, backwards) == (len(examples) + 3 * 2 - 1, 0)
    assert full_forwards == forwards + len(examples) * 3 * 2
    assert skipped == full == template.params
    assert report.jsonl() == full_report.jsonl()


def test_latent_rule_is_learnable_on_small_sample():
    template = load_template("explosives")
    examples, queries = make_bond_dataset(20, seed=0)
    cfg = TrainConfig(learning_rate=5.0, epochs=200, restarts=5, seed=0)
    task = TrainingTask(template, examples, queries, cfg, "ms")
    compiled = CompiledTask(task)
    params, _ = train(task, compiled)
    pairs = [(score, q.target) for q, score, _ in compiled.scores(params)]
    assert zero_one_error(pairs) <= 0.05
