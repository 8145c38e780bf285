"""Cost functions, reverse-mode gradients, SGD, restarts, prediction."""

import dataclasses
import errno
import json
import math
import os
import random
import threading

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lrnn import (FAMILIES, AllRestartsFailedError, Atom, CompiledTask, Constant,
                  DivergenceError, TrainConfig, TrainingTask, backward, build,
                  compile_networks, cost, crossvalidate, derive_seed, forward, ground,
                  parse_examples, parse_template, sgd_epoch, sigmoid, train, zero_one_error)
from lrnn import network, training
from lrnn.cli import main
from lrnn.errors import CapacityError, ParseError, RecursiveTemplateError
from lrnn.fixtures import fixture_dir, fixture_names
from lrnn.grounding import DEFAULT_CAPACITY
from lrnn.logic import Example, QueryRow
from lrnn.training import COST_KINDS

from helpers import (grad_bits, load_examples, load_queries, load_template, merged_forward,
                     untied_copy)
from molecules import make_bond_dataset, planted_label
from oracles import (central_difference, cone_order, per_example_total_cost,
                     random_gradcheck_instance, random_nonrecursive_program, randomize_params,
                     rel_close, unshared_merge)

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


def test_train_refuses_a_compiled_task_of_another_task():
    task = _tiny_task(epochs=2)
    other = _tiny_task(epochs=2, learning_rate=5.0)
    with pytest.raises(ValueError, match="another task"):
        train(task, CompiledTask(other))
    params, _ = train(task, CompiledTask(task))
    assert params == train(task)[0]


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
    assert exc.value.epoch == 0  # sgd_epoch's default epoch


def test_train_config_defaults():
    # `lrnn train` and `lrnn xval` take their defaults from these fields.
    assert dataclasses.asdict(TrainConfig()) == {
        "learning_rate": 0.5, "epochs": 100, "restarts": 3, "seed": 0, "init_range": (-1.0, 1.0),
        "cost_kind": "squared_sigmoid", "train_offsets": True}
    assert DEFAULT_CAPACITY == 10**7  # the budget the README states


def test_process_count_is_this_process_affinity(monkeypatch):
    asked = []
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: asked.append(pid) or {0, 2, 5},
                        raising=False)
    assert (training._process_count(), asked) == (3, [0])


def test_process_count_without_sched_getaffinity_is_the_cpu_count(monkeypatch):
    # As on macOS; and 1 when even the CPU count is unknown.
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert training._process_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert training._process_count() == 1


def test_final_cost_reason_reads_the_last_epoch(monkeypatch):
    task = _tiny_task(restarts=2, epochs=3)
    drawn = _restart_stores(monkeypatch, task, 0)
    real_epoch = training.sgd_epoch

    def nan_last_epoch_of_restart_0(compiled, params, learnable, rng, epoch):
        final = real_epoch(compiled, params, learnable, rng, epoch)
        return math.nan if epoch == 2 and any(params is p for p in drawn) else final

    monkeypatch.setattr(training, "sgd_epoch", nan_last_epoch_of_restart_0)
    _pin_processes(monkeypatch, 1)
    _params, report = train(task)
    assert report.skipped == [(0, "final cost nan is not finite")]
    assert all(math.isfinite(c) for r, e, c in report.curves if (r, e) != (0, 2))
    assert report.best_restart == 1


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


def _pin_processes(monkeypatch, processes):
    """Run `train`'s restarts on this many processes; 1 keeps them in this one."""
    monkeypatch.setattr(training, "_process_count", lambda: processes)


def _restart_stores(monkeypatch, task, restart):
    """The stores one restart draws in this process, found by its seed."""
    seed, drawn = derive_seed(task.config.seed, "restart", restart), []
    real = CompiledTask.initial_params

    def marking(self, restart_seed):
        params = real(self, restart_seed)
        if restart_seed == seed:
            drawn.append(params)
        return params

    monkeypatch.setattr(CompiledTask, "initial_params", marking)
    return drawn


def test_partial_restart_failure_is_skipped(monkeypatch):
    task = _tiny_task(restarts=3, epochs=3, seed=5)
    original = CompiledTask.initial_params
    first = derive_seed(task.config.seed, "restart", 0)

    def first_poisoned(self, restart_seed):
        params = original(self, restart_seed)
        if restart_seed == first:
            for pid in params.learnable:
                params[pid] = float("nan")
        return params

    monkeypatch.setattr(CompiledTask, "initial_params", first_poisoned)
    for processes in (1, 3):  # in this process, then on forked children
        _pin_processes(monkeypatch, processes)
        params, report = train(task)
        assert [r for r, _reason in report.skipped] == [0]
        assert {r for r, _ in report.finals} == {1, 2}
        assert report.best_restart in (1, 2)


def test_non_finite_final_cost_restart_is_skipped(monkeypatch):
    task = _tiny_task(restarts=3, epochs=2, seed=5)
    drawn = _restart_stores(monkeypatch, task, 0)
    real_epoch = training.sgd_epoch

    def nan_first_restart(compiled, params, *args, **kwargs):
        final = real_epoch(compiled, params, *args, **kwargs)
        return math.nan if any(params is p for p in drawn) else final

    monkeypatch.setattr(training, "sgd_epoch", nan_first_restart)
    for processes in (1, 3):  # in this process, then on forked children
        _pin_processes(monkeypatch, processes)
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


def test_task_rejects_an_example_id_given_twice():
    # The parser rejects this too; the task indexes examples by position.
    template = parse_template("0.5 :: p(X) :- e(X).", "t")
    examples = [Example("x", ((1.0, _atom("e", "a")),)), Example("x", ())]
    with pytest.raises(ValueError, match="example id 'x' is given twice"):
        TrainingTask(template, examples, [QueryRow("x", _atom("q"), 1.0)], TrainConfig(), "ms")


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
    assert zero_one_error([]) == 0.0
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
    # the final cost train() reported, not by one more pass.  Calls are
    # counted in this process, so every restart runs here.
    _pin_processes(monkeypatch, 1)
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
        for merged in (False, True):  # priced per example, then over the merge
            if merged:
                compiled._share()
            for _ in range(2):
                params = randomize_params(template, rng)
                got, want = _cost_bits(compiled, params)
                assert got == want, kind
                assert compiled.scores(params) == CompiledTask(task).scores(params)
            assert (compiled._shared is not None) == merged


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
    for merged in (False, True):  # priced per example, then over the merge
        if merged:
            compiled._share()
        for _ in range(2):
            params = randomize_params(template, rng)
            got, want = _cost_bits(compiled, params)
            assert got == want
            assert compiled.scores(params) == CompiledTask(task).scores(params)


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
        sizes.append(len(compiled._share()[0].neurons))
    assert sizes[0] == sizes[1] < len(compiled.nets[0].neurons)


@pytest.mark.parametrize("family", FAMILIES)
def test_signed_zero_fact_weights_cost_the_same(family):
    # 0.0 == -0.0 with equal hashes: the two examples' fact edges merge.
    template = parse_template("0.5 :: p(X) :- e(X).\n-0.5 :: q :- p(X), e(X).", "t")
    examples = parse_examples("#example pos\n0.0 :: e(a).\n#example neg\n-0.0 :: e(a).\n")
    a = Atom("e", (Constant("a"),))
    queries = [QueryRow(ex.example_id, atom, target) for ex in examples
               for atom, target in ((a, 1.0), (Atom("p", a.args), 0.0), (Atom("q", ()), 1.0))]
    for kind in COST_KINDS:
        compiled = CompiledTask(TrainingTask(template, examples, queries,
                                             TrainConfig(cost_kind=kind), family))
        for merged in (False, True):  # priced per example, then over the merge
            if merged:
                compiled._share()
            got, want = _cost_bits(compiled, template.params)
            assert got == want, kind
            assert compiled.scores(template.params) == CompiledTask(compiled.task).scores(
                template.params)
        # Every neuron is merged apart but the one-input aggregations,
        # which are their inputs.
        net = compiled.nets[0]
        folded = sum(n.kind == network.AGG and len(n.inputs) == 1 for n in net.neurons)
        assert folded == net.counts()[3] == 2
        assert len(compiled._shared[0].neurons) == len(net.neurons) - folded


# ---------------------------------------------------------------------------
# The online step over the task's merged network


def _train_bits(task, monkeypatch, merged):
    """train() with the task's merge or with its networks side by side,
    so that the online step runs `forward` over each original network:
    (parameter bits, report)."""
    with monkeypatch.context() as m:
        if not merged:
            m.setattr(training, "merge", unshared_merge)
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
    # Under godel p(b) = max(w * 1.0, -0.0) = -0.0 for w < 0.  The merge
    # merges z's p(b) into its p(a), whose value is 0.0, and neg's facts
    # into pos's 0.0 ones.
    template = parse_template("? :: p(X) :- e(X).\n? :: q :- p(X).", "t")
    one = parse_examples("#example z\n1.0 :: e(a).\n1.0 :: e(b).\n0.0 :: p(a).\n-0.0 :: p(b).\n")
    two = parse_examples("#example pos\n0.0 :: e(a).\n1.0 :: e(b).\n0.0 :: p(b).\n"
                         "#example neg\n-0.0 :: e(a).\n1.0 :: e(b).\n-0.0 :: p(b).\n")
    cases = [(one, [QueryRow("z", Atom("q", ()), 1.0), QueryRow("z", _atom("p", "b"), 0.0)]),
             (two, [QueryRow(ex.example_id, atom, target) for ex in two
                    for atom, target in ((_atom("e", "a"), 1.0), (_atom("p", "b"), 0.0),
                                         (Atom("q", ()), 1.0))])]
    for examples, queries in cases:
        flipped = 0
        for family in FAMILIES:
            for kind in COST_KINDS:
                cfg = TrainConfig(learning_rate=0.5, epochs=4, restarts=3,
                                  init_range=(-1.0, -0.1), cost_kind=kind)
                task = TrainingTask(template, examples, queries, cfg, family)
                compiled = CompiledTask(task)
                nets, params = compiled.nets, compiled.initial_params(1)
                for net, got in zip(nets, merged_forward(nets, params, family)):
                    want = forward(net, params, family)
                    assert got.values == want.values
                    flipped += [v.hex() for v in got.values] != [v.hex() for v in want.values]
                    seeds = {q.atom: 0.25 for q in queries}
                    assert grad_bits(backward(net, got, seeds, params)) == \
                        grad_bits(backward(net, want, seeds, params))
                assert _train_bits(task, monkeypatch, True) == \
                    _train_bits(task, monkeypatch, False), (family, kind)
        assert flipped  # the case does show a zero whose sign the merge flips


def test_one_value_buffer_per_epoch_trains_bit_identically(monkeypatch):
    # Every fact weighted apart: no two networks share a neuron but the
    # facts', so the epoch's buffer holds other examples' stale values.
    # A step must write every slot it reads but the facts': a fresh
    # buffer of NaN in every other slot trains to the same bits.
    template = load_template("explosives")
    examples, queries = make_bond_dataset(8, seed=6)
    weights = iter(range(1, 10**6))
    examples = [Example(ex.example_id, tuple((next(weights) / 64, atom) for _w, atom in ex.facts))
                for ex in examples]
    cfg = TrainConfig(learning_rate=2.0, epochs=3, restarts=2, seed=1)
    task = TrainingTask(template, examples, queries, cfg, "ms")
    want = _train_bits(task, monkeypatch, False)
    real = training.forward

    def poisoned(net, params, family, ids=None, values=None):
        if values is not None:
            values = [1.0 if n.kind == network.FACT else math.nan for n in net.neurons]
        return real(net, params, family, ids, values)

    monkeypatch.setattr(training, "forward", poisoned)
    assert _train_bits(task, monkeypatch, False) == want
    assert _train_bits(task, monkeypatch, True) == want


def _count_merges(monkeypatch):
    """The networks passed to each merge a task makes."""
    merged = []
    real = training.merge

    def counting(nets):
        merged.append([id(net) for net in nets])
        return real(nets)

    monkeypatch.setattr(training, "merge", counting)
    return merged


def test_train_merges_the_queried_networks_once(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=2)
    queries = [q for q in queries if q.example_id != examples[0].example_id]
    task = TrainingTask(template, examples, queries, TrainConfig(epochs=3, restarts=2), "ms")
    compiled = CompiledTask(task)
    merged = _count_merges(monkeypatch)
    train(task, compiled)
    train(task, compiled)
    assert merged == [[id(net) for net in compiled.nets[1:]]]


def _config_bits(task, compiled):
    """`train`'s parameter bits, its JSONL report and the bits of the
    scores under its parameters, or the error it raised."""
    try:
        params, report = train(task, compiled)
    except AllRestartsFailedError as err:
        return repr(err)
    scores = [(q.example_id, str(q.atom), y.hex(), missing)
              for q, y, missing in compiled.scores(params)]
    return [(pid, params[pid].hex()) for pid in params], report.jsonl(), scores


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", fixture_names())
def test_one_compiled_task_trains_under_each_config_as_a_fresh_one(monkeypatch, name, family,
                                                                   processes):
    # A merge depends only on its task's networks and queries, so one
    # compiled task serves every config, as each fold's does in xval.
    _pin_processes(monkeypatch, processes)
    template = load_template(name, family)
    examples, queries = load_examples(name), load_queries(name)
    configs = [TrainConfig(learning_rate=2.0, epochs=3, restarts=2, seed=7),
               TrainConfig(learning_rate=0.5, epochs=3, restarts=3, seed=1),
               TrainConfig(learning_rate=5.0, epochs=2, restarts=1, seed=7,
                           cost_kind="cross_entropy")]
    task = TrainingTask(template, examples, queries, family=family)
    compiled, shared = CompiledTask(task), []
    for cfg in configs:
        task.config = cfg
        fresh = TrainingTask(template, examples, queries, cfg, family)
        assert _config_bits(task, compiled) == _config_bits(fresh, CompiledTask(fresh)), cfg
        shared.append(compiled._shared)
    assert all(merge is shared[0] for merge in shared)  # built once, or never


def test_crossvalidate_merges_once_per_trained_task(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(10, seed=0)
    merged = _count_merges(monkeypatch)
    tasks = []
    real_train = training.train

    def recording_train(task, compiled):
        tasks.append([id(net) for net in compiled.nets])
        return real_train(task, compiled)

    monkeypatch.setattr(training, "train", recording_train)
    crossvalidate(template, examples, queries, 5, [0.5, 2.0], [1, 2], 2, 0, "ms")
    # Each fold trains its one task at 4 grid points and merges it on the
    # first; every bond example is queried, so a merge is over its task's
    # networks.
    assert len(tasks) == 5 * 2 * 2
    assert merged == tasks[::4]


def test_scores_never_compact(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=1)
    merged = _count_merges(monkeypatch)
    compiled = CompiledTask(TrainingTask(template, examples, queries, TrainConfig(), "ms"))
    forwards = _count_calls(monkeypatch, "forward")
    params = compiled.initial_params(3)
    compiled.scores(params)
    assert (merged, len(forwards)) == ([], len(examples))
    assert compiled._shared is None
    compiled._share()  # once a merge exists, one forward over it
    compiled.scores(params)
    assert (len(merged), len(forwards)) == (1, len(examples) + 1)


def _count_sweep_orders(monkeypatch):
    """The neuron count of the network each cone-order pass reads: the
    task's merge in `_share`, or the one network of a four-argument
    `backward`."""
    passes = []
    real = network._sweep_orders

    def counting(neurons, indexes):
        passes.append(len(neurons))
        return real(neurons, indexes)

    monkeypatch.setattr(network, "_sweep_orders", counting)
    monkeypatch.setattr(training, "_sweep_orders", counting)
    return passes


@pytest.mark.parametrize("processes", [1, 2])
def test_train_reads_the_cone_orders_off_its_merge_once(monkeypatch, processes):
    _pin_processes(monkeypatch, processes)
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=2)
    queries = [q for q in queries if q.example_id != examples[0].example_id]
    task = TrainingTask(template, examples, queries,
                        TrainConfig(epochs=3, restarts=2, learning_rate=2.0), "ms")
    compiled = CompiledTask(task)
    passes = _count_sweep_orders(monkeypatch)
    backwards = _count_calls(monkeypatch, "backward")
    train(task, compiled)
    # Five queried examples, each swept 3 x 2 times (half of them in a
    # child when forked) on the orders of one pass over the merge.
    assert len(backwards) == 5 * 3 * 2 // processes
    shared, _rows, parts = compiled._shared
    assert passes == [len(shared.neurons)]
    assert parts[0] is None
    orders = [part[2] for part in parts[1:]]
    assert orders == [cone_order(net) for net in compiled.nets[1:]]
    train(task, compiled)
    assert len(passes) == 1
    assert all(part[2] is order for part, order in zip(compiled._shared[2][1:], orders))


def test_crossvalidate_reads_cone_orders_once_per_trained_task(monkeypatch):
    template = load_template("explosives")
    examples, queries = make_bond_dataset(10, seed=0)
    passes = _count_sweep_orders(monkeypatch)
    merges = _count_merges(monkeypatch)
    backwards = _count_calls(monkeypatch, "backward")
    crossvalidate(template, examples, queries, 5, [0.5, 2.0], [1, 2], 2, 0, "ms")
    # One pass per merge and one merge per fold: each fold trains its one
    # task at its 4 grid points, and held-out scoring merges nothing and
    # sweeps nothing.
    assert len(backwards) > len(examples)
    assert len(passes) == len(merges) == 5


def test_divergence_names_the_parameter_and_epoch():
    # Under godel the cross-entropy slope of p's score is -1 or 1, and
    # the 1e150 fact scales t:1's gradient to match: a large learning
    # rate takes t:1 past the float range in the fourth epoch, whatever
    # the restart draws.
    template = parse_template("? :: q(X) :- e(X).\n? :: p :- q(X).\n", "t")
    examples = parse_examples("#example a\n1e150 :: e(x).\n"
                              "#example b\n3.0 :: e(x).\n2.0 :: e(y).\n")
    queries = [QueryRow("a", _atom("p"), 1.0), QueryRow("b", _atom("p"), 0.0),
               QueryRow("b", _atom("q", "y"), 1.0)]
    cfg = TrainConfig(learning_rate=1e100, epochs=5, restarts=3, seed=3,
                      cost_kind="cross_entropy")
    task = TrainingTask(template, examples, queries, cfg, "godel")
    compiled = CompiledTask(task)
    for restart in range(3):
        params, rng = compiled.initial_params(restart), random.Random(restart)
        with pytest.raises(DivergenceError) as exc:
            for epoch in range(cfg.epochs):
                sgd_epoch(compiled, params, compiled.learnable(), rng, epoch)
        assert (exc.value.pid, exc.value.epoch) == ("t:1", 3)
        assert str(exc.value) == "parameter 't:1' became non-finite in epoch 3"
    with pytest.raises(AllRestartsFailedError):
        train(task, compiled)


@pytest.mark.parametrize("family", FAMILIES)
def test_train_keeps_the_store_layout(family):
    # The online update writes into the store's values; it adds no id,
    # reorders none and leaves the learnable set alone.
    template = load_template("explosives", family)
    examples, queries = make_bond_dataset(6, seed=4)
    cfg = TrainConfig(epochs=3, restarts=2, learning_rate=2.0)
    params, _ = train(TrainingTask(template, examples, queries, cfg, family))
    assert list(params) == list(template.params)
    assert params.learnable == template.params.learnable
    assert params != template.params


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(training, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, name, counting)
    return calls


def test_train_forward_calls_per_epoch_and_restart(monkeypatch):
    _pin_processes(monkeypatch, 1)  # calls are counted in this process
    template = load_template("explosives")
    examples, queries = make_bond_dataset(6, seed=2)
    queries = [q for q in queries if q.example_id != examples[0].example_id]
    epochs, restarts, n = 3, 2, len(examples) - 1
    task = TrainingTask(template, examples, queries,
                        TrainConfig(epochs=epochs, restarts=restarts), "ms")
    compiled = CompiledTask(task)
    calls = _count_calls(monkeypatch, "forward")
    train(task, compiled)
    # The online step is per example, and every cost pass runs once over
    # the merge the first online step built.
    assert len(calls) == n * epochs * restarts + epochs * restarts


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
        _pin_processes(monkeypatch, 1)  # calls are counted in this process
        if patched:  # a pid no gradient names: the online step runs, moves nothing
            monkeypatch.setattr(compiled, "learnable", lambda: frozenset({"no such pid"}))
        forwards = _count_calls(monkeypatch, "forward")
        backwards = _count_calls(monkeypatch, "backward")
        merges = _count_merges(monkeypatch)
        params, report = train(task, compiled)
        runs.append((params, report, len(forwards), len(backwards), len(merges)))
        monkeypatch.undo()
    (skipped, report, forwards, backwards, merges), (full, full_report, full_forwards, _, _) = runs
    # Without an online step nothing is merged, and the task is priced
    # once, one forward per queried example, for every epoch and restart.
    assert (forwards, backwards, merges) == (len(examples), 0, 0)
    assert full_forwards == len(examples) * 3 * 2 + 3 * 2
    assert skipped == full == template.params
    assert report.jsonl() == full_report.jsonl()


def test_nothing_learnable_with_an_infinite_score_fails_every_restart(monkeypatch):
    # Two facts on one atom sum past the float range; no clause is learnable.
    template = parse_template("", "t")
    examples = [Example("x", ((1e308, _atom("p", "a")), (1e308, _atom("p", "a"))))]
    task = TrainingTask(template, examples, [QueryRow("x", _atom("p", "a"), 1.0)],
                        TrainConfig(epochs=2, restarts=3), "ms")
    compiled = CompiledTask(task)
    assert compiled.learnable() == frozenset()
    assert compiled.scores(template.params)[0][1] == math.inf
    reports = []

    class RecordedReport(training.TrainReport):
        def __init__(self):
            super().__init__()
            reports.append(self)

    monkeypatch.setattr(training, "TrainReport", RecordedReport)
    with pytest.raises(AllRestartsFailedError):
        train(task, compiled)
    (report,) = reports
    assert [(r, e) for r, e, _cost in report.curves] == [(r, e) for r in range(3) for e in range(2)]
    assert all(math.isnan(c) for _r, _e, c in report.curves)
    assert [r for r, _reason in report.skipped] == [0, 1, 2]
    assert all("not finite" in reason for _r, reason in report.skipped)
    assert report.finals == []


def test_latent_rule_is_learnable_on_small_sample():
    template = load_template("explosives")
    examples, queries = make_bond_dataset(20, seed=0)
    cfg = TrainConfig(learning_rate=5.0, epochs=200, restarts=5, seed=0)
    task = TrainingTask(template, examples, queries, cfg, "ms")
    compiled = CompiledTask(task)
    params, _ = train(task, compiled)
    pairs = [(score, q.target) for q, score, _ in compiled.scores(params)]
    assert zero_one_error(pairs) <= 0.05


# ---------------------------------------------------------------------------
# Restarts on forked processes


def _count_forks(monkeypatch):
    """The children forked from this process."""
    forks = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _trained_bits(task, compiled=None):
    """`train`'s parameters (ids in order, values as float.hex), their
    learnable set and its JSONL report, or the error it raised."""
    try:
        params, report = train(task, compiled)
    except AllRestartsFailedError as err:
        return repr(err)
    return [(pid, params[pid].hex()) for pid in params], params.learnable, report.jsonl()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", fixture_names())
def test_forked_restarts_equal_in_process_on_fixtures(monkeypatch, name, family):
    template = load_template(name, family)
    examples, queries = load_examples(name), load_queries(name)
    cfg = TrainConfig(learning_rate=2.0, epochs=3, restarts=3, seed=7)
    forks = _count_forks(monkeypatch)
    runs = []
    for processes in (1, 2, 3):
        _pin_processes(monkeypatch, processes)
        task = TrainingTask(template, examples, queries, cfg, family)
        runs.append(_trained_bits(task))
        _no_child_left()
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(forks) == (1 + 2 if CompiledTask(task).learnable() else 0)


def test_forked_restarts_equal_in_process_when_restarts_fail(monkeypatch):
    # Under avg-sigmoid this learning rate takes t:0:conj past the float
    # range in restarts 1 and 2; restart 3's epoch costs are made NaN, so
    # its final cost is not finite.  Example c has no query.
    template = parse_template("? :: q(X) :- e(X).\n? :: p :- q(X).\n", "t")
    examples = parse_examples("#example a\n1e150 :: e(x).\n"
                              "#example b\n3.0 :: e(x).\n2.0 :: e(y).\n"
                              "#example c\n1.0 :: e(z).\n")
    queries = [QueryRow("a", _atom("p"), 1.0), QueryRow("b", _atom("p"), 0.0),
               QueryRow("b", _atom("q", "y"), 1.0)]
    cfg = TrainConfig(learning_rate=1e200, epochs=5, restarts=4, seed=0,
                      cost_kind="cross_entropy")
    drawn = _restart_stores(monkeypatch, TrainingTask(template, examples, queries, cfg), 3)
    real_epoch = training.sgd_epoch

    def nan_restart_3(compiled, params, *args):
        final = real_epoch(compiled, params, *args)
        return math.nan if any(params is p for p in drawn) else final

    monkeypatch.setattr(training, "sgd_epoch", nan_restart_3)
    merges = _count_merges(monkeypatch)
    forks = _count_forks(monkeypatch)
    runs = []
    for processes in (1, 2, 3, 4):
        _pin_processes(monkeypatch, processes)
        task = TrainingTask(template, examples, queries, cfg, "as")
        compiled = CompiledTask(task)
        runs.append(_trained_bits(task, compiled))
        _no_child_left()
        assert compiled._shared[2][2] is None  # c has no part, so no cone order
    assert all(run == runs[0] for run in runs)
    assert (len(merges), len(forks)) == (4, 1 + 2 + 3)
    lines = [json.loads(line) for line in runs[0][2].splitlines()]
    skipped = {line["restart"]: line["reason"] for line in lines if "status" in line}
    assert sorted(skipped) == [1, 2, 3]
    assert "became non-finite" in skipped[1] and "became non-finite" in skipped[2]
    assert skipped[3] == "final cost nan is not finite"
    assert lines[-1]["best_restart"] == 0


def _raise_value_error():
    raise ValueError("a restart failed")


@pytest.mark.parametrize("restart, fail, error, match", [
    (1, _raise_value_error, ValueError, "a restart failed"),  # in a child, then here
    (0, _raise_value_error, ValueError, "a restart failed"),  # here, while children run
])
def test_a_failed_restart_is_raised_and_no_child_is_left(monkeypatch, restart, fail, error,
                                                          match):
    task = _tiny_task(restarts=3, epochs=2, seed=5)
    _pin_processes(monkeypatch, 3)
    drawn = _restart_stores(monkeypatch, task, restart)
    real_epoch = training.sgd_epoch

    def failing(compiled, params, *args):
        if any(params is p for p in drawn):
            fail()
        return real_epoch(compiled, params, *args)

    monkeypatch.setattr(training, "sgd_epoch", failing)
    forks = _count_forks(monkeypatch)
    with pytest.raises(error, match=match) as exc:
        train(task)
    assert any(entry.name == "failing" for entry in exc.traceback)  # raised in this process
    assert len(forks) == 2
    _no_child_left()


def test_a_restart_whose_child_ends_without_a_reply_runs_here(monkeypatch):
    task = _tiny_task(restarts=3, epochs=2, seed=5)
    drawn = _restart_stores(monkeypatch, task, 1)
    real_epoch, parent = training.sgd_epoch, os.getpid()

    def ending(compiled, params, *args):
        if os.getpid() != parent and any(params is p for p in drawn):
            os._exit(7)  # restart 1's child ends; this process runs restart 1 again
        return real_epoch(compiled, params, *args)

    monkeypatch.setattr(training, "sgd_epoch", ending)
    forks = _count_forks(monkeypatch)
    runs = []
    for processes in (1, 3):
        _pin_processes(monkeypatch, processes)
        runs.append(_trained_bits(task))
        _no_child_left()
    assert runs[1] == runs[0]
    assert len(forks) == 2


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
def test_a_failed_fork_leaves_the_groups_left_to_this_process(monkeypatch, tmp_path, capsys,
                                                              call, code):
    # With 3 processes every second `os.fork` (or `os.pipe`) fails: group
    # 1 runs in its child, groups 0 and 2 here.
    fx = fixture_dir("explosives")
    args = ["train", "--template", str(fx / "template.lrnn"), "--examples",
            str(fx / "examples.lrnn"), "--queries", str(fx / "queries.lrnn"), "--epochs", "5"]
    task = _tiny_task(restarts=3, epochs=2, seed=5)
    _pin_processes(monkeypatch, 1)
    want = _trained_bits(task)
    assert main([*args, "--out-params", str(tmp_path / "one.txt"),
                 "--report", str(tmp_path / "one.jsonl")]) == 0
    real, calls = getattr(os, call), []

    def failing():
        calls.append(call)
        if len(calls) % 2 == 0:
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, call, failing)
    forks = _count_forks(monkeypatch)
    _pin_processes(monkeypatch, 3)
    assert _trained_bits(task) == want
    _no_child_left()
    assert main([*args, "--out-params", str(tmp_path / "all.txt"),
                 "--report", str(tmp_path / "all.jsonl")]) == 0
    _no_child_left()
    assert (len(calls), len(forks)) == (4, 2)
    assert capsys.readouterr().err == ""
    for one, all_ in (("one.txt", "all.txt"), ("one.jsonl", "all.jsonl")):
        assert (tmp_path / one).read_bytes() == (tmp_path / all_).read_bytes()


def _failing_restarts(monkeypatch, task, errors):
    """Make restart r raise errors[r] as it draws its store, in whichever
    process runs it."""
    seeds = {derive_seed(task.config.seed, "restart", r): err for r, err in errors.items()}
    real = CompiledTask.initial_params

    def failing(self, restart_seed):
        err = seeds.get(restart_seed)
        if err is not None:
            raise err
        return real(self, restart_seed)

    monkeypatch.setattr(CompiledTask, "initial_params", failing)


class _HoldsALambda(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickle.dumps fails


class _NeedsTwoArguments(Exception):
    def __init__(self, message, code):
        super().__init__(f"{message} ({code})")  # pickles, but pickle.loads fails


@pytest.mark.parametrize("error", [
    ParseError("unexpected ')'", "template.lrnn", 2, 5),
    RecursiveTemplateError([("p", 1), ("q", 1), ("p", 1)]),
    CapacityError(9, 8, "neurons per network"),
    DivergenceError("t:0", 3),
    ValueError("a restart failed"),
    _HoldsALambda("lost hook"),
    _NeedsTwoArguments("bad", 7),
], ids=lambda err: type(err).__name__)
def test_an_exception_raised_in_a_child_is_raised_here(monkeypatch, error):
    task = _tiny_task(restarts=2, epochs=2, seed=5)
    _pin_processes(monkeypatch, 2)  # restart 1 runs in the child, then again here
    _failing_restarts(monkeypatch, task, {1: error})
    forks = _count_forks(monkeypatch)
    with pytest.raises(type(error)) as exc:
        train(task)
    assert exc.value is error
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize("failing", [(1, 2), (2, 3), (0, 1), (3,), (1,), (2,), (0, 3)])
def test_the_lowest_failing_restart_is_raised_on_any_process_count(monkeypatch, failing):
    task = _tiny_task(restarts=4, epochs=2, seed=5)
    _failing_restarts(monkeypatch, task,
                      {r: CapacityError(r, 0, f"restart {r}") for r in failing})
    for processes in (1, 2, 3):  # 2: restarts 0 and 2 here, 1 and 3 in a child
        _pin_processes(monkeypatch, processes)
        with pytest.raises(CapacityError) as exc:
            train(task)
        assert exc.value.count == min(failing), processes
        _no_child_left()


def test_train_forks_nothing_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert training._process_count() == 3
    task = _tiny_task(restarts=3, epochs=2)
    forks = _count_forks(monkeypatch)
    alone = _trained_bits(task)
    assert len(forks) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert training._process_count() == 1
        assert _trained_bits(task) == alone
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    assert training._process_count() == 1
