"""Acceptance gate: one test per required behavior, strict tolerances.

Each test prints a single `CRITERION n: PASS` line (visible with -s or
on failure) summarising the measured quantity next to its bound.
"""

import random
import time

from lrnn import (Atom, CompiledTask, Constant, TrainConfig, TrainingTask,
                  backward, build, cost, forward, ground, train,
                  zero_one_error)
from lrnn.cli import crossvalidate, main
from lrnn.fixtures import fixture_dir
from lrnn.grounding import least_herbrand_model
from lrnn.logic import Example, render_examples
from lrnn.network import AGG, RULE

from helpers import load_examples, load_template, untied_copy
from molecules import make_bond_dataset
from oracles import (central_difference, fuzzy_min_max_values, naive_model,
                     random_gradcheck_instance, random_nonrecursive_program,
                     rel_close)


def _atom(pred, *names):
    return Atom(pred, tuple(Constant(n) for n in names))


def test_criterion_1_grounding_exactness():
    started = time.perf_counter()
    template = load_template("family")
    example = load_examples("family")[0]
    grounding = ground(template, example.facts)

    assert grounding.model.atoms == {
        _atom("female", "alice"), _atom("parent", "bob", "alice"),
        _atom("parent", "eve", "alice"), _atom("mother", "bob", "alice"),
        _atom("mother", "eve", "alice"),
    }
    instances = {(inst.clause_id, inst.theta) for inst in grounding.instances}
    assert instances == {
        ("family:0", (("C", "bob"), ("M", "alice"))),
        ("family:0", (("C", "eve"), ("M", "alice"))),
    }
    assert {atom for atom, _ in grounding.ground_facts} == {
        _atom("female", "alice"), _atom("parent", "bob", "alice"),
        _atom("parent", "eve", "alice"),
    }
    assert not any(atom.pred in ("male", "father") for atom in grounding.model.atoms)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nCRITERION 1: PASS - 2 rule instances + 3 ground facts, exact match, "
          f"{elapsed:.3f}s < 1s")


def test_criterion_2_fixpoint_oracle():
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        template, example_facts = random_nonrecursive_program(rng)
        expected = naive_model(template, example_facts)
        got = least_herbrand_model(template, example_facts)
        assert got.atoms == expected, f"seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nCRITERION 2: PASS - 100 random programs match the naive fixpoint, "
          f"{elapsed:.2f}s < 10s")


def test_criterion_3_godel_fuzzy_emulation():
    worst = 0.0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        template, example_facts = random_nonrecursive_program(rng, weighted_facts=True)
        expected = fuzzy_min_max_values(template, example_facts)
        net = build(ground(template, example_facts), template)
        vm = forward(net, template.params, "godel")
        for atom, value in expected.items():
            got, missing = vm.output(net, atom)
            assert not missing
            worst = max(worst, abs(got - value))
            assert abs(got - value) <= 1e-12, f"seed {seed}, atom {atom}"
    print(f"\nCRITERION 3: PASS - 50 weighted programs, max |forward - fuzzy| "
          f"= {worst:.2e} <= 1e-12")


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


def test_criterion_4_gradient_exactness():
    untie_worst = 0.0
    for family in ("as", "ms"):
        checked, seed = 0, 0
        while checked < 50:
            seed += 1
            assert seed < 600, "instance generator starved"
            instance = random_gradcheck_instance(seed, family)
            if instance is None:
                continue
            template, facts, query_targets, params = instance
            net, vm, _, grads = _loss_and_grads(template, facts, query_targets,
                                                params, family)

            def loss_at(pid, v):
                probe = params.copy()
                probe[pid] = v
                return _loss_and_grads(template, facts, query_targets, probe,
                                       family)[2]

            for pid in sorted(params.learnable):
                fd = central_difference(lambda v: loss_at(pid, v), params[pid])
                assert rel_close(grads.get(pid, 0.0), fd, 1e-5), \
                    f"family {family} seed {seed} pid {pid}"

            copy, store, mapping = untied_copy(net, params)
            vm2 = forward(copy, store, family)
            seeds = {}
            for query, target in query_targets:
                y, _ = vm2.output(copy, query)
                seeds[query] = seeds.get(query, 0.0) + cost(y, target)[1]
            untied = backward(copy, vm2, seeds, store)
            summed = {}
            for new_pid, old_pid in mapping.items():
                summed[old_pid] = summed.get(old_pid, 0.0) + untied.get(new_pid, 0.0)
            for pid in set(grads) | set(summed):
                gap = abs(grads.get(pid, 0.0) - summed.get(pid, 0.0))
                untie_worst = max(untie_worst, gap)
                assert gap <= 1e-10
            checked += 1
    print(f"\nCRITERION 4: PASS - 50 AS + 50 MS instances within 1e-5 of central "
          f"differences; untied-sum gap {untie_worst:.2e} <= 1e-10")


def test_criterion_5_qualitative_behaviors():
    started = time.perf_counter()
    base_examples = load_examples("bright_edges")[0]
    query = Atom("hasBrightEdge", ())

    def value(example, family):
        template = load_template("bright_edges", family=family)
        net = build(ground(template, example.facts), template)
        return forward(net, template.params, family).output(net, query)[0]

    dominated = [
        (1.0, _atom("edge", "e5", "v1", "v2")),   # red-blue, parallel to e1
        (1.0, _atom("edge", "e6", "v2", "v1")),   # reversed direction
        (1.0, _atom("edge", "e7", "v1", "v4")),   # red-yellow diagonal
    ]
    only_e3 = Example("g3", tuple(
        f for f in base_examples.facts
        if f[1].pred != "edge" or f[1].args[0].name == "e3"))

    for family in ("godel", "ms"):
        baseline = value(base_examples, family)
        for extra in dominated:
            grown = Example("gx", base_examples.facts + (extra,))
            assert value(grown, family) == baseline
        assert value(only_e3, family) == baseline

    template = load_template("pressure")
    example = load_examples("pressure")[0]
    net = build(ground(template, example.facts), template)
    vm = forward(net, template.params, "ms")
    alice, _ = vm.output(net, _atom("highPressure", "alice"))
    bob, _ = vm.output(net, _atom("highPressure", "bob"))
    assert alice > bob
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nCRITERION 5: PASS - dominated edges leave the value unchanged, e3 "
          f"determines it; {alice:.4f} > {bob:.4f}; {elapsed:.3f}s < 1s")


def test_criterion_6_convolution_structure():
    template = load_template("cnn")
    example = load_examples("cnn")[0]
    grounding = ground(template, example.facts)
    net = build(grounding, template)

    positions = sorted(tuple(c for _, c in inst.theta)
                       for inst in grounding.instances if inst.clause_id == "cnn:0")
    assert positions == [("p1", "p2", "p3"), ("p2", "p3", "p4"), ("p3", "p4", "p5")]

    rule_ids = {i for i, n in enumerate(net.neurons)
                if n.kind == RULE and n.offset_pid == "cnn:0:conj"}
    assert len(rule_ids) == 3
    aggs = [n for n in net.neurons if n.kind == AGG and set(n.inputs) & rule_ids]
    assert len(aggs) == 1
    assert set(aggs[0].inputs) == rule_ids
    print("\nCRITERION 6: PASS - exactly 3 filter rule neurons at positions "
          "1-2-3, 2-3-4, 3-4-5 under one max aggregation")


def test_criterion_7_latent_concept_learning():
    started = time.perf_counter()
    template = load_template("explosives")
    examples, queries = make_bond_dataset(40, seed=0)
    cfg = TrainConfig(learning_rate=5.0, epochs=200, restarts=5, seed=0)

    task = TrainingTask(template, examples, queries, cfg, "ms")
    compiled = CompiledTask(task)
    params, _ = train(task, compiled)
    pairs = [(score, q.target) for q, score, _ in compiled.scores(params)]
    train_error = zero_one_error(pairs)
    assert train_error <= 0.05

    folds = crossvalidate(template, examples, queries, 5, [cfg.learning_rate],
                          [cfg.restarts], cfg.epochs, cfg.seed, "ms")
    mean_error = sum(err for _, err in folds) / len(folds)
    assert mean_error <= 0.10
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\nCRITERION 7: PASS - training accuracy {1 - train_error:.2%} >= 95%, "
          f"5-fold error {mean_error:.2%} <= 10%, {elapsed:.1f}s < 120s")


def test_criterion_8_determinism(tmp_path):
    family = fixture_dir("family")
    examples, queries = make_bond_dataset(8, seed=0)
    ex_path = tmp_path / "molecules.lrnn"
    ex_path.write_text(render_examples(examples), encoding="utf-8")
    by_id = {}
    for q in queries:
        by_id.setdefault(q.example_id, []).append((q.target, q.atom))
    q_path = tmp_path / "labels.lrnn"
    q_path.write_text(render_examples(
        [Example(i, tuple(fs)) for i, fs in by_id.items()]), encoding="utf-8")
    explosives = fixture_dir("explosives")

    def run_all(root):
        root.mkdir()
        argv = {
            "ground": ["ground", "--template", str(family / "template.lrnn"),
                       "--examples", str(family / "examples.lrnn"),
                       "--out", str(root / "ground")],
            "export-dot": ["export-dot", "--template", str(family / "template.lrnn"),
                           "--examples", str(family / "examples.lrnn"),
                           "--out", str(root / "dots")],
            "train": ["train", "--template", str(explosives / "template.lrnn"),
                      "--examples", str(ex_path), "--queries", str(q_path),
                      "--lr", "5.0", "--epochs", "30", "--restarts", "2",
                      "--seed", "0",
                      "--out-params", str(root / "params.txt"),
                      "--report", str(root / "report.jsonl")],
            "predict": ["predict", "--template", str(explosives / "template.lrnn"),
                        "--examples", str(ex_path), "--queries", str(q_path),
                        "--params", str(root / "params.txt"),
                        "--out", str(root / "scores.csv")],
            "xval": ["xval", "--template", str(explosives / "template.lrnn"),
                     "--examples", str(ex_path), "--queries", str(q_path),
                     "--folds", "4", "--epochs", "10", "--lr-grid", "5.0",
                     "--restarts-grid", "1", "--seed", "0",
                     "--out", str(root / "folds.csv")],
        }
        for name, args in argv.items():
            assert main(args) == 0, name
        outputs = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(root))] = path.read_bytes()
        return outputs

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert sorted(first) == sorted(second)
    assert first == second
    print(f"\nCRITERION 8: PASS - all 5 commands byte-identical across reruns "
          f"({len(first)} output files compared)")
