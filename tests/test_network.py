"""Ground-network construction, forward evaluation, DOT export."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from lrnn import (Atom, CapacityError, ConstRef, Constant, ParamRef, backward, build,
                  export_dot, forward, ground, parse_examples, parse_template)
from lrnn.fixtures import fixture_names
from lrnn.network import AGG, ATOM, FACT, RULE

from helpers import (check_dot, compact_forward, grad_bits, load_examples, load_queries,
                     load_template)
from oracles import family_values, fuzzy_min_max_values, random_nonrecursive_program


def _atom(pred, *names):
    return Atom(pred, tuple(Constant(n) for n in names))


def _net(name, example_id=None):
    t = load_template(name)
    examples = load_examples(name)
    ex = examples[0] if example_id is None else \
        next(e for e in examples if e.example_id == example_id)
    g = ground(t, ex.facts)
    return t, build(g, t, ex.example_id)


# ---------------------------------------------------------------------------
# Structure


def test_family_network_counts():
    _, net = _net("family")
    assert net.counts() == (5, 3, 2, 2)
    assert net.edge_count() == 11
    assert len(net.outputs) == 5


def test_family_mother_atom_wiring():
    t, net = _net("family")
    atom_neuron = net.neurons[net.outputs[_atom("mother", "bob", "alice")]]
    assert atom_neuron.kind == ATOM
    assert len(atom_neuron.inputs) == 1
    assert atom_neuron.weights == (ParamRef("family:0"),)
    assert atom_neuron.offset_pid == "family:0:disj"
    agg = net.neurons[atom_neuron.inputs[0]]
    assert agg.kind == AGG
    assert len(agg.inputs) == 1
    rule = net.neurons[agg.inputs[0]]
    assert rule.kind == RULE
    assert rule.offset_pid == "family:0:conj"
    assert len(rule.inputs) == 2  # parent(bob,alice), female(alice)


def test_family_fact_only_atom_has_no_offset():
    _, net = _net("family")
    neuron = net.neurons[net.outputs[_atom("female", "alice")]]
    assert neuron.offset_pid is None
    assert neuron.weights == (ParamRef("family:2"),)
    assert net.neurons[neuron.inputs[0]].kind == FACT


def test_horses_network_counts():
    _, net = _net("horses")
    assert net.counts() == (7, 6, 3, 2)


def test_water_filter_neurons():
    t, net = _net("explosives", "m2")
    rules = [n for n in net.neurons
             if n.kind == RULE and n.offset_pid == "explosives:6:conj"]
    aggs = [n for n in net.neurons if n.kind == AGG
            and net.neurons[n.inputs[0]] in rules]
    assert len(rules) == 4
    assert len(aggs) == 1
    assert set(aggs[0].inputs) == {r.nid for r in rules}
    explosive = net.neurons[net.outputs[Atom("explosive", ())]]
    assert explosive.inputs == (aggs[0].nid,)
    assert explosive.weights == (ParamRef("explosives:6"),)


def test_cnn_filter_has_three_positions_one_pool():
    t, net = _net("cnn")
    rules = [n for n in net.neurons
             if n.kind == RULE and n.offset_pid == "cnn:0:conj"]
    aggs = [n for n in net.neurons if n.kind == AGG
            and set(n.inputs) <= {r.nid for r in rules} and n.inputs]
    assert len(rules) == 3
    assert len(aggs) == 1
    assert len(aggs[0].inputs) == 3


def test_inputs_precede_consumers():
    names = ("family", "horses", "explosives", "cnn", "pressure", "bright_edges")
    for name in names:
        _, net = _net(name)
        for neuron in net.neurons:
            assert all(src < neuron.nid for src in neuron.inputs)
    for seed in range(10):
        template, facts = random_nonrecursive_program(random.Random(seed))
        net = build(ground(template, facts), template)
        for neuron in net.neurons:
            assert all(src < neuron.nid for src in neuron.inputs)


def test_counts_derivable_from_grounding():
    for seed in range(15):
        template, facts = random_nonrecursive_program(random.Random(seed))
        g = ground(template, facts)
        net = build(g, template)
        atoms = {atom for atom, _ in g.ground_facts}
        for inst in g.instances:
            atoms.add(inst.head)
            atoms.update(inst.body)
        agg_groups = {(inst.clause_id, inst.head) for inst in g.instances}
        assert net.counts() == (len(atoms), len(g.ground_facts),
                                len(g.instances), len(agg_groups))
        assert set(net.outputs) == atoms


def test_build_is_deterministic():
    for seed in range(5):
        template, facts = random_nonrecursive_program(random.Random(seed))
        g = ground(template, facts)
        assert build(g, template) == build(g, template)


# ---------------------------------------------------------------------------
# Forward evaluation


def test_single_fact_passthrough():
    t = parse_template("", "src")
    facts = ((0.7, _atom("p", "a")),)
    net = build(ground(t, facts), t)
    for family in ("godel", "ms", "as"):
        vm = forward(net, t.params, family)
        assert vm.output(net, _atom("p", "a")) == (0.7, False)


def test_template_fact_passthrough_via_parameter():
    t = load_template("horses")
    params = t.params.copy()
    params["horses:2"] = 0.4  # horse(dakotta)
    net = build(ground(t), t)
    vm = forward(net, params, "godel")
    assert vm.output(net, _atom("horse", "dakotta")) == (0.4, False)


def test_missing_query_scores_zero():
    _, net = _net("family")
    t = load_template("family")
    vm = forward(net, t.params, "godel")
    assert vm.output(net, _atom("father", "bob", "alice")) == (0.0, True)
    assert vm.output(net, _atom("mother", "alice", "bob")) == (0.0, True)


def test_family_min_max_values():
    t, net = _net("family")
    vm = forward(net, t.params, "godel")
    oracle = fuzzy_min_max_values(t, ())
    for atom, value in oracle.items():
        assert vm.output(net, atom) == (value, False)
    assert vm.output(net, _atom("mother", "bob", "alice")) == (1.0, False)


def test_horses_min_max_matches_oracle_with_set_weights():
    from lrnn import Template
    t = load_template("horses")
    params = t.params.copy()
    weights = {"horses:0": 0.8, "horses:1": 0.6, "horses:2": 0.4, "horses:3": 0.9,
               "horses:4": 0.55, "horses:5": 0.3, "horses:6": 0.7, "horses:7": 1.0}
    for pid, w in weights.items():
        params[pid] = w
    shadow = Template(t.clauses, params, t.source, t.family)
    net = build(ground(t), t)
    vm = forward(net, params, "godel")
    oracle = fuzzy_min_max_values(shadow, ())
    for atom, value in oracle.items():
        got, missing = vm.output(net, atom)
        assert not missing
        assert math.isclose(got, value, rel_tol=0, abs_tol=1e-12)


def test_random_min_max_programs_match_oracle():
    for seed in range(30):
        template, facts = random_nonrecursive_program(random.Random(seed),
                                                      weighted_facts=True)
        net = build(ground(template, facts), template)
        vm = forward(net, template.params, "godel")
        oracle = fuzzy_min_max_values(template, facts)
        for atom, value in oracle.items():
            got, missing = vm.output(net, atom)
            assert not missing
            assert abs(got - value) <= 1e-12, f"seed {seed}: {atom}"


def _drawn_params(template, rng):
    """A store with every parameter, fixed or learnable, drawn."""
    params = template.params.copy()
    for pid in params:
        params[pid] = rng.uniform(-2.0, 2.0)
    return params


def _drawn_program(rng, weighted_facts):
    """A drawn program, its facts and a store with every parameter drawn."""
    template, facts = random_nonrecursive_program(rng, weighted_facts=weighted_facts,
                                                  learnable_rules=True)
    return template, facts, _drawn_params(template, rng)


def _oracle_mismatches(template, facts, params, net, family):
    """Atoms whose forward value differs from the family oracle's."""
    vm = forward(net, params, family)
    want = family_values(template, facts, params, family)
    assert set(net.outputs) == set(want)
    return [atom for atom, value in want.items() if vm.output(net, atom) != (value, False)]


@pytest.mark.parametrize("family", ["godel", "ms", "as"])
@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_forward_matches_family_oracle_on_drawn_programs(family, rng, weighted_facts):
    template, facts, params = _drawn_program(rng, weighted_facts)
    net = build(ground(template, facts), template)
    assert _oracle_mismatches(template, facts, params, net, family) == []


def test_family_oracle_catches_swapped_offsets():
    # Mutant: rule neurons take their head's disj offset, atom neurons a
    # clause's conj offset.
    caught = 0
    for seed in range(20):
        template, facts, params = _drawn_program(random.Random(seed), weighted_facts=True)
        for rule in template._plan.rules.values():
            rule.conj, rule.disj = rule.disj, rule.conj
        net = build(ground(template, facts), template)
        for family in ("ms", "as"):
            caught += bool(_oracle_mismatches(template, facts, params, net, family))
    assert caught


def test_build_budget_is_the_neuron_count():
    for name in fixture_names():
        t = load_template(name)
        for ex in load_examples(name):
            g = ground(t, ex.facts)
            size = len(build(g, t).neurons)
            assert len(build(g, t, capacity=size).neurons) == size
            with pytest.raises(CapacityError) as exc:
                build(g, t, capacity=size - 1)
            assert (exc.value.count, exc.value.cap) == (size, size - 1)


def test_bright_edges_pinned_value():
    t, net = _net("bright_edges")
    vm = forward(net, t.params, "ms")
    value, missing = vm.output(net, Atom("hasBrightEdge", ()))
    assert not missing
    assert math.isclose(value, 0.6589553414862613, rel_tol=0, abs_tol=1e-12)


def test_pressure_pinned_values():
    t, net = _net("pressure")
    vm = forward(net, t.params, "ms")
    alice, _ = vm.output(net, _atom("highPressure", "alice"))
    bob, _ = vm.output(net, _atom("highPressure", "bob"))
    assert math.isclose(alice, 0.8118562749129378, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(bob, 0.5, rel_tol=0, abs_tol=1e-12)
    assert alice > bob


def test_forward_rejects_unknown_family_before_any_neuron():
    t = parse_template("", "src")
    net = build(ground(t, ((0.7, _atom("p", "a")),)), t)
    assert net.counts() == (1, 1, 0, 0)  # no neuron applies a family operation
    with pytest.raises(ValueError, match="unknown activation family 'lukasiewicz'"):
        forward(net, t.params, "lukasiewicz")


def test_forward_deterministic():
    t, net = _net("bright_edges")
    a = forward(net, t.params, "ms")
    b = forward(net, t.params, "ms")
    assert a.values == b.values


def test_example_fact_order_does_not_change_values():
    t = load_template("explosives")
    examples = {ex.example_id: ex for ex in load_examples("explosives")}
    facts = examples["m2"].facts
    query = Atom("explosive", ())
    reference = {}
    net = build(ground(t, facts), t)
    for family in ("godel", "ms", "as"):
        reference[family] = forward(net, t.params, family).output(net, query)
    for seed in range(4):
        shuffled = list(facts)
        random.Random(seed).shuffle(shuffled)
        net = build(ground(t, tuple(shuffled)), t)
        for family in ("godel", "ms", "as"):
            assert forward(net, t.params, family).output(net, query) == reference[family]


# ---------------------------------------------------------------------------
# The compact form: one network merged on its own


def _check_compact(net, params, rng):
    """The compact form against the network it came from: structure,
    and under every family the values and gradients."""
    small, index = net.compact()
    assert net.compact() is net.compact()  # built once
    assert len(small.neurons) <= len(net.neurons) == len(index)
    # Every neuron's merged twin computes the same thing from the twins
    # of its inputs, so every path of the merged network maps back to one
    # of the original.
    for n in net.neurons:
        twin = small.neurons[index[n.nid]]
        assert twin.nid == index[n.nid]
        assert (twin.kind, twin.offset_pid, twin.weights) == (n.kind, n.offset_pid, n.weights)
        assert twin.inputs == tuple(index[s] for s in n.inputs)
    seeds = {atom: rng.uniform(-1.0, 1.0) for atom in net.outputs}
    for family in ("godel", "ms", "as"):
        got, want = compact_forward(net, params, family), forward(net, params, family)
        # == tells values apart by their bits, except for the sign of a zero.
        assert got.values == want.values, family
        assert grad_bits(backward(net, got, seeds, params)) == \
            grad_bits(backward(net, want, seeds, params)), family


def test_compact_form_matches_the_network_on_fixtures():
    shrunk = 0
    for name in fixture_names():
        t = load_template(name)
        rng = random.Random(name)
        for ex in load_examples(name):
            net = build(ground(t, ex.facts), t, ex.example_id)
            _check_compact(net, _drawn_params(t, rng), rng)
            shrunk += len(net.compact()[0].neurons) < len(net.neurons)
    assert shrunk


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_compact_form_matches_the_network_on_drawn_programs(rng, weighted_facts):
    template, facts, params = _drawn_program(rng, weighted_facts)
    _check_compact(build(ground(template, facts), template), params, rng)


def test_compact_form_merges_equal_neurons_of_one_network():
    # e(a) and e(b) read the one fact neuron through equal weights, so
    # everything above them merges; f(a) has a weight of its own.
    t = parse_template("0.5 :: p(X) :- e(X).", "src")
    facts = ((1.0, _atom("e", "a")), (1.0, _atom("e", "b")), (2.0, _atom("f", "a")))
    net = build(ground(t, facts), t)
    small, index = net.compact()
    assert net.counts() == (5, 3, 2, 2)
    assert small.counts() == (3, 1, 1, 1)
    out = net.outputs
    assert index[out[_atom("p", "a")]] == index[out[_atom("p", "b")]]
    assert index[out[_atom("e", "a")]] != index[out[_atom("f", "a")]]


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_family_graph():
    _, net = _net("family")
    text = export_dot(net)
    nodes, edges = check_dot(text)
    assert (nodes, edges) == (12, 11)
    assert "shape=box" in text
    assert "shape=ellipse" in text
    assert "shape=diamond" in text
    assert "shape=trapezium" in text
    assert "family:0" in text


def test_export_dot_escapes_quotes():
    t = parse_template("1.0 :: p('a\\'b').", "src")
    net = build(ground(t), t)
    text = export_dot(net)
    check_dot(text)


def test_export_dot_empty_network():
    t = parse_template("1.0 :: q(X) :- p(X).", "src")
    net = build(ground(t), t)
    assert net.counts() == (0, 0, 0, 0)
    nodes, edges = check_dot(export_dot(net))
    assert (nodes, edges) == (0, 0)


def test_export_dot_labels_const_weights():
    t = parse_template("", "src")
    net = build(ground(t, ((0.7, _atom("p", "a")),)), t)
    text = export_dot(net)
    assert "0.7" in text
