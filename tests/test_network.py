"""Ground-network construction, forward evaluation, the reverse sweep, DOT export."""

import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from lrnn import (Atom, CapacityError, CompiledTask, Constant, GroundNetwork, Neuron,
                  ParameterStore, TrainingTask, ValueMap, backward, build, census, export_dot,
                  forward, ground, parse_examples, parse_template)
from lrnn.fixtures import fixture_names
from lrnn.network import AGG, ATOM, FACT, RULE, _sweep_orders, merge

from helpers import (check_dot, grad_bits, load_examples, load_queries, load_template,
                     merged_forward)
from molecules import make_bond_dataset
from oracles import (cone_order, family_values, full_backward, fuzzy_min_max_values,
                     ground_atom_key, random_gradcheck_instance, random_nonrecursive_program)


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
    assert atom_neuron.weights == ("family:0",)
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
    assert neuron.weights == ("family:2",)
    assert net.neurons[neuron.inputs[0]].kind == FACT


def test_horses_network_counts():
    _, net = _net("horses")
    assert net.counts() == (7, 6, 3, 2)


def test_water_filter_neurons():
    t, net = _net("explosives", "m2")
    rules = {i for i, n in enumerate(net.neurons)
             if n.kind == RULE and n.offset_pid == "explosives:6:conj"}
    aggs = [i for i, n in enumerate(net.neurons) if n.kind == AGG and n.inputs[0] in rules]
    assert len(rules) == 4
    assert len(aggs) == 1
    assert set(net.neurons[aggs[0]].inputs) == rules
    explosive = net.neurons[net.outputs[Atom("explosive", ())]]
    assert explosive.inputs == (aggs[0],)
    assert explosive.weights == ("explosives:6",)


def test_cnn_filter_has_three_positions_one_pool():
    t, net = _net("cnn")
    rules = {i for i, n in enumerate(net.neurons)
             if n.kind == RULE and n.offset_pid == "cnn:0:conj"}
    aggs = [n for n in net.neurons if n.kind == AGG
            and set(n.inputs) <= rules and n.inputs]
    assert len(rules) == 3
    assert len(aggs) == 1
    assert len(aggs[0].inputs) == 3


def _check_format(nets, params):
    """The format's invariants on networks and on their merge: inputs
    precede their consumer, only atom edges store weights, and each is a
    parameter id in the store or a float."""
    for network in (*nets, merge(nets)[0]):
        for nid, neuron in enumerate(network.neurons):
            assert all(src < nid for src in neuron.inputs)
            if neuron.kind == ATOM:
                assert len(neuron.weights) == len(neuron.inputs)
                assert all(w in params if type(w) is str else type(w) is float
                           for w in neuron.weights)
            else:
                assert neuron.weights == ()


def test_inputs_precede_consumers():
    names = ("family", "horses", "explosives", "cnn", "pressure", "bright_edges")
    for name in names:
        t = load_template(name)
        _check_format([build(ground(t, ex.facts), t) for ex in load_examples(name)], t.params)
    for seed in range(10):
        template, facts = random_nonrecursive_program(random.Random(seed))
        _check_format([build(ground(template, facts), template)], template.params)


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
    shadow = Template(t.clauses, params, family=t.family)
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


def _check_census(g, template):
    """`census` gives `build`'s counts, and its error one neuron short."""
    net = build(g, template)
    size = len(net.neurons)
    assert census(g) == census(g, size) == net.counts()
    errors = []
    for count in (census, lambda g, capacity: build(g, template, capacity=capacity)):
        with pytest.raises(CapacityError) as exc:
            count(g, size - 1)
        errors.append((type(exc.value), str(exc.value), vars(exc.value)))
    assert errors[0] == errors[1]


def test_a_network_keeps_the_parsed_example_fact_atoms():
    for name in fixture_names():
        t = load_template(name)
        for ex in load_examples(name):
            net = build(ground(t, ex.facts), t)
            keys = {atom: atom for atom in net.outputs}
            facts = [nid for nid, n in enumerate(net.neurons) if n.kind == FACT]
            for fact_id, (_, atom) in zip(facts[len(facts) - len(ex.facts):], ex.facts,
                                          strict=True):
                assert keys[atom] is atom
                assert fact_id in net.neurons[net.outputs[atom]].inputs


def test_census_counts_what_build_builds_on_fixtures():
    for name in fixture_names():
        t = load_template(name)
        for ex in load_examples(name):
            _check_census(ground(t, ex.facts), t)


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_census_counts_what_build_builds_on_drawn_programs(rng, weighted_facts):
    template, facts, _params = _drawn_program(rng, weighted_facts)
    _check_census(ground(template, facts), template)


def _check_atom_order(g, template):
    """Each relation maps every row to that row's own Atom, and `build`
    lays the atoms out in the reference order: stratum rank (0 for an
    example-only predicate), then the oracle's key."""
    for (pred, arity), rows in g.model.relations.items():
        for row, atom in rows.items():
            assert (atom.pred, len(atom.args)) == (pred, arity)
            assert all(type(t) is Constant for t in atom.args)
            assert tuple(t.name for t in atom.args) == row
    rank = template._plan.rank
    want = sorted(g.model.atoms, key=lambda a: (rank.get(a.signature, 0), *ground_atom_key(a)))
    net = build(g, template)
    assert sorted(net.outputs, key=net.outputs.__getitem__) == want


# Example-only predicates (rank 0), given in reverse order of signature.
_LEAVES = ((1.0, _atom("leaf_c", "a")), (1.0, _atom("leaf_b")), (1.0, _atom("leaf_a", "a", "b")))


def test_atom_order_is_the_reference_order_on_fixtures():
    for name in fixture_names():
        for family in ("godel", "ms", "as"):
            t = load_template(name, family)
            for ex in load_examples(name):
                _check_atom_order(ground(t, ex.facts), t)
                _check_atom_order(ground(t, _LEAVES + ex.facts[::-1]), t)


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_atom_order_is_the_reference_order_on_drawn_programs(rng, weighted_facts):
    template, facts, _params = _drawn_program(rng, weighted_facts)
    _check_atom_order(ground(template, facts), template)
    _check_atom_order(ground(template, _LEAVES + facts[::-1]), template)


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
# The merged form: a task's networks merged into one


def _check_merged(nets, params, rng):
    """The merge against the networks it came from: structure, each
    network's cone order read off it, and under every family each
    network's online values and gradients, also in that order."""
    shared, index = merge(nets)
    orders = _sweep_orders(shared.neurons, index)
    assert orders == [cone_order(net) for net in nets] == [_own_order(net) for net in nets]
    assert len(shared.neurons) <= sum(len(net.neurons) for net in nets)
    for net, ids in zip(nets, index):
        assert len(ids) == len(net.neurons)
        # Every neuron's merged twin computes the same thing from the
        # twins of its inputs, so every path of the merged network maps
        # back to one of the original, and the net's sorted merged ids
        # hold every input of their neurons.  A one-input aggregation
        # computes its input's value: its twin is its input's twin.
        for n, i in zip(net.neurons, ids):
            if n.kind == AGG and len(n.inputs) == 1:
                assert i == ids[n.inputs[0]]
                continue
            twin = shared.neurons[i]
            assert (twin.kind, twin.offset_pid, twin.weights) == (n.kind, n.offset_pid, n.weights)
            assert twin.inputs == tuple(ids[s] for s in n.inputs)
    for family in ("godel", "ms", "as"):
        for net, order, got in zip(nets, orders, merged_forward(nets, params, family)):
            want = forward(net, params, family)
            # == tells values apart by their bits, except for the sign of a zero.
            assert got.values == want.values, family
            seeds = {atom: rng.uniform(-1.0, 1.0) for atom in net.outputs}
            assert grad_bits(backward(net, got, seeds, params)) == \
                grad_bits(backward(net, want, seeds, params)), family
            _check_full_sweep(net, got, seeds, params, order)


def test_merged_form_matches_the_networks_on_fixtures():
    shrunk = 0
    for name in fixture_names():
        t = load_template(name)
        rng = random.Random(name)
        nets = [build(ground(t, ex.facts), t, ex.example_id) for ex in load_examples(name)]
        _check_merged(nets, _drawn_params(t, rng), rng)
        shrunk += len(merge(nets)[0].neurons) < sum(len(net.neurons) for net in nets)
    assert shrunk


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_merged_form_matches_the_networks_on_drawn_programs(rng, weighted_facts):
    template, facts, params = _drawn_program(rng, weighted_facts)
    subsets = [facts] + [tuple(f for f in facts if rng.random() < 0.7) for _ in range(2)]
    _check_merged([build(ground(template, fs), template) for fs in subsets], params, rng)


def test_merged_neurons_do_not_depend_on_the_merge_order():
    # Equal structure over different constants: the merged neurons carry
    # nothing of either example.
    t = parse_template("? :: h :- p(X), q(X).", "src")
    na, nb = (build(ground(t, ((1.0, _atom("p", c)), (1.0, _atom("q", c)))), t) for c in "xy")
    assert merge([na, nb])[0].neurons == merge([nb, na])[0].neurons


def test_merged_form_merges_equal_neurons_within_and_across_networks():
    # e(a) and e(b) read the one fact neuron through equal weights, so
    # everything above them merges, also with e(c) of the second
    # network; f(a) has a weight of its own.  Each p atom's aggregation
    # has one input, so it is its rule neuron.
    t = parse_template("0.5 :: p(X) :- e(X).", "src")
    facts = ((1.0, _atom("e", "a")), (1.0, _atom("e", "b")), (2.0, _atom("f", "a")))
    net, other = build(ground(t, facts), t), build(ground(t, ((1.0, _atom("e", "c")),)), t)
    shared, (index, other_index) = merge([net, other])
    assert (net.counts(), other.counts()) == ((5, 3, 2, 2), (2, 1, 1, 1))
    assert shared.counts() == (3, 1, 1, 0)
    out = net.outputs
    assert index[out[_atom("p", "a")]] == index[out[_atom("p", "b")]] \
        == other_index[other.outputs[_atom("p", "c")]]
    assert index[out[_atom("e", "a")]] != index[out[_atom("f", "a")]]
    assert len(set(other_index)) == 4 and index[out[_atom("f", "a")]] not in other_index
    assert other_index[3] == other_index[2]  # fact, e(c), rule, aggregation, p(c)


def _one_input_aggregations(net):
    return [nid for nid, n in enumerate(net.neurons) if n.kind == AGG and len(n.inputs) == 1]


@pytest.mark.parametrize("family", ["godel", "ms", "as"])
def test_one_input_aggregations_leave_the_merge_not_the_networks_on_fixtures(family):
    # max([x]) and the mean of one x are x: such an aggregation's merged
    # id is its rule neuron's, so the online `forward` never runs it.
    # The networks, their counts and their drawings keep every one.
    folded = 0
    for name in fixture_names():
        t = load_template(name, family)
        examples = load_examples(name)
        compiled = CompiledTask(TrainingTask(t, examples, load_queries(name), family=family))
        shared, _rows, parts = compiled._share()
        assert not _one_input_aggregations(shared)
        for ex, net, part in zip(examples, compiled.nets, parts):
            ones = _one_input_aggregations(net)
            counts = net.counts()
            assert counts == census(ground(t, ex.facts))
            assert counts[3] == sum(n.kind == AGG for n in net.neurons)
            assert export_dot(net).count("shape=trapezium") == counts[3]
            if part is None:
                continue
            ids, index, _order = part
            assert ids == sorted({index[nid] for nid in range(len(net.neurons))
                                  if nid not in ones})
            for nid in ones:
                rule = net.neurons[nid].inputs[0]
                assert index[nid] == index[rule] and shared.neurons[index[rule]].kind == RULE
            folded += len(ones)
    assert folded


# ---------------------------------------------------------------------------
# The cone order: `backward` against the full sweep


def _check_full_sweep(net, vm, seeds, params, order=None):
    """Assert that `backward` (in `order`, when given) equals the full
    sweep bit for bit and in key order, and return its gradients."""
    grads = backward(net, vm, seeds, params, order)
    assert grad_bits(grads) == grad_bits(full_backward(net, vm, seeds, params))
    return grads


def _own_order(net):
    """The cone order a four-argument `backward` works out for `net`."""
    return _sweep_orders(net.neurons, [range(len(net.neurons))])[0]


def test_task_reads_each_cone_order_off_its_merge_on_fixtures():
    for name in fixture_names():
        for family in ("godel", "ms", "as"):
            t = load_template(name, family)
            task = TrainingTask(t, load_examples(name), load_queries(name), family=family)
            compiled = CompiledTask(task)
            shared, _rows, parts = compiled._share()
            rng = random.Random(name + family)
            params = _drawn_params(t, rng)
            buffer = [1.0] * len(shared.neurons)
            for net, queries, part in zip(compiled.nets, compiled.queries, parts):
                assert (part is None) == (not queries)
                if part is None:
                    continue
                ids, index, order = part
                assert order == cone_order(net), (name, net.example_id)
                values = forward(shared, params, family, ids, buffer).values
                online = ValueMap([values[i] for i in index], family)
                seeds = {atom: rng.uniform(-1.0, 1.0) for atom in net.outputs}
                for vm in (forward(net, params, family), online):
                    _check_full_sweep(net, vm, seeds, params, order)


def test_backward_matches_full_sweep_on_fixtures():
    for name in fixture_names():
        t = load_template(name)
        rng = random.Random(name)
        nets = [build(ground(t, ex.facts), t, ex.example_id) for ex in load_examples(name)]
        params = _drawn_params(t, rng)
        for family in ("godel", "ms", "as"):
            for net, online in zip(nets, merged_forward(nets, params, family)):
                seeds = {atom: rng.uniform(-1.0, 1.0) for atom in net.outputs}
                # The values of a full pass, and the online step's.
                for vm in (forward(net, params, family), online):
                    _check_full_sweep(net, vm, seeds, params)


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_backward_matches_full_sweep_on_drawn_programs(rng, weighted_facts):
    template, facts, params = _drawn_program(rng, weighted_facts)
    net = build(ground(template, facts), template)
    seeds = {atom: rng.uniform(-1.0, 1.0) for atom in net.outputs}
    for family in ("godel", "ms", "as"):
        _check_full_sweep(net, forward(net, params, family), seeds, params)


@pytest.mark.parametrize("family", ["godel", "ms", "as"])
@given(rng=st.randoms(use_true_random=False))
def test_backward_matches_full_sweep_on_gradcheck_instances(family, rng):
    instance = random_gradcheck_instance(rng, family)
    if instance is not None:
        template, facts, query_targets, params = instance
        net = build(ground(template, facts), template)
        seeds = {atom: target - 0.5 for atom, target in query_targets}
        _check_full_sweep(net, forward(net, params, family), seeds, params)


def test_backward_matches_full_sweep_on_signed_zero_facts():
    # p(b) = -0.0 under godel for a negative weight; the merge gives it
    # p(a)'s 0.0.  Across examples, neg's e(a) = -0.0 merges into pos's 0.0.
    t = parse_template("? :: p(X) :- e(X).\n? :: q :- p(X).", "t")
    examples = parse_examples("#example z\n1.0 :: e(a).\n1.0 :: e(b).\n0.0 :: p(a).\n"
                              "-0.0 :: p(b).\n#example pos\n0.0 :: e(a).\n"
                              "#example neg\n-0.0 :: e(a).\n")
    nets = [build(ground(t, ex.facts), t) for ex in examples]
    params = t.params.copy()
    params["t:0"], params["t:1"] = -0.5, -0.2
    for family in ("godel", "ms", "as"):
        for net, online in zip(nets, merged_forward(nets, params, family)):
            seeds = {atom: 0.25 for atom in net.outputs}
            for vm in (forward(net, params, family), online):
                _check_full_sweep(net, vm, seeds, params)


def test_backward_matches_full_sweep_when_a_fact_wins_a_godel_max():
    # q(b) is fed by a fact alone, so it has no parameter in its cone.
    t = parse_template("? :: q(X) :- e(X).\n? :: p :- q(X).", "t")
    params = t.params.copy()
    params["t:0"] = params["t:1"] = 0.5
    seeds = {_atom("p"): 1.0, _atom("q", "a"): 0.5}
    # The max over p's rules is won by the one reading q(b) (0.9 against
    # q(a)'s 0.5).  At p's fact weight 0.95 that fact wins p's own max and
    # t:1 gets nothing; at 0.1 the clause edge (0.5 * 0.9) wins.
    for p_fact, p_value, keys in ((0.95, 0.95, ["t:0"]), (0.1, 0.45, ["t:1", "t:0"])):
        (ex,) = parse_examples(f"#example z\n1.0 :: e(a).\n0.9 :: q(b).\n{p_fact} :: p.\n")
        net = build(ground(t, ex.facts), t)
        vm = forward(net, params, "godel")
        assert vm.output(net, _atom("p")) == (p_value, False)
        assert net.outputs[_atom("q", "b")] not in _own_order(net)
        grads = _check_full_sweep(net, vm, seeds, params)
        assert list(grads) == keys
        assert grads.get("t:1", 0.9) == 0.9


def _hand_net(n, nan=False):
    """fact -> e_i (weight w_i) -> rule_i (offset c), for i < n -> one
    aggregation over the n rules -> h (weight k, offset d); each w_i is
    (i + 1) / 4, or NaN."""
    neurons = [Neuron(FACT)]
    neurons += [Neuron(ATOM, (0,), (f"w{i}",)) for i in range(n)]
    neurons += [Neuron(RULE, (1 + i,), (), "c") for i in range(n)]
    neurons += [Neuron(AGG, tuple(range(1 + n, 1 + 2 * n))),
                Neuron(ATOM, (1 + 2 * n,), ("k",), "d")]
    net = GroundNetwork(neurons, {_atom("h"): 2 + 2 * n})
    values = {f"w{i}": math.nan if nan else (i + 1) / 4 for i in range(n)}
    values.update(c=0.5, k=-1.25, d=0.25)
    return net, ParameterStore(values, set(values))


def test_backward_skips_the_winner_search_for_a_godel_one_input_conjunction():
    # min([x]) with an offset: the adjoint goes to x alone, and the offset,
    # which a min ignores, gets no gradient key; nor does the max's.
    net, params = _hand_net(1)
    vm = forward(net, params, "godel")
    assert vm.values == [1.0, 0.25, 0.25, 0.25, -0.3125]
    grads = _check_full_sweep(net, vm, {_atom("h"): 0.5}, params)
    assert list(grads) == ["k", "w0"] and grads == {"k": 0.125, "w0": -0.625}


@pytest.mark.parametrize("family", ["godel", "ms"])
def test_backward_passes_a_nan_one_input_max_its_adjoint(family):
    # The winner of one input is that input, NaN or not.
    net, params = _hand_net(1, nan=True)
    vm = forward(net, params, family)
    assert all(math.isnan(v) for v in vm.values[1:])
    grads = _check_full_sweep(net, vm, {_atom("h"): 0.5}, params)
    # k's gradient reads the NaN; under godel w0's does not.
    assert math.isnan(grads["k"]) and "w0" in grads


@pytest.mark.parametrize("family", ["godel", "ms"])
def test_backward_gives_a_two_input_max_to_its_winner_alone(family):
    # The second rule wins the aggregation's max: w1 gets a gradient, w0 none.
    net, params = _hand_net(2)
    vm = forward(net, params, family)
    assert vm.values[3] < vm.values[4] == vm.values[5]
    grads = _check_full_sweep(net, vm, {_atom("h"): 0.5}, params)
    assert "w1" in grads and "w0" not in grads


_INF_MINUS_INF = ("? :: q :- e(X), f(X).\n",
                  "#example x\n1e308 :: e(x).\n1e308 :: e(x).\n-1e308 :: f(x).\n-1e308 :: f(x).\n")
# Finite weights overflow under godel: q(a) = inf, s(a) = 0.0 * inf = nan.
_GODEL_OVERFLOW = ("1e300 :: q(X) :- p(X).\n? :: r(X) :- q(X).\n0.0 :: s(X) :- r(X).\n",
                   "#example x\n1e300 :: p(a).\n")


@pytest.mark.parametrize("family, template, examples", [
    ("godel", *_INF_MINUS_INF), ("ms", *_INF_MINUS_INF), ("as", *_INF_MINUS_INF),
    ("godel", *_GODEL_OVERFLOW)], ids=["inf_minus_inf-godel", "inf_minus_inf-ms",
                                       "inf_minus_inf-as", "overflow-godel"])
def test_backward_matches_full_sweep_on_overflowing_scores(family, template, examples):
    t = parse_template(template, "t")
    (ex,) = parse_examples(examples)
    net = build(ground(t, ex.facts), t)
    params = t.params.copy()
    for pid in params.learnable:
        params[pid] = 0.75
    vm = forward(net, params, family)
    assert not all(math.isfinite(v) for v in vm.values)
    seeds = {atom: 0.3 for atom in net.outputs}
    grads = _check_full_sweep(net, vm, seeds, params)  # grad_bits compares by float.hex
    assert grads and not all(math.isfinite(g) for g in grads.values()), family


def _fact_only(net, neuron):
    """An atom fed by facts alone through fixed weights."""
    return neuron.kind == ATOM and neuron.offset_pid is None and \
        all(type(w) is float for w in neuron.weights) and \
        all(net.neurons[s].kind == FACT for s in neuron.inputs)


def test_reverse_order_skips_facts_and_fact_only_atoms_on_a_bond_molecule():
    t = load_template("explosives")
    (ex,), _ = make_bond_dataset(1, seed=1)
    net = build(ground(t, ex.facts), t)
    order = _own_order(net)
    assert order == sorted(order, reverse=True)
    # Every clause of the template is learnable, so the cone is every
    # neuron but the facts and the type and bond atoms they feed.
    skipped = [nid for nid, n in enumerate(net.neurons) if n.kind == FACT or _fact_only(net, n)]
    assert sorted(skipped + order) == list(range(len(net.neurons)))
    assert any(net.neurons[nid].kind == ATOM for nid in skipped)


def test_reverse_order_holds_a_template_fact_and_all_above():
    # f(a)'s edge weight is the template fact's parameter; g(a) reads a
    # fixed-weight example fact only.
    t = parse_template("? :: f(a).\n0.5 :: h(X) :- f(X), g(X).\n0.5 :: k :- h(X).", "t")
    (ex,) = parse_examples("#example z\n1.0 :: g(a).\n")
    net = build(ground(t, ex.facts), t)
    order = _own_order(net)
    above, frontier = set(), {net.outputs[_atom("f", "a")]}
    while frontier:  # f(a) and every neuron that reads it, directly or not
        above |= frontier
        frontier = {nid for nid, n in enumerate(net.neurons)
                    if set(n.inputs) & frontier} - above
    assert net.outputs[_atom("k")] in above
    assert above <= set(order)
    assert net.outputs[_atom("g", "a")] not in order
    params = t.params.copy()
    params["t:0"] = 0.8
    for family in ("godel", "ms", "as"):
        vm = forward(net, params, family)
        grads = _check_full_sweep(net, vm, {_atom("k"): 1.0}, params)
        assert grads["t:0"] != 0.0, family


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


_DOT_NODE = re.compile(r'^  n\d+ \[shape=(\w+), label="((?:[^"\\]|\\.)*)"\];$')


def _check_dot_labels(g, template):
    """Per node shape, `export_dot`'s labels are, as a multiset, those
    rendered straight from the grounding: each model atom, each ground
    fact's atom, each (clause, head) pair and each rule instance."""
    got = {}
    for line in export_dot(build(g, template)).splitlines():
        node = _DOT_NODE.match(line)
        if node:
            got.setdefault(node[1], []).append(re.sub(r"\\(.)", r"\1", node[2]))
    want = {"ellipse": [str(atom) for atom in g.model.atoms],
            "box": [str(atom) for atom, _ in g.ground_facts],
            "trapezium": [f"{c} => {h}" for c, h in {(i.clause_id, i.head) for i in g.instances}],
            "diamond": [f"{i.head} :- {', '.join(map(str, i.body))}" for i in g.instances]}
    assert {shape: sorted(labels) for shape, labels in got.items()} == \
        {shape: sorted(labels) for shape, labels in want.items() if labels}


def test_export_dot_labels_what_each_neuron_stands_for_on_fixtures():
    for name in fixture_names():
        t = load_template(name)
        for ex in load_examples(name):
            _check_dot_labels(ground(t, ex.facts), t)


@given(rng=st.randoms(use_true_random=False), weighted_facts=st.booleans())
def test_export_dot_labels_what_each_neuron_stands_for_on_drawn_programs(rng, weighted_facts):
    template, facts, _params = _drawn_program(rng, weighted_facts)
    _check_dot_labels(ground(template, facts), template)
