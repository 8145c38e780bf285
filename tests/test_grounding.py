"""Least-model computation and rule-instance grounding."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrnn import (Atom, CapacityError, ConstRef, Constant, ParamRef, RecursiveTemplateError,
                  Variable, build, check_nonrecursive, ground, grounding,
                  least_herbrand_model, logic, parse_examples, parse_template)

from helpers import load_examples, load_template
from oracles import (apply, naive_instances, naive_model, naive_template_facts,
                     random_nonrecursive_program)


def _atom(pred, *names):
    return Atom(pred, tuple(Constant(n) for n in names))


# ---------------------------------------------------------------------------
# Pinned micro-world groundings


def test_family_model_exact():
    t = load_template("family")
    model = least_herbrand_model(t)
    assert model.atoms == {
        _atom("female", "alice"),
        _atom("parent", "bob", "alice"),
        _atom("parent", "eve", "alice"),
        _atom("mother", "bob", "alice"),
        _atom("mother", "eve", "alice"),
    }
    assert model.universe == ("alice", "bob", "eve")


def test_family_instances_exact():
    t = load_template("family")
    g = ground(t)
    assert [(i.clause_id, i.theta, str(i.head)) for i in g.instances] == [
        ("family:0", (("C", "bob"), ("M", "alice")), "mother(bob,alice)"),
        ("family:0", (("C", "eve"), ("M", "alice")), "mother(eve,alice)"),
    ]
    # the father rule matches nothing: no male/1 anywhere
    assert all(i.clause_id != "family:1" for i in g.instances)


def test_family_ground_facts():
    t = load_template("family")
    g = ground(t)
    got = [(type(ref).__name__, getattr(ref, "pid", None), str(atom))
           for atom, ref in g.ground_facts]
    assert got == [
        ("ParamRef", "family:2", "female(alice)"),
        ("ParamRef", "family:3", "parent(bob,alice)"),
        ("ParamRef", "family:4", "parent(eve,alice)"),
    ]


def test_instance_substitution_mapping():
    t = load_template("family")
    inst = ground(t).instances[0]
    theta = {Variable(v): Constant(c) for v, c in inst.theta}
    assert theta == {Variable("C"): Constant("bob"), Variable("M"): Constant("alice")}
    assert inst.body == (_atom("parent", "bob", "alice"), _atom("female", "alice"))


def test_explosives_bond_instances():
    t = load_template("explosives")
    examples = {ex.example_id: ex for ex in load_examples("explosives")}
    hydrogen = ground(t, examples["m1"].facts)
    pairs = {i.theta for i in hydrogen.instances if i.clause_id == "explosives:6"}
    assert pairs == {(("A", "h1"), ("B", "h2")), (("A", "h2"), ("B", "h1"))}
    water = ground(t, examples["m2"].facts)
    pairs = {i.theta for i in water.instances if i.clause_id == "explosives:6"}
    assert pairs == {
        (("A", "o1"), ("B", "h1")), (("A", "h1"), ("B", "o1")),
        (("A", "o1"), ("B", "h2")), (("A", "h2"), ("B", "o1")),
    }


def test_multi_round_chain_derivation():
    t = parse_template("1.0 :: p1(X) :- p0(X).\n1.0 :: p2(X) :- p1(X).\n"
                       "1.0 :: p3(X) :- p2(X), p0(X).", "chain")
    facts = ((1.0, _atom("p0", "a")),)
    model = least_herbrand_model(t, facts)
    assert _atom("p3", "a") in model
    assert len(model.atoms) == 4


def test_nonground_template_fact_expands_over_universe():
    t = parse_template("? :: f(X,Y).\n1.0 :: p(a).\n1.0 :: p(b).", "src")
    g = ground(t)
    f_atoms = {str(a) for a in g.model.atoms if a.pred == "f"}
    assert f_atoms == {"f(a,a)", "f(a,b)", "f(b,a)", "f(b,b)"}
    refs = [(ref.pid, str(atom)) for atom, ref in g.ground_facts if atom.pred == "f"]
    assert [pid for pid, _ in refs] == ["src:0"] * 4  # one shared parameter


def test_head_only_variable_expands():
    t = parse_template("1.0 :: p1(X,Y) :- p0(X).\n1.0 :: c(u).\n1.0 :: c(v).", "src")
    facts = ((1.0, _atom("p0", "u")),)
    g = ground(t, facts)
    heads = {str(i.head) for i in g.instances}
    assert heads == {"p1(u,u)", "p1(u,v)"}
    thetas = {i.theta for i in g.instances}
    assert thetas == {(("X", "u"), ("Y", "u")), (("X", "u"), ("Y", "v"))}


def test_repeated_head_only_variable_expands_once():
    t = parse_template("1.0 :: p1(V,V) :- p0.\n1.0 :: c(a).\n1.0 :: c(b).", "src")
    g = ground(t, ((1.0, _atom("p0")),))
    assert [(str(i.head), i.theta) for i in g.instances] == [
        ("p1(a,a)", (("V", "a"),)), ("p1(b,b)", (("V", "b"),))]


def test_constants_inside_rules_join():
    t = parse_template("1.0 :: q(X) :- p(X,a).", "src")
    facts = ((1.0, _atom("p", "b", "a")), (1.0, _atom("p", "b", "c")))
    model = least_herbrand_model(t, facts)
    assert _atom("q", "b") in model
    assert len([a for a in model.atoms if a.pred == "q"]) == 1


def test_zero_weight_fact_still_derives():
    t = parse_template("1.0 :: q(X) :- p(X).", "src")
    model = least_herbrand_model(t, ((0.0, _atom("p", "a")),))
    assert _atom("q", "a") in model


def test_duplicate_example_fact_atoms_keep_both_weights():
    t = parse_template("1.0 :: q(X) :- p(X).", "src")
    facts = ((0.3, _atom("p", "a")), (0.4, _atom("p", "a")))
    g = ground(t, facts)
    assert len([a for a in g.model.atoms if a.pred == "p"]) == 1
    weights = [ref.value for atom, ref in g.ground_facts if atom.pred == "p"]
    assert weights == [0.3, 0.4]


def test_empty_template_model_is_the_example():
    t = parse_template("", "src")
    facts = ((1.0, _atom("p", "a")),)
    model = least_herbrand_model(t, facts)
    assert model.atoms == {_atom("p", "a")}


def test_instances_sorted_by_clause_then_theta():
    for seed in range(10):
        template, facts = random_nonrecursive_program(random.Random(seed))
        g = ground(template, facts)
        ordinal = {c.clause_id: i for i, c in enumerate(template.clauses)}
        keys = [(ordinal[i.clause_id], i.theta) for i in g.instances]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Equivalence with the brute-force oracle


def test_model_matches_naive_fixpoint():
    for seed in range(300):
        template, facts = random_nonrecursive_program(random.Random(seed))
        model = least_herbrand_model(template, facts)
        assert model.atoms == naive_model(template, facts), f"seed {seed}"


def test_instances_match_naive_enumeration():
    for seed in range(300):
        template, facts = random_nonrecursive_program(random.Random(seed))
        g = ground(template, facts)
        got = {(i.clause_id, i.theta) for i in g.instances}
        assert got == naive_instances(template, facts, g.model.atoms), f"seed {seed}"
        # Instance atoms are the oracle's substitution applied to the clause,
        # and they are the model's own atom objects.
        clauses = {c.clause_id: c for c in template.clauses}
        model_ids = {id(a) for a in g.model.atoms}
        for inst in g.instances:
            clause = clauses[inst.clause_id]
            theta = {Variable(v): Constant(c) for v, c in inst.theta}
            assert inst.head == apply(theta, clause.head), f"seed {seed}"
            assert inst.body == tuple(apply(theta, b) for b in clause.body), f"seed {seed}"
            assert all(id(a) in model_ids for a in (inst.head, *inst.body)), f"seed {seed}"
        n_template = len(g.ground_facts) - len(facts)
        assert [(a, r.pid) for a, r in g.ground_facts[:n_template]] == \
            naive_template_facts(template, facts), f"seed {seed}"
        assert g.ground_facts[n_template:] == tuple((a, ConstRef(w)) for w, a in facts)


@given(st.randoms(use_true_random=False))
def test_grounding_matches_oracles_on_drawn_programs(rng):
    # The program is drawn from Hypothesis's random, so a failing one shrinks.
    template, facts = random_nonrecursive_program(rng)
    g = ground(template, facts)
    assert g.model.atoms == naive_model(template, facts)
    got = [(i.clause_id, i.theta) for i in g.instances]
    assert len(got) == len(set(got))
    assert set(got) == naive_instances(template, facts, g.model.atoms)


# One program per shape the join indexes on; each is checked against the
# oracle, and later rules read relations that earlier strata derived.
_GRAPH = ("#example g\n"
          "1.0 :: e(a,a). 1.0 :: e(a,b). 1.0 :: e(b,c). 1.0 :: e(c,a). 1.0 :: e(b,b).\n"
          "1.0 :: e(c,b). 1.0 :: e(c,d). 1.0 :: n(a). 1.0 :: n(b). 1.0 :: flag.\n"
          "1.0 :: f(a,b,b). 1.0 :: f(a,b,c). 1.0 :: f(b,c,c). 1.0 :: f(d,a,a).\n")
SHAPES = {
    "constant_in_body": "1.0 :: q(X) :- e(X,a).\n1.0 :: r(X,Y) :- e(a,X), f(X,c,Y).\n"
                        "1.0 :: s(Y) :- q(X), e(X,b), e(b,Y).",
    "repeated_variable": "1.0 :: loop(X) :- e(X,X).\n1.0 :: q(Y,X) :- n(Y), f(Y,X,X).\n"
                         "1.0 :: s(X,Y) :- loop(X), f(X,Y,Y), e(Y,Y).",
    "fully_bound_atom": "1.0 :: sym(X,Y) :- e(X,Y), e(Y,X).\n"
                        "1.0 :: tri(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).\n"
                        "1.0 :: u(X) :- tri(X,Y,Z), sym(X,Y), n(X).",
    "head_only_variable": "1.0 :: h(X,W) :- e(X,Y), n(Y).\n1.0 :: k(W) :- flag.\n"
                          "1.0 :: m(X,V) :- h(X,X), k(X).",
    # q has two rules, one reading the derived m, and `both` reads the
    # finished q twice with the same key positions: one index serves both.
    "delta_and_full_index": "1.0 :: q(X) :- n(X).\n1.0 :: m(X) :- e(X,d).\n"
                            "1.0 :: q(X) :- m(X).\n1.0 :: both(X,Y) :- e(X,Y), q(X), q(Y).",
    "zero_ary_body_atom": "1.0 :: q(X) :- flag, n(X).\n1.0 :: r(X) :- n(X), flag.\n"
                          "1.0 :: z :- flag.\n1.0 :: w(X) :- z, q(X), e(X,X).",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_join_shapes_match_oracle(shape):
    template = parse_template(SHAPES[shape], shape)
    (example,) = parse_examples(_GRAPH)
    g = ground(template, example.facts)
    assert g.model.atoms == naive_model(template, example.facts)
    got = [(i.clause_id, i.theta) for i in g.instances]
    assert len(got) == len(set(got))
    assert set(got) == naive_instances(template, example.facts, g.model.atoms)
    for clause in [c for c in template.clauses if not c.is_fact]:
        assert any(cid == clause.clause_id for cid, _ in got), clause


def test_ground_joins_each_rule_clause_once(monkeypatch):
    template = load_template("generic_chains")
    example = load_examples("generic_chains")[0]
    calls = []
    real_join = grounding._join

    def counting_join(rule, *args):
        calls.append(rule)
        return real_join(rule, *args)

    monkeypatch.setattr(grounding, "_join", counting_join)
    ground(template, example.facts)
    assert sum(not c.is_fact for c in template.clauses) == 24
    assert len(calls) == 24  # one join per rule clause
    assert len({id(rule) for rule in calls}) == 24


def test_recursive_template_rejected_by_grounding():
    t = parse_template("1.0 :: p(X) :- q(X).\n1.0 :: q(X) :- p(X).", "src")
    facts = ((1.0, _atom("p", "a")),)
    empty = grounding.Grounding(grounding.HerbrandModel(frozenset(), ()), (), ())
    # Twice each: a failed stratum order is not cached.
    for fn in (ground, least_herbrand_model, ground, lambda t, _: build(empty, t)):
        with pytest.raises(RecursiveTemplateError) as exc:
            fn(t, facts)
        assert set(exc.value.cycle) == {("p", 1), ("q", 1)}


def test_stratum_order_computed_once_per_template(monkeypatch):
    calls = []

    def counting(template):
        calls.append(template)
        return check_nonrecursive(template)

    monkeypatch.setattr(logic, "check_nonrecursive", counting)
    t = load_template("family")
    for ex in load_examples("family") * 3:
        build(ground(t, ex.facts), t)
    assert calls == [t]


def test_rule_plan_compiled_once_per_template(monkeypatch):
    compiled = []

    class Counting(logic._Rule):
        __slots__ = ()

        def __init__(self, clause, *offset_pids):
            compiled.append(clause.clause_id)
            super().__init__(clause, *offset_pids)

    monkeypatch.setattr(logic, "_Rule", Counting)
    t = load_template("family")
    for ex in load_examples("family") * 3:
        build(ground(t, ex.facts), t)
    assert compiled == [c.clause_id for c in t.clauses if not c.is_fact]


def test_adding_a_fact_is_monotone():
    for seed in range(15):
        rng = random.Random(seed)
        template, facts = random_nonrecursive_program(rng)
        preds = {a.signature for _, a in facts} | {c.head.signature for c in template.clauses}
        pred, arity = sorted(preds)[rng.randrange(len(preds))]
        universe = sorted({t.name for _, a in facts for t in a.args}) or ["a"]
        extra = Atom(pred, tuple(Constant(rng.choice(universe)) for _ in range(arity)))
        before = ground(template, facts)
        after = ground(template, facts + ((1.0, extra),))
        assert before.model.atoms <= after.model.atoms
        assert {(i.clause_id, i.theta) for i in before.instances} <= \
               {(i.clause_id, i.theta) for i in after.instances}


def test_every_instance_is_active():
    for seed in range(20):
        template, facts = random_nonrecursive_program(random.Random(seed))
        g = ground(template, facts)
        for inst in g.instances:
            assert inst.head in g.model
            for b in inst.body:
                assert b in g.model


def test_grounding_is_deterministic():
    for seed in range(5):
        template, facts = random_nonrecursive_program(random.Random(seed))
        a, b = ground(template, facts), ground(template, facts)
        assert a.model.atoms == b.model.atoms
        assert a.instances == b.instances
        assert a.ground_facts == b.ground_facts


# ---------------------------------------------------------------------------
# Capacity


def test_capacity_error():
    t = parse_template("? :: f(X,Y).\n1.0 :: p(a).\n1.0 :: p(b).\n1.0 :: p(c).", "src")
    with pytest.raises(CapacityError) as exc:
        least_herbrand_model(t, capacity=3)
    assert exc.value.cap == 3
    assert exc.value.count > 3


def test_capacity_generous_enough_passes():
    t = parse_template("? :: f(X,Y).\n1.0 :: p(a).\n1.0 :: p(b).", "src")
    model = least_herbrand_model(t, capacity=6)
    assert len(model.atoms) == 6


def test_capacity_counts_model_atoms_plus_instances():
    # Complete 20-node graph: 400 e + 400 hop2 atoms and 20^3 = 8,000 instances.
    t = parse_template("1.0 :: hop2(X,Z) :- e(X,Y), e(Y,Z).", "src")
    nodes = [f"n{i}" for i in range(20)]
    facts = tuple((1.0, _atom("e", a, b)) for a in nodes for b in nodes)
    assert len(least_herbrand_model(t, facts, capacity=900).atoms) == 800
    with pytest.raises(CapacityError) as exc:
        ground(t, facts, capacity=900)
    assert (exc.value.cap, exc.value.count) == (900, 901)
    assert len(ground(t, facts, capacity=8800).instances) == 8000
    with pytest.raises(CapacityError):
        ground(t, facts, capacity=8799)
