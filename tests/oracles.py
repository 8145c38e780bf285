"""Naive reference implementations the package is tested against.

Everything here is written for obviousness rather than speed: full
enumeration over the constant universe, re-derivation from scratch on
every round, no sharing, no incrementality.  Agreement between these
and the package's engine is what the equivalence tests assert, so this
module must stay independent of the engine internals (it only uses the
public AST types and evaluation entry points).
"""

import itertools
import math
import random

from lrnn import (Atom, Constant, Variable, WeightedClause, cost, forward, make_template,
                  sigmoid)


def apply(subst: dict, atom: Atom) -> Atom:
    """Replace every variable `subst` maps to a constant; unmapped variables stay."""
    if not atom.args:
        return atom
    return Atom(atom.pred, tuple(subst.get(t, t) if isinstance(t, Variable) else t for t in atom.args))


def clause_variables(atoms):
    """Distinct variables of a clause, first-occurrence order."""
    seen = {}
    for atom in atoms:
        for v in atom.variables():
            seen.setdefault(v, None)
    return list(seen)


def universe_of(template, example_facts):
    """Sorted constant names from the template plus the example."""
    consts = set()
    for c in template.clauses:
        for atom in (c.head, *c.body):
            for t in atom.args:
                if isinstance(t, Constant):
                    consts.add(t.name)
    for _w, atom in example_facts:
        for t in atom.args:
            consts.add(t.name)
    return sorted(consts)


def substitutions(variables, universe):
    """Every assignment of the variables to universe constants."""
    for combo in itertools.product(universe, repeat=len(variables)):
        yield dict(zip(variables, (Constant(c) for c in combo)))


def naive_model(template, example_facts):
    """Least fixpoint by brute force: re-derive everything each round."""
    universe = universe_of(template, example_facts)
    rules = [c for c in template.clauses if not c.is_fact]
    atoms = {atom for _w, atom in example_facts}
    for c in template.clauses:
        if not c.is_fact:
            continue
        for theta in substitutions(clause_variables((c.head,)), universe):
            atoms.add(apply(theta, c.head))
    while True:
        fresh = set()
        for c in rules:
            for theta in substitutions(clause_variables((c.head, *c.body)), universe):
                if all(apply(theta, b) in atoms for b in c.body):
                    head = apply(theta, c.head)
                    if head not in atoms:
                        fresh.add(head)
        if not fresh:
            return atoms
        atoms |= fresh


def naive_instances(template, example_facts, model_atoms):
    """{(clause_id, sorted theta)} for every active rule instance."""
    universe = universe_of(template, example_facts)
    out = set()
    for c in template.clauses:
        if c.is_fact:
            continue
        cvars = clause_variables((c.head, *c.body))
        for theta in substitutions(cvars, universe):
            if all(apply(theta, b) in model_atoms for b in c.body):
                key = tuple(sorted((v.name, theta[v].name) for v in cvars))
                out.add((c.clause_id, key))
    return out


def naive_template_facts(template, example_facts):
    """[(ground atom, weight pid)] of the template's fact clauses in clause
    order, each fact's variables taken in name order over the universe."""
    universe = universe_of(template, example_facts)
    out = []
    for c in template.clauses:
        if c.is_fact:
            cvars = sorted(clause_variables((c.head,)), key=lambda v: v.name)
            out.extend((apply(theta, c.head), c.weight_ref)
                       for theta in substitutions(cvars, universe))
    return out


def fuzzy_min_max_values(template, example_facts):
    """Fuzzy-Datalog valuation: rules take min over the body, atoms take
    the max over rule values (scaled by the clause weight) and fact
    weights.  Callers keep at most one fact per ground atom so the
    max/sum distinction for facts never shows.
    """
    model = naive_model(template, example_facts)
    universe = universe_of(template, example_facts)
    fact_weight = {}
    for w, atom in example_facts:
        fact_weight[atom] = w
    for c in template.clauses:
        if not c.is_fact:
            continue
        w = template.params[c.weight_ref]
        for theta in substitutions(clause_variables((c.head,)), universe):
            fact_weight[apply(theta, c.head)] = w
    rules = [c for c in template.clauses if not c.is_fact]
    val = {atom: fact_weight.get(atom, 0.0) for atom in model}
    changed = True
    while changed:
        changed = False
        for c in rules:
            w = template.params[c.weight_ref]
            cvars = clause_variables((c.head, *c.body))
            for theta in substitutions(cvars, universe):
                body = [apply(theta, b) for b in c.body]
                if not all(b in model for b in body):
                    continue
                candidate = w * min(val[b] for b in body)
                head = apply(theta, c.head)
                if candidate > val[head]:
                    val[head] = candidate
                    changed = True
    return val


def family_values(template, example_facts, params, family):
    """Ground atom -> score under an activation family, by a memoised
    recursion per ground atom over `naive_model` and `naive_instances`,
    as the README's family table reads:

        conjunction  over each instance's body atom values
        aggregation  over each clause's conjunction values for one head
        disjunction  over clause weight x aggregation value per clause,
                     plus the weights of the atom's facts
        an atom with facts only sums its fact weights

    The disj offset of a head is named by the head's first rule clause.
    math.fsum, min and max do not depend on input order, so the values
    are expected to equal the network's bit for bit.
    """
    model = naive_model(template, example_facts)
    fact_weights = {}
    for weight, atom in example_facts:
        fact_weights.setdefault(atom, []).append(weight)
    for atom, pid in naive_template_facts(template, example_facts):
        fact_weights.setdefault(atom, []).append(params[pid])
    clauses = {c.clause_id: c for c in template.clauses}
    bodies = {}  # head -> clause id -> [ground body]
    for clause_id, key in sorted(naive_instances(template, example_facts, model)):
        theta = {Variable(v): Constant(c) for v, c in key}
        c = clauses[clause_id]
        bodies.setdefault(apply(theta, c.head), {}).setdefault(clause_id, []).append(
            [apply(theta, b) for b in c.body])
    disj_pid = {}
    for c in template.clauses:
        if not c.is_fact:
            disj_pid.setdefault(c.head.signature, f"{c.clause_id}:disj")
    memo = {}

    def conj(clause_id, body):
        xs = [value(b) for b in body]
        if family == "godel":
            return min(xs)
        return sigmoid(math.fsum(xs) - len(xs) + params[f"{clause_id}:conj"])

    def agg(xs):
        if family == "as":
            return min(max(math.fsum(xs) / len(xs), min(xs)), max(xs))
        return max(xs)

    def value(atom):
        if atom not in memo:
            by_clause = bodies.get(atom, {})
            terms = [params[clause_id] * agg([conj(clause_id, b) for b in insts])
                     for clause_id, insts in by_clause.items()]
            terms += fact_weights.get(atom, [])
            offset = params[disj_pid[atom.signature]] if by_clause else None
            if offset is None:
                memo[atom] = math.fsum(terms)
            elif family == "godel":
                memo[atom] = max(terms)
            elif family == "ms":
                memo[atom] = sigmoid(math.fsum(terms) + offset)
            else:
                memo[atom] = math.fsum(terms) + offset
        return memo[atom]

    return {atom: value(atom) for atom in model}


def per_example_total_cost(compiled, params):
    """The training cost with one forward pass per queried example: each
    query's score read from its own example's network (0.0 for an atom
    the network lacks), costs summed left to right in input order."""
    kind, total = compiled.task.config.cost_kind, 0.0
    for net, queries in zip(compiled.nets, compiled.queries):
        if queries:
            values = forward(net, params, compiled.task.family).values
            for q in queries:
                nid = net.outputs.get(q.atom)
                total += cost(0.0 if nid is None else values[nid], q.target, kind)[0]
    return total


def random_nonrecursive_program(rng, max_preds=5, max_consts=5, max_rules=6,
                                weighted_facts=False, learnable_rules=False):
    """A random stratified program plus example facts.

    Predicate p_i may only appear in bodies of rules whose head index is
    greater, so the result is never recursive.  Covers 0-ary predicates,
    constants inside rules, head-only variables, duplicate clauses and
    (unless weighted_facts) non-ground template facts.
    """
    n_preds = rng.randint(2, max_preds)
    preds = [(f"p{i}", rng.randint(0, 2)) for i in range(n_preds)]
    consts = [chr(ord("a") + i) for i in range(rng.randint(1, max_consts))]
    variables = [Variable(f"V{i}") for i in range(3)]

    def random_term(allow_vars=True):
        pool = [Constant(c) for c in consts]
        if allow_vars:
            pool = pool + variables
        return rng.choice(pool)

    def random_atom(pred_ix, allow_vars=True):
        name, arity = preds[pred_ix]
        return Atom(name, tuple(random_term(allow_vars) for _ in range(arity)))

    clauses = []
    for _ in range(rng.randint(1, max_rules)):
        head_ix = rng.randint(1, n_preds - 1)
        head = random_atom(head_ix)
        body = tuple(random_atom(rng.randint(0, head_ix - 1))
                     for _ in range(rng.randint(1, 3)))
        weight = None if learnable_rules else 1.0
        clauses.append(WeightedClause(head, body, weight, f"gen:{len(clauses)}"))
    if not weighted_facts:
        for _ in range(rng.randint(0, 2)):
            head = random_atom(rng.randint(0, n_preds - 1))
            clauses.append(WeightedClause(head, (), 1.0, f"gen:{len(clauses)}"))

    facts, seen = [], set()
    for _ in range(rng.randint(1, 6)):
        atom = random_atom(rng.randint(0, n_preds - 1), allow_vars=False)
        if atom in seen:
            continue
        seen.add(atom)
        weight = round(rng.random(), 6) if weighted_facts else 1.0
        facts.append((weight, atom))
    family = "godel" if weighted_facts else "ms"
    return make_template(clauses, source="gen", family=family), tuple(facts)


def central_difference(f, x0, h=1e-6):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def smallest_max_gap(net, vm):
    """Smallest top-two input gap over the network's max aggregations.

    Used to keep finite-difference checks away from max ties.
    """
    from lrnn.network import AGG
    gap = math.inf
    for neuron in net.neurons:
        if neuron.kind != AGG or len(neuron.inputs) < 2:
            continue
        vals = sorted((vm.values[i] for i in neuron.inputs), reverse=True)
        gap = min(gap, vals[0] - vals[1])
    return gap


def randomize_params(template, rng, lo=-2.0, hi=2.0):
    """Fresh store with every learnable weight drawn uniformly."""
    params = template.params.copy()
    for pid in sorted(params.learnable):
        params[pid] = rng.uniform(lo, hi)
    return params


def random_gradcheck_instance(rng, family):
    """(template, facts, queries, params) with every max strictly resolved
    for the max-based families.  Returns None when no usable query atom
    or sufficiently tie-free parameter point is found for this draw.
    rng is a random.Random, or an int seed for one.
    """
    from lrnn.grounding import ground
    from lrnn.network import build, forward

    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    template, facts = random_nonrecursive_program(rng, learnable_rules=True)
    net = build(ground(template, facts), template)
    derived = list(net.outputs)
    if not derived or not template.params.learnable:
        return None
    queries = rng.sample(derived, min(len(derived), rng.randint(1, 3)))
    targets = [round(rng.random(), 3) for _ in queries]
    for _attempt in range(40):
        params = randomize_params(template, rng)
        if family not in ("ms", "godel"):
            return template, facts, list(zip(queries, targets)), params
        vm = forward(net, params, family)
        if smallest_max_gap(net, vm) >= 1e-3:
            return template, facts, list(zip(queries, targets)), params
    return None
