"""Least Herbrand model and per-example grounding of a non-recursive template.

The template's predicates may form no dependency cycle: a recursive
template raises RecursiveTemplateError (`logic.check_nonrecursive`)
before any join.  The rule clauses compiled for joins, their order and
the template's constants are made once per `Template` (`_plan`), so an
example costs only one stratified bottom-up pass of joins.  Fact clauses
and example facts seed the relations, and the rule clauses run in
reverse `check_nonrecursive` order, so every rule with head p has run
before any rule reads p.  Each rule is joined once, against body
relations that are already complete.  Every match adds its head row to
the model and is one rule instance active in the least model; `ground`
keeps them.

Joins are indexed.  Each body atom has key positions: the arguments
that are a constant or a variable bound by an earlier body atom of the
same rule.  A body atom with key positions is matched by one lookup in
a hash index of its relation on those positions; a body atom without
any (such as a first body atom that holds no constant) scans its
relation.  An index is built lazily, in one pass over the relation, and
cached under (signature, key positions).  One cache serves the whole
pass: a relation is read only once it is complete, so no index goes
stale.  Each bucket keeps the relation's iteration order, so a lookup
yields the same rows in the same order as the scan it replaces.

Variables occurring only in a clause head (including facts written with
variables) range over the full constant universe of template + example.

Each ground atom is built once, from the finished relations.  The head
and body atoms of every rule instance, and the atoms of template ground
facts, are the model's own `Atom` objects, looked up by (predicate,
argument names).

One budget, `capacity`, bounds the grounding work: the model may hold
at most that many atoms, model atoms plus distinct rule instances may
not exceed it either, and neither may the substitutions of a join step
before a body's last atom.  `network.build` bounds each example's
neurons by the same budget.
"""

import itertools
from dataclasses import dataclass

from .errors import CapacityError
from .logic import Atom, Constant, Template, _compile_pattern, _Rule

DEFAULT_CAPACITY = 10**7


@dataclass(frozen=True, slots=True)
class HerbrandModel:
    atoms: frozenset
    universe: tuple  # sorted constant names

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms


@dataclass(frozen=True, slots=True)
class GroundRuleInstance:
    clause_id: str
    theta: tuple  # sorted ((var name, const name), ...)
    head: Atom
    body: tuple


@dataclass(frozen=True, slots=True)
class Grounding:
    model: HerbrandModel
    instances: tuple  # GroundRuleInstance, ordered by (clause ordinal, theta)
    ground_facts: tuple  # (Atom, pid or fixed weight), template facts then example facts


def _bind(free, row, subst) -> dict | None:
    """Copy subst and bind the free (position, variable) slots to row,
    or None when a variable repeated among them meets two values."""
    out = dict(subst)
    for i, name in free:
        value = row[i]
        if out.setdefault(name, value) != value:
            return None
    return out


def _instantiate(pattern: tuple, subst) -> tuple:
    """Argument names of a compiled pattern under a substitution."""
    return tuple([name if kind == "c" else subst[name] for kind, name in pattern])


def _fact_rows(clause, universe):
    """Argument tuples of a fact clause, its variables ranging over the universe."""
    pattern = _compile_pattern(clause.head)
    vars_ = sorted({name for kind, name in pattern if kind == "v"})
    for combo in itertools.product(universe, repeat=len(vars_)):
        yield _instantiate(pattern, dict(zip(vars_, combo)))


def _index(indexes: dict, sig, key_pos: tuple, source) -> dict:
    """Rows of source bucketed by their values at key_pos, cached."""
    index = indexes.get((sig, key_pos))
    if index is None:
        index = indexes[sig, key_pos] = {}
        for row in source:
            index.setdefault(tuple([row[i] for i in key_pos]), []).append(row)
    return index


def _join(rule: _Rule, relations, indexes: dict, capacity: int):
    """Yield every substitution satisfying the body.  indexes is the
    cache of relation indexes, valid while the body relations stay
    unchanged.  CapacityError once a step before the last body atom holds
    more than capacity substitutions; the last step's are yielded one at
    a time as matches, which `ground` charges, so a budget stops it early."""
    substs = [{}]
    last = len(rule.body) - 1
    for step, (sig, key_pos, key_pat, free) in enumerate(rule.body):
        source = relations.get(sig, ())
        if not source:
            return
        index = _index(indexes, sig, key_pos, source) if key_pos else None
        extended = []
        for subst in substs:
            if index is None:
                rows = source
            else:
                rows = index.get(tuple([subst[name] if kind == "v" else name
                                        for kind, name in key_pat]), ())
            for row in rows:
                got = _bind(free, row, subst)
                if got is None:
                    continue
                if step == last:
                    yield got
                else:
                    extended.append(got)
            # One substitution adds at most one relation's rows, which
            # the model's budget already bounds.
            if len(extended) > capacity:
                raise CapacityError(len(extended), capacity, "substitutions in one join step")
        if not extended:
            return
        substs = extended


def _head_expansions(rule: _Rule, subst, universe):
    """Complete body substitutions with head-only variables over the universe."""
    if not rule.head_only:
        yield subst
        return
    for combo in itertools.product(universe, repeat=len(rule.head_only)):
        full = dict(subst)
        full.update(zip(rule.head_only, combo))
        yield full


def _evaluate(template: Template, example_facts, capacity: int, on_match=None) -> tuple:
    """The one bottom-up pass: (atoms, model, fact rows).

    atoms maps (predicate, argument names) to the model's Atom, one per
    row, and fact rows pairs each fact clause, in template order, with
    the rows it seeds.  Every new row counts against capacity.  When
    on_match is given, every match counts as well and is handed over as
    on_match(rule, substitution) once its head row is in.  Matches of
    one rule are distinct substitutions: they bind distinct rows of
    sets, then each distinct head-only variable to a constant.
    """
    plan = template._plan
    universe = tuple(sorted(plan.constants.union(
        t.name for _, atom in example_facts for t in atom.args)))

    # Fact clauses seed the relations; variable heads expand over the universe.
    fact_rows = [(c, list(_fact_rows(c, universe))) for c in template.clauses if c.is_fact]
    relations = {}
    for c, rows in fact_rows:
        relations.setdefault(c.head.signature, set()).update(rows)
    for _, atom in example_facts:
        relations.setdefault(atom.signature, set()).add(tuple([t.name for t in atom.args]))
    count = sum(len(rows) for rows in relations.values())
    if count > capacity:
        raise CapacityError(count, capacity)

    def charge():
        nonlocal count
        count += 1
        if count > capacity:
            raise CapacityError(count, capacity)

    indexes = {}
    # Bodies before heads: all rules with head p run before any rule reads p.
    for rule in plan.schedule:
        head = relations.setdefault(rule.head_sig, set())
        for subst in _join(rule, relations, indexes, capacity):
            for full in _head_expansions(rule, subst, universe):
                row = _instantiate(rule.head_pat, full)
                if row not in head:
                    head.add(row)
                    charge()
                if on_match is not None:
                    charge()
                    on_match(rule, full)
    atoms = {(pred, row): Atom(pred, tuple([Constant(n) for n in row]))
             for (pred, _), rows in relations.items() for row in rows}
    return atoms, HerbrandModel(frozenset(atoms.values()), universe), fact_rows


def least_herbrand_model(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> HerbrandModel:
    """Stratified bottom-up model of a non-recursive template; capacity bounds its atoms."""
    return _evaluate(template, example_facts, capacity)[1]


def ground(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> Grounding:
    """All rule instances active in the least model, plus weighted ground facts.

    Instances are the matches of the model's own pass, one per (clause,
    theta), ordered by (clause ordinal, theta); facts come template-first
    in clause order, then example facts in input order.
    """
    matches = {}  # rule -> [(theta, substitution)]

    def keep(rule, full):
        matches.setdefault(rule, []).append((tuple(sorted(full.items())), full))

    table, model, fact_rows = _evaluate(template, example_facts, capacity, keep)
    instances = []
    for rule in template._plan.rules.values():
        head_pred = rule.head_sig[0]
        for theta, full in sorted(matches.get(rule, ()), key=lambda match: match[0]):
            head = table[head_pred, _instantiate(rule.head_pat, full)]
            body = tuple([table[pred, _instantiate(pattern, full)]
                          for pred, pattern in rule.body_pats])
            instances.append(GroundRuleInstance(rule.clause_id, theta, head, body))

    ground_facts = [(table[c.head.pred, row], c.clause_id)
                    for c, rows in fact_rows for row in rows]
    ground_facts.extend((atom, weight) for weight, atom in example_facts)
    return Grounding(model, tuple(instances), tuple(ground_facts))
