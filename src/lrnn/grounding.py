"""Least Herbrand model and per-example grounding of a non-recursive template.

The template's predicates may form no dependency cycle: a recursive
template raises RecursiveTemplateError (`logic.check_nonrecursive`)
before any join.  The model is then computed by stratified evaluation in
one bottom-up pass.  Fact clauses and example facts seed the relations,
and the rule clauses run in reverse `check_nonrecursive` order, so every
rule with head p has run before any rule reads p.  Each rule is joined
once, against body relations that are already complete.  Every match
adds its head row to the model and is one rule instance active in the
least model; `ground` keeps them.

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
at most that many atoms, and model atoms plus distinct rule instances
may not exceed it either.
"""

import itertools
from dataclasses import dataclass

from .errors import CapacityError
from .logic import Atom, Constant, Template

DEFAULT_CAPACITY = 10**7


@dataclass(frozen=True, slots=True)
class HerbrandModel:
    atoms: frozenset
    universe: tuple  # sorted constant names

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms


@dataclass(frozen=True, slots=True)
class ParamRef:
    """Edge weight taken from the shared parameter store."""

    pid: str


@dataclass(frozen=True, slots=True)
class ConstRef:
    """Fixed edge weight (structural 1.0 or an example fact value)."""

    value: float


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
    ground_facts: tuple  # (Atom, ParamRef | ConstRef), template facts then example facts


def _compile_pattern(atom: Atom) -> tuple:
    # ('c', name) fixed argument, ('v', name) variable slot.
    return tuple(("c", t.name) if isinstance(t, Constant) else ("v", t.name) for t in atom.args)


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


class _Rule:
    __slots__ = ("clause_id", "head_sig", "head_pat", "body_pats", "body", "head_only")

    def __init__(self, clause):
        self.clause_id = clause.clause_id
        self.head_sig = clause.head.signature
        self.head_pat = _compile_pattern(clause.head)
        self.body_pats = tuple((b.pred, _compile_pattern(b)) for b in clause.body)
        # Per body atom: (signature, key positions, key pattern, free
        # (position, variable) slots).  Constants are always key positions.
        self.body = []
        bound = set()
        for b, (_, pattern) in zip(clause.body, self.body_pats):
            key_pos = tuple(i for i, (kind, name) in enumerate(pattern)
                            if kind == "c" or name in bound)
            free = tuple((i, name) for i, (_, name) in enumerate(pattern) if i not in key_pos)
            self.body.append((b.signature, key_pos, tuple(pattern[i] for i in key_pos), free))
            bound.update(name for _, name in free)
        self.head_only = sorted(v.name for v in clause.head_only_variables())


def _index(indexes: dict, sig, key_pos: tuple, source) -> dict:
    """Rows of source bucketed by their values at key_pos, cached."""
    index = indexes.get((sig, key_pos))
    if index is None:
        index = indexes[sig, key_pos] = {}
        for row in source:
            index.setdefault(tuple([row[i] for i in key_pos]), []).append(row)
    return index


def _join(rule: _Rule, relations, indexes: dict) -> list:
    """All substitutions satisfying the body.  indexes is the cache of
    relation indexes, valid while the body relations stay unchanged."""
    substs = [{}]
    for sig, key_pos, key_pat, free in rule.body:
        source = relations.get(sig, ())
        if not source:
            return []
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
                if got is not None:
                    extended.append(got)
        if not extended:
            return []
        substs = extended
    return substs


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
    """The one bottom-up pass: (relations, universe, rules).

    relations maps each signature to its set of argument-name rows, the
    universe is the sorted constant names, and rules are the compiled
    rule clauses in template order.  Every new row counts against
    capacity.  When on_match is given, every match counts as well and is
    handed over as on_match(rule, substitution) once its head row is in.
    Matches of one rule are distinct substitutions: they bind distinct
    rows of sets, then each distinct head-only variable to a constant.
    """
    rank = template._strata
    constants = {t.name for c in template.clauses for atom in (c.head, *c.body)
                 for t in atom.args if isinstance(t, Constant)}
    constants.update(t.name for _, atom in example_facts for t in atom.args)
    universe = tuple(sorted(constants))

    # Fact clauses seed the relations; variable heads expand over the universe.
    relations = {}
    for c in template.clauses:
        if c.is_fact:
            relations.setdefault(c.head.signature, set()).update(_fact_rows(c, universe))
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

    rules = [_Rule(c) for c in template.clauses if not c.is_fact]
    indexes = {}
    # Bodies before heads: all rules with head p run before any rule reads p.
    for rule in sorted(rules, key=lambda r: -rank[r.head_sig]):
        head = relations.setdefault(rule.head_sig, set())
        for subst in _join(rule, relations, indexes):
            for full in _head_expansions(rule, subst, universe):
                row = _instantiate(rule.head_pat, full)
                if row not in head:
                    head.add(row)
                    charge()
                if on_match is not None:
                    charge()
                    on_match(rule, full)
    return relations, universe, rules


def _atoms(relations) -> dict:
    """(predicate, argument names) -> the model's Atom, one per row."""
    return {(pred, row): Atom(pred, tuple([Constant(n) for n in row]))
            for (pred, _), rows in relations.items() for row in rows}


def least_herbrand_model(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> HerbrandModel:
    """Stratified bottom-up model of a non-recursive template; capacity bounds its atoms."""
    relations, universe, _ = _evaluate(template, example_facts, capacity)
    return HerbrandModel(frozenset(_atoms(relations).values()), universe)


def ground(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> Grounding:
    """All rule instances active in the least model, plus weighted ground facts.

    Instances are the matches of the model's own pass, one per (clause,
    theta), ordered by (clause ordinal, theta); facts come template-first
    in clause order, then example facts in input order.
    """
    matches = {}  # rule -> [(theta, substitution)]

    def keep(rule, full):
        matches.setdefault(rule, []).append((tuple(sorted(full.items())), full))

    relations, universe, rules = _evaluate(template, example_facts, capacity, keep)
    table = _atoms(relations)
    instances = []
    for rule in rules:
        head_pred = rule.head_sig[0]
        for theta, full in sorted(matches.get(rule, ()), key=lambda match: match[0]):
            head = table[head_pred, _instantiate(rule.head_pat, full)]
            body = tuple([table[pred, _instantiate(pattern, full)]
                          for pred, pattern in rule.body_pats])
            instances.append(GroundRuleInstance(rule.clause_id, theta, head, body))

    ground_facts = [(table[c.head.pred, row], ParamRef(c.weight_ref))
                    for c in template.clauses if c.is_fact
                    for row in _fact_rows(c, universe)]
    ground_facts.extend((atom, ConstRef(weight)) for weight, atom in example_facts)

    model = HerbrandModel(frozenset(table.values()), universe)
    return Grounding(model, tuple(instances), tuple(ground_facts))
