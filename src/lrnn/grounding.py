"""Least Herbrand model and per-example grounding.

The model of template rules plus (template and example) facts is
computed bottom-up with semi-naive evaluation: each round only joins
rule bodies against tuples derived in the previous round (the delta),
so nothing is re-derived from scratch.  The grounding then enumerates,
against the finished model, every substitution that makes a rule body
true; those are exactly the ground rules that stay active in the least
model.

Joins are indexed.  Each body atom has key positions: the arguments
that are a constant or a variable bound by an earlier body atom of the
same rule.  A body atom with key positions is matched by one lookup in
a hash index of its relation on those positions; a body atom without
any (such as a first body atom that holds no constant) scans its
relation.  An index is built lazily, in one pass over the relation, and
cached under (signature, key positions, delta or full relation).  A
cache lives as long as the relations it indexes stay unchanged: one
semi-naive round in the fixpoint, where relations grow only at the end
of a round, and the whole enumeration in `ground`.  Each bucket keeps
the relation's iteration order, so a lookup yields the same rows in the
same order as the scan it replaces.

Variables occurring only in a clause head (including facts written with
variables) range over the full constant universe of template + example.

Each ground atom is built once, by the model.  The head and body atoms
of every rule instance, and the atoms of template ground facts, are the
model's own `Atom` objects, looked up by (predicate, argument names);
every one of them is a model atom, since an instance is active only when
its body holds in the model, which then holds its head as well.

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
    __slots__ = ("head_sig", "head_pat", "body_pats", "body", "head_only")

    def __init__(self, clause):
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


def _index(indexes: dict, sig, key_pos: tuple, in_delta: bool, source) -> dict:
    """Rows of source bucketed by their values at key_pos, cached."""
    cache_key = (sig, key_pos, in_delta)
    index = indexes.get(cache_key)
    if index is None:
        index = indexes[cache_key] = {}
        for row in source:
            index.setdefault(tuple([row[i] for i in key_pos]), []).append(row)
    return index


def _join(rule: _Rule, relations, delta_pos: int | None, delta, indexes: dict) -> list:
    """All substitutions satisfying the body; position delta_pos (if any)
    must match the delta relation instead of the full one.  indexes is
    the cache of relation indexes, valid while relations and delta stay
    unchanged."""
    substs = [{}]
    for pos, (sig, key_pos, key_pat, free) in enumerate(rule.body):
        in_delta = pos == delta_pos
        source = (delta if in_delta else relations).get(sig, ())
        if not source:
            return []
        index = _index(indexes, sig, key_pos, in_delta, source) if key_pos else None
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


def _collect_inputs(template: Template, example_facts):
    """Split into compiled rules, ground seed tuples, and the universe."""
    constants = set()
    for c in template.clauses:
        for atom in (c.head, *c.body):
            constants.update(t.name for t in atom.args if isinstance(t, Constant))
    for _, atom in example_facts:
        constants.update(t.name for t in atom.args)
    universe = tuple(sorted(constants))

    rules = [_Rule(c) for c in template.clauses if not c.is_fact]
    # Fact clauses seed the relations; variable heads expand over the universe.
    seeds = [(c.head.signature, row) for c in template.clauses if c.is_fact
             for row in _fact_rows(c, universe)]
    for _, atom in example_facts:
        seeds.append((atom.signature, tuple(t.name for t in atom.args)))
    return rules, seeds, universe


def least_herbrand_model(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> HerbrandModel:
    """Semi-naive bottom-up fixpoint of the immediate-consequence operator."""
    rules, seeds, universe = _collect_inputs(template, example_facts)
    relations, delta, count = {}, {}, 0
    for sig, row in seeds:
        rel = relations.setdefault(sig, set())
        if row not in rel:
            rel.add(row)
            delta.setdefault(sig, set()).add(row)
            count += 1
    if count > capacity:
        raise CapacityError(count, capacity)

    while delta:
        fresh, indexes = {}, {}
        for rule in rules:
            for pos in range(len(rule.body)):
                if rule.body[pos][0] not in delta:
                    continue
                for subst in _join(rule, relations, pos, delta, indexes):
                    for full in _head_expansions(rule, subst, universe):
                        row = _instantiate(rule.head_pat, full)
                        rel = relations.get(rule.head_sig)
                        if rel is not None and row in rel:
                            continue
                        if row not in fresh.setdefault(rule.head_sig, set()):
                            fresh[rule.head_sig].add(row)
                            count += 1
                            if count > capacity:
                                raise CapacityError(count, capacity)
        for sig, rows in fresh.items():
            relations.setdefault(sig, set()).update(rows)
        delta = fresh

    atoms = frozenset(Atom(pred, tuple(Constant(n) for n in row))
                      for (pred, _), rows in relations.items() for row in rows)
    return HerbrandModel(atoms, universe)


def ground(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> Grounding:
    """All rule instances active in the least model, plus weighted ground facts.

    Instances are deduplicated on (clause, theta restricted to the
    clause's variables) and ordered by (clause ordinal, theta); facts
    come template-first in clause order, then example facts in input
    order.
    """
    model = least_herbrand_model(template, example_facts, capacity)
    relations, table = {}, {}  # table: (pred, argument names) -> the model's Atom
    for atom in model.atoms:
        row = tuple([t.name for t in atom.args])
        relations.setdefault(atom.signature, set()).add(row)
        table[atom.pred, row] = atom

    instances, indexes, count = [], {}, len(model.atoms)
    for clause in template.clauses:
        if clause.is_fact:
            continue
        rule = _Rule(clause)
        head_pred = clause.head.pred
        seen = set()
        found = []
        for subst in _join(rule, relations, None, {}, indexes):
            for full in _head_expansions(rule, subst, model.universe):
                theta = tuple(sorted(full.items()))
                if theta in seen:
                    continue
                seen.add(theta)
                count += 1
                if count > capacity:
                    raise CapacityError(count, capacity)
                head = table[head_pred, _instantiate(rule.head_pat, full)]
                body = tuple([table[pred, _instantiate(pattern, full)]
                              for pred, pattern in rule.body_pats])
                found.append(GroundRuleInstance(clause.clause_id, theta, head, body))
        found.sort(key=lambda inst: inst.theta)
        instances.extend(found)

    ground_facts = [(table[c.head.pred, row], ParamRef(c.weight_ref))
                    for c in template.clauses if c.is_fact
                    for row in _fact_rows(c, model.universe)]
    ground_facts.extend((atom, ConstRef(weight)) for weight, atom in example_facts)

    return Grounding(model, tuple(instances), tuple(ground_facts))
