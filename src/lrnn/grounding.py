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

Joins run on compiled rules (`logic._Rule`).  A substitution is a
tuple of constant names with one slot per variable, in the order the
join binds it; each join step extends it by the values of the variables
its body atom binds first, and carries along the body's Atoms matched so
far, in step order.  Steps follow the written body order, so `ground`
takes each instance's body from its match as it is.  Each body atom has key positions: the
arguments that are a constant or a variable bound by an earlier body
atom of the same rule.  An atom whose arguments are all key positions
(or that has none at all, 0-ary) binds nothing new and is one lookup in
its relation.  Any other atom with key positions is matched by one
lookup in a hash index of its relation on those positions; an atom
without any (such as a first body atom that holds no constant) scans its
relation.  An index holds (row, Atom) pairs, is built lazily, in one
pass over the relation, and is cached under (signature, key positions).
One cache serves the whole pass: a relation is read only once it is
complete, so no index goes stale.  Each bucket keeps the relation's
iteration order, so a lookup yields the same rows in the same order as
the scan it replaces.  A rule's matches are sorted by their values in
sorted-variable order, which is the order of their thetas.

Variables occurring only in a clause head (including facts written with
variables) range over the full constant universe of template + example;
they take a substitution's last slots, in sorted-name order.

Each relation maps its rows (argument names) to their `Atom`s, and
each ground atom is one object, built once.  Example facts seed the
relations first and keep their parsed `Atom`s (the first one, for a
fact given twice); every other row gets a new one, over `Constant`s made
once per pass, when it first appears.  The head and body atoms of every
rule instance, and the atoms of all ground facts, template and example,
are these model objects.

One budget, `capacity`, bounds the grounding work: the model may hold
at most that many atoms, model atoms plus distinct rule instances may
not exceed it either, and neither may the substitutions of a join step
before a body's last atom.  Example facts are counted together; every
other atom and every instance is charged when it is made, so the pass
stops at the first one past the budget.  `network.build` and
`network.census` bound each example's neurons by the same budget.
"""

import itertools
from dataclasses import dataclass

from .errors import CapacityError
from .logic import Atom, Constant, Template, _Rule, _slot_pattern

DEFAULT_CAPACITY = 10**7


@dataclass(frozen=True, slots=True)
class HerbrandModel:
    relations: dict  # signature -> {argument names: Atom}

    @property
    def atoms(self) -> frozenset:
        """Every atom of the relations, as a set built on each read."""
        return frozenset(atom for rows in self.relations.values() for atom in rows.values())


@dataclass(frozen=True, slots=True)
class GroundRuleInstance:
    clause_id: str
    theta: tuple  # sorted ((var name, const name), ...)
    head: Atom
    body: tuple


@dataclass(frozen=True, slots=True)
class Grounding:
    """An example's model, active rule instances and weighted facts.

    The model's relations hold exactly the network's atoms: each is a
    `ground_facts` atom or an instance head, and each relation maps
    every row to an Atom of that predicate over those argument names.
    Equal atoms are one object: every instance head and body atom and
    every `ground_facts` atom is the relations' own.  `network.build`
    and `network.census` take their atoms from the relations, key them
    by identity and rely on all three; a Grounding made by hand must
    keep them."""

    model: HerbrandModel
    instances: tuple  # GroundRuleInstance, ordered by (clause ordinal, theta)
    ground_facts: tuple  # (Atom, pid or fixed weight), template facts then example facts


def _bind(free, row, subst) -> tuple | None:
    """subst extended by row's values at free's new-variable positions, or
    None when a variable repeated in the atom meets two values there."""
    new, repeats = free
    for i, j in repeats:
        if row[i] != row[j]:
            return None
    return subst + tuple([row[i] for i in new])


def _instantiate(pattern: tuple, subst) -> tuple:
    """Argument names of a slot pattern under a substitution."""
    return tuple([subst[p] if p.__class__ is int else p for p in pattern])


def _fact_rows(clause, universe):
    """Argument tuples of a fact clause, its variables ranging over the universe."""
    names = sorted({v.name for v in clause.head.variables()})
    pattern = _slot_pattern(clause.head, {name: i for i, name in enumerate(names)})
    for combo in itertools.product(universe, repeat=len(names)):
        yield _instantiate(pattern, combo)


def _index(indexes: dict, sig, key_pos: tuple, source) -> dict:
    """(row, Atom) pairs of source bucketed by the row's values at key_pos, cached."""
    index = indexes.get((sig, key_pos))
    if index is None:
        index = indexes[sig, key_pos] = {}
        for pair in source.items():
            row = pair[0]
            index.setdefault(tuple([row[i] for i in key_pos]), []).append(pair)
    return index


def _join(rule: _Rule, relations, indexes: dict, capacity: int):
    """Yield (substitution, body Atoms) for every match of the body.
    indexes is the cache of relation indexes, valid while the body
    relations stay unchanged.  CapacityError once a step before the last
    body atom holds more than capacity substitutions; the last step's are
    yielded one at a time as matches, which `ground` charges, so a budget
    stops it early."""
    partial = [((), ())]  # (substitution, body Atoms so far)
    last = len(rule.body) - 1
    for step, (sig, key_pos, key_pat, free) in enumerate(rule.body):
        source = relations.get(sig)
        if not source:
            return
        # An atom that binds no new variable is looked up in the relation
        # itself; any other in an index on its key positions, or it scans
        # the relation when it has none.
        index = _index(indexes, sig, key_pos, source) if key_pos and free else None
        extended = []
        for subst, atoms in partial:
            if free is None:
                key = _instantiate(key_pat, subst)
                atom = source.get(key)
                pairs = () if atom is None else ((key, atom),)
            elif index is None:
                pairs = source.items()
            else:
                pairs = index.get(_instantiate(key_pat, subst), ())
            for row, atom in pairs:
                got = subst if free is None else _bind(free, row, subst)
                if got is None:
                    continue
                if step == last:
                    yield got, atoms + (atom,)
                else:
                    extended.append((got, atoms + (atom,)))
            # One substitution adds at most one relation's rows, which
            # the model's budget already bounds.
            if len(extended) > capacity:
                raise CapacityError(len(extended), capacity, "substitutions in one join step")
        if not extended:
            return
        partial = extended


def _evaluate(template: Template, example_facts, capacity: int, on_match=None) -> tuple:
    """The one bottom-up pass: (model, ground facts).

    Each relation maps its rows to the model's Atoms: an example fact's
    row keeps the first parsed Atom given for it, and every other row
    gets a new Atom over Constants made once per pass when it first
    appears, and counts against capacity then.  ground facts pairs each
    fact clause's atoms, in template order, with its clause id, then
    each example fact's atom with its weight.  When on_match is given,
    every match counts as well and is handed over as on_match(rule,
    substitution, body Atoms, head Atom) once its head row is in.
    Matches of one rule are distinct substitutions: they bind distinct
    rows of the relations, then each distinct head-only variable to a
    constant.
    """
    plan = template._plan
    universe = tuple(sorted(plan.constants.union(
        t.name for _, atom in example_facts for t in atom.args)))
    constants = {name: Constant(name) for name in universe}

    relations, given = {}, []
    for weight, atom in example_facts:
        rows = relations.setdefault(atom.signature, {})
        given.append((rows.setdefault(tuple([t.name for t in atom.args]), atom), weight))
    count = sum(map(len, relations.values()))
    if count > capacity:
        raise CapacityError(count, capacity)

    def charge():
        nonlocal count
        count += 1
        if count > capacity:
            raise CapacityError(count, capacity)

    def add(rows, pred, row) -> Atom:
        """The Atom of row in rows, made and charged when row is new."""
        atom = rows.get(row)
        if atom is None:
            charge()
            atom = rows[row] = Atom(pred, tuple([constants[n] for n in row]))
        return atom

    # Fact clauses seed the relations; variable heads expand over the universe.
    facts = [(add(relations.setdefault(c.head.signature, {}), c.head.pred, row), c.clause_id)
             for c in template.clauses if c.is_fact for row in _fact_rows(c, universe)]
    facts.extend(given)
    indexes = {}
    # Bodies before heads: all rules with head p run before any rule reads p.
    for rule in plan.schedule:
        head, pred = relations.setdefault(rule.head_sig, {}), rule.head_sig[0]
        head_only = len(rule.head_only)
        for subst, body in _join(rule, relations, indexes, capacity):
            for tail in itertools.product(universe, repeat=head_only) if head_only else ((),):
                full = subst + tail
                atom = add(head, pred, _instantiate(rule.head_pat, full))
                if on_match is not None:
                    charge()
                    on_match(rule, full, body, atom)
    return HerbrandModel(relations), facts


def least_herbrand_model(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> HerbrandModel:
    """Stratified bottom-up model of a non-recursive template; capacity bounds its atoms."""
    return _evaluate(template, example_facts, capacity)[0]


def ground(template: Template, example_facts=(), capacity: int = DEFAULT_CAPACITY) -> Grounding:
    """All rule instances active in the least model, plus weighted ground facts.

    Instances are the matches of the model's own pass, one per (clause,
    theta), ordered by (clause ordinal, theta); facts come template-first
    in clause order, then example facts in input order.
    """
    matches = {}  # rule -> [(values in theta order, body Atoms, head Atom)]

    def keep(rule, full, body, head):
        matches.setdefault(rule, []).append((tuple([full[i] for i in rule.order]), body, head))

    model, facts = _evaluate(template, example_facts, capacity, keep)
    instances = []
    for rule in template._plan.rules.values():
        for values, body, head in sorted(matches.get(rule, ()), key=lambda match: match[0]):
            instances.append(GroundRuleInstance(rule.clause_id, tuple(zip(rule.names, values)),
                                                head, body))
    return Grounding(model, tuple(instances), tuple(facts))
