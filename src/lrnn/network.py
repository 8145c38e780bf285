"""Ground neural networks compiled from a grounding.

One network per example.  Four neuron kinds, wired bottom-up:

    fact  - one per weighted ground fact, constant output 1.0; the fact
            weight sits on its outgoing edge
    rule  - one per active ground rule instance, conjunction over the
            body atom neurons (unit edge weights)
    agg   - one per (clause, ground head) with instances, aggregation
            over that clause's rule neurons (unit edge weights)
    atom  - one per distinct ground atom, disjunction over its clauses'
            aggregation neurons (edge weight = clause weight parameter)
            and its fact neurons (edge weight = fact weight); an atom fed
            by facts alone skips the disjunction and outputs the weighted
            sum directly

`build` counts an example's neurons before allocating any, and raises
CapacityError when they exceed the grounding budget.

Shared parameters appear on edges as ParamRef and at most once on any
simple path, so accumulated gradients stay exact.  Neuron order is
topological and deterministic: facts first, then predicates from the
leaves of the template dependency order upward, atoms sorted within a
predicate.

A forward pass looks the family's operations up once, then runs one
loop over the neurons that reads parameters straight from the store's
values and keeps one value per neuron: an atom neuron's inputs are the
terms weight * source value.  `training.backward` takes each neuron's
local slope from its value and recomputes the inputs only to find the
winner of a min or max.
"""

from dataclasses import dataclass

from .activations import AGGREGATION, CONJUNCTION, DISJUNCTION, WEIGHTED_SUM, operations
from .errors import CapacityError
from .grounding import DEFAULT_CAPACITY, Grounding
from .logic import Atom, ConstRef, ParamRef, Template, ground_atom_key

FACT, ATOM, RULE, AGG = 0, 1, 2, 3

_UNIT = ConstRef(1.0)


@dataclass(slots=True)
class Neuron:
    nid: int
    kind: int
    origin: object  # Atom (fact, atom) or (clause_id, head Atom) (rule, agg)
    inputs: tuple = ()  # neuron ids, evaluation order
    weights: tuple = ()  # ParamRef | ConstRef, parallel to inputs
    offset_pid: str | None = None  # conj offset (rule) or disj offset (atom)


@dataclass
class GroundNetwork:
    neurons: list
    outputs: dict  # ground Atom -> atom neuron id
    example_id: str | None = None

    def counts(self) -> tuple:
        """(atom, fact, rule, agg) neuron counts."""
        n = [0, 0, 0, 0]
        for neuron in self.neurons:
            n[neuron.kind] += 1
        return (n[ATOM], n[FACT], n[RULE], n[AGG])

    def edge_count(self) -> int:
        return sum(len(neuron.inputs) for neuron in self.neurons)


def build(grounding: Grounding, template: Template, example_id: str | None = None,
          capacity: int = DEFAULT_CAPACITY) -> GroundNetwork:
    """The example's network; CapacityError when it would hold more than
    `capacity` neurons."""
    position, rules = template._strata, template._plan.rules

    def emission_key(atom: Atom) -> tuple:
        # Example-only predicates are pure leaves and go first; template
        # predicates go body-before-head (reverse of the head-first order).
        rank = len(position) - position[atom.signature] if atom.signature in position else 0
        return (rank, ground_atom_key(atom))

    # Every body atom is a fact or the head of an active instance.
    atoms = {inst.head for inst in grounding.instances}
    atoms.update(atom for atom, _ in grounding.ground_facts)

    grouped = {}  # head atom -> {clause_id: [instances]} in encounter order
    for inst in grounding.instances:
        grouped.setdefault(inst.head, {}).setdefault(inst.clause_id, []).append(inst)

    # One neuron per fact, rule instance, (clause, head) pair and atom.
    count = (len(grounding.ground_facts) + len(grounding.instances) + len(atoms)
             + sum(len(by_clause) for by_clause in grouped.values()))
    if count > capacity:
        raise CapacityError(count, capacity, "neurons per network")

    neurons, outputs = [], {}

    def emit(kind, origin, inputs=(), weights=(), offset_pid=None) -> int:
        nid = len(neurons)
        neurons.append(Neuron(nid, kind, origin, tuple(inputs), tuple(weights), offset_pid))
        return nid

    facts_by_atom = {}
    for atom, ref in grounding.ground_facts:
        nid = emit(FACT, atom)
        facts_by_atom.setdefault(atom, []).append((nid, ref))

    for atom in sorted(atoms, key=emission_key):
        agg_inputs, agg_weights, offset = [], [], None
        for clause_id, insts in grouped.get(atom, {}).items():
            rule = rules[clause_id]
            origin = (clause_id, atom)
            rule_ids = []
            for inst in insts:
                body_ids = [outputs[b] for b in inst.body]
                rule_ids.append(emit(RULE, origin, body_ids, [_UNIT] * len(body_ids), rule.conj))
            agg_inputs.append(emit(AGG, origin, rule_ids, [_UNIT] * len(rule_ids)))
            agg_weights.append(rule.weight)
            offset = rule.disj  # one per head signature
        for fact_id, ref in facts_by_atom.get(atom, ()):
            agg_inputs.append(fact_id)
            agg_weights.append(ref)
        outputs[atom] = emit(ATOM, atom, agg_inputs, agg_weights, offset)

    return GroundNetwork(neurons, outputs, example_id)


@dataclass
class ValueMap:
    """Per-neuron outputs of one forward pass and the family that made them."""

    values: list
    family: str

    def output(self, net: GroundNetwork, atom: Atom) -> tuple:
        """(value, missing): missing queries evaluate to 0.0."""
        nid = net.outputs.get(atom)
        return (0.0, True) if nid is None else (self.values[nid], False)


def forward(net: GroundNetwork, params, family: str) -> ValueMap:
    ops = operations(family)
    conj, agg = ops[CONJUNCTION][0], ops[AGGREGATION][0]
    disj, total = ops[DISJUNCTION][0], ops[WEIGHTED_SUM][0]
    pv = params.values
    values = [1.0] * len(net.neurons)  # a fact neuron's output
    for neuron in net.neurons:
        kind = neuron.kind
        if kind == RULE:
            values[neuron.nid] = conj([values[s] for s in neuron.inputs], pv[neuron.offset_pid])
        elif kind == AGG:
            values[neuron.nid] = agg([values[s] for s in neuron.inputs])
        elif kind == ATOM:
            terms = [(pv[w.pid] if type(w) is ParamRef else w.value) * values[s]
                     for s, w in zip(neuron.inputs, neuron.weights)]
            offset = neuron.offset_pid
            values[neuron.nid] = total(terms) if offset is None else disj(terms, pv[offset])
    return ValueMap(values, family)


_SHAPES = {FACT: "box", ATOM: "ellipse", RULE: "diamond", AGG: "trapezium"}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(net: GroundNetwork, neuron: Neuron) -> str:
    if neuron.kind == RULE:
        # A rule neuron's inputs are its body atoms' neurons, in body order.
        body = ", ".join(str(net.neurons[src].origin) for src in neuron.inputs)
        return f"{neuron.origin[1]} :- {body}"
    if neuron.kind == AGG:
        return f"{neuron.origin[0]} => {neuron.origin[1]}"
    return str(neuron.origin)


def export_dot(net: GroundNetwork) -> str:
    """Graphviz text: node shape encodes the neuron kind, node labels
    show what each neuron stands for, edge labels carry parameter ids
    (shared weights) or non-unit constants."""
    lines = ["digraph ground_network {"]
    for neuron in net.neurons:
        lines.append(f"  n{neuron.nid} [shape={_SHAPES[neuron.kind]}, label={_quote(_label(net, neuron))}];")
    for neuron in net.neurons:
        for src, ref in zip(neuron.inputs, neuron.weights):
            if type(ref) is ParamRef:
                lines.append(f"  n{src} -> n{neuron.nid} [label={_quote(ref.pid)}];")
            elif ref.value != 1.0:
                lines.append(f"  n{src} -> n{neuron.nid} [label={_quote(repr(ref.value))}];")
            else:
                lines.append(f"  n{src} -> n{neuron.nid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
