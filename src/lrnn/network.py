"""Ground neural networks: the one format, and the three passes over it.

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

Three passes read the format:

    forward   looks the family's operations up once, then runs one loop
              over the neurons that reads parameters straight from the
              store's values and keeps one value per neuron: an atom
              neuron's inputs are the terms weight * source value
    backward  the reverse sweep: it keeps nothing from `forward` but the
              values, takes each neuron's local slope from its value,
              recomputes the inputs only to find the winner of a min or
              max (which alone receives the adjoint), and sums a shared
              parameter's gradient over all of its edges
    merge     hash-conses networks into one: neurons of the same kind,
              with the same merged inputs in order, the same offset and,
              for an atom, the same weight refs compute the same value,
              so one is kept (all facts become one neuron) and `forward`
              over the merged network gives every original value

The merge has two uses in training: the cost pass prices all queried
examples on one network merged from all of them, and the online step
runs `forward` over each example's compact form (`GroundNetwork.compact`,
the example merged on its own, even where nothing merges), expands the
values back through the index and runs `backward` on the original
network with them.
"""

from dataclasses import dataclass, field

from .activations import (AGGREGATION, CONJUNCTION, DISJUNCTION, WEIGHTED_SUM, operations,
                          winner)
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
    _compact: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def counts(self) -> tuple:
        """(atom, fact, rule, agg) neuron counts."""
        n = [0, 0, 0, 0]
        for neuron in self.neurons:
            n[neuron.kind] += 1
        return (n[ATOM], n[FACT], n[RULE], n[AGG])

    def edge_count(self) -> int:
        return sum(len(neuron.inputs) for neuron in self.neurons)

    def compact(self) -> tuple:
        """(network, index): this network merged on its own, and the merged
        id of each of its neurons, built on the first call and kept."""
        if self._compact is None:
            merged, (index,) = merge([self])
            self._compact = (merged, index)
        return self._compact


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


def backward(net: GroundNetwork, vm: ValueMap, query_grads: dict, params) -> dict:
    """Reverse sweep; returns parameter id -> accumulated gradient.

    query_grads maps ground atoms to d cost / d score seeds; atoms absent
    from the network contribute nothing (their score is a constant 0).
    """
    ops = operations(vm.family)
    slopes = {ATOM: ops[DISJUNCTION][1], RULE: ops[CONJUNCTION][1], AGG: ops[AGGREGATION][1]}
    sum_slope, pv, values = ops[WEIGHTED_SUM][1], params.values, vm.values
    adjoint = [0.0] * len(net.neurons)
    for atom, g in query_grads.items():
        nid = net.outputs.get(atom)
        if nid is not None:
            adjoint[nid] += g
    grads = {}
    for neuron in reversed(net.neurons):
        nid, kind = neuron.nid, neuron.kind
        g = adjoint[nid]
        if g == 0.0 or kind == FACT:
            continue
        inputs, weights, offset = neuron.inputs, neuron.weights, neuron.offset_pid
        slope = sum_slope if kind == ATOM and offset is None else slopes[kind]
        if slope is None:  # a min or max: the adjoint goes to the winner alone
            terms = ([(pv[w.pid] if type(w) is ParamRef else w.value) * values[s]
                      for s, w in zip(inputs, weights)] if kind == ATOM
                     else [values[s] for s in inputs])
            i = winner(terms, values[nid])
            edges, offset = ((inputs[i], weights[i]),), None
        else:
            slope = slope(len(inputs), values[nid])
            if slope == 0.0:
                continue
            g *= slope
            edges = zip(inputs, weights)
        for src, ref in edges:
            if type(ref) is ParamRef:
                grads[ref.pid] = grads.get(ref.pid, 0.0) + g * values[src]
                adjoint[src] += g * pv[ref.pid]
            else:
                adjoint[src] += g * ref.value
        if offset is not None:
            grads[offset] = grads.get(offset, 0.0) + g
    return grads


def merge(nets) -> tuple:
    """(merged network, per net the merged id of each of its neurons).

    Rule and aggregation edges all have unit weight (`build`), so only
    an atom's key holds its weight refs.  ConstRef(0.0) equals
    ConstRef(-0.0), so a merge can flip the sign of a zero value; no
    activation or cost tells the two apart.
    """
    table, neurons, index = {}, [], []
    for net in nets:
        ids = []  # this net's neuron id -> merged id
        for n in net.neurons:
            kind, inputs, offset = n.kind, tuple([ids[s] for s in n.inputs]), n.offset_pid
            key = (kind, inputs, n.weights, offset) if kind == ATOM else (kind, inputs, offset)
            nid = table.get(key)
            if nid is None:
                nid = table[key] = len(neurons)
                neurons.append(Neuron(nid, kind, n.origin, inputs, n.weights, offset))
            ids.append(nid)
        index.append(ids)
    return GroundNetwork(neurons, {}), index


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
