"""Ground neural networks: the one format, and the three passes over it.

One network per example.  A neuron's id is its position in the list.
Four neuron kinds, wired bottom-up:

    fact  - one per weighted ground fact, constant output 1.0; the fact
            weight sits on its outgoing edge
    rule  - one per active ground rule instance, conjunction over the
            body atom neurons
    agg   - one per (clause, ground head) with instances, aggregation
            over that clause's rule neurons
    atom  - one per distinct ground atom, disjunction over its clauses'
            aggregation neurons (edge weight = clause weight parameter)
            and its fact neurons (edge weight = fact weight); an atom fed
            by facts alone skips the disjunction and outputs the weighted
            sum directly

Rule and aggregation edges have unit weight and store none.  An atom
edge's weight is a parameter id (`str`) or a fixed number (`float`).  A
shared parameter appears at most once on any simple path, so accumulated
gradients stay exact.  `build` counts an example's neurons before
allocating any, and raises CapacityError when they exceed the grounding
budget.  Neuron order is topological and deterministic: facts first,
then predicates from the leaves of the template dependency order upward,
atoms sorted within a predicate.

Three passes read the format:

    forward   looks the family's operations up once, then runs one loop
              over the neurons that reads parameters straight from the
              store's values and keeps one value per neuron: an atom
              neuron's inputs are the terms weight * source value
    backward  the reverse sweep over the cone order: the neurons with a
              parameter in their input cone (no other adds to a
              gradient), last first, built on the first call and kept
              with the network.  It keeps nothing from `forward` but the
              values, takes each neuron's local slope from its value,
              recomputes the inputs only to find the winner of a min or
              max (which alone receives the adjoint), and sums a shared
              parameter's gradient over all of its edges
    merge     hash-conses networks into one: neurons of the same kind,
              with the same merged inputs in order, the same offset and,
              for an atom, the same weights compute the same value,
              so one is kept (all facts become one neuron) and `forward`
              over the merged network gives every original value

A training task merges its queried examples' networks once; from then
on its scores come from one `forward` over the merge.  The online step
runs `forward` over one example's merged ids (sorted, since `merge`
numbers an input before its consumers) into the epoch's one buffer,
expands the values through the example's index and runs `backward` on
the example's own network with them.
"""

from dataclasses import dataclass, field
from itertools import compress, zip_longest

from .activations import (AGGREGATION, CONJUNCTION, DISJUNCTION, WEIGHTED_SUM, operations,
                          winner)
from .errors import CapacityError
from .grounding import DEFAULT_CAPACITY, Grounding
from .logic import Atom, Template, ground_atom_key

FACT, ATOM, RULE, AGG = 0, 1, 2, 3


@dataclass(slots=True)
class Neuron:
    kind: int
    origin: object  # Atom (fact, atom) or (clause_id, head Atom) (rule, agg)
    inputs: tuple = ()  # neuron ids, evaluation order
    weights: tuple = ()  # atom only: parameter id or number, parallel to inputs
    offset_pid: str | None = None  # conj offset (rule) or disj offset (atom)


@dataclass
class GroundNetwork:
    neurons: list
    outputs: dict  # ground Atom -> atom neuron id
    example_id: str | None = None
    # Built on first use and kept: assumes `neurons` no longer changes.
    _reverse: list | None = field(default=None, init=False, repr=False, compare=False)

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
    rank, rules = template._plan.rank, template._plan.rules

    def emission_key(atom: Atom) -> tuple:
        # Example-only predicates (rank 0) are pure leaves and go first;
        # template predicates go by stratum rank, bodies before heads.
        return (rank.get(atom.signature, 0), ground_atom_key(atom))

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
        neurons.append(Neuron(kind, origin, tuple(inputs), tuple(weights), offset_pid))
        return len(neurons) - 1

    facts_by_atom = {}
    for atom, weight in grounding.ground_facts:
        facts_by_atom.setdefault(atom, []).append((emit(FACT, atom), weight))

    for atom in sorted(atoms, key=emission_key):
        agg_inputs, agg_weights, offset = [], [], None
        for clause_id, insts in grouped.get(atom, {}).items():
            rule = rules[clause_id]
            origin = (clause_id, atom)
            rule_ids = [emit(RULE, origin, [outputs[b] for b in inst.body], (), rule.conj)
                        for inst in insts]
            agg_inputs.append(emit(AGG, origin, rule_ids))
            agg_weights.append(clause_id)
            offset = rule.disj  # one per head signature
        for fact_id, weight in facts_by_atom.get(atom, ()):
            agg_inputs.append(fact_id)
            agg_weights.append(weight)
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


def forward(net: GroundNetwork, params, family: str, ids=None, values=None) -> ValueMap:
    """Every neuron's value, or only those of `ids` (inputs first, closed
    under inputs).  `values`, when given, is the buffer written: 1.0 in
    each fact's slot, and only the slots of `ids` are written or read."""
    ops = operations(family)
    conj, agg = ops[CONJUNCTION][0], ops[AGGREGATION][0]
    disj, total = ops[DISJUNCTION][0], ops[WEIGHTED_SUM][0]
    pv, neurons = params.values, net.neurons
    if values is None:
        values = [1.0] * len(neurons)  # a fact neuron's output
    for nid, neuron in (enumerate(neurons) if ids is None
                        else zip(ids, map(neurons.__getitem__, ids))):
        kind = neuron.kind
        if kind == RULE:
            values[nid] = conj([values[s] for s in neuron.inputs], pv[neuron.offset_pid])
        elif kind == AGG:
            values[nid] = agg([values[s] for s in neuron.inputs])
        elif kind == ATOM:
            terms = [(pv[w] if type(w) is str else w) * values[s]
                     for s, w in zip(neuron.inputs, neuron.weights)]
            offset = neuron.offset_pid
            values[nid] = total(terms) if offset is None else disj(terms, pv[offset])
    return ValueMap(values, family)


def _reverse_order(net: GroundNetwork) -> list:
    """Ids of the neurons with a parameter in their input cone (an offset,
    a parameter weight, or such an input), last first; facts have none."""
    live = []
    for n in net.neurons:
        live.append(n.offset_pid is not None or str in map(type, n.weights)
                    or any(map(live.__getitem__, n.inputs)))
    return list(compress(range(len(live) - 1, -1, -1), reversed(live)))


def _cone(net: GroundNetwork) -> list:
    """The network's `_reverse_order`, built on first use and kept."""
    if net._reverse is None:
        net._reverse = _reverse_order(net)
    return net._reverse


def backward(net: GroundNetwork, vm: ValueMap, query_grads: dict, params) -> dict:
    """Reverse sweep; returns parameter id -> accumulated gradient.

    query_grads maps ground atoms to d cost / d score seeds; atoms absent
    from the network contribute nothing (their score is a constant 0).
    """
    ops = operations(vm.family)
    slopes = {ATOM: ops[DISJUNCTION][1], RULE: ops[CONJUNCTION][1], AGG: ops[AGGREGATION][1]}
    sum_slope, pv, values, neurons = ops[WEIGHTED_SUM][1], params.values, vm.values, net.neurons
    adjoint = [0.0] * len(neurons)
    for atom, g in query_grads.items():
        nid = net.outputs.get(atom)
        if nid is not None:
            adjoint[nid] += g
    grads = {}
    for nid in _cone(net):
        neuron = neurons[nid]
        kind, g = neuron.kind, adjoint[nid]
        if g == 0.0:
            continue
        inputs, weights, offset = neuron.inputs, neuron.weights, neuron.offset_pid
        slope = sum_slope if kind == ATOM and offset is None else slopes[kind]
        if slope is None:  # a min or max: the adjoint goes to the winner alone
            terms = ([(pv[w] if type(w) is str else w) * values[s]
                      for s, w in zip(inputs, weights)] if kind == ATOM
                     else [values[s] for s in inputs])
            i = winner(terms, values[nid])
            inputs, weights, offset = inputs[i:i + 1], weights[i:i + 1], None
        else:
            slope = slope(len(inputs), values[nid])
            if slope == 0.0:
                continue
            g *= slope
        if kind != ATOM:  # unit edges
            for src in inputs:
                adjoint[src] += g
        else:
            for src, w in zip(inputs, weights):
                if type(w) is str:
                    grads[w] = grads.get(w, 0.0) + g * values[src]
                    adjoint[src] += g * pv[w]
                else:
                    adjoint[src] += g * w
        if offset is not None:
            grads[offset] = grads.get(offset, 0.0) + g
    return grads


def merge(nets) -> tuple:
    """(merged network, per net the merged id of each of its neurons).

    Fixed weights are keyed as floats, and 0.0 == -0.0 with equal
    hashes, so a merge can flip the sign of a zero value; no activation
    or cost tells the two apart.
    """
    table, neurons, index = {}, [], []
    for net in nets:
        ids = []  # this net's neuron id -> merged id
        for n in net.neurons:
            key = (n.kind, tuple([ids[s] for s in n.inputs]), n.weights, n.offset_pid)
            nid = table.get(key)
            if nid is None:
                nid = table[key] = len(neurons)
                neurons.append(Neuron(n.kind, n.origin, key[1], n.weights, n.offset_pid))
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
    (shared weights) or non-unit numbers."""
    lines = ["digraph ground_network {"]
    for nid, neuron in enumerate(net.neurons):
        lines.append(f"  n{nid} [shape={_SHAPES[neuron.kind]}, label={_quote(_label(net, neuron))}];")
    for nid, neuron in enumerate(net.neurons):
        for src, w in zip_longest(neuron.inputs, neuron.weights, fillvalue=1.0):
            if w == 1.0:
                lines.append(f"  n{src} -> n{nid};")
            else:
                lines.append(f"  n{src} -> n{nid} [label={_quote(w if type(w) is str else repr(w))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
