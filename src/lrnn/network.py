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
gradients stay exact.  A `Neuron` holds only what it computes, the key
`merge` hashes; `export_dot` reads what it stands for off `outputs` and
the wiring, so it draws a built network, not a merge.  One layout step,
shared by `build` and `census`, takes an example's atoms from its
grounding's relations, groups its instances by head and clause and
counts its neurons before any neuron exists, raising CapacityError when
they exceed the grounding budget; `census` (the `ground` command's
stats) stops there.  Layout and wiring key atoms by identity, since a
`Grounding` holds one object per distinct atom; only `outputs`, which
queries read, is keyed by value.  Neuron order is topological and
deterministic: facts first, then predicates from the leaves of the
template dependency order upward, each relation's rows (argument names)
sorted within its predicate.

Three passes read the format:

    forward   looks the family's operations up once, then runs one loop
              over the neurons that reads parameters straight from the
              store's values and keeps one value per neuron: an atom
              neuron's inputs are the terms weight * source value
    backward  the reverse sweep over the cone order: the neurons with a
              parameter in their input cone (no other adds to a
              gradient), last first, given by the caller or worked out
              for the one network.  It keeps nothing from `forward` but
              the values, takes each neuron's local slope from its value,
              recomputes the inputs only to find the winner of a min or
              max of several (which alone receives the adjoint), and
              sums a shared parameter's gradient over all of its edges
    merge     hash-conses networks into one: neurons of the same kind,
              with the same merged inputs in order, the same offset and,
              for an atom, the same weights are one neuron (all facts
              become one), and a one-input aggregation is its input, so
              `forward` over the merge gives every original value

A training task merges its queried examples' networks once; from then
on its scores come from one `forward` over the merge.  The online step
runs `forward` over one example's merged ids (sorted, since `merge`
numbers an input before its consumers) into the epoch's one buffer, so
it skips the one-input aggregations, expands the values through the
example's index and runs `backward` on the example's own network with
them, in the cone order the task read off its merge: one liveness pass
per merged neuron for all examples.
"""

from dataclasses import dataclass
from itertools import zip_longest

from .activations import (AGGREGATION, CONJUNCTION, DISJUNCTION, WEIGHTED_SUM, operations,
                          winner)
from .errors import CapacityError
from .grounding import DEFAULT_CAPACITY, Grounding
from .logic import Atom, Template

FACT, ATOM, RULE, AGG = 0, 1, 2, 3


@dataclass(slots=True)
class Neuron:
    kind: int
    inputs: tuple = ()  # neuron ids, evaluation order
    weights: tuple = ()  # atom only: parameter id or number, parallel to inputs
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


def _layout(grounding: Grounding, capacity: int) -> tuple:
    """(the model's relations, id(head) -> {clause_id: [instances]} in
    encounter order, (atom, fact, rule, agg) neuron counts), before any
    neuron exists; CapacityError when it would hold more than `capacity`.
    The relations' total size is the atom count.  Heads are keyed by
    identity: a grounding holds one object per distinct atom."""
    relations = grounding.model.relations  # each atom a fact or the head of an instance
    grouped = {}
    for inst in grounding.instances:
        grouped.setdefault(id(inst.head), {}).setdefault(inst.clause_id, []).append(inst)
    # One neuron per atom, fact, rule instance and (clause, head) pair.
    counts = (sum(map(len, relations.values())), len(grounding.ground_facts),
              len(grounding.instances), sum(map(len, grouped.values())))
    if sum(counts) > capacity:
        raise CapacityError(sum(counts), capacity, "neurons per network")
    return relations, grouped, counts


def census(grounding: Grounding, capacity: int = DEFAULT_CAPACITY) -> tuple:
    """`build(grounding, ...).counts()` without building the network; the
    same CapacityError."""
    return _layout(grounding, capacity)[2]


def build(grounding: Grounding, template: Template, example_id: str | None = None,
          capacity: int = DEFAULT_CAPACITY) -> GroundNetwork:
    """The example's network, from one `_layout` (the step `census` stops
    after); CapacityError when it would hold more than `capacity` neurons.
    Signatures are sorted once by (rank, signature), and each relation's
    rows as plain tuples of names."""
    rank, rules = template._plan.rank, template._plan.rules
    relations, grouped, _ = _layout(grounding, capacity)
    neurons, ids, outputs = [], {}, {}  # ids: id(atom) -> its atom neuron

    def emit(kind, inputs=(), weights=(), offset_pid=None) -> int:
        neurons.append(Neuron(kind, tuple(inputs), tuple(weights), offset_pid))
        return len(neurons) - 1

    facts_by_atom = {}
    for atom, weight in grounding.ground_facts:
        facts_by_atom.setdefault(id(atom), []).append((emit(FACT), weight))

    # Example-only predicates (rank 0) are pure leaves and go first;
    # template predicates go by stratum rank, bodies before heads.
    for sig in sorted(relations, key=lambda sig: (rank.get(sig, 0), sig)):
        rows = relations[sig]
        for atom in map(rows.__getitem__, sorted(rows)):
            agg_inputs, agg_weights, offset = [], [], None
            for clause_id, insts in grouped.get(id(atom), {}).items():
                rule = rules[clause_id]
                rule_ids = [emit(RULE, [ids[id(b)] for b in inst.body], (), rule.conj)
                            for inst in insts]
                agg_inputs.append(emit(AGG, rule_ids))
                agg_weights.append(clause_id)
                offset = rule.disj  # one per head signature
            for fact_id, weight in facts_by_atom.get(id(atom), ()):
                agg_inputs.append(fact_id)
                agg_weights.append(weight)
            ids[id(atom)] = outputs[atom] = emit(ATOM, agg_inputs, agg_weights, offset)
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


def _sweep_orders(neurons, indexes) -> list:
    """Per index (a network's neuron id -> id in `neurons`), that
    network's cone order: the ids of its neurons with a parameter in
    their input cone (an offset, a parameter weight, or such an input),
    last first; facts have none.  Decided once per neuron of `neurons`:
    a merged twin's cone is that of every neuron it stands for."""
    live = []
    for n in neurons:
        live.append(n.offset_pid is not None or str in map(type, n.weights)
                    or any(map(live.__getitem__, n.inputs)))
    return [[nid for nid in range(len(ids) - 1, -1, -1) if live[ids[nid]]] for ids in indexes]


def backward(net: GroundNetwork, vm: ValueMap, query_grads: dict, params,
             order: list | None = None) -> dict:
    """Reverse sweep over `order`, the network's cone order (worked out
    here when not given); returns parameter id -> accumulated gradient.

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
    if order is None:
        order = _sweep_orders(neurons, [range(len(neurons))])[0]
    grads = {}
    for nid in order:
        neuron = neurons[nid]
        kind, g = neuron.kind, adjoint[nid]
        if g == 0.0:
            continue
        inputs, weights, offset = neuron.inputs, neuron.weights, neuron.offset_pid
        slope = sum_slope if kind == ATOM and offset is None else slopes[kind]
        if slope is None:  # a min or max: the adjoint goes to the winner alone
            if len(inputs) > 1:  # one input wins alone, NaN or not
                terms = ([(pv[w] if type(w) is str else w) * values[s]
                          for s, w in zip(inputs, weights)] if kind == ATOM
                         else [values[s] for s in inputs])
                i = winner(terms, values[nid])
                inputs, weights = inputs[i:i + 1], weights[i:i + 1]
            offset = None
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
    """(merged network, per net the merged id of each of its neurons);
    a one-input aggregation's merged id is its input's.

    Fixed weights are keyed as floats, and 0.0 == -0.0 with equal
    hashes, and the mean of one -0.0 is 0.0, so a merge can flip the
    sign of a zero value; no activation or cost tells the two apart.
    """
    table, neurons, index = {}, [], []
    for net in nets:
        ids = []  # this net's neuron id -> merged id
        for n in net.neurons:
            key = (n.kind, tuple([ids[s] for s in n.inputs]), n.weights, n.offset_pid)
            nid = key[1][0] if n.kind == AGG and len(key[1]) == 1 else table.get(key)
            if nid is None:
                nid = table[key] = len(neurons)
                neurons.append(Neuron(*key))
            ids.append(nid)
        index.append(ids)
    return GroundNetwork(neurons, {}), index


_SHAPES = {FACT: "box", ATOM: "ellipse", RULE: "diamond", AGG: "trapezium"}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(net: GroundNetwork) -> str:
    """Graphviz text: node shape encodes the neuron kind, node labels
    show what each neuron stands for, edge labels carry parameter ids
    (shared weights) or non-unit numbers."""
    neurons, labels = net.neurons, {}
    for atom, nid in net.outputs.items():  # body atoms before their heads
        labels[nid] = head = str(atom)
        for src, w in zip(neurons[nid].inputs, neurons[nid].weights):
            # A fact, or an aggregation on an edge weighted by its clause id.
            labels[src] = head if neurons[src].kind == FACT else f"{w} => {head}"
            for rule in neurons[src].inputs:  # none for a fact; a rule's are its body atoms
                labels[rule] = head + " :- " + ", ".join(labels[b] for b in neurons[rule].inputs)
    lines = ["digraph ground_network {"]
    for nid, neuron in enumerate(neurons):
        lines.append(f"  n{nid} [shape={_SHAPES[neuron.kind]}, label={_quote(labels[nid])}];")
    for nid, neuron in enumerate(neurons):
        for src, w in zip_longest(neuron.inputs, neuron.weights, fillvalue=1.0):
            if w == 1.0:
                lines.append(f"  n{src} -> n{nid};")
            else:
                lines.append(f"  n{src} -> n{nid} [label={_quote(w if type(w) is str else repr(w))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
