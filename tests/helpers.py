"""Shared test utilities: fixture loading, a small Graphviz structure
checker, a graph-level weight-untying transform, and the online step's
forward pass over a network's compact form."""

import re

from lrnn import ParameterStore, ParamRef
from lrnn.fixtures import fixture_text
from lrnn.logic import parse_examples, parse_queries, parse_template
from lrnn.network import GroundNetwork, Neuron, ValueMap, forward


def load_template(name, family="ms"):
    return parse_template(fixture_text(name, "template.lrnn"), name, family)


def load_examples(name):
    return parse_examples(fixture_text(name, "examples.lrnn"), "examples")


def load_queries(name):
    return parse_queries(fixture_text(name, "queries.lrnn"), "queries")


_NODE_RE = re.compile(r'^\s*(\w+)\s*\[')
_EDGE_RE = re.compile(r'^\s*(\w+)\s*->\s*(\w+)')


def check_dot(text):
    """Light Graphviz syntax check; returns (node_count, edge_count).

    Verifies the digraph wrapper, that every edge endpoint is a declared
    node, and that quotes inside attribute lists are balanced.
    """
    lines = text.splitlines()
    assert lines[0].startswith("digraph "), lines[0]
    assert lines[0].rstrip().endswith("{")
    assert lines[-1].strip() == "}"
    nodes, edges = set(), []
    for line in lines[1:-1]:
        if not line.strip():
            continue
        edge = _EDGE_RE.match(line)
        if edge:
            edges.append((edge.group(1), edge.group(2)))
        else:
            node = _NODE_RE.match(line)
            assert node, f"unparseable statement: {line!r}"
            nodes.add(node.group(1))
        unescaped = re.sub(r'\\.', '', line)
        assert unescaped.count('"') % 2 == 0, f"unbalanced quotes: {line!r}"
    for src, dst in edges:
        assert src in nodes and dst in nodes, f"undeclared endpoint: {src}->{dst}"
    return len(nodes), len(edges)


def untied_copy(net, params):
    """Copy of the network where every shared-parameter occurrence gets
    its own fresh parameter id, plus the extended store and a mapping
    new id -> original id.  Forward values are unchanged by construction;
    summing untied gradients per original id must equal the tied gradient.
    """
    values = {pid: params[pid] for pid in params}
    kinds = dict(params.kinds)
    learnable = set(params.learnable)
    mapping = {}

    def fresh(old_pid):
        new_pid = f"untied{len(mapping)}"
        mapping[new_pid] = old_pid
        values[new_pid] = params[old_pid]
        kinds[new_pid] = params.kinds[old_pid]
        learnable.add(new_pid)
        return new_pid

    neurons = []
    for n in net.neurons:
        weights = tuple(ParamRef(fresh(ref.pid)) if isinstance(ref, ParamRef) else ref
                        for ref in n.weights)
        offset = fresh(n.offset_pid) if n.offset_pid is not None else None
        neurons.append(Neuron(n.nid, n.kind, n.origin, n.inputs, weights, offset))
    store = ParameterStore(values, frozenset(learnable), kinds)
    copy = GroundNetwork(neurons, dict(net.outputs), net.example_id)
    return copy, store, mapping


def compact_forward(net, params, family):
    """The online step's values: `forward` over the compact form, each
    neuron given its merged twin's value."""
    small, index = net.compact()
    values = forward(small, params, family).values
    return ValueMap([values[i] for i in index], family)


def grad_bits(grads):
    """A gradient dict as (pid, exact bits) pairs, in its key order."""
    return [(pid, g.hex()) for pid, g in grads.items()]
