"""Seeded input generators for the three benchmark workloads.

Each generator returns the `.lrnn` text the program receives (template,
examples, queries) together with the facts the benchmark keeps for its
own checks (labels, adjacency, typed atoms).  The program never sees the
latter.  Sizes are fixed per workload, not drawn, so that two seeds give
inputs of the same make-up and the timings of different seeds compare.
"""

import random
from dataclasses import dataclass

# The `explosives` fixture: two latent atom groups joined across a bond.
EXPLOSIVES_TEMPLATE = """\
? :: gr1(A) :- o(A).
? :: gr1(A) :- h(A).
? :: gr1(A) :- n(A).
? :: gr2(A) :- o(A).
? :: gr2(A) :- h(A).
? :: gr2(A) :- n(A).
? :: explosive :- gr1(A), b(A,B), gr2(B).
"""

# The `generic_chains` fixture: three latent atom groups, three latent
# bond groups, length-2 bond chains over them, a target over the chains.
GENERIC_CHAINS_TEMPLATE = """\
? :: atgr1(X) :- c(X).
? :: atgr1(X) :- h(X).
? :: atgr1(X) :- n(X).
? :: atgr1(X) :- o(X).
? :: atgr2(X) :- c(X).
? :: atgr2(X) :- h(X).
? :: atgr2(X) :- n(X).
? :: atgr2(X) :- o(X).
? :: atgr3(X) :- c(X).
? :: atgr3(X) :- h(X).
? :: atgr3(X) :- n(X).
? :: atgr3(X) :- o(X).
? :: bondgr1(B) :- single(B).
? :: bondgr1(B) :- double(B).
? :: bondgr2(B) :- single(B).
? :: bondgr2(B) :- double(B).
? :: bondgr3(B) :- single(B).
? :: bondgr3(B) :- double(B).
? :: chain1 :- atgr1(X), bond(X,Y,B1), atgr1(Y), bond(Y,Z,B2), atgr2(Z), bondgr1(B1), bondgr2(B2).
? :: chain2 :- atgr1(X), bond(X,Y,B1), atgr2(Y), bond(Y,Z,B2), atgr3(Z), bondgr1(B1), bondgr2(B2).
? :: chain3 :- atgr2(X), bond(X,Y,B1), atgr3(Y), bond(Y,Z,B2), atgr3(Z), bondgr2(B1), bondgr3(B2).
? :: toxic :- chain1.
? :: toxic :- chain2.
? :: toxic :- chain3.
"""

# Three strata with fixed weights: a two-hop join, a latent unary rule
# over it, a 0-ary target over that.
GRAPH_WEIGHTS = (0.9, 0.8, 0.7)
GRAPH_TEMPLATE = f"""\
{GRAPH_WEIGHTS[0]} :: hop2(X,Z) :- e(X,Y), e(Y,Z).
{GRAPH_WEIGHTS[1]} :: reach(X) :- hop2(X,Z).
{GRAPH_WEIGHTS[2]} :: target :- reach(X).
"""


def _rng(seed, workload):
    return random.Random(f"{workload}/{seed}")


def _tree_plus_extra(rng, n, extra):
    """Undirected edge set: a random spanning tree plus `extra` more pairs."""
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(free, min(extra, len(free))))
    return sorted(edges)


def _slots(rng, sizes, count):
    """`count` (size, label) slots: sizes cycle in positive/negative pairs."""
    slots = [(sizes[(i // 2) % len(sizes)], i % 2 == 0) for i in range(count)]
    rng.shuffle(slots)
    return slots


def _render(example_rows):
    lines = []
    for example_id, facts in example_rows:
        lines.append(f"#example {example_id}")
        lines.extend(f"{weight!r} :: {atom}." for weight, atom in facts)
    return "".join(line + "\n" for line in lines)


@dataclass
class Inputs:
    """Program inputs (texts) plus the benchmark's own view of them."""

    template: str
    examples: str
    queries: str
    truth: dict  # example id -> facts the checks need


def bond_molecules(seed, count=200, sizes=(3, 4, 5, 6)):
    """Typed molecules labelled positive iff some bond joins o and h.

    Per size, half the molecules are positive; each molecule of n atoms
    has n - 1 + n // 3 undirected bonds, written as two directed facts.
    """
    rng = _rng(seed, "train-bond")
    examples, queries, truth = [], [], {}
    for idx, (n, positive) in enumerate(_slots(rng, sizes, count)):
        while True:
            types = [rng.choice("ohn") for _ in range(n)]
            bonds = _tree_plus_extra(rng, n, n // 3)
            label = any({types[i], types[j]} == {"o", "h"} for i, j in bonds)
            if label == positive:
                break
        example_id = f"m{idx:03d}"
        facts = [(1.0, f"{t}(a{i})") for i, t in enumerate(types)]
        for i, j in bonds:
            facts.append((1.0, f"b(a{i},a{j})"))
            facts.append((1.0, f"b(a{j},a{i})"))
        examples.append((example_id, facts))
        queries.append((example_id, [(1.0 if label else 0.0, "explosive")]))
        truth[example_id] = {"label": label, "typed_atoms": n, "directed_bonds": 2 * len(bonds)}
    return Inputs(EXPLOSIVES_TEMPLATE, _render(examples), _render(queries), truth)


def random_graphs(seed, count=2, nodes=120, out_degree=3):
    """Directed graphs where every node has exactly `out_degree` successors.

    A fixed out-degree fixes the number of two-hop walks at
    nodes * out_degree**2 for every seed.  Edge facts carry weights drawn
    from U(0.05, 1); the target label alternates between graphs.
    """
    rng = _rng(seed, "ground-graph")
    examples, queries, truth = [], [], {}
    for g in range(count):
        adj = {}
        for x in range(nodes):
            succ = rng.sample([y for y in range(nodes) if y != x], out_degree)
            adj[x] = {y: rng.uniform(0.05, 1.0) for y in sorted(succ)}
        example_id = f"g{g}"
        facts = [(w, f"e(v{x},v{y})") for x in range(nodes) for y, w in adj[x].items()]
        examples.append((example_id, facts))
        label = g % 2 == 0
        queries.append((example_id, [(1.0 if label else 0.0, "target")]))
        truth[example_id] = {"adj": adj}
    return Inputs(GRAPH_TEMPLATE, _render(examples), _render(queries), truth)


def _ring_with_chords(rng, n, chords):
    """A ring of n atoms plus chords between distinct degree-2 atoms, so
    the degree sequence, and with it the number of two-step walks, is the
    same for every draw."""
    pairs = {(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)}
    free = list(range(n))
    while chords:
        i, j = sorted(rng.sample(free, 2))
        if (i, j) in pairs:
            continue
        pairs.add((i, j))
        free.remove(i)
        free.remove(j)
        chords -= 1
    return sorted(pairs)


def chain_molecules(seed, count=10, sizes=(6, 7, 8, 9, 10)):
    """NCI-like ring molecules with bonds as typed constants.

    Planted rule: positive iff some o atom has a double bond to an atom
    that has a single bond to an n atom.  Per size, half are positive;
    a molecule of n atoms is a ring plus n // 4 chords.
    """
    rng = _rng(seed, "xval-chains")
    examples, queries, truth = [], [], {}
    for idx, (n, positive) in enumerate(_slots(rng, sizes, count)):
        while True:
            types = [rng.choice("chno") for _ in range(n)]
            pairs = _ring_with_chords(rng, n, n // 4)
            kinds = [rng.choice(("single", "double")) for _ in pairs]
            nbrs = {i: [] for i in range(n)}
            for (i, j), kind in zip(pairs, kinds):
                nbrs[i].append((j, kind))
                nbrs[j].append((i, kind))
            label = any(types[x] == "o" and kind1 == "double" and kind2 == "single"
                        and z != x and types[z] == "n"
                        for x in range(n) for y, kind1 in nbrs[x] for z, kind2 in nbrs[y])
            if label == positive:
                break
        example_id = f"c{idx:03d}"
        facts = [(1.0, f"{t}(a{i})") for i, t in enumerate(types)]
        facts += [(1.0, f"{kind}(b{k})") for k, kind in enumerate(kinds)]
        for k, (i, j) in enumerate(pairs):
            facts.append((1.0, f"bond(a{i},a{j},b{k})"))
            facts.append((1.0, f"bond(a{j},a{i},b{k})"))
        examples.append((example_id, facts))
        queries.append((example_id, [(1.0 if label else 0.0, "toxic")]))
        degrees = [len(nbrs[i]) for i in range(n)]
        truth[example_id] = {"label": label, "atoms": n, "bonds": len(pairs), "degrees": degrees}
    return Inputs(GENERIC_CHAINS_TEMPLATE, _render(examples), _render(queries), truth)
