"""Synthetic molecule datasets labeled by a planted relational rule.

Molecules are random typed graphs: atom constants a1..ak with one type
fact each (o/h/n) and symmetric bond facts b(x,y), b(y,x).  The planted
rule labels a molecule positive iff it contains an oxygen-hydrogen bond,
so the latent two-group template (one group selecting o, one selecting
h, joined over a bond) can represent the labels exactly.  Generation is
seeded and class-balanced.
"""

import random

from lrnn.logic import Atom, Constant, Example, QueryRow
from lrnn.training import derive_seed

ATOM_TYPES = ("o", "h", "n")
QUERY_ATOM = Atom("explosive")


def planted_label(facts) -> bool:
    """True iff some bond fact links an o-typed and an h-typed constant."""
    types = {}
    bonds = []
    for _, atom in facts:
        if atom.pred in ATOM_TYPES:
            types[atom.args[0].name] = atom.pred
        elif atom.pred == "b":
            bonds.append((atom.args[0].name, atom.args[1].name))
    return any(types.get(x) == "o" and types.get(y) == "h" for x, y in bonds)


def _random_molecule(rng) -> tuple:
    n = rng.randint(3, 6)
    names = [f"a{i + 1}" for i in range(n)]
    facts = [(1.0, Atom(rng.choice(ATOM_TYPES), (Constant(name),))) for name in names]
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    chosen = [p for p in pairs if rng.random() < 0.35]
    if not chosen:
        chosen = [rng.choice(pairs)]
    for x, y in chosen:
        facts.append((1.0, Atom("b", (Constant(x), Constant(y)))))
        facts.append((1.0, Atom("b", (Constant(y), Constant(x)))))
    return tuple(facts)


def make_bond_dataset(n: int = 40, seed: int = 0) -> tuple:
    """n class-balanced molecules; returns (examples, queries).

    Query atom is `explosive` with target 1.0 for molecules satisfying
    the planted rule, 0.0 otherwise.
    """
    rng = random.Random(derive_seed(seed, "molecules"))
    quota = {True: n - n // 2, False: n // 2}
    examples, queries = [], []
    while quota[True] or quota[False]:
        facts = _random_molecule(rng)
        label = planted_label(facts)
        if not quota[label]:
            continue
        quota[label] -= 1
        example_id = f"m{len(examples):02d}"
        examples.append(Example(example_id, facts))
        queries.append(QueryRow(example_id, QUERY_ATOM, 1.0 if label else 0.0))
    return examples, queries
