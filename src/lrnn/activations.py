"""Activation families for the three neuron roles.

Each ground network evaluates three kinds of combinations:

    conjunction  (rule neurons, k weighted-1 body inputs)
    aggregation  (one clause's ground instances for one head atom)
    disjunction  (atom neurons, weighted inputs from clauses and facts)

Three families are supported:

    godel:  conj = min,                       agg = max,        disj = max
    ms:     conj = sigm(sum - k + b_conj),    agg = max,        disj = sigm(sum + b_disj)
    as:     conj = sigm(sum - k + b_conj),    agg = mean,       disj = sum + b_disj

The godel family reproduces min/max fuzzy-logic evaluation and is meant
for inference; its min/max subgradients make training fragile.  Offsets
are per-parameter values passed in by the caller; the defaults below are
their initial values.  An atom fed by facts alone sums its weighted facts
in every family.  The eval_* functions return the value only;
`local_gradient` derives the local slope from it: v(1 - v) for a sigmoid,
1/m for a mean of m, 1 for a linear sum, and for a min or max a unit
slope on the winning input, the lowest index among ties.
"""

import math

from .errors import EmptyInputError

GODEL = "godel"
MAX_SIGMOID = "ms"
AVG_SIGMOID = "as"
FAMILIES = (GODEL, MAX_SIGMOID, AVG_SIGMOID)

# The operation a neuron applies to its inputs; WEIGHTED_SUM is the
# fact-only atom's pass-through.
CONJUNCTION = "conj"
AGGREGATION = "agg"
DISJUNCTION = "disj"
WEIGHTED_SUM = "sum"

# The values the sigmoid families were calibrated with; parameter stores
# start their offsets here.
CONJ_OFFSET_INIT = 1.0
DISJ_OFFSET_INIT = 0.0


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0.0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def _check(family: str, inputs):
    if family not in FAMILIES:
        raise ValueError(f"unknown activation family {family!r}")
    if not inputs:
        raise EmptyInputError("activation evaluated on an empty input list")


def eval_conj(family: str, inputs, offset: float = CONJ_OFFSET_INIT) -> float:
    _check(family, inputs)
    if family == GODEL:
        return min(inputs)
    return sigmoid(math.fsum(inputs) - len(inputs) + offset)


def eval_agg(family: str, inputs) -> float:
    _check(family, inputs)
    if family == AVG_SIGMOID:
        # Dividing the exact sum can round past the inputs' range (three
        # equal inputs may average above themselves); clamp it back.
        return min(max(math.fsum(inputs) / len(inputs), min(inputs)), max(inputs))
    return max(inputs)


def eval_disj(family: str, inputs, offset: float = DISJ_OFFSET_INIT) -> float:
    _check(family, inputs)
    if family == GODEL:
        return max(inputs)
    if family == MAX_SIGMOID:
        return sigmoid(math.fsum(inputs) + offset)
    return math.fsum(inputs) + offset


def local_gradient(family: str, op: str, inputs, value: float) -> tuple:
    """(winner, slope) of an `op` neuron whose forward pass gave `value`.

    A min or max depends on one input: winner is its index and slope 1.
    Otherwise winner is None and slope is d value / d input, the same for
    every input and for the neuron's offset.
    """
    if op == WEIGHTED_SUM or (op == DISJUNCTION and family == AVG_SIGMOID):
        return None, 1.0
    if family == GODEL or (op == AGGREGATION and family == MAX_SIGMOID):
        # min/max return a NaN only when it is their first input.
        return (inputs.index(value) if value == value else 0), 1.0
    if op == AGGREGATION:
        return None, 1.0 / len(inputs)
    return None, value * (1.0 - value)
