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
in every family.  `operations(family)` is the one table of formulas:
each operation's value function and its local slope, derived from the
value: v(1 - v) for a sigmoid, 1/m for a mean of m, 1 for a linear sum,
and for a min or max a unit slope on the winning input, the lowest index
among ties.  `forward` and `backward` look a family up once per pass.
The public eval_* check their arguments first; no pass calls them, and
they stay because the benchmark's traced run counts their calls.
"""

import math

from .errors import EmptyInputError

GODEL = "godel"
MAX_SIGMOID = "ms"
AVG_SIGMOID = "as"

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


def _sum(xs):
    # math.fsum raises where finite terms overflow and on inf + -inf; the
    # float sum is then +-inf or NaN.
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return sum(xs)


def _mean(inputs):
    # Dividing the exact sum can round past the inputs' range (three
    # equal inputs may average above themselves); clamp it back.
    return min(max(_sum(inputs) / len(inputs), min(inputs)), max(inputs))


def _sigmoid_conj(xs, b):
    return sigmoid(_sum(xs) - len(xs) + b)


def _sigmoid_disj(xs, b):
    return sigmoid(_sum(xs) + b)


def _linear_disj(xs, b):
    return _sum(xs) + b


def _logistic(count, value):
    return value * (1.0 - value)


def _unit(count, value):
    return 1.0


# family -> operation -> (value function, slope function or None).  Conj
# and disj values take (inputs, offset), agg and sum values the inputs.
_SIGMOID_CONJ = (_sigmoid_conj, _logistic)
_MAX, _SUM = (max, None), (_sum, _unit)
_OPERATIONS = {
    GODEL: {CONJUNCTION: (lambda xs, b: min(xs), None), AGGREGATION: _MAX,
            DISJUNCTION: (lambda xs, b: max(xs), None), WEIGHTED_SUM: _SUM},
    MAX_SIGMOID: {CONJUNCTION: _SIGMOID_CONJ, AGGREGATION: _MAX, WEIGHTED_SUM: _SUM,
                  DISJUNCTION: (_sigmoid_disj, _logistic)},
    AVG_SIGMOID: {CONJUNCTION: _SIGMOID_CONJ, AGGREGATION: (_mean, lambda n, v: 1.0 / n),
                  DISJUNCTION: (_linear_disj, _unit), WEIGHTED_SUM: _SUM},
}
FAMILIES = tuple(_OPERATIONS)


def operations(family: str) -> dict:
    """Operation -> (value function, slope function) of one family.  A
    slope function maps (input count, value) to d value / d input, the
    same for every input and for the offset; a min or max has None."""
    if family not in _OPERATIONS:
        raise ValueError(f"unknown activation family {family!r}")
    return _OPERATIONS[family]


def winner(inputs, value: float) -> int:
    """The input a min or max returned, lowest index among ties; min/max
    return a NaN only when it is their first input."""
    return inputs.index(value) if value == value else 0


def _checked(family: str, op: str, inputs):
    fn = operations(family)[op][0]
    if not inputs:
        raise EmptyInputError("activation evaluated on an empty input list")
    return fn


def eval_conj(family: str, inputs, offset: float = CONJ_OFFSET_INIT) -> float:
    return _checked(family, CONJUNCTION, inputs)(inputs, offset)


def eval_agg(family: str, inputs) -> float:
    return _checked(family, AGGREGATION, inputs)(inputs)


def eval_disj(family: str, inputs, offset: float = DISJ_OFFSET_INIT) -> float:
    return _checked(family, DISJUNCTION, inputs)(inputs, offset)

