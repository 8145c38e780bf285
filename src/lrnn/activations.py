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
their initial values.  Ties in min/max resolve to the lowest index.
"""

import math
from dataclasses import dataclass

from .errors import EmptyInputError

GODEL = "godel"
MAX_SIGMOID = "ms"
AVG_SIGMOID = "as"
FAMILIES = (GODEL, MAX_SIGMOID, AVG_SIGMOID)

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


@dataclass(slots=True)
class ActivationEval:
    """Value plus input partials; offset_partial is d value / d offset."""

    value: float
    partials: list
    offset_partial: float = 0.0
    argmax_index: int | None = None


def _check(family: str, inputs):
    if family not in FAMILIES:
        raise ValueError(f"unknown activation family {family!r}")
    if not inputs:
        raise EmptyInputError("activation evaluated on an empty input list")


def _max_eval(inputs) -> ActivationEval:
    best = 0
    for i in range(1, len(inputs)):
        if inputs[i] > inputs[best]:
            best = i
    partials = [0.0] * len(inputs)
    partials[best] = 1.0
    return ActivationEval(inputs[best], partials, 0.0, best)


def eval_conj(family: str, inputs, offset: float = CONJ_OFFSET_INIT) -> ActivationEval:
    _check(family, inputs)
    if family == GODEL:
        best = 0
        for i in range(1, len(inputs)):
            if inputs[i] < inputs[best]:
                best = i
        partials = [0.0] * len(inputs)
        partials[best] = 1.0
        return ActivationEval(inputs[best], partials, 0.0, None)
    s = sigmoid(math.fsum(inputs) - len(inputs) + offset)
    d = s * (1.0 - s)
    return ActivationEval(s, [d] * len(inputs), d, None)


def eval_agg(family: str, inputs) -> ActivationEval:
    _check(family, inputs)
    if family == AVG_SIGMOID:
        m = len(inputs)
        # Dividing the exact sum can round past the inputs' range (three
        # equal inputs may average above themselves); clamp it back.
        mean = min(max(math.fsum(inputs) / m, min(inputs)), max(inputs))
        return ActivationEval(mean, [1.0 / m] * m, 0.0, None)
    return _max_eval(inputs)


def eval_disj(family: str, inputs, offset: float = DISJ_OFFSET_INIT) -> ActivationEval:
    _check(family, inputs)
    if family == GODEL:
        return _max_eval(inputs)
    if family == MAX_SIGMOID:
        s = sigmoid(math.fsum(inputs) + offset)
        d = s * (1.0 - s)
        return ActivationEval(s, [d] * len(inputs), d, None)
    return ActivationEval(math.fsum(inputs) + offset, [1.0] * len(inputs), 1.0, None)
