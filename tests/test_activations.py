"""Activation families: values, local slopes, offsets, edge cases."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from lrnn import EmptyInputError, eval_agg, eval_conj, eval_disj, sigmoid
from lrnn.activations import operations, winner

from oracles import central_difference

FAMILIES = ("godel", "ms", "as")
OPS = {
    "conj": lambda fam, xs, off=1.0: eval_conj(fam, xs, off),
    "agg": lambda fam, xs, off=None: eval_agg(fam, xs),
    "disj": lambda fam, xs, off=0.0: eval_disj(fam, xs, off),
}


def local_gradient(family, op, xs, value):
    """(winner, slope) of an `op` neuron whose value is `value`, as the
    reverse sweep reads the family's table: (`winner`, 1) for a min or
    max, else (None, d value / d input)."""
    slope = operations(family)[op][1]
    if slope is None:
        return winner(xs, value), 1.0
    return None, slope(len(xs), value)


def partials(family, op, xs, value):
    """(d value / d input for each input, d value / d offset) from local_gradient."""
    winner, slope = local_gradient(family, op, xs, value)
    if winner is None:
        return [slope] * len(xs), slope
    return [1.0 if i == winner else 0.0 for i in range(len(xs))], 0.0

_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)


def test_sigmoid_pinned_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(0.7) == 0.6681877721681662
    assert sigmoid(1.0) == 0.7310585786300049
    assert sigmoid(-1.0) == pytest.approx(1.0 - 0.7310585786300049, abs=1e-15)


def test_sigmoid_extreme_inputs_do_not_overflow():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(-1e308) == 0.0


def test_conj_godel_is_min_with_one_hot_partial():
    xs = [0.4, 0.2, 0.9]
    value = eval_conj("godel", xs)
    assert value == 0.2
    assert partials("godel", "conj", xs, value) == ([0.0, 1.0, 0.0], 0.0)


def test_conj_godel_tie_routes_to_lowest_index():
    value = eval_conj("godel", [0.2, 0.2])
    assert value == 0.2
    assert partials("godel", "conj", [0.2, 0.2], value) == ([1.0, 0.0], 0.0)


def test_conj_godel_ignores_offset():
    assert eval_conj("godel", [0.3, 0.8], 1.0) == eval_conj("godel", [0.3, 0.8], -4.0) == 0.3


def test_conj_sigmoid_formula():
    xs = [0.2, 0.7, 0.4]
    for family in ("ms", "as"):
        value = eval_conj(family, xs, 1.0)
        expected = sigmoid(math.fsum(xs) - len(xs) + 1.0)
        assert value == expected
        grad = expected * (1.0 - expected)
        assert partials(family, "conj", xs, value) == ([grad] * 3, grad)


def test_conj_singleton_body():
    assert eval_conj("ms", [0.7], 1.0) == sigmoid(0.7 - 1.0 + 1.0) == 0.6681877721681662


def test_agg_max_families():
    xs = [0.1, 0.8, 0.3]
    for family in ("godel", "ms"):
        value = eval_agg(family, xs)
        assert value == 0.8
        assert local_gradient(family, "agg", xs, value) == (1, 1.0)


def test_agg_max_tie_lowest_index():
    assert local_gradient("ms", "agg", [0.5, 0.5], eval_agg("ms", [0.5, 0.5])) == (0, 1.0)


def test_agg_mean_family():
    xs = [0.2, 0.4, 0.9]
    value = eval_agg("as", xs)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert local_gradient("as", "agg", xs, value) == (None, 1.0 / 3)


def test_disj_families():
    xs = [0.3, 0.6]
    godel = eval_disj("godel", xs)
    assert godel == 0.6 and partials("godel", "disj", xs, godel) == ([0.0, 1.0], 0.0)
    ms = eval_disj("ms", xs, 0.25)
    assert ms == sigmoid(math.fsum(xs) + 0.25)
    grad = ms * (1.0 - ms)
    assert partials("ms", "disj", xs, ms) == ([grad, grad], grad)
    linear = eval_disj("as", xs, 0.25)
    assert linear == math.fsum(xs) + 0.25
    assert partials("as", "disj", xs, linear) == ([1.0, 1.0], 1.0)


def test_nan_winner_is_the_first_input():
    # The reverse sweep recomputes a disjunction's weighted terms, so a
    # NaN value need not be the same object as the NaN input it came from.
    for xs in ([math.nan, 0.3], [math.nan, math.nan]):
        value = eval_disj("godel", xs)
        assert local_gradient("godel", "disj", [float("nan"), *xs[1:]], value) == (0, 1.0)


def test_weighted_sum_has_unit_slope_in_every_family():
    for family in FAMILIES:
        assert local_gradient(family, "sum", [0.3, -2.0], -1.7) == (None, 1.0)


def test_empty_inputs_rejected():
    for family in FAMILIES:
        for op in OPS.values():
            with pytest.raises(EmptyInputError):
                op(family, [])


def test_unknown_family_rejected():
    for op in OPS.values():
        with pytest.raises(ValueError):
            op("lukasiewicz", [0.5])
    with pytest.raises(ValueError, match="unknown activation family"):
        local_gradient("lukasiewicz", "agg", [0.5], 0.5)
    with pytest.raises(ValueError, match="unknown activation family"):
        operations("lukasiewicz")


@given(st.lists(_floats, min_size=1, max_size=5), _floats)
def test_smooth_partials_match_finite_differences(xs, offset):
    for family, op_name in (("ms", "conj"), ("as", "conj"), ("ms", "disj"),
                            ("as", "disj"), ("as", "agg")):
        op = OPS[op_name]
        value = op(family, xs, offset)
        grads, offset_grad = partials(family, op_name, xs, value)
        for i in range(len(xs)):
            def value_at(v, i=i, op=op):
                probe = list(xs)
                probe[i] = v
                return op(family, probe, offset)
            fd = central_difference(value_at, xs[i])
            assert math.isclose(grads[i], fd, rel_tol=1e-5, abs_tol=1e-7)
        if op_name != "agg":
            fd = central_difference(lambda b, op=op: op(family, xs, b), offset)
            assert math.isclose(offset_grad, fd, rel_tol=1e-5, abs_tol=1e-7)


@given(st.lists(_floats, min_size=2, max_size=5))
def test_max_partials_match_finite_differences_away_from_ties(xs):
    top_two = sorted(xs, reverse=True)[:2]
    assume(top_two[0] - top_two[1] >= 1e-3)
    for family in ("godel", "ms"):
        grads, _ = partials(family, "agg", xs, eval_agg(family, xs))
        for i in range(len(xs)):
            def value_at(v, i=i):
                probe = list(xs)
                probe[i] = v
                return eval_agg(family, probe)
            assert math.isclose(grads[i], central_difference(value_at, xs[i]),
                                rel_tol=1e-6, abs_tol=1e-9)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=5))
def test_unit_interval_closure(xs):
    for family in ("godel", "ms"):
        assert 0.0 <= eval_conj(family, xs) <= 1.0
        assert 0.0 <= eval_agg(family, xs) <= 1.0
        assert 0.0 <= eval_disj(family, xs) <= 1.0
    assert min(xs) <= eval_agg("as", xs) <= max(xs)


@pytest.mark.parametrize("x", [0.42214119898999913, 0.20387175626567872])
def test_mean_of_equal_inputs_is_the_input(x):
    # fsum(3 * [x]) / 3 rounds above x for these values.
    assert eval_agg("as", [x] * 3) == x


@given(st.lists(_floats, min_size=2, max_size=5), st.randoms())
def test_value_is_permutation_invariant(xs, rnd):
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    for family in FAMILIES:
        assert math.isclose(eval_conj(family, xs),
                            eval_conj(family, shuffled), rel_tol=1e-12)
        assert eval_agg(family, xs) == eval_agg(family, shuffled)
        assert math.isclose(eval_disj(family, xs),
                            eval_disj(family, shuffled), rel_tol=1e-12)


@given(st.lists(_floats, min_size=1, max_size=4), st.integers(0, 3),
       st.floats(min_value=0.001, max_value=1.0))
def test_monotone_in_each_input(xs, ix, bump):
    ix = ix % len(xs)
    bumped = list(xs)
    bumped[ix] = xs[ix] + bump
    for family in FAMILIES:
        assert eval_conj(family, bumped) >= eval_conj(family, xs)
        assert eval_agg(family, bumped) >= eval_agg(family, xs)
        assert eval_disj(family, bumped) >= eval_disj(family, xs)
