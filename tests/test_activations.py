"""Activation families: values, partials, offsets, edge cases."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from lrnn import EmptyInputError, eval_agg, eval_conj, eval_disj, sigmoid

from oracles import central_difference

FAMILIES = ("godel", "ms", "as")
OPS = {
    "conj": lambda fam, xs, off=1.0: eval_conj(fam, xs, off),
    "agg": lambda fam, xs, off=None: eval_agg(fam, xs),
    "disj": lambda fam, xs, off=0.0: eval_disj(fam, xs, off),
}

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
    ev = eval_conj("godel", [0.4, 0.2, 0.9])
    assert ev.value == 0.2
    assert ev.partials == [0.0, 1.0, 0.0]
    assert ev.offset_partial == 0.0


def test_conj_godel_tie_routes_to_lowest_index():
    ev = eval_conj("godel", [0.2, 0.2])
    assert ev.value == 0.2
    assert ev.partials == [1.0, 0.0]


def test_conj_godel_ignores_offset():
    assert eval_conj("godel", [0.3, 0.8], 1.0).value == \
           eval_conj("godel", [0.3, 0.8], -4.0).value == 0.3


def test_conj_sigmoid_formula():
    xs = [0.2, 0.7, 0.4]
    for family in ("ms", "as"):
        ev = eval_conj(family, xs, 1.0)
        expected = sigmoid(math.fsum(xs) - len(xs) + 1.0)
        assert ev.value == expected
        grad = expected * (1.0 - expected)
        assert ev.partials == [grad] * 3
        assert ev.offset_partial == grad


def test_conj_singleton_body():
    ev = eval_conj("ms", [0.7], 1.0)
    assert ev.value == sigmoid(0.7 - 1.0 + 1.0) == 0.6681877721681662


def test_agg_max_families():
    for family in ("godel", "ms"):
        ev = eval_agg(family, [0.1, 0.8, 0.3])
        assert ev.value == 0.8
        assert ev.partials == [0.0, 1.0, 0.0]
        assert ev.argmax_index == 1


def test_agg_max_tie_lowest_index():
    ev = eval_agg("ms", [0.5, 0.5])
    assert ev.partials == [1.0, 0.0]
    assert ev.argmax_index == 0


def test_agg_mean_family():
    ev = eval_agg("as", [0.2, 0.4, 0.9])
    assert ev.value == pytest.approx(0.5, abs=1e-15)
    assert ev.partials == [1.0 / 3] * 3
    assert ev.argmax_index is None


def test_disj_families():
    xs = [0.3, 0.6]
    godel = eval_disj("godel", xs)
    assert godel.value == 0.6 and godel.partials == [0.0, 1.0]
    ms = eval_disj("ms", xs, 0.25)
    assert ms.value == sigmoid(math.fsum(xs) + 0.25)
    grad = ms.value * (1.0 - ms.value)
    assert ms.partials == [grad, grad] and ms.offset_partial == grad
    linear = eval_disj("as", xs, 0.25)
    assert linear.value == math.fsum(xs) + 0.25
    assert linear.partials == [1.0, 1.0] and linear.offset_partial == 1.0


def test_empty_inputs_rejected():
    for family in FAMILIES:
        for op in OPS.values():
            with pytest.raises(EmptyInputError):
                op(family, [])


def test_unknown_family_rejected():
    for op in OPS.values():
        with pytest.raises(ValueError):
            op("lukasiewicz", [0.5])


@given(st.lists(_floats, min_size=1, max_size=5), _floats)
def test_smooth_partials_match_finite_differences(xs, offset):
    for family, op_name in (("ms", "conj"), ("as", "conj"), ("ms", "disj"),
                            ("as", "disj"), ("as", "agg")):
        op = OPS[op_name]
        ev = op(family, xs, offset) if op_name != "agg" else op(family, xs)
        for i in range(len(xs)):
            def value_at(v, i=i, op=op, op_name=op_name):
                probe = list(xs)
                probe[i] = v
                return (op(family, probe, offset) if op_name != "agg"
                        else op(family, probe)).value
            fd = central_difference(value_at, xs[i])
            assert math.isclose(ev.partials[i], fd, rel_tol=1e-5, abs_tol=1e-7)


@given(st.lists(_floats, min_size=2, max_size=5))
def test_max_partials_match_finite_differences_away_from_ties(xs):
    top_two = sorted(xs, reverse=True)[:2]
    assume(top_two[0] - top_two[1] >= 1e-3)
    for family in ("godel", "ms"):
        ev = eval_agg(family, xs)
        for i in range(len(xs)):
            def value_at(v, i=i):
                probe = list(xs)
                probe[i] = v
                return eval_agg(family, probe).value
            assert math.isclose(ev.partials[i], central_difference(value_at, xs[i]),
                                rel_tol=1e-6, abs_tol=1e-9)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=5))
def test_unit_interval_closure(xs):
    for family in ("godel", "ms"):
        assert 0.0 <= eval_conj(family, xs).value <= 1.0
        assert 0.0 <= eval_agg(family, xs).value <= 1.0
        assert 0.0 <= eval_disj(family, xs).value <= 1.0
    assert min(xs) <= eval_agg("as", xs).value <= max(xs)


@pytest.mark.parametrize("x", [0.42214119898999913, 0.20387175626567872])
def test_mean_of_equal_inputs_is_the_input(x):
    # fsum(3 * [x]) / 3 rounds above x for these values.
    assert eval_agg("as", [x] * 3).value == x


@given(st.lists(_floats, min_size=2, max_size=5), st.randoms())
def test_value_is_permutation_invariant(xs, rnd):
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    for family in FAMILIES:
        assert math.isclose(eval_conj(family, xs).value,
                            eval_conj(family, shuffled).value, rel_tol=1e-12)
        assert eval_agg(family, xs).value == eval_agg(family, shuffled).value
        assert math.isclose(eval_disj(family, xs).value,
                            eval_disj(family, shuffled).value, rel_tol=1e-12)


@given(st.lists(_floats, min_size=1, max_size=4), st.integers(0, 3),
       st.floats(min_value=0.001, max_value=1.0))
def test_monotone_in_each_input(xs, ix, bump):
    ix = ix % len(xs)
    bumped = list(xs)
    bumped[ix] = xs[ix] + bump
    for family in FAMILIES:
        assert eval_conj(family, bumped).value >= eval_conj(family, xs).value
        assert eval_agg(family, bumped).value >= eval_agg(family, xs).value
        assert eval_disj(family, bumped).value >= eval_disj(family, xs).value
