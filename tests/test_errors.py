"""Package errors survive a pickle round trip, so a caller's own process
pool (multiprocessing, concurrent.futures) hands them back intact; and the
package exports its public names."""

import pickle

import pytest

from lrnn import errors

SAMPLES = [
    errors.LrnnError("a package error"),
    errors.ParseError("unexpected ')'", "template.lrnn", 3, 7),
    errors.ParseError("cannot read file: no such file", "examples.lrnn"),
    errors.RecursiveTemplateError([("p", 1), ("q", 2), ("p", 1)]),
    errors.CapacityError(12, 10, "neurons per network"),
    errors.CapacityError(5, 4),
    errors.EmptyInputError("conj of no inputs"),
    errors.DivergenceError("t:0", 4),
    errors.AllRestartsFailedError("all restarts diverged"),
]


def test_every_error_class_has_a_sample():
    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.LrnnError)}
    assert classes == {type(err) for err in SAMPLES}


@pytest.mark.parametrize("err", SAMPLES, ids=lambda err: type(err).__name__)
def test_error_survives_a_pickle_round_trip(err):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(err, protocol))
        assert type(back) is type(err)
        assert (str(back), back.args, vars(back)) == (str(err), err.args, vars(err))


def test_parse_error_without_a_position():
    err = errors.ParseError("LRNN_CAPACITY must be a positive integer", "environment")
    assert (str(err), err.line, err.col) == (
        "environment: LRNN_CAPACITY must be a positive integer", 0, 0)


def test_star_import_gives_the_public_names():
    names = {}
    exec("from lrnn import *", names)
    del names["__builtins__"]
    assert {"ParseError", "TrainConfig", "parse_template", "train"} <= set(names)
    assert not [name for name in names if name.startswith("_")]
