"""Parser, renderer, AST, parameter store and recursion checks."""

import importlib.util
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lrnn import (Atom, Constant, Example, ParseError, QueryRow, RecursiveTemplateError, Variable,
                  WeightedClause, check_nonrecursive, make_template,
                  parse_examples, parse_params, parse_queries, parse_template, render_clause,
                  render_examples, render_template)
from lrnn import logic
from lrnn.fixtures import fixture_names, fixture_text

from helpers import load_template
from oracles import apply, random_nonrecursive_program

import random

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# Template parsing


def test_parse_rule_structure():
    t = parse_template("1.0 :: mother(X,Y) :- parent(X,Y), female(Y).", "src")
    (c,) = t.clauses
    assert c.clause_id == "src:0"
    assert c.weight == 1.0 and not c.learnable
    assert c.head == Atom("mother", (Variable("X"), Variable("Y")))
    assert c.body == (
        Atom("parent", (Variable("X"), Variable("Y"))),
        Atom("female", (Variable("Y"),)),
    )
    assert not c.is_fact


def test_parse_learnable_weight():
    t = parse_template("? :: p(a).", "src")
    (c,) = t.clauses
    assert c.weight is None and c.learnable and c.is_fact
    assert "src:0" in t.params.learnable
    assert t.params["src:0"] == 0.0


def test_parse_fixed_fact_weight():
    t = parse_template("0.25 :: p(a).", "src")
    assert t.params["src:0"] == 0.25
    assert "src:0" not in t.params.learnable


def test_parse_weight_formats():
    t = parse_template("-2.5e-1 :: p(a).\n3 :: q(b).\n1.5E+2 :: r(c).", "src")
    assert [c.weight for c in t.clauses] == [-0.25, 3.0, 150.0]


@pytest.mark.parametrize("parse, text", [
    (parse_template, "1e400 :: p(a)."),
    (parse_examples, "#example e\n-1e400 :: p(a)."),
    (parse_queries, "#example e\n1e400 :: p(a)."),
], ids=["template", "examples", "queries"])
def test_out_of_range_number_rejected(parse, text):
    with pytest.raises(ParseError, match="out of range"):
        parse(text, "src")


def test_parse_zero_arity():
    t = parse_template("? :: flies :- bird.", "src")
    (c,) = t.clauses
    assert c.head == Atom("flies", ())
    assert c.body == (Atom("bird", ()),)


def test_parse_quoted_constants():
    t = parse_template(r"1.0 :: p('hello world','a\'b','C\\D').", "src")
    (c,) = t.clauses
    assert c.head.args == (Constant("hello world"), Constant("a'b"), Constant("C\\D"))


def test_parse_comments_and_blank_lines():
    text = "% header comment\n\n1.0 :: p(a). % trailing\n\n% tail\n"
    t = parse_template(text, "src")
    assert len(t.clauses) == 1


def test_parse_multiple_clauses_ordinals():
    t = parse_template("1.0 :: p(a).\n? :: q(X) :- p(X).", "src")
    assert [c.clause_id for c in t.clauses] == ["src:0", "src:1"]


@pytest.mark.parametrize("bad", [
    "1.0 :: p(a)",          # missing final dot
    "1.0 p(a).",            # missing ::
    "1.0 :: p(a",           # unbalanced paren
    "1.0 :: p('oops.",      # unterminated quote
    "1.0 :: P(a).",         # variable in predicate position
    "1.0 :: p(a) :- .",     # empty body
    "& :: p(a).",           # junk weight
    "1.0 :: p(a,).",        # trailing comma
])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as exc:
        parse_template(bad, "src")
    assert exc.value.line >= 1
    assert exc.value.col >= 1


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_template("1.0 :: p(a).\n1.0 :: q(", "src")
    assert exc.value.line == 2


# Every ParseError the lexer and parser raise, with its exact position.
PARSE_ERRORS = [
    # lexer
    (parse_template, "#example e1\n", "1:1: '#example' headers are not allowed in this file"),
    (parse_examples, "#example\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#example e1 e2\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#exemple e1\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#example e/1\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#example % e1\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_template, "1.0 : p(a).", "1:5: expected '::' or ':-'"),
    (parse_template, "- 1 :: p(a).", "1:1: malformed number"),
    (parse_template, "1.0 :: p(a).\n² :: q(a).", "2:1: malformed number"),  # isdigit, not \d
    (parse_template, "1e400 :: p(a).", "1:1: number 1e400 is out of range"),
    (parse_template, "1.0 :: p('a\nb').", "1:10: unterminated quoted constant"),
    (parse_template, "1.0 :: p('ab\\", "1:10: unterminated quoted constant"),
    (parse_template, "1.0 :: p(_x).", "1:10: unexpected character '_'"),
    (parse_template, "1.0 :: p(½).", "1:10: unexpected character '½'"),  # isnumeric, not a letter
    (parse_template, "1.0 :: p(a).\r", "1:13: unexpected character '\\r'"),
    (parse_template, "1.0 :: p(a) & q.", "1:13: unexpected character '&'"),
    # parser
    (parse_template, "1.0 :: P(a).", "1:8: expected a predicate name (lowercase)"),
    (parse_template, "1.0 :: p(a", "1:11: expected ')'"),
    (parse_template, "1.0 :: p(a,).", "1:12: expected a constant or variable"),
    (parse_template, "p(a).", "1:1: expected a weight ('?' or decimal)"),
    (parse_template, "1.0 p(a).", "1:5: expected '::'"),
    (parse_template, "1.0 :: p(a)", "1:12: expected '.'"),
    (parse_examples, "1.0 :: p(a).", "1:1: facts must appear under an '#example <id>' header"),
    (parse_examples, "#example e1\n1.0 :: p(a).\n#example e1\n1.0 :: p(b).\n",
     "3:1: duplicate example id 'e1'"),
    (parse_examples, "#example e1\n1.0 :: p(a).\n#example e1", "3:1: duplicate example id 'e1'"),
    (parse_examples, "#example e1\n#example e1\n&", "2:1: duplicate example id 'e1'"),
    (parse_examples, "#example e1\n? :: p(a).", "2:1: example facts need a fixed decimal weight, not '?'"),
    (parse_examples, "#example e1\n1.0 :: p(a) :- q(a).",
     "2:1: examples may contain only facts (no ':-' bodies)"),
    (parse_examples, "#example e1\n1.0 :: p(X).", "2:1: example fact p(X) is not ground"),
    (parse_queries, "#example e1\n? :: q.", "2:1: query targets need a fixed decimal value, not '?'"),
    (parse_queries, "#example e1\n1.0 :: q :- p(a).",
     "2:1: queries may contain only atoms (no ':-' bodies)"),
    (parse_queries, "#example e1\n1.0 :: q(X).", "2:1: query q(X) is not ground"),
    (parse_queries, "#example e1\n1.5 :: p(a).", "2:1: query target 1.5 for p(a) is outside [0, 1]"),
    (parse_queries, "#example e1\n0.5 :: p(a).\n  -0.5 :: q.",
     "3:3: query target -0.5 for q is outside [0, 1]"),
    (parse_queries, "#example a\n1.0 :: q(x).\n0.0 :: q(x).",
     "3:1: query q(x) is given twice in example 'a'"),
    # blanks are space and tab only, in a header as everywhere
    (parse_examples, "#example\x0ce1\x85\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#example e1\u3000\n", "1:1: malformed header, expected '#example <id>'"),
    (parse_examples, "#example e0\n#example\re1\n", "2:1: malformed header, expected '#example <id>'"),
    # positions across CRLF, tabs, comment lines and a quoted backslash-newline
    (parse_template, "1.0 :: p(a).\r\n1.0 :: q(", "2:10: expected a constant or variable"),
    (parse_template, "\t1.0 ::\tp(a)\t&", "1:14: unexpected character '&'"),
    (parse_template, "% one\n  % two\n1.0 :: p(a) :- .\n", "3:16: expected a predicate name (lowercase)"),
    (parse_template, "1.0 :: p('a\\\nb'), q.", "2:4: expected '.'"),
    # statements that look like plain facts but are read token by token
    (parse_examples, "#example e1\n1.0 :: p(a, ).", "2:13: expected a constant or variable"),
    (parse_examples, "#example e1\n1.0 :: P(a).", "2:8: expected a predicate name (lowercase)"),
    (parse_examples, "#example e1\n1.0 :: p(A).", "2:1: example fact p(A) is not ground"),
    (parse_examples, "#example e1\n1.0 :: p(a) :- q.",
     "2:1: examples may contain only facts (no ':-' bodies)"),
    (parse_examples, "#example e1\n1.0 :: p(½).", "2:10: unexpected character '½'"),
    (parse_examples, "#example e1\n1.0 :: p(a)", "2:12: expected '.'"),
    (parse_queries, "#example q1\n1.0 :: p(a, ).", "2:13: expected a constant or variable"),
    (parse_queries, "#example q1\n1.0 :: P(a).", "2:8: expected a predicate name (lowercase)"),
    (parse_queries, "#example q1\n1.0 :: p(A).", "2:1: query p(A) is not ground"),
    (parse_queries, "#example q1\n1.0 :: p(a) :- q.",
     "2:1: queries may contain only atoms (no ':-' bodies)"),
    (parse_queries, "#example q1\n1.0 :: p(½).", "2:10: unexpected character '½'"),
    (parse_queries, "#example q1\n1.0 :: p(a)", "2:12: expected '.'"),
    (parse_queries, "#example q1\n2 :: p(a).", "2:1: query target 2.0 for p(a) is outside [0, 1]"),
    # A text that starts with a line break: the break at offset 0 counts.
    (parse_template, "\n1.0 :: p(a)", "2:12: expected '.'"),
    (parse_template, "\n\n1.0 :: p(", "3:10: expected a constant or variable"),
]


@pytest.mark.parametrize("parse, text, expected", PARSE_ERRORS,
                         ids=[repr(text) for _, text, _ in PARSE_ERRORS])
def test_parse_error_message_and_position(parse, text, expected):
    with pytest.raises(ParseError) as exc:
        parse(text, "src")
    assert str(exc.value) == f"src:{expected}"


def test_parse_unicode_words_and_digits():
    (c,) = parse_template("٣ :: é(ü, Ñame, 一) :- b_2('x\\\ny').", "src").clauses
    assert c.weight == 3.0
    assert c.head == Atom("é", (Constant("ü"), Variable("Ñame"), Constant("一")))
    assert c.body == (Atom("b_2", (Constant("x\ny"),)),)
    # A decimal's digits are any Unicode decimal digits, as letters are any Unicode letters.
    t = parse_template("١.٥ :: p(X) :- q(X).\n", "t")
    assert t.params["t:0"] == 1.5
    assert parse_params("param t:0 = ٢\n", t.params)["t:0"] == 2.0


_GRAMMAR_PIECES = st.sampled_from([
    "#example", " e1", " ", "\t", "\n", "\r\n", "\r", "%", "::", ":-", ":", "(", ")", ",", ".",
    "?", "'", "\\", "-", "1", "2.5", "e", "E", "+", "1e400", "p", "q", "a", "X", "_", "é", "É",
    "²", "½", "٣", "&"])


@given(st.lists(_GRAMMAR_PIECES, max_size=30).map("".join))
def test_any_text_parses_or_raises_positioned_parse_error(text):
    for parse in (parse_template, parse_examples, parse_queries):
        try:
            parse(text, "src")
        except ParseError as err:
            assert err.line >= 1 and err.col >= 1


# The one-match read of a plain fact against the token path: every text
# must parse, or fail, the same with the fact pattern switched off.


def _outcome(parse, text):
    """What a parse gives: its result's repr, or its error's message and position."""
    try:
        result = parse(text, "src")
    except ParseError as err:
        return ("ParseError", str(err), err.source, err.line, err.col)
    return repr(result.clauses if parse is parse_template else result)


def _check_fact_pattern_changes_nothing(text):
    """Parse `text` with and without the one-match read of plain facts."""
    fast = [_outcome(parse, text) for parse in (parse_template, parse_examples, parse_queries)]
    with mock.patch.object(logic, "_FACT", re.compile(r"(?!)")):
        slow = [_outcome(parse, text) for parse in (parse_template, parse_examples, parse_queries)]
    assert fast == slow


_BLANK = st.sampled_from(["", " ", "\t", "\n", "\r\n", "  \n\t"])
_NEAR_MISSES = [
    "\r", "\x0c", "\x85", "\u3000", "% c\n", "",  # odd blanks, a comment, nothing
    ":", ":-", ":- q(X)", ".", ",", "(", ")", "?", "&",
    "P", "X", "_x", "é", "Ärger", "a½", "½", "²", "'a'", "'a b'", "'it\\'s'", "p%q\n",
    "2", "-0.5", "5e-1", "1e400", "٣"]
_PLAIN_FACT = ["1.0", "::", "p", "(", "a", ",", "b", ")", "."]


def _near_miss_texts():
    """The plain fact with one token replaced by a near miss or preceded by one."""
    for i, token in enumerate(_PLAIN_FACT):
        for miss in _NEAR_MISSES:
            for new in (miss, miss + token):
                for blank in ("", " "):
                    yield blank.join([*_PLAIN_FACT[:i], new, *_PLAIN_FACT[i + 1:]])


def test_fact_pattern_reads_each_near_miss_as_the_tokens_do():
    for text in _near_miss_texts():
        _check_fact_pattern_changes_nothing(text)
        _check_fact_pattern_changes_nothing("#example e1\n" + text)


@st.composite
def _fact_statements(draw):
    """`w :: p(a, b).` with drawn blanks; now and then a token is replaced
    by a near miss or has one put in front of it."""
    names = draw(st.lists(st.sampled_from(["p", "a", "a1", "bond_2", "xY"]), min_size=1, max_size=4))
    tokens = [draw(st.sampled_from(["1.0", "0", "1", "0.5", "-0"])), "::", names[0]]
    if len(names) > 1:
        tokens += ["(", names[1], *[t for name in names[2:] for t in (",", name)], ")"]
    tokens.append(".")
    for i, token in enumerate(tokens):
        if draw(st.integers(0, 9)) == 0:
            tokens[i] = draw(st.sampled_from(_NEAR_MISSES)) + draw(st.sampled_from(["", token]))
    return "".join(draw(_BLANK) + t for t in tokens)


_PIECES = st.one_of(
    _fact_statements(), _fact_statements(), _BLANK,
    st.sampled_from(["#example e1\n", "#example e2 % c\n", "#example e1\r\n", "#example\n",
                     "\n% c\n", "?", "'", "&"]))


@settings(max_examples=300)
@given(st.lists(_PIECES, max_size=12).map("".join))
def test_fact_pattern_reads_what_the_tokens_read(text):
    _check_fact_pattern_changes_nothing(text)
    _check_fact_pattern_changes_nothing("#example e1\n" + text)


@pytest.mark.parametrize("name", fixture_names())
def test_fact_pattern_reads_fixtures_as_the_tokens_do(name):
    for filename in ("template.lrnn", "examples.lrnn", "queries.lrnn"):
        _check_fact_pattern_changes_nothing(fixture_text(name, filename))


@pytest.mark.parametrize("generate", ["bond_molecules", "random_graphs", "chain_molecules"])
def test_fact_pattern_reads_benchmark_inputs_as_the_tokens_do(generate):
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = getattr(gen, generate)(61)
    for text in (inputs.template, inputs.examples, inputs.queries):
        _check_fact_pattern_changes_nothing(text)


def test_commented_fact_reads_as_tokens():
    text = "#example e1\n1.0 :: p(a % c\n)."
    assert parse_examples(text) == [Example("e1", ((1.0, Atom("p", (Constant("a"),))),))]
    assert parse_queries(text) == [QueryRow("e1", Atom("p", (Constant("a"),)), 1.0)]


def test_one_constant_object_per_name():
    (ex,) = parse_examples("#example e1\n1.0 :: b(a1, a2).\n1.0 :: b(a2,'a1').\n1.0 :: p(a2) .\n")
    (_, b12), (_, b21), (_, p2) = ex.facts
    assert b12.args[0] is b21.args[1] and b12.args[1] is b21.args[0] is p2.args[0]


# ---------------------------------------------------------------------------
# Example and query files


def test_parse_examples_basic():
    text = "#example e1\n1.0 :: p(a).\n0.5 :: q(a,b).\n#example e2\n"
    examples = parse_examples(text)
    assert [ex.example_id for ex in examples] == ["e1", "e2"]
    assert examples[0].facts == (
        (1.0, Atom("p", (Constant("a"),))),
        (0.5, Atom("q", (Constant("a"), Constant("b")))),
    )
    assert examples[1].facts == ()


def test_comment_after_header():
    examples = parse_examples("#example e1 % note\n1.0 :: p(a).\n#example e2%x\n", "src")
    assert [(ex.example_id, len(ex.facts)) for ex in examples] == [("e1", 1), ("e2", 0)]


def test_header_blanks_are_space_and_tab():
    examples = parse_examples("#example\te1\t\n#example  e2 \t% note\n", "src")
    assert [ex.example_id for ex in examples] == ["e1", "e2"]


def test_parse_examples_requires_header():
    with pytest.raises(ParseError):
        parse_examples("1.0 :: p(a).")


def test_parse_examples_duplicate_id():
    with pytest.raises(ParseError):
        parse_examples("#example e1\n#example e1\n")


def test_parse_examples_rejects_rules():
    with pytest.raises(ParseError):
        parse_examples("#example e1\n1.0 :: p(X) :- q(X).")


def test_parse_examples_rejects_nonground():
    with pytest.raises(ParseError):
        parse_examples("#example e1\n1.0 :: p(X).")


def test_parse_examples_rejects_learnable_weight():
    with pytest.raises(ParseError):
        parse_examples("#example e1\n? :: p(a).")


def test_parse_queries_targets():
    rows = parse_queries("#example e1\n1.0 :: p(a).\n0.0 :: q.\n0.5 :: r(b).")
    assert [(r.example_id, str(r.atom), r.target) for r in rows] == [
        ("e1", "p(a)", 1.0), ("e1", "q", 0.0), ("e1", "r(b)", 0.5)]


@pytest.mark.parametrize("bad", ["1.5 :: p(a).", "-0.1 :: p(a).", "? :: p(a)."])
def test_parse_queries_rejects_bad_targets(bad):
    with pytest.raises(ParseError):
        parse_queries(f"#example e1\n{bad}")


def test_parse_queries_rejects_variables():
    with pytest.raises(ParseError):
        parse_queries("#example e1\n1.0 :: p(X).")


# ---------------------------------------------------------------------------
# Rendering round trips


def test_render_clause_forms():
    t = parse_template("? :: p(X) :- q(X,b).\n2.0 :: r('A b').", "src")
    assert render_clause(t.clauses[0]) == "? :: p(X) :- q(X,b)."
    assert render_clause(t.clauses[1]) == "2.0 :: r('A b')."


def test_fixture_templates_round_trip():
    for name in ("family", "horses", "bright_edges", "pressure", "explosives",
                 "soft_matching", "chains", "cnn", "generic_chains"):
        t = load_template(name)
        again = parse_template(render_template(t), name)
        assert again.clauses == t.clauses
        assert again.params == t.params


def test_render_examples_round_trip():
    text = "#example e1\n1.0 :: p(a).\n#example e2\n0.25 :: q('x y').\n"
    examples = parse_examples(text)
    assert parse_examples(render_examples(examples)) == examples


_pred = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_varname = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,4}", fullmatch=True)
_constname = st.one_of(
    st.from_regex(r"[a-z][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=8),
)
_term = st.one_of(_constname.map(Constant), _varname.map(Variable))
_atom = st.builds(Atom, _pred, st.tuples() | st.tuples(_term) | st.tuples(_term, _term))
_weight = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _templates(draw):
    n = draw(st.integers(1, 5))
    clauses = []
    for i in range(n):
        head = draw(_atom)
        body = tuple(draw(st.lists(_atom, max_size=3)))
        clauses.append(WeightedClause(head, body, draw(_weight), f"gen:{i}"))
    return make_template(clauses)


@given(_templates())
def test_template_round_trip_property(template):
    text = render_template(template)
    again = parse_template(text, "gen")
    assert again.clauses == template.clauses
    assert again.params == template.params
    assert render_template(again) == text


@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_drawn_program_templates_round_trip(rng, weighted_facts, learnable_rules):
    # Drawn as the grounding and gradient properties draw their programs:
    # 0-ary predicates, constants in rules, template facts, "?" weights.
    template, _ = random_nonrecursive_program(rng, weighted_facts=weighted_facts,
                                              learnable_rules=learnable_rules)
    text = render_template(template)
    again = parse_template(text, "gen")
    assert again.clauses == template.clauses
    assert again.params == template.params
    assert render_template(again) == text


# ---------------------------------------------------------------------------
# Substitution


def test_apply_identity_and_grounding():
    atom = Atom("p", (Variable("X"), Constant("a"), Variable("Y")))
    assert apply({}, atom) == atom
    theta = {Variable("X"): Constant("b"), Variable("Y"): Constant("c")}
    assert apply(theta, atom) == Atom("p", (Constant("b"), Constant("a"), Constant("c")))
    partial = {Variable("X"): Constant("b")}
    assert apply(partial, atom) == Atom("p", (Constant("b"), Constant("a"), Variable("Y")))


def test_atom_helpers():
    atom = Atom("p", (Variable("X"), Constant("a")))
    assert atom.signature == ("p", 2)
    assert not atom.is_ground()
    assert atom.variables() == [Variable("X")]
    assert str(atom) == "p(X,a)"
    assert str(Atom("q", ())) == "q"


# ---------------------------------------------------------------------------
# Parameter store construction


def test_make_template_parameter_layout():
    t = parse_template("? :: p(X) :- q(X).\n1.0 :: p(X) :- r(X).\n? :: q(a).", "src")
    params = t.params
    assert params["src:0"] == 0.0 and "src:0" in params.learnable
    assert params["src:1"] == 1.0 and "src:1" not in params.learnable
    assert params["src:2"] == 0.0 and "src:2" in params.learnable
    # one conjunction offset per rule clause, initialised to 1.0
    assert params["src:0:conj"] == 1.0
    assert params["src:1:conj"] == 1.0
    assert "src:2:conj" not in params
    # one disjunction offset per head predicate, keyed to the first rule clause
    assert params["src:0:disj"] == 0.0
    assert "src:1:disj" not in params
    assert [pid for pid in params if pid.endswith(":disj")] == ["src:0:disj"]
    # the parameter-file order: clause weights, then each rule's offsets
    assert list(params) == ["src:0", "src:1", "src:2", "src:0:conj", "src:0:disj", "src:1:conj"]
    # both rule clauses for p share it; q heads only a fact, so it takes none
    assert [rule.disj for rule in t._plan.rules.values()] == ["src:0:disj", "src:0:disj"]


def test_parameter_store_guards():
    t = parse_template("? :: p(a).", "src")
    params = t.params.copy()
    params["src:0"] = 2.5
    assert params["src:0"] == 2.5
    assert t.params["src:0"] == 0.0  # copy is independent
    with pytest.raises(KeyError):
        params["nonsense"] = 1.0


def test_duplicate_clauses_get_distinct_parameters():
    t = parse_template("? :: p(X) :- q(X).\n? :: p(X) :- q(X).", "src")
    assert [c.clause_id for c in t.clauses] == ["src:0", "src:1"]
    assert {"src:0", "src:1"} <= set(t.params.learnable)


# ---------------------------------------------------------------------------
# Recursion check


def test_nonrecursive_order_heads_before_bodies():
    t = load_template("family")
    order = check_nonrecursive(t)
    position = {sig: i for i, sig in enumerate(order)}
    for c in t.clauses:  # a fact has no body
        for b in c.body:
            assert position[c.head.signature] < position[b.signature]


def test_recursive_self_loop_rejected():
    t = parse_template("1.0 :: p(X) :- p(X).", "src")
    with pytest.raises(RecursiveTemplateError) as exc:
        check_nonrecursive(t)
    assert "p/1" in str(exc.value)


def test_recursive_mutual_cycle_rejected():
    t = parse_template("1.0 :: p(X) :- q(X).\n1.0 :: q(X) :- r(X).\n1.0 :: r(X) :- p(X).", "src")
    with pytest.raises(RecursiveTemplateError) as exc:
        check_nonrecursive(t)
    message = str(exc.value)
    assert "p/1" in message and "q/1" in message and "r/1" in message


@pytest.mark.parametrize("text, cycle", [
    ("1.0 :: p1(X) :- p1(X), p0(X).", [("p1", 1)]),
    ("1.0 :: q :- r, a.\n1.0 :: r :- q, b.\n1.0 :: a :- b.", [("q", 0), ("r", 0)]),
])
def test_recursive_witness_skips_predicates_below_the_cycle(text, cycle):
    # p0, a and b hang below the cycle: they are never ready, yet on no cycle.
    with pytest.raises(RecursiveTemplateError) as exc:
        check_nonrecursive(parse_template(text, "src"))
    assert sorted(exc.value.cycle) == cycle


def test_facts_alone_are_nonrecursive():
    t = parse_template("1.0 :: p(a).\n? :: q(X,Y).", "src")
    order = check_nonrecursive(t)
    assert set(order) == {("p", 1), ("q", 2)}


def test_random_stratified_programs_pass_check():
    for seed in range(25):
        template, _ = random_nonrecursive_program(random.Random(seed))
        order = check_nonrecursive(template)
        position = {sig: i for i, sig in enumerate(order)}
        for c in template.clauses:  # a fact has no body
            for b in c.body:
                assert position[c.head.signature] < position[b.signature]
