"""Relational logic core: terms, atoms, weighted clauses, templates.

Grammar (shared by template, example and query files):

    statement := weight "::" atom [ ":-" atom { "," atom } ] "."
    weight    := decimal | "?"
    decimal   := ["-"] digits ["." digits] [("e" | "E") ["+" | "-"] digits]
    atom      := predicate [ "(" term { "," term } ")" ]
    term      := constant | Variable
    predicate := word whose first letter is not uppercase
    constant  := word whose first letter is not uppercase | quoted
    Variable  := word whose first letter is uppercase
    word      := letter { letter | digit | "_" }
    quoted    := "'" { any character but "'", "\\" or newline | "\\" any character } "'"

Letters and digits are Unicode ones (`str.isalpha`, `str.isalnum`,
`str.isupper`), so `ärger` is a constant and `Ärger` a variable; the
digits of a decimal are decimal digits (`str.isdecimal`).  Blanks are
space, tab and newline, "\\r\\n" reads as a newline, and "%" starts a
comment that runs to the end of the line.  Example and query files
additionally use "#example <id>" section headers, the id made of ASCII
letters, digits, "_", "." and "-", and a comment may follow a header.
Weights in example files are fixed decimals on ground facts, and in
query files the weight slot carries a target value in [0, 1].

Clause identity is positional, `<source>:<ordinal>` with 0-based
ordinals, so parameter ids survive re-parsing the same file.  A weight
written "?" marks the clause parameter as learnable.  Parameter files
hold one `param <id> = <decimal>` line per parameter.

What depends on the template alone is compiled once per `Template`,
into its rule plan (`_plan`): join plans, parameter ids, constants and
the stratum rank of each predicate, read by grounding and `network.build`.
"""

import heapq
import math
import re
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .activations import CONJ_OFFSET_INIT, DISJ_OFFSET_INIT, MAX_SIGMOID
from .errors import ParseError, RecursiveTemplateError

# Initial values: learnable clause weights are placeholders until a
# trainer draws real initials; offsets start at the activations' defaults.
LEARNABLE_WEIGHT_INIT = 0.0


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __str__(self):
        return _render_constant(self.name)


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


Term = Constant | Variable


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple = ()

    @property
    def signature(self) -> tuple:
        return (self.pred, len(self.args))

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def variables(self):
        return [t for t in self.args if isinstance(t, Variable)]

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class WeightedClause:
    head: Atom
    body: tuple = ()
    weight: float | None = None  # None <=> learnable ("?")
    clause_id: str = ""

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def learnable(self) -> bool:
        return self.weight is None

    def head_only_variables(self) -> list:
        body_vars = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        return list(dict.fromkeys(v for v in self.head.variables() if v not in body_vars))

    def __str__(self):
        return render_clause(self)


class ParameterStore:
    """Named real parameters shared across all ground networks.

    A clause weight's id is its clause id.  `learnable` marks the clause
    weights the template text left open ("?") plus all offsets, so the
    offsets are the learnable ids that are not clause weights; whether
    they actually receive updates is the trainer's call (sigmoid families
    only).
    """

    def __init__(self, values: dict, learnable: set):
        self.values = dict(values)
        self.learnable = frozenset(learnable)

    def __getitem__(self, pid: str) -> float:
        return self.values[pid]

    def __setitem__(self, pid: str, value: float):
        if pid not in self.values:
            raise KeyError(pid)
        self.values[pid] = value

    def __contains__(self, pid: str) -> bool:
        return pid in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, ParameterStore):
            return NotImplemented
        return self.values == other.values and self.learnable == other.learnable

    def copy(self) -> "ParameterStore":
        return ParameterStore(self.values, self.learnable)


def render_params(params: ParameterStore) -> str:
    """Parameter file text: `param <pid> = <decimal>` per line, full repr precision."""
    return "".join(f"param {pid} = {repr(params[pid])}\n" for pid in params)


def parse_params(text: str, base: ParameterStore, source: str = "params") -> ParameterStore:
    """Overlay a parameter file onto the template's store; each id at most once.
    An id (it holds the template's file name) runs from `param ` to the last
    ` = `, so a `%` starts a comment only at a line's start or after that."""
    params, seen = base.copy(), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        head, equals, decimal = line.rpartition(" = ")
        decimal = decimal.split("%", 1)[0].strip()
        if not (equals and head.startswith("param ") and decimal):
            raise ParseError("expected 'param <id> = <decimal>'", source, lineno, 1)
        pid = head[len("param "):]
        if pid not in params:
            raise ParseError(f"unknown parameter id {pid!r}", source, lineno, 1)
        if pid in seen:
            raise ParseError(f"parameter {pid!r} is given twice", source, lineno, 1)
        seen.add(pid)
        if not _DECIMAL.fullmatch(decimal):  # `float` alone also reads `1_0`, `+1`, `.5`, `5.`
            raise ParseError(f"malformed decimal {decimal!r}", source, lineno, 1)
        value = float(decimal)
        if not math.isfinite(value):
            raise ParseError(f"parameter {pid!r} is not finite: {decimal!r}", source, lineno, 1)
        params[pid] = value
    return params


@dataclass
class Template:
    """An ordered set of weighted clauses plus their parameter store."""

    clauses: tuple
    params: ParameterStore
    _: KW_ONLY
    family: str = MAX_SIGMOID

    def signatures(self) -> list:
        seen = {}
        for c in self.clauses:
            for atom in (c.head, *c.body):
                seen.setdefault(atom.signature, None)
        return list(seen)

    @cached_property
    def _plan(self) -> "_Plan":
        """The rule clauses compiled once, each with its offset ids (the
        learnable ids that are not clause weights), and the stratum rank
        of each signature.  RecursiveTemplateError propagates and nothing
        is cached, so every later read raises again."""
        order = check_nonrecursive(self)
        rank = {sig: len(order) - i for i, sig in enumerate(order)}  # bodies below heads
        offsets = _offset_pids(self.clauses)
        rules = {c.clause_id: _Rule(c, *offsets[c.clause_id]) for c in self.clauses if not c.is_fact}
        constants = frozenset(t.name for c in self.clauses for atom in (c.head, *c.body)
                              for t in atom.args if isinstance(t, Constant))
        return _Plan(rules, tuple(sorted(rules.values(), key=lambda r: rank[r.head_sig])),
                     constants, rank)


def _offset_pids(clauses) -> dict:
    """Rule clause id -> (conj offset id, disj offset id).  A head's disj
    offset is named by its first rule clause, so the id stays inside the
    parameter-file grammar; fact-only heads take no offset."""
    pids, disj = {}, {}
    for c in clauses:
        if not c.is_fact:
            pids[c.clause_id] = (f"{c.clause_id}:conj",
                                 disj.setdefault(c.head.signature, f"{c.clause_id}:disj"))
    return pids


def _slot_pattern(atom: Atom, slot: dict) -> tuple:
    """The atom's arguments as the slot number of each variable and the
    name of each constant."""
    return tuple(slot[t.name] if isinstance(t, Variable) else t.name for t in atom.args)


class _Rule:
    """A rule clause compiled once for `grounding._join`.  A substitution
    is a tuple of constant names, one slot per variable in the order the
    join binds it; head-only variables take the last slots, in sorted-name
    order.  A pattern holds a variable's slot and a constant's name.
    `body` holds per body atom, in written order, (signature, key
    positions, key pattern, free).  Key positions hold a constant or a
    variable an earlier body atom binds, and the key pattern reads them.
    free is None when the atom binds no new variable, else (the positions
    of its new variables in slot order, the (position, earlier position)
    pairs of a new variable repeated in the atom).  `names` are the
    clause's variables sorted and `order` their slots, so a theta pairs
    each name with the substitution's value at its slot."""

    __slots__ = ("clause_id", "head_sig", "head_pat", "body", "head_only", "names", "order",
                 "conj", "disj")

    def __init__(self, clause, conj: str, disj: str):
        self.clause_id = clause.clause_id
        self.head_sig = clause.head.signature
        self.body, slot = [], {}
        for b in clause.body:
            bound, key_pos, new, repeats = len(slot), [], [], []
            for i, t in enumerate(b.args):
                if isinstance(t, Constant) or slot.get(t.name, bound) < bound:  # bound before
                    key_pos.append(i)
                elif t.name in slot:
                    repeats.append((i, new[slot[t.name] - bound]))
                else:
                    slot[t.name] = len(slot)
                    new.append(i)
            pattern = _slot_pattern(b, slot)
            self.body.append((b.signature, tuple(key_pos), tuple(pattern[i] for i in key_pos),
                              (tuple(new), tuple(repeats)) if new else None))
        self.head_only = sorted(v.name for v in clause.head_only_variables())
        for name in self.head_only:
            slot[name] = len(slot)
        self.head_pat = _slot_pattern(clause.head, slot)
        self.names = tuple(sorted(slot))
        self.order = tuple(slot[name] for name in self.names)
        self.conj, self.disj = conj, disj


@dataclass(frozen=True, slots=True)
class _Plan:
    rules: dict  # clause_id -> _Rule, in template order
    schedule: tuple  # the same rules, bodies before heads
    constants: frozenset  # names of the constants the clauses mention
    rank: dict  # signature -> stratum rank >= 1, bodies below heads


def make_template(clauses, *, family: str = MAX_SIGMOID) -> Template:
    """The clauses with their store: a weight per clause id, then offsets."""
    values = {c.clause_id: LEARNABLE_WEIGHT_INIT if c.learnable else c.weight for c in clauses}
    learnable = {c.clause_id for c in clauses if c.learnable}
    for conj, disj in _offset_pids(clauses).values():
        values[conj] = CONJ_OFFSET_INIT
        values.setdefault(disj, DISJ_OFFSET_INIT)  # added at the head's first rule clause
        learnable.update((conj, disj))
    return Template(tuple(clauses), ParameterStore(values, learnable), family=family)


@dataclass(frozen=True, slots=True)
class Example:
    """One training/evaluation example: an id plus weighted ground facts."""

    example_id: str
    facts: tuple = ()  # of (weight, Atom)


@dataclass(frozen=True, slots=True)
class QueryRow:
    example_id: str
    atom: Atom
    target: float


def check_nonrecursive(template: Template) -> tuple:
    """Return a strict predicate ordering, heads before body predicates.

    Raises RecursiveTemplateError with one witness cycle when no such
    ordering exists.  Tie-breaks are sorted so the ordering is stable.
    """
    graph = TopologicalSorter()
    for s in sorted(template.signatures()):
        graph.add(s)
    for c in template.clauses:
        for b in c.body:
            graph.add(b.signature, c.head.signature)
    try:
        graph.prepare()
    except CycleError as err:
        raise RecursiveTemplateError(err.args[1][:-1])
    order, ready = [], sorted(graph.get_ready())
    while ready:
        s = heapq.heappop(ready)
        order.append(s)
        graph.done(s)
        for t in graph.get_ready():
            heapq.heappush(ready, t)
    return tuple(order)


# ---------------------------------------------------------------------------
# Parsing


_BARE_CONST = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_HEADER = re.compile(r"#example[ \t]+([A-Za-z0-9_.\-]+)[ \t]*\Z")
_DECIMAL = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")  # a weight or a parameter value

# One token per match, after blanks and "%" comments.  A word is a
# letter then letters, digits or "_" (checked with str.isalpha, which no
# regex class expresses); anything else matches the empty `bad` group,
# and _Parser.token names the fault from the character found there.
_TOKEN = re.compile(rf"""(?:[ \t\n]|%[^\n]*)*(?:
      (?P<header>\#[^\n%]*)
    | (?P<punct>::|:-|[(),.?])
    | (?P<number>{_DECIMAL.pattern})
    | (?P<qconst>'(?:[^'\\\n]|\\[\s\S])*')
    | (?P<word>[^\W\d_]\w*)
    | (?P<eof>\Z)
    | (?P<bad>))""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")
# The bulk of example and query files, a plain fact after its weight:
# `:: p(a, b).`, each word starting with an ASCII lowercase letter (so it
# lexes as one whole `ident`), blanks between tokens and no comment.  It
# reads what the tokens would; anything else, errors too, goes by tokens.
_FACT = re.compile(r"""[ \t\n]*::[ \t\n]*([a-z]\w*)
    (?:[ \t\n]*\([ \t\n]*([a-z]\w*(?:[ \t\n]*,[ \t\n]*[a-z]\w*)*)[ \t\n]*\))?
    [ \t\n]*\.""", re.VERBOSE)
_PUNCT = {"::": "weightsep", ":-": "implies", "(": "lparen", ")": "rparen",
          ",": "comma", ".": "dot", "?": "qmark"}


class _Parser:
    """Recursive descent over (kind, value, offset) tokens, one lookahead.
    A plain fact after its weight (`:: p(a, b).`, bare words) is read with
    one match of `_FACT`, everything else token by token."""

    def __init__(self, text: str, source: str, allow_headers: bool):
        self.text = text.replace("\r\n", "\n")
        self.source = source
        self.allow_headers = allow_headers
        self.constants = {}  # name -> this parse's one Constant of that name
        self.pos = 0
        self.tok = self.token()

    def constant(self, name: str) -> Constant:
        return self.constants.get(name) or self.constants.setdefault(name, Constant(name))

    def error(self, msg: str, i: int):
        """Raise at offset i, as a 1-based line and column."""
        text = self.text
        raise ParseError(msg, self.source, text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i))

    def token(self) -> tuple:
        m = _TOKEN.match(self.text, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        value, i = m.group(kind), m.start(kind)
        if kind == "punct":
            return (_PUNCT[value], value, i)
        if kind == "word" and value[0].isalpha():
            return ("var" if value[0].isupper() else "ident", value, i)
        if kind == "number":
            number = float(value)
            if not math.isfinite(number):
                self.error(f"number {value} is out of range", i)
            return ("number", number, i)
        if kind == "qconst":
            return ("qconst", _ESCAPE.sub(r"\1", value[1:-1]), i)
        if kind == "header":
            if not self.allow_headers:
                self.error("'#example' headers are not allowed in this file", i)
            header = _HEADER.match(value)
            if header is None:
                self.error("malformed header, expected '#example <id>'", i)
            return ("header", header[1], i)
        if kind == "eof":
            return ("eof", None, i)
        ch = self.text[i]
        if ch == ":":
            self.error("expected '::' or ':-'", i)
        if ch == "-" or ch.isdigit():
            self.error("malformed number", i)
        if ch == "'":
            self.error("unterminated quoted constant", i)
        self.error(f"unexpected character {ch!r}", i)

    def _shift(self):
        tok, self.tok = self.tok, self.token()
        return tok

    def _expect(self, kind: str, what: str):
        if self.tok[0] != kind:
            self.error(f"expected {what}", self.tok[2])
        return self._shift()

    def atom(self) -> Atom:
        pred = self._expect("ident", "a predicate name (lowercase)")[1]
        if self.tok[0] != "lparen":
            return Atom(pred)
        self._shift()
        args = [self.term()]
        while self.tok[0] == "comma":
            self._shift()
            args.append(self.term())
        self._expect("rparen", "')'")
        return Atom(pred, tuple(args))

    def term(self) -> Term:
        kind, value, i = self.tok
        if kind in ("ident", "qconst"):
            self._shift()
            return self.constant(value)
        if kind == "var":
            self._shift()
            return Variable(value)
        self.error("expected a constant or variable", i)

    def clause_statement(self) -> tuple:
        """Parse one `weight :: head [:- body].`; returns (weight|None, head, body)."""
        kind, value, i = self.tok
        if kind == "qmark":
            self._shift()
            weight = None
        elif kind == "number":
            fact = _FACT.match(self.text, self.pos)
            if fact:  # pos and tok end up where _expect("dot") leaves them
                self.pos = fact.end()
                self.tok = self.token()
                names = fact[2].split(",") if fact[2] else ()
                args = tuple([self.constant(n.strip(" \t\n")) for n in names])
                return value, Atom(fact[1], args), ()
            self._shift()
            weight = value
        else:
            self.error("expected a weight ('?' or decimal)", i)
        self._expect("weightsep", "'::'")
        head = self.atom()
        body = []
        if self.tok[0] == "implies":
            self._shift()
            body.append(self.atom())
            while self.tok[0] == "comma":
                self._shift()
                body.append(self.atom())
        self._expect("dot", "'.'")
        return weight, head, tuple(body)


def parse_template(text: str, source: str = "template", family: str = MAX_SIGMOID) -> Template:
    p = _Parser(text, source, allow_headers=False)
    clauses = []
    while p.tok[0] != "eof":
        weight, head, body = p.clause_statement()
        clauses.append(WeightedClause(head, body, weight, f"{source}:{len(clauses)}"))
    return make_template(clauses, family=family)


def parse_examples(text: str, source: str = "examples") -> list:
    """Parse `#example` sections of weighted ground facts."""
    return _parse_sections(text, source, targets=False)


def parse_queries(text: str, source: str = "queries") -> list:
    """Parse query rows; the weight slot carries the target in [0, 1]."""
    return [QueryRow(ex.example_id, atom, target)
            for ex in _parse_sections(text, source, targets=True) for target, atom in ex.facts]


def _parse_sections(text: str, source: str, targets: bool) -> list:
    p = _Parser(text, source, allow_headers=True)
    examples, ids = [], set()
    current, facts, queried = None, [], set()
    # A '?' weight, a body and a variable are worded for the file's kind.
    no_weight, no_body, noun = (
        ("query targets need a fixed decimal value", "queries may contain only atoms", "query")
        if targets else ("example facts need a fixed decimal weight",
                         "examples may contain only facts", "example fact"))

    def close():
        if current is not None:
            examples.append(Example(current, tuple(facts)))

    while p.tok[0] != "eof":
        kind, value, i = p.tok
        if kind == "header":
            if value in ids:
                p.error(f"duplicate example id {value!r}", i)
            ids.add(value)
            close()
            current, facts, queried = value, [], set()
            p._shift()
            continue
        if current is None:
            p.error("facts must appear under an '#example <id>' header", i)
        weight, head, body = p.clause_statement()
        if weight is None:
            p.error(f"{no_weight}, not '?'", i)
        if body:
            p.error(f"{no_body} (no ':-' bodies)", i)
        if not head.is_ground():
            p.error(f"{noun} {head} is not ground", i)
        if targets:
            if not 0.0 <= weight <= 1.0:
                p.error(f"query target {weight!r} for {head} is outside [0, 1]", i)
            if head in queried:
                p.error(f"query {head} is given twice in example {current!r}", i)
            queried.add(head)
        facts.append((weight, head))
    close()
    return examples


# ---------------------------------------------------------------------------
# Rendering (inverse of parsing; float weights round-trip via repr)


def _render_constant(name: str) -> str:
    if _BARE_CONST.match(name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def render_clause(clause: WeightedClause) -> str:
    w = "?" if clause.weight is None else repr(clause.weight)
    head = str(clause.head)
    if clause.is_fact:
        return f"{w} :: {head}."
    return f"{w} :: {head} :- {', '.join(str(b) for b in clause.body)}."


def render_template(template: Template) -> str:
    return "".join(render_clause(c) + "\n" for c in template.clauses)


def render_examples(examples) -> str:
    lines = []
    for ex in examples:
        lines.append(f"#example {ex.example_id}")
        for weight, atom in ex.facts:
            lines.append(f"{repr(weight)} :: {atom}.")
    return "".join(line + "\n" for line in lines)
