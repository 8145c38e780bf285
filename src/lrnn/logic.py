"""Relational logic core: terms, atoms, weighted clauses, templates.

Grammar (shared by template, example and query files):

    statement := weight "::" atom [ ":-" atom { "," atom } ] "."
    weight    := decimal | "?"
    atom      := predicate [ "(" term { "," term } ")" ]
    term      := constant | Variable
    constant  := [a-z][A-Za-z0-9_]* | single-quoted string
    Variable  := [A-Z][A-Za-z0-9_]*

"%" starts a line comment.  Example and query files additionally use
"#example <id>" section headers: weights in example files are fixed
decimals on ground facts, and in query files the weight slot carries a
target value in [0, 1].

Clause identity is positional, `<source>:<ordinal>` with 0-based
ordinals, so parameter ids survive re-parsing the same file.  A weight
written "?" marks the clause parameter as learnable.  Parameter files
hold one `param <id> = <decimal>` line per parameter.
"""

import math
import re
from dataclasses import dataclass, field

from .activations import CONJ_OFFSET_INIT, DISJ_OFFSET_INIT
from .errors import ParseError, RecursiveTemplateError

# Initial values: learnable clause weights are placeholders until a
# trainer draws real initials; offsets start at the activations' defaults.
LEARNABLE_WEIGHT_INIT = 0.0

KIND_WEIGHT = "weight"
KIND_CONJ = "conj"
KIND_DISJ = "disj"


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


def apply(subst: dict, atom: Atom) -> Atom:
    """Replace every variable `subst` maps to a constant; unmapped variables stay."""
    if not atom.args:
        return atom
    return Atom(atom.pred, tuple(subst.get(t, t) if isinstance(t, Variable) else t for t in atom.args))


def ground_atom_key(atom: Atom) -> tuple:
    """Deterministic sort key for ground atoms."""
    return (atom.pred, len(atom.args), tuple(t.name for t in atom.args))


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

    @property
    def weight_ref(self) -> str:
        # The clause weight parameter is identified by the clause itself.
        return self.clause_id

    def variables(self) -> list:
        seen = {}
        for atom in (self.head, *self.body):
            for v in atom.variables():
                seen.setdefault(v, None)
        return list(seen)

    def head_only_variables(self) -> list:
        body_vars = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        return list(dict.fromkeys(v for v in self.head.variables() if v not in body_vars))

    def __str__(self):
        return render_clause(self)


class ParameterStore:
    """Named real parameters shared across all ground networks.

    `learnable` marks parameters the template text left open ("?"
    weights) plus all offsets; whether offsets actually receive updates
    is the trainer's call (sigmoid families only).
    """

    def __init__(self, values: dict, learnable: set, kinds: dict):
        self.values = dict(values)
        self.learnable = frozenset(learnable)
        self.kinds = dict(kinds)

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
        return (self.values == other.values and self.learnable == other.learnable
                and self.kinds == other.kinds)

    def copy(self) -> "ParameterStore":
        return ParameterStore(self.values, self.learnable, self.kinds)


def render_params(params: ParameterStore) -> str:
    """Parameter file text: `param <pid> = <decimal>` per line, full repr precision."""
    return "".join(f"param {pid} = {repr(params[pid])}\n" for pid in params)


def parse_params(text: str, base: ParameterStore, source: str = "params") -> ParameterStore:
    """Overlay a parameter file onto the template's store."""
    params = base.copy()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "param" or parts[2] != "=":
            raise ParseError("expected 'param <id> = <decimal>'", source, lineno, 1)
        pid = parts[1]
        if pid not in params:
            raise ParseError(f"unknown parameter id {pid!r}", source, lineno, 1)
        try:
            value = float(parts[3])
        except ValueError:
            raise ParseError(f"malformed decimal {parts[3]!r}", source, lineno, 1) from None
        if not math.isfinite(value):
            raise ParseError(f"parameter {pid!r} is not finite: {parts[3]!r}", source, lineno, 1)
        params[pid] = value
    return params


@dataclass
class Template:
    """An ordered set of weighted clauses plus their parameter store."""

    clauses: tuple
    params: ParameterStore
    source: str = "template"
    family: str = "ms"

    def signatures(self) -> list:
        seen = {}
        for c in self.clauses:
            for atom in (c.head, *c.body):
                seen.setdefault(atom.signature, None)
        return list(seen)

    def conj_offset_pid(self, clause: WeightedClause) -> str:
        return _conj_offset_pid(clause)

    def disj_offset_pid(self, signature: tuple) -> str | None:
        return _disj_offset_pids(self.clauses).get(signature)

    def disj_offset_pids(self) -> dict:
        return _disj_offset_pids(self.clauses)


def _conj_offset_pid(clause: WeightedClause) -> str:
    return f"{clause.clause_id}:{KIND_CONJ}"


def _disj_offset_pids(clauses) -> dict:
    """Head signature -> offset parameter of its atom neurons.

    Keyed by the first rule clause with that head so the id stays
    inside the parameter-file grammar; predicates never heading a
    rule have fact-only atom neurons, which take no offset.
    """
    pids = {}
    for c in clauses:
        if not c.is_fact:
            pids.setdefault(c.head.signature, f"{c.clause_id}:{KIND_DISJ}")
    return pids


def make_template(clauses, source: str = "template", family: str = "ms") -> Template:
    values, learnable, kinds = {}, set(), {}
    for c in clauses:
        values[c.weight_ref] = LEARNABLE_WEIGHT_INIT if c.weight is None else c.weight
        kinds[c.weight_ref] = KIND_WEIGHT
        if c.weight is None:
            learnable.add(c.weight_ref)
    disj_pids = _disj_offset_pids(clauses)
    for c in clauses:
        if c.is_fact:
            continue
        conj, disj = _conj_offset_pid(c), disj_pids[c.head.signature]
        values[conj], kinds[conj] = CONJ_OFFSET_INIT, KIND_CONJ
        learnable.add(conj)
        if disj not in values:  # added at the head's first rule clause
            values[disj], kinds[disj] = DISJ_OFFSET_INIT, KIND_DISJ
            learnable.add(disj)
    return Template(tuple(clauses), ParameterStore(values, learnable, kinds), source, family)


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
    sigs = sorted(template.signatures())
    edges = {s: set() for s in sigs}
    indeg = {s: 0 for s in sigs}
    for c in template.clauses:
        for b in c.body:
            if b.signature not in edges[c.head.signature]:
                edges[c.head.signature].add(b.signature)
                indeg[b.signature] += 1
    order, ready = [], sorted(s for s in sigs if indeg[s] == 0)
    while ready:
        s = ready.pop(0)
        order.append(s)
        opened = []
        for t in edges[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                opened.append(t)
        if opened:
            ready = sorted(ready + opened)
    if len(order) != len(sigs):
        raise RecursiveTemplateError(_find_cycle(edges, {s for s in sigs if indeg[s] > 0}))
    return tuple(order)


def _find_cycle(edges, remaining):
    # Every remaining node lies on or leads into a cycle; walk until a repeat.
    node = sorted(remaining)[0]
    path, seen = [], {}
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = sorted(t for t in edges[node] if t in remaining)[0]
    return path[seen[node]:]


# ---------------------------------------------------------------------------
# Parsing


_BARE_CONST = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_EXAMPLE_ID = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class _Scanner:
    """Single-pass tokenizer with 1-based line/col tracking."""

    def __init__(self, text: str, source: str, allow_headers: bool):
        self.text = text.replace("\r\n", "\n")
        self.source = source
        self.allow_headers = allow_headers
        self.i = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str, line=None, col=None):
        raise ParseError(msg, self.source, self.line if line is None else line,
                         self.col if col is None else col)

    def _advance(self, n: int):
        for _ in range(n):
            if self.text[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def _skip_blank(self):
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch in " \t\n":
                self._advance(1)
            elif ch == "%":
                while self.i < len(self.text) and self.text[self.i] != "\n":
                    self._advance(1)
            else:
                return

    def next(self) -> tuple:
        """Return (kind, value, line, col)."""
        self._skip_blank()
        if self.i >= len(self.text):
            return ("eof", None, self.line, self.col)
        line, col = self.line, self.col
        ch = self.text[self.i]
        if ch == "#":
            if not self.allow_headers:
                self.error("'#example' headers are not allowed in this file")
            end = self.text.find("\n", self.i)
            if end < 0:
                end = len(self.text)
            header = self.text[self.i:end]
            self._advance(end - self.i)
            parts = header.split()
            if len(parts) != 2 or parts[0] != "#example" or not _EXAMPLE_ID.match(parts[1]):
                self.error("malformed header, expected '#example <id>'", line, col)
            return ("header", parts[1], line, col)
        if ch == ":":
            nxt = self.text[self.i + 1:self.i + 2]
            if nxt == ":":
                self._advance(2)
                return ("weightsep", "::", line, col)
            if nxt == "-":
                self._advance(2)
                return ("implies", ":-", line, col)
            self.error("expected '::' or ':-'")
        if ch in "(),.?":
            self._advance(1)
            return ({"(": "lparen", ")": "rparen", ",": "comma", ".": "dot", "?": "qmark"}[ch], ch, line, col)
        if ch == "-" or ch.isdigit():
            return self._number(line, col)
        if ch == "'":
            return self._quoted(line, col)
        if ch.isalpha():
            j = self.i
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            word = self.text[self.i:j]
            self._advance(j - self.i)
            kind = "var" if word[0].isupper() else "ident"
            return (kind, word, line, col)
        self.error(f"unexpected character {ch!r}")

    def _number(self, line, col):
        m = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?").match(self.text, self.i)
        if not m:
            self.error("malformed number")
        value = float(m.group(0))
        if not math.isfinite(value):
            self.error(f"number {m.group(0)} is out of range", line, col)
        self._advance(m.end() - self.i)
        return ("number", value, line, col)

    def _quoted(self, line, col):
        chars = []
        j = self.i + 1
        while True:
            if j >= len(self.text) or self.text[j] == "\n":
                self.error("unterminated quoted constant", line, col)
            ch = self.text[j]
            if ch == "\\":
                if j + 1 >= len(self.text):
                    self.error("unterminated quoted constant", line, col)
                chars.append(self.text[j + 1])
                j += 2
            elif ch == "'":
                j += 1
                break
            else:
                chars.append(ch)
                j += 1
        self._advance(j - self.i)
        return ("qconst", "".join(chars), line, col)


class _Parser:
    def __init__(self, text: str, source: str, allow_headers: bool):
        self.sc = _Scanner(text, source, allow_headers)
        self.tok = self.sc.next()

    def _shift(self):
        tok, self.tok = self.tok, self.sc.next()
        return tok

    def _expect(self, kind: str, what: str):
        if self.tok[0] != kind:
            self.sc.error(f"expected {what}", self.tok[2], self.tok[3])
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
        kind, value, line, col = self.tok
        if kind in ("ident", "qconst"):
            self._shift()
            return Constant(value)
        if kind == "var":
            self._shift()
            return Variable(value)
        self.sc.error("expected a constant or variable", line, col)

    def clause_statement(self) -> tuple:
        """Parse one `weight :: head [:- body].`; returns (weight|None, head, body)."""
        kind, value, line, col = self.tok
        if kind == "qmark":
            self._shift()
            weight = None
        elif kind == "number":
            self._shift()
            weight = value
        else:
            self.sc.error("expected a weight ('?' or decimal)", line, col)
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


def parse_template(text: str, source: str = "template", family: str = "ms") -> Template:
    p = _Parser(text, source, allow_headers=False)
    clauses = []
    while p.tok[0] != "eof":
        weight, head, body = p.clause_statement()
        clauses.append(WeightedClause(head, body, weight, f"{source}:{len(clauses)}"))
    return make_template(clauses, source, family)


def parse_examples(text: str, source: str = "examples") -> list:
    """Parse `#example` sections of weighted ground facts."""
    p = _Parser(text, source, allow_headers=True)
    examples, ids = [], set()
    current, facts = None, []

    def close():
        if current is not None:
            examples.append(Example(current, tuple(facts)))

    while p.tok[0] != "eof":
        if p.tok[0] == "header":
            close()
            current = p._shift()[1]
            if current in ids:
                p.sc.error(f"duplicate example id {current!r}")
            ids.add(current)
            facts = []
            continue
        _, _, line, col = p.tok
        if current is None:
            p.sc.error("facts must appear under an '#example <id>' header", line, col)
        weight, head, body = p.clause_statement()
        if weight is None:
            p.sc.error("example facts need a fixed decimal weight, not '?'", line, col)
        if body:
            p.sc.error("examples may contain only facts (no ':-' bodies)", line, col)
        if not head.is_ground():
            p.sc.error(f"example fact {head} is not ground", line, col)
        facts.append((weight, head))
    close()
    return examples


def parse_queries(text: str, source: str = "queries") -> list:
    """Parse query rows; the weight slot carries the target in [0, 1]."""
    rows = []
    for ex in parse_examples(text, source):
        for target, atom in ex.facts:
            if not 0.0 <= target <= 1.0:
                raise ParseError(f"query target {target!r} for {atom} is outside [0, 1]", source)
            rows.append(QueryRow(ex.example_id, atom, target))
    return rows


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
