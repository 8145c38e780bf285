"""End-to-end command-line runs: file formats, exit codes, determinism."""

import csv
import json
import math

import pytest

from lrnn import (Atom, CompiledTask, Example, QueryRow, TrainingTask, compile_networks,
                  crossvalidate, make_folds, parse_params, render_params)
from lrnn import cli, grounding, network, training
from lrnn.cli import main
from lrnn.errors import ParseError
from lrnn.fixtures import fixture_dir, fixture_text
from lrnn.logic import parse_template, render_examples

from helpers import check_dot
from molecules import make_bond_dataset

FAMILY = fixture_dir("family")
EXPLOSIVES = fixture_dir("explosives")


def _cli_template(name, family="ms"):
    # the CLI derives parameter ids from the template file name
    return parse_template(fixture_text(name, "template.lrnn"), "template.lrnn", family)


def _render_queries(queries):
    by_id = {}
    for q in queries:
        by_id.setdefault(q.example_id, []).append((q.target, q.atom))
    return render_examples([Example(i, tuple(fs)) for i, fs in by_id.items()])


def _bond_files(tmp_path, n, seed=0):
    examples, queries = make_bond_dataset(n, seed=seed)
    ex_path = tmp_path / "molecules.lrnn"
    q_path = tmp_path / "labels.lrnn"
    ex_path.write_text(render_examples(examples), encoding="utf-8")
    q_path.write_text(_render_queries(queries), encoding="utf-8")
    return str(EXPLOSIVES / "template.lrnn"), str(ex_path), str(q_path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# ground


def test_ground_writes_stats_and_instances(tmp_path):
    out = tmp_path / "nested" / "ground"
    rc = main(["ground", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(out)])
    assert rc == 0
    stats = _read_csv(out / "stats.csv")
    assert stats == [
        ["example_id", "atom_neurons", "fact_neurons", "rule_neurons", "aggregation_neurons"],
        ["e1", "5", "3", "2", "2"],
    ]
    instances = _read_csv(out / "instances.csv")
    assert instances == [
        ["example_id", "clause_id", "substitution", "head", "body"],
        ["e1", "template.lrnn:0", "C=bob M=alice", "mother(bob,alice)",
         "parent(bob,alice), female(alice)"],
        ["e1", "template.lrnn:0", "C=eve M=alice", "mother(eve,alice)",
         "parent(eve,alice), female(alice)"],
    ]


def test_ground_builds_no_network(tmp_path, monkeypatch):
    # stats.csv counts each example's neurons from its grounding alone.
    template_path, examples_path, _ = _bond_files(tmp_path, 6)
    built = []
    for module in (training, network):
        monkeypatch.setattr(module, "build", lambda *args, **kwargs: built.append(args))
    rc = main(["ground", "--template", template_path, "--examples", examples_path,
               "--out", str(tmp_path / "o")])
    assert (rc, built) == (0, [])
    monkeypatch.undo()
    examples, _ = make_bond_dataset(6, seed=0)
    nets = compile_networks(_cli_template("explosives"), examples)
    assert _read_csv(tmp_path / "o" / "stats.csv")[1:] == [
        [example_id, *map(str, net.counts())] for example_id, net in nets.items()]


def test_ground_recursive_template_exits_3(tmp_path):
    template = tmp_path / "loop.lrnn"
    template.write_text("1.0 :: p(X) :- q(X).\n1.0 :: q(X) :- p(X).\n", encoding="utf-8")
    examples = tmp_path / "ex.lrnn"
    examples.write_text("#example e\n1.0 :: p(a).\n", encoding="utf-8")
    rc = main(["ground", "--template", str(template), "--examples", str(examples),
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_malformed_template_exits_2(tmp_path, capsys):
    template = tmp_path / "bad.lrnn"
    template.write_text("1.0 :: broken(\n", encoding="utf-8")
    rc = main(["ground", "--template", str(template),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    rc = main(["ground", "--template", str(tmp_path / "nope.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_capacity_env_small_exits_4(tmp_path, monkeypatch):
    monkeypatch.setenv("LRNN_CAPACITY", "2")
    rc = main(["ground", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(tmp_path / "o")])
    assert rc == 4


def test_capacity_env_garbage_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("LRNN_CAPACITY", "banana")
    rc = main(["ground", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(tmp_path / "o")])
    assert rc == 2


# ---------------------------------------------------------------------------
# train


def _train_args(tmp_path, template, examples, queries, **extra):
    args = ["train", "--template", template, "--examples", examples,
            "--queries", queries,
            "--lr", "5.0", "--epochs", "20", "--restarts", "2", "--seed", "0",
            "--out-params", str(tmp_path / "params.txt"),
            "--report", str(tmp_path / "report.jsonl")]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}"] + ([] if value is True else [str(value)])
    return args


def test_train_outputs(tmp_path, capsys):
    template, examples, queries = _bond_files(tmp_path, 8)
    rc = main(_train_args(tmp_path, template, examples, queries))
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("best_restart ")
    int(lines[0].split()[1])
    assert lines[1].startswith("final_cost ")
    assert math.isfinite(float(lines[1].split()[1]))
    assert lines[2].startswith("train_accuracy ")
    assert 0.0 <= float(lines[2].split()[1]) <= 1.0

    for raw in (tmp_path / "params.txt").read_text(encoding="utf-8").splitlines():
        name, pid, eq, value = raw.split()
        assert (name, eq) == ("param", "=")
        float(value)
    for raw in (tmp_path / "report.jsonl").read_text(encoding="utf-8").splitlines():
        json.loads(raw)


def test_train_byte_determinism(tmp_path, capsys):
    template, examples, queries = _bond_files(tmp_path, 8)
    outputs = []
    for run in ("a", "b"):
        sub = tmp_path / run
        sub.mkdir()
        rc = main(_train_args(sub, template, examples, queries))
        assert rc == 0
        outputs.append(((sub / "params.txt").read_bytes(),
                        (sub / "report.jsonl").read_bytes(),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_train_epochs_zero_exits_2(tmp_path):
    template, examples, queries = _bond_files(tmp_path, 4)
    rc = main(_train_args(tmp_path, template, examples, queries, epochs=0))
    assert rc == 2


def test_train_degenerate_init_range_exits_2(tmp_path):
    template, examples, queries = _bond_files(tmp_path, 4)
    args = _train_args(tmp_path, template, examples, queries)
    args += ["--init-range", "1.0", "1.0"]
    rc = main(args)
    assert rc == 2


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_learning_rate_exits_2(tmp_path, capsys, lr):
    template, examples, queries = _bond_files(tmp_path, 4)
    rc = main(_train_args(tmp_path, template, examples, queries) + ["--lr", lr])
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [("0.0", "inf"), ("nan", "1.0")])
def test_train_non_finite_init_range_exits_2(tmp_path, capsys, bounds):
    template, examples, queries = _bond_files(tmp_path, 4)
    rc = main(_train_args(tmp_path, template, examples, queries) + ["--init-range", *bounds])
    assert rc == 2
    assert "init_range" in capsys.readouterr().err


def test_train_non_finite_final_cost_exits_2(tmp_path, capsys):
    # Nothing to learn, and s(a) = 0.0 * inf = nan under godel: every restart ends at cost nan.
    files = {"template": "1e300 :: q(X) :- p(X).\n0.0 :: s(X) :- q(X).\n",
             "examples": "#example e1\n1e300 :: p(a).\n#example e2\n1e300 :: p(a).\n",
             "queries": "#example e1\n1.0 :: s(a).\n#example e2\n0.0 :: s(a).\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.lrnn").write_text(text, encoding="utf-8")
    rc = main(["train", "--template", str(tmp_path / "template.lrnn"),
               "--examples", str(tmp_path / "examples.lrnn"),
               "--queries", str(tmp_path / "queries.lrnn"), "--family", "godel",
               "--epochs", "2", "--restarts", "2", "--out-params", str(tmp_path / "params.txt")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "all restarts diverged" in captured.err
    assert "final_cost" not in captured.out
    assert not (tmp_path / "params.txt").exists()


def test_train_freeze_offsets_keeps_initial_offsets(tmp_path):
    template, examples, queries = _bond_files(tmp_path, 6)
    rc = main(_train_args(tmp_path, template, examples, queries, freeze_offsets=True))
    assert rc == 0
    base = _cli_template("explosives")
    params = parse_params((tmp_path / "params.txt").read_text(encoding="utf-8"), base.params)
    for pid in params:
        if pid.endswith(":conj"):
            assert params[pid] == 1.0
        elif pid.endswith(":disj"):
            assert params[pid] == 0.0


# ---------------------------------------------------------------------------
# parameter files


def test_params_round_trip_bit_exact():
    template = _cli_template("explosives")
    params = template.params.copy()
    for i, pid in enumerate(sorted(params)):
        params[pid] = (0.1 + 0.2) * (i + 1) * (-1.0) ** i
    again = parse_params(render_params(params), template.params)
    assert again == params


@pytest.mark.parametrize("name", ["my template.lrnn", "50% template.lrnn"])
def test_params_round_trip_when_the_template_name_holds_a_blank_or_a_percent(tmp_path, name):
    template = tmp_path / name
    template.write_text(fixture_text("explosives", "template.lrnn"), encoding="utf-8")
    _, examples, queries = _bond_files(tmp_path, 6)
    assert main(_train_args(tmp_path, str(template), examples, queries)) == 0
    text = (tmp_path / "params.txt").read_text(encoding="utf-8")
    base = parse_template(template.read_text(encoding="utf-8"), name, "ms").params
    params = parse_params(f"% {name}\n" + text.replace("\n", " % note\n", 1), base)
    assert render_params(params) == text
    rc = main(["predict", "--template", str(template), "--examples", examples,
               "--queries", queries, "--params", str(tmp_path / "params.txt"),
               "--out", str(tmp_path / "scores.csv")])
    assert rc == 0


def test_params_unknown_id_rejected(tmp_path):
    template, examples, queries = _bond_files(tmp_path, 4)
    bad = tmp_path / "bad_params.txt"
    bad.write_text("param nosuch:9 = 1.0\n", encoding="utf-8")
    rc = main(["predict", "--template", template, "--examples", examples,
               "--queries", queries, "--params", str(bad),
               "--out", str(tmp_path / "scores.csv")])
    assert rc == 2


def test_params_repeated_id_rejected(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("param template.lrnn:0 = 1.0\nparam template.lrnn:0 = 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_params(params.read_text(encoding="utf-8"), _cli_template("family").params)
    assert exc.value.line == 2
    rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"),
               "--queries", str(FAMILY / "queries.lrnn"), "--params", str(params),
               "--out", str(tmp_path / "scores.csv")])
    assert rc == 2


def test_params_malformed_line_rejected(tmp_path):
    template = _cli_template("explosives")
    with pytest.raises(ParseError):
        parse_params("param template.lrnn:0 1.0\n", template.params)
    with pytest.raises(ParseError):
        parse_params("param template.lrnn:0 = oops\n", template.params)
    params = tmp_path / "params.txt"
    for value in ("1_0", "+1", ".5", "5."):  # `float` reads each; the template grammar does not
        params.write_text(f"param template.lrnn:0 = {value}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="malformed decimal"):
            parse_params(params.read_text(encoding="utf-8"), _cli_template("family").params)
        rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
                   "--examples", str(FAMILY / "examples.lrnn"),
                   "--queries", str(FAMILY / "queries.lrnn"), "--params", str(params),
                   "--out", str(tmp_path / "scores.csv")])
        assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_params_non_finite_rejected(tmp_path, value):
    params = tmp_path / "params.txt"
    params.write_text(f"param template.lrnn:0 = {value}\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_params(params.read_text(encoding="utf-8"), _cli_template("family").params)
    rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"),
               "--queries", str(FAMILY / "queries.lrnn"), "--params", str(params),
               "--out", str(tmp_path / "scores.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# predict


def test_predict_scores_and_missing_flag(tmp_path):
    queries = tmp_path / "q.lrnn"
    queries.write_text("#example e1\n1.0 :: mother(bob,alice).\n"
                       "0.0 :: father(bob,alice).\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"),
               "--queries", str(queries), "--family", "godel", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows == [
        ["example_id", "atom", "score", "missing"],
        ["e1", "mother(bob,alice)", "1.0", "false"],
        ["e1", "father(bob,alice)", "0.0", "true"],
    ]


def test_predict_defaults_to_stdout(tmp_path, capsys):
    queries = tmp_path / "q.lrnn"
    queries.write_text("#example e1\n1.0 :: mother(bob,alice).\n", encoding="utf-8")
    rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"),
               "--queries", str(queries), "--family", "godel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "example_id,atom,score,missing"
    assert "mother(bob,alice)" in out


def test_predict_unknown_example_exits_2(tmp_path, capsys):
    queries = tmp_path / "q.lrnn"
    queries.write_text("#example ghost\n1.0 :: mother(bob,alice).\n", encoding="utf-8")
    rc = main(["predict", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"),
               "--queries", str(queries)])
    assert rc == 2
    assert "'ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("train", ["--out-params", "params.txt"]),
    ("predict", []),
    ("xval", ["--folds", "2", "--out", "xval.csv"]),
])
def test_repeated_query_exits_2(tmp_path, capsys, command, extra):
    files = {"template": "? :: q(X) :- e(X).\n",
             "examples": "#example a\n1.0 :: e(x).\n#example b\n1.0 :: e(y).\n",
             "queries": "#example a\n1.0 :: q(x).\n0.0 :: q(x).\n"}
    args = []
    for name, text in files.items():
        (tmp_path / f"{name}.lrnn").write_text(text, encoding="utf-8")
        args += [f"--{name}", str(tmp_path / f"{name}.lrnn")]
    extra = [str(tmp_path / arg) if arg.endswith((".txt", ".csv")) else arg for arg in extra]
    rc = main([command, *args, *extra])
    assert rc == 2
    assert "queries.lrnn:3:1: query q(x) is given twice in example 'a'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.txt")) and not any(tmp_path.glob("*.csv"))


def test_predict_non_finite_score_exits_2(tmp_path, capsys):
    # Finite weights overflow: q(a) = inf under godel, and s(a) = 0.0 * inf = nan.
    files = {"template": "1e300 :: q(X) :- p(X).\n? :: r(X) :- q(X).\n0.0 :: s(X) :- r(X).\n",
             "examples": "#example e1\n1e300 :: p(a).\n",
             "queries": "#example e1\n1.0 :: s(a).\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.lrnn").write_text(text, encoding="utf-8")
    out = tmp_path / "scores.csv"
    rc = main(["predict", "--template", str(tmp_path / "template.lrnn"),
               "--examples", str(tmp_path / "examples.lrnn"),
               "--queries", str(tmp_path / "queries.lrnn"), "--family", "godel",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "e1" in err and "s(a)" in err and "not finite" in err
    assert not out.exists()


# Finite fact weights whose sums overflow: e(x) sums to inf, f(x) to -inf,
# so q's conjunction sums inf + -inf.
_OVERFLOW_TEMPLATE = "0.5 :: q :- e(X), f(X).\n"
_OVERFLOW_EXAMPLES = {
    "overflow": "#example ex1\n1e308 :: e(x).\n1e308 :: e(x).\n",
    "inf_minus_inf": "#example ex1\n1e308 :: e(x).\n1e308 :: e(x).\n"
                     "-1e308 :: f(x).\n-1e308 :: f(x).\n",
}


def _overflow_files(tmp_path, case):
    files = {"template": _OVERFLOW_TEMPLATE, "examples": _OVERFLOW_EXAMPLES[case],
             "queries": "#example ex1\n1.0 :: q.\n1.0 :: e(x).\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.lrnn").write_text(text, encoding="utf-8")
    return [arg for name in files for arg in (f"--{name}", str(tmp_path / f"{name}.lrnn"))]


@pytest.mark.parametrize("family", ["godel", "ms", "as"])
@pytest.mark.parametrize("case, atom", [("overflow", "e(x)"), ("inf_minus_inf", "q")])
def test_predict_overflowing_sum_exits_2(tmp_path, capsys, family, case, atom):
    rc = main(["predict", *_overflow_files(tmp_path, case), "--family", family])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"example ex1: score of {atom} is not finite" in err


@pytest.mark.parametrize("case, rc_want", [("overflow", 2), ("inf_minus_inf", 2)])
def test_train_overflowing_sum_prices_the_cost(tmp_path, capsys, case, rc_want):
    # An infinite or NaN score prices the cost as NaN, as predict rejects
    # it: every restart is skipped.
    rc = main(["train", *_overflow_files(tmp_path, case), "--epochs", "2", "--restarts", "2",
               "--out-params", str(tmp_path / "params.txt")])
    assert rc == rc_want
    assert "all restarts diverged" in capsys.readouterr().err
    assert not (tmp_path / "params.txt").exists()


@pytest.mark.parametrize("name, text", [
    ("template", "1e400 :: female(alice).\n"),
    ("examples", "#example e1\n1e400 :: parent(ann,alice).\n"),
    ("queries", "#example e1\n-1e400 :: mother(bob,alice).\n"),
], ids=["template", "examples", "queries"])
def test_non_finite_number_in_input_exits_2(tmp_path, capsys, name, text):
    files = {n: str(FAMILY / f"{n}.lrnn") for n in ("template", "examples", "queries")}
    files[name] = str(tmp_path / f"{name}.lrnn")
    (tmp_path / f"{name}.lrnn").write_text(text, encoding="utf-8")
    rc = main(["predict", "--template", files["template"], "--examples", files["examples"],
               "--queries", files["queries"], "--out", str(tmp_path / "scores.csv")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_capacity_counts_rule_instances_exits_4(tmp_path, capsys, monkeypatch):
    # 20 nodes, every ordered pair an edge: 400 e + 400 hop2 atoms, 8,000 instances.
    nodes = [f"n{i}" for i in range(20)]
    template = tmp_path / "hop.lrnn"
    template.write_text("1.0 :: hop2(X,Z) :- e(X,Y), e(Y,Z).\n", encoding="utf-8")
    examples = tmp_path / "graph.lrnn"
    examples.write_text("#example g\n" + "".join(f"1.0 :: e({a},{b}).\n"
                                                  for a in nodes for b in nodes),
                        encoding="utf-8")
    monkeypatch.setenv("LRNN_CAPACITY", "900")
    rc = main(["ground", "--template", str(template), "--examples", str(examples),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "model atoms plus rule instances" in capsys.readouterr().err


def test_capacity_counts_join_substitutions_exits_4(tmp_path, capsys, monkeypatch):
    # p(X), q(Y) share no variable: a million substitutions before r(X,Y)
    # keeps one, while the model holds 2,002 atoms and one instance.
    template = tmp_path / "cross.lrnn"
    template.write_text("0.5 :: h :- p(X), q(Y), r(X,Y).\n", encoding="utf-8")
    examples = tmp_path / "facts.lrnn"
    examples.write_text("#example x\n" + "".join(f"1.0 :: {pred}(c{i}).\n" for pred in "pq"
                                                  for i in range(1000))
                        + "1.0 :: r(c0,c1).\n", encoding="utf-8")
    monkeypatch.setenv("LRNN_CAPACITY", "10000")
    rc = main(["ground", "--template", str(template), "--examples", str(examples),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "budget of 10000 substitutions in one join step" in capsys.readouterr().err


def test_capacity_stops_the_last_join_step_early_exits_4(tmp_path, capsys, monkeypatch):
    # h :- p(X), q(Y) matches a million times.  Each match is charged as
    # it is found, so the join stops when the budget runs out, after
    # about 8,000 matches, not after a million.
    template = tmp_path / "cross.lrnn"
    template.write_text("0.5 :: h :- p(X), q(Y).\n", encoding="utf-8")
    examples = tmp_path / "facts.lrnn"
    examples.write_text("#example x\n" + "".join(f"1.0 :: {pred}(c{i}).\n" for pred in "pq"
                                                  for i in range(1000)), encoding="utf-8")
    binds = []
    real_bind = grounding._bind

    def counting_bind(free, row, subst):
        binds.append(1)
        return real_bind(free, row, subst)

    monkeypatch.setattr(grounding, "_bind", counting_bind)
    monkeypatch.setenv("LRNN_CAPACITY", "10000")
    rc = main(["ground", "--template", str(template), "--examples", str(examples),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert ("budget of 10000 model atoms plus rule instances (reached 10001)"
            in capsys.readouterr().err)
    assert len(binds) < 10_000


@pytest.mark.parametrize("command", ["ground", "train"])
def test_capacity_counts_network_neurons_exits_4(tmp_path, capsys, monkeypatch, command):
    # Model atoms plus instances: e(a), p(a) and one instance = 3.  Neurons:
    # the fact, e(a), the rule, its aggregation and p(a) = 5.
    paths = {}
    for name, text in (("template", "? :: p(X) :- e(X).\n"),
                       ("examples", "#example x\n1.0 :: e(a).\n"),
                       ("queries", "#example x\n1.0 :: p(a).\n")):
        paths[name] = tmp_path / f"{name}.lrnn"
        paths[name].write_text(text, encoding="utf-8")
    argv = [command, "--template", str(paths["template"]), "--examples", str(paths["examples"])]
    if command == "train":
        argv += ["--queries", str(paths["queries"]), "--out-params", str(tmp_path / "p.txt"),
                 "--epochs", "2"]
    else:
        argv += ["--out", str(tmp_path / "o")]
    monkeypatch.setenv("LRNN_CAPACITY", "4")
    assert main(argv) == 4
    assert "budget of 4 neurons per network (reached 5)" in capsys.readouterr().err
    monkeypatch.setenv("LRNN_CAPACITY", "5")
    assert main(argv) == 0


def test_predict_matches_library_scores(tmp_path):
    template_path, examples_path, queries_path = _bond_files(tmp_path, 6)
    rc = main(_train_args(tmp_path, template_path, examples_path, queries_path))
    assert rc == 0
    out = tmp_path / "scores.csv"
    rc = main(["predict", "--template", template_path, "--examples", examples_path,
               "--queries", queries_path, "--params", str(tmp_path / "params.txt"),
               "--out", str(out)])
    assert rc == 0

    template = _cli_template("explosives")
    params = parse_params((tmp_path / "params.txt").read_text(encoding="utf-8"),
                          template.params)
    examples, _ = make_bond_dataset(6, seed=0)
    queries = [QueryRow(ex.example_id, Atom("explosive", ()), 0.0) for ex in examples]
    want = CompiledTask(TrainingTask(template, examples, queries, family="ms")).scores(params)
    rows = _read_csv(out)[1:]
    assert len(rows) == 6
    for (example_id, atom, score, missing), (q, expected, was_missing) in zip(rows, want):
        assert example_id == q.example_id
        assert score == repr(expected)
        assert missing == ("true" if was_missing else "false")


def test_predict_never_compacts_a_network(tmp_path, monkeypatch):
    # Only a trained task merges its networks; predict scores each one.
    template_path, examples_path, queries_path = _bond_files(tmp_path, 6)
    assert main(_train_args(tmp_path, template_path, examples_path, queries_path)) == 0
    merged = []
    for module in (training, network):
        monkeypatch.setattr(module, "merge", lambda nets: merged.append(nets))
    rc = main(["predict", "--template", template_path, "--examples", examples_path,
               "--queries", queries_path, "--params", str(tmp_path / "params.txt"),
               "--out", str(tmp_path / "scores.csv")])
    assert (rc, merged) == (0, [])


def test_predict_ground_and_export_dot_never_work_out_a_cone_order(tmp_path, monkeypatch):
    # Cone orders serve `backward`, which only training runs.
    template_path, examples_path, queries_path = _bond_files(tmp_path, 6)
    assert main(_train_args(tmp_path, template_path, examples_path, queries_path)) == 0
    passes = []
    for module in (training, network):
        monkeypatch.setattr(module, "_sweep_orders", lambda *args: passes.append(args))
    inputs = ["--template", template_path, "--examples", examples_path]
    assert main(["predict", *inputs, "--queries", queries_path,
                 "--params", str(tmp_path / "params.txt"),
                 "--out", str(tmp_path / "scores.csv")]) == 0
    assert main(["ground", *inputs, "--out", str(tmp_path / "ground")]) == 0
    assert main(["export-dot", *inputs, "--out", str(tmp_path / "dot")]) == 0
    assert passes == []


# ---------------------------------------------------------------------------
# xval


def test_xval_zero_error_when_query_atom_underivable(tmp_path):
    _, examples_path, _ = _bond_files(tmp_path, 6)
    queries = tmp_path / "q.lrnn"
    examples, _ = make_bond_dataset(6, seed=0)
    queries.write_text("".join(f"#example {ex.example_id}\n0.0 :: nosuch.\n"
                               for ex in examples), encoding="utf-8")
    out = tmp_path / "folds.csv"
    rc = main(["xval", "--template", str(EXPLOSIVES / "template.lrnn"),
               "--examples", examples_path, "--queries", str(queries),
               "--folds", "3", "--epochs", "2", "--lr-grid", "0.5",
               "--restarts-grid", "1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows == [["fold", "error"], ["0", "0.0"], ["1", "0.0"], ["2", "0.0"],
                    ["mean", "0.0"]]


def test_xval_unknown_example_exits_2(tmp_path, capsys):
    template, examples, _ = _bond_files(tmp_path, 4)
    queries = tmp_path / "q.lrnn"
    queries.write_text("#example ghost\n1.0 :: explosive.\n", encoding="utf-8")
    rc = main(["xval", "--template", template, "--examples", examples,
               "--queries", str(queries), "--folds", "2", "--epochs", "1",
               "--out", str(tmp_path / "folds.csv")])
    assert rc == 2
    assert "'ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, name", [
    ("--lr-grid", ",", "lr_grid"),
    ("--restarts-grid", "", "restarts_grid"),
])
def test_xval_empty_grid_exits_2(tmp_path, capsys, option, value, name):
    template, examples, queries = _bond_files(tmp_path, 4)
    rc = main(["xval", "--template", template, "--examples", examples,
               "--queries", queries, "--folds", "2", "--epochs", "1", option, value,
               "--out", str(tmp_path / "folds.csv")])
    assert rc == 2
    assert f"{name} is empty" in capsys.readouterr().err


def test_xval_runs_and_is_deterministic(tmp_path, capsys):
    template, examples, queries = _bond_files(tmp_path, 8)
    runs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = main(["xval", "--template", template, "--examples", examples,
                   "--queries", queries, "--folds", "4", "--epochs", "10",
                   "--lr-grid", "5.0,1.0", "--restarts-grid", "1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    stdout = runs[0][1]
    assert stdout.startswith("mean_error ")
    mean = float(stdout.split()[1])
    assert 0.0 <= mean <= 1.0
    rows = _read_csv(tmp_path / "r1.csv")
    assert rows[0] == ["fold", "error"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "mean"]
    folds = [float(r[1]) for r in rows[1:-1]]
    assert math.isclose(sum(folds) / len(folds), float(rows[-1][1]), abs_tol=1e-15)


def test_make_folds_properties():
    ids = [f"m{i}" for i in range(10)]
    folds = make_folds(ids, 3, seed=0)
    assert sorted(folds) == sorted(ids)
    sizes = sorted(list(folds.values()).count(f) for f in range(3))
    assert sizes == [3, 3, 4]
    assert folds == make_folds(ids, 3, seed=0)
    with pytest.raises(ValueError):
        make_folds(ids, 1, seed=0)
    with pytest.raises(ValueError):
        make_folds(ids[:2], 3, seed=0)


def test_held_out_targets_only_read_for_final_evaluation(tmp_path):
    examples, queries = make_bond_dataset(8, seed=2)
    template = _cli_template("explosives")
    reads = []

    def spy(row, fold, purpose):
        reads.append((row.example_id, fold, purpose))
        return row.target

    k, seed = 4, 3
    crossvalidate(template, examples, queries, k, [1.0], [1], epochs=2,
                  seed=seed, family="ms", target_reader=spy)
    folds = make_folds([ex.example_id for ex in examples], k, seed)
    assert reads
    seen_purposes = {p for _, _, p in reads}
    assert seen_purposes == {"train", "risk", "test"}
    for example_id, fold, purpose in reads:
        if purpose in ("train", "risk"):
            assert folds[example_id] != fold
        else:
            assert folds[example_id] == fold
    tested = {(example_id, fold) for example_id, fold, p in reads if p == "test"}
    assert tested == {(example_id, fold) for example_id, fold in folds.items()}


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_writes_one_file_per_example(tmp_path):
    out = tmp_path / "dots"
    rc = main(["export-dot", "--template", str(FAMILY / "template.lrnn"),
               "--examples", str(FAMILY / "examples.lrnn"), "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["e1.dot"]
    nodes, edges = check_dot((out / "e1.dot").read_text(encoding="utf-8"))
    assert (nodes, edges) == (12, 11)


def test_export_dot_empty_network(tmp_path):
    template = tmp_path / "t.lrnn"
    template.write_text("1.0 :: p(X) :- q(X).\n", encoding="utf-8")
    examples = tmp_path / "e.lrnn"
    examples.write_text("#example empty\n", encoding="utf-8")
    out = tmp_path / "dots"
    rc = main(["export-dot", "--template", str(template), "--examples", str(examples),
               "--out", str(out)])
    assert rc == 0
    nodes, edges = check_dot((out / "empty.dot").read_text(encoding="utf-8"))
    assert (nodes, edges) == (0, 0)


# ---------------------------------------------------------------------------
# unwritable outputs


@pytest.mark.parametrize("command, option, existing_file", [
    ("ground", "--out", True), ("train", "--out-params", False), ("train", "--report", False),
    ("predict", "--out", False), ("xval", "--out", False), ("export-dot", "--out", True),
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, option, existing_file):
    template, examples, queries = _bond_files(tmp_path, 4)
    if existing_file:  # ground and export-dot create missing directories
        path = tmp_path / "taken"
        path.write_text("", encoding="utf-8")
    else:
        path = tmp_path / "missing" / "out"
    args = {"ground": [], "export-dot": [],
            "train": ["--queries", queries, "--epochs", "1", "--restarts", "1",
                      "--out-params", str(tmp_path / "params.txt")],
            "predict": ["--queries", queries],
            "xval": ["--queries", queries, "--folds", "2", "--epochs", "1",
                     "--restarts-grid", "1"]}[command]
    rc = main([command, "--template", template, "--examples", examples, *args,
               option, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(path) in err


@pytest.mark.parametrize("command, option", [
    ("train", "--out-params"), ("train", "--report"), ("predict", "--out"), ("xval", "--out"),
])
@pytest.mark.parametrize("bad", ["missing directory", "directory"])
def test_unwritable_output_is_found_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                    option, bad):
    template, examples, queries = _bond_files(tmp_path, 4)
    ran = []
    for name in ("CompiledTask", "train", "crossvalidate"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    path = tmp_path / "missing" / "out" if bad == "missing directory" else tmp_path
    kept = tmp_path / "kept.txt"  # the other output, which must stay untouched
    kept.write_text("keep\n", encoding="utf-8")
    args = {"train": ["--out-params", str(kept), "--report", str(kept)],
            "predict": [], "xval": ["--folds", "2"]}[command]
    rc = main([command, "--template", template, "--examples", examples, "--queries", queries,
               *args, option, str(path)])
    assert (rc, ran) == (2, [])
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(path) in err
    assert kept.read_text(encoding="utf-8") == "keep\n"
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# argument plumbing


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "ground" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
