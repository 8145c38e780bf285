"""Mutation audit: the tests run against one small change of `src/lrnn` at a time.

    [TMPDIR=DIR] python tools/mutation_audit.py [module.py ...]  # default: every module

A mutant swaps `+`/`-`, `*`/`/`, `and`/`or` or a comparison with its neighbour, drops a
`not`, flips a boolean or adds one to a number.  It runs `pytest -x`, but for the slow
acceptance gate and benchmark contract, in a copy of the checkout and a session of its own
(one that kills its process group ends only its run); it survives when the tests pass.
"""

import ast
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {a: b for pair in [(ast.Add, ast.Sub), (ast.Mult, ast.Div), (ast.And, ast.Or),
                          (ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq),
                          (ast.Is, ast.IsNot), (ast.In, ast.NotIn)] for a, b in (pair, pair[::-1])}
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--ignore=tests/test_acceptance.py", "--ignore=tests/test_benchmark_contract.py"]


def mutants(node) -> list:
    """Each mutated copy of one node."""
    if isinstance(node, ast.Compare):
        return [ast.Compare(node.left, [*node.ops[:i], SWAP[type(op)](), *node.ops[i + 1:]],
                            node.comparators) for i, op in enumerate(node.ops) if type(op) in SWAP]
    if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAP:
        return [type(node)(**{**vars(node), "op": SWAP[type(node.op)]()})]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [node.operand]
    if isinstance(node, ast.Constant) and type(node.value) in (bool, int, float):
        return [ast.Constant(not node.value if type(node.value) is bool else node.value + 1)]
    return []


def mutated(text: str):
    """Yield (description, source) for each mutant of a module's text."""
    tree = ast.parse(text)
    for fields, key, node, new in [
            (value if isinstance(value, list) else vars(parent), key, node, new)
            for parent in ast.walk(tree) for field, value in ast.iter_fields(parent)
            for key, node in (enumerate(value) if isinstance(value, list) else [(field, value)])
            if isinstance(node, ast.AST) for new in mutants(node)]:
        fields[key] = new
        desc = f"{node.lineno}: {ast.unparse(node)[:60]} -> {ast.unparse(new)[:60]}"
        yield desc, ast.unparse(tree)
        fields[key] = node


def run(work: Path, sources: dict) -> str:
    """The tests' outcome in the copy `work`, its modules replaced by `sources` meanwhile."""
    for rel, source in sources.items():
        (work / rel).write_text(source, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with open(work.parent / "pytest.log", "wb") as out:
        proc = subprocess.Popen(PYTEST, cwd=work, env=env, start_new_session=True, stdout=out,
                                stderr=subprocess.STDOUT)
    try:
        proc.wait(timeout=300)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # and whatever the run forked
        proc.wait()
        for rel in sources:
            shutil.copyfile(ROOT / rel, work / rel)
    # A pass prints pytest's summary; a mutant may end the run early with os._exit(0).
    last = (Path(out.name).read_bytes().splitlines() or [b""])[-1]
    return "survived" if proc.returncode == 0 and b" passed" in last else "killed"


def main():
    names = sys.argv[1:] or sorted(p.name for p in (ROOT / "src/lrnn").glob("*.py"))
    texts = {Path("src/lrnn", name): (ROOT / "src/lrnn" / name).read_text(encoding="utf-8")
             for name in names}
    work = Path(tempfile.mkdtemp(prefix="mutation-audit-"), "checkout")
    shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
    if run(work, {rel: ast.unparse(ast.parse(t)) for rel, t in texts.items()}) != "survived":
        sys.exit("the tests fail on the unmutated modules as ast.unparse writes every mutant")
    lines = []
    for rel, text in texts.items():
        for desc, source in mutated(text):
            lines.append(f"{rel}:{desc}: {run(work, {rel: source})}")
            print(lines[-1], flush=True)
    shutil.rmtree(work.parent)
    survivors = [line for line in lines if line.endswith(": survived")]
    print(f"\n{len(lines)} mutants, {len(survivors)} survived:", *survivors, sep="\n")


if __name__ == "__main__":
    main()
