"""The benchmark's result line: what `perfbench/run.py` promises its reader.

Each run goes on a copy of the checkout, so the runs' `.perfbench/`
outputs stay out of the source tree.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_traced_run_finds_every_function_it_measures():
    # The traced run looks the library's functions up by name; one that is
    # gone leaves its per-layer metrics out of the result line.
    import lrnn.cli  # noqa: F401  (the traced run reads crossvalidate from it)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer().unmeasured() == [], "per-layer metrics the traced run cannot measure"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_reports_every_declared_metric(checkout, workload, trace):
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
