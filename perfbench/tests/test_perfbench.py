"""Tests of the benchmark harness; they are not part of the tier-1 suite.

    python -m pytest perfbench/tests

Each runs the harness on one small seed for a single pass.
"""

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = "7"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit_and_no_operation_fails(workload):
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", SEED, "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in [*expected.items(), ("uncertified_frac", "ratio"), ("failed_frac", "ratio")]:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", table, re.M), name
    assert re.search(r"^\s+failed_frac\s+0\.0000\s", table, re.M)


def _library_functions():
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "chanleak" or name.startswith("chanleak.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_reports_every_layer_and_leaves_the_library_unwrapped():
    import harness

    before = _library_functions()
    out = io.StringIO()
    result = harness.run_workload("cli-battery", int(SEED), 0, trace=True, out=out)
    after = _library_functions()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert result["failed"] == 0, out.getvalue()
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in ("core.calls", "kernel.evals", "optim.calls", "concave.calls", "closed.calls",
                 "capacity.calls", "oracle.calls", "cli.self_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "closed-large", "--seed", SEED, "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_search_value_may_sit_below_its_reference_only_by_its_stated_gap():
    import workloads

    bracket = (2.0, 2.0 + 1e-9)
    assert not workloads._value_outcome(1.98, bracket, workloads.CONCAVE_TOL, gap=0.03).failed
    assert workloads._value_outcome(1.98, bracket, workloads.CONCAVE_TOL, gap=0.01).failed
    assert workloads._value_outcome(1.98, bracket, workloads.CONCAVE_TOL).failed
    assert workloads._value_outcome(2.02, bracket, workloads.CONCAVE_TOL, gap=0.03).failed
    warning = "warning: search gap 3.182e-02 exceeds the tolerance; the printed value may sit below the supremum"
    assert float(workloads.GAP_WARNING.search(warning).group(1)) == 3.182e-02
    cell = "warning: grid point (inf, 2) did not certify convergence"
    assert workloads.CELL_WARNING.findall(cell) == [("inf", "2")]
