"""Tests of the benchmark itself, in quick mode (one small op per workload).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--quick", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    result = result_of(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_tree(dest, with_program):
    """A checkout holding the benchmark, and the program when asked."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest / HERE.name / "run.py"


def test_corrupted_pin_shows_as_error_rate(tmp_path):
    script = copy_tree(tmp_path, with_program=True)
    pins_path = script.parent / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    for ops in pins.values():
        if isinstance(ops, dict):
            for op_id in ops:
                ops[op_id] = "0" * 64
    pins_path.write_text(json.dumps(pins), encoding="utf-8")
    code, lines = bench("--workload", "chain-narrow", "--trace", "0", script=script)
    assert code == 0
    result = result_of(lines)
    assert result["failed"] > 0 and not result["correct"]
    error_rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(error_rate.split()[1]) > 0


@pytest.mark.parametrize("workload", ["chain-narrow", "checks"])
def test_layer_self_times_fit_in_the_traced_pass(workload):
    code, lines = bench("--workload", workload, "--trace", "1")
    assert code == 0
    metrics = result_of(lines)["metrics"]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.pass_s"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    script = copy_tree(tmp_path, with_program=False)
    code, lines = bench("--workload", "checks", "--trace", "0", script=script)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(19)]) == (100.0, 18.0)
    percentile, value = run.tail([float(x) for x in range(40)])
    assert (percentile, value) == (75.0, 29.0)
    assert sum(1 for x in range(40) if x > value) == 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_reproducible_op_is_pinned_at_the_default_seed(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    ops = workloads.build(workload, workloads.DEFAULT_SEED, pins).ops
    # spectra are not bitwise reproducible and are checked against closed forms
    unpinned = [op.op_id for op in ops if op.pin is None and not op.op_id.startswith("spectra")]
    assert unpinned == []
    assert set(pins[workload]) == {op.op_id for op in ops if op.pin is not None}
