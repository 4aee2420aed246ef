"""Tests of the benchmark itself: python3 -m pytest schurbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from schurhopf import _lrkernel_py, char_rings, lr, verify  # noqa: E402
from schurhopf.partition import Partition  # noqa: E402

SEEDED = ("lr_cold", "classical_cold", "evaluate")


def _measure(workload, passes=1):
    m = run.Measurement(workload, workloads.clear_caches)
    for _ in range(passes):
        m.run_pass()
    return m


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_gives_same_inputs(name):
    a = workloads.build(name, 7)
    assert a.digest() == workloads.build(name, 7).digest()
    assert a.digest() != workloads.build(name, 8).digest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_passes_its_checks(name):
    m = _measure(workloads.build(name, 3, smoke=True), passes=2)
    assert m.attempted == 2 * len(m.reference) > 0
    assert m.failed == 0


def _corrupt(output):
    if isinstance(output, verify.CheckResult):
        return verify.CheckResult(output.name, False, "corrupted")
    if isinstance(output, dict):
        return {**output, (99,): 1}
    if isinstance(output, Fraction):
        return output + 1
    if isinstance(output, char_rings.CharElement):
        return output + char_rings.CharElement.basis_element(output.basis, ())
    raise TypeError(type(output))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("bad_pass", [0, 1])
def test_corrupted_output_is_counted(name, bad_pass):
    workload = workloads.build(name, 3, smoke=True)
    real = workload.run_pass
    calls = []

    def corrupted(clear):
        outputs, latencies = real(clear)
        if len(calls) == bad_pass:
            outputs[0] = _corrupt(outputs[0])
        calls.append(1)
        return outputs, latencies

    workload.run_pass = corrupted
    m = _measure(workload, passes=2)
    # a bad reference pass fails every later pass of that op too
    assert m.failed == (2 if bad_pass == 0 else 1)


def test_kernel_bug_is_caught(monkeypatch):
    real = _lrkernel_py.expand_product

    def off_by_one(lam, mu):
        table = real(lam, mu)
        if len(table) > 1:
            key = max(table)
            table[key] += 1
        return table

    monkeypatch.setattr(_lrkernel_py, "expand_product", off_by_one)
    m = _measure(workloads.build("lr_cold", 3, smoke=True))
    assert m.failed > 0


def test_tracer_accounts_and_restores():
    before = {name: obj for name, obj in vars(lr).items()}
    suites = dict(verify.SUITES)
    new = Partition.__dict__["__new__"]
    tracer = tracing.Tracer()
    workload = workloads.build("classical_cold", 3, smoke=True)
    m = run.Measurement(workload, workloads.clear_caches)
    m.run_pass()
    wall, _ = m.run_pass(tracer)
    snap = tracer.snapshot()
    assert tracing.accounting_errors(snap, wall) == []
    assert snap["lrkernel.calls"] > 0 and snap["char_rings.calls"] > 0
    assert snap["partition.constructions"] > 0
    assert m.failed == 0
    assert all(vars(lr)[name] is obj for name, obj in before.items())
    assert verify.SUITES == suites
    assert Partition.__dict__["__new__"] is new


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_all_workloads(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in run.WORKLOAD_NAMES for m in names}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "lr_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
