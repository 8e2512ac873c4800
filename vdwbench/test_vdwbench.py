"""Tests of the benchmark itself, on tiny copies of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
run.use_checkout_source()
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
NAMES = sorted(workloads.WORKLOADS)
# per-layer self times that belong to set-up, not to the timed phase
SETUP_TIMES = {"generators.build_s", "bonded.detect_topology_s", "composite.resolve_shells_s"}


@pytest.fixture(autouse=True)
def one_setup_per_window(monkeypatch):
    monkeypatch.setattr(run, "SETUP_WINDOWS", ((1, 0.0), (1, 0.0)))


@pytest.fixture(scope="module")
def tiny_refs():
    return {name: workloads.WORKLOADS[name].reference(workloads.TINY) for name in NAMES}


def _measure(name, reference, trace, seconds=0.3):
    return run.measure(name, seed=3, seconds=seconds, trace=trace, size=workloads.TINY,
                       reference=reference)


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_end_to_end_metrics(name, tiny_refs):
    result, report = _measure(name, tiny_refs[name], trace=False)
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v > 0 for v in _values(result).values())
    json.dumps(result)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_per_layer_metrics_whose_self_times_sum_to_wall(name, tiny_refs):
    result, report = _measure(name, tiny_refs[name], trace=True)
    assert result["correct"], report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    m = _values(result)
    selfs = sum(v for k, v in m.items()
                if k.endswith("_s") and not k.startswith("trace.") and k not in SETUP_TIMES)
    assert selfs == pytest.approx(m["trace.unit_s"], rel=0.05)
    assert m["trace.coverage"] > 0.95
    assert m["species.states_for_calls"] == 1
    if name == "pe-mbd-stress":
        assert m["composite.shells_at_cap"] == 1
        assert m["periodic.cell_stress_energy_evals"] == 12


WRONG = {
    "swcnt-mbd": lambda r: {**r, "energy": r["energy"] + 0.01},
    "pe-mbd-stress": lambda r: {**r, "sigma": [[x + 0.01 for x in row] for row in r["sigma"]]},
    "chain-mbd-load": lambda r: {**r, "reaction": [x + 0.01 for x in r["reaction"]]},
    "chain-pw-md": lambda r: {**r, "temperature": 2.0 * r["temperature"]},
}


@pytest.mark.parametrize("name", NAMES)
def test_check_fails_on_wrong_reference(name, tiny_refs):
    # the MD temperature is checked once enough segments have run
    seconds = 1.5 if name == "chain-pw-md" else 0
    result, report = _measure(name, WRONG[name](tiny_refs[name]), trace=False, seconds=seconds)
    assert not result["correct"] and result["failed"] >= 1
    assert report["failed_frac"] == result["failed"] / result["attempted"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain-pw-md", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
