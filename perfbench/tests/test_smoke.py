"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402
from perfbench import model_campaign, numeric_sedov, service_mixed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """Run the benchmark the way its command line names it, from ``cwd``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=str(cwd))
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, 11, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_other_seed_changes_inputs_not_metric_names(tmp_path):
    a = numeric_sedov.setup(1, "tiny", tmp_path / "a")
    b = numeric_sedov.setup(2, "tiny", tmp_path / "b")
    assert a.problem.particles.x.tobytes() != b.problem.particles.x.tobytes()
    for inputs in (a, b):
        numeric_sedov.cleanup(inputs)
    keys = [
        [u.key for u in model_campaign.setup(s, "tiny", tmp_path / f"m{s}").units]
        for s in (1, 2)
    ]
    assert keys[0] != keys[1]
    assert (service_mixed.make_schedule(1, "tiny", 10)
            != service_mixed.make_schedule(2, "tiny", 10))
    names = [
        list(result_of(run_bench("numeric-sedov", seed, 0))["metrics"])
        for seed in (1, 2)
    ]
    assert names[0] == names[1]


def test_corrupted_numeric_output_fails_the_check(tmp_path):
    inputs = numeric_sedov.setup(11, "tiny", tmp_path)
    numeric_sedov.warmup(inputs)
    outcome = numeric_sedov.run_ops(inputs, 1)
    assert numeric_sedov.check(inputs, outcome) == []
    run = outcome.runs[0]
    run.momentum[0] += 1e-6
    run.gpu_energy_j *= 1.0 + 1e-15
    problems = numeric_sedov.check(inputs, outcome)
    assert any("momentum" in p for p in problems)
    assert any("pinned" in p for p in problems)
    numeric_sedov.cleanup(inputs)


def test_unpinned_seed_is_checked_against_the_pinned_reference(tmp_path):
    inputs = numeric_sedov.setup(5, "tiny", tmp_path)
    outcome = numeric_sedov.run_ops(inputs, 1)
    assert any("reference" in p for p in numeric_sedov.check(inputs, outcome))
    numeric_sedov.warmup(inputs)
    assert numeric_sedov.check(inputs, outcome) == []
    inputs.reference.digest = "0" * 64
    problems = numeric_sedov.check(inputs, outcome)
    assert problems and all("reference" in p for p in problems)
    numeric_sedov.cleanup(inputs)


def _corrupt_artifact(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["result"]["metrics"]["gpu_energy_j"] += 1.0
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def test_corrupted_campaign_artifact_fails_the_check(tmp_path):
    from repro.campaign import RunStore

    inputs = model_campaign.setup(11, "tiny", tmp_path)
    outcome = model_campaign.run_ops(inputs, 1)
    assert model_campaign.check(inputs, outcome) == []
    store = RunStore(str(outcome.drains[-1].root))
    _corrupt_artifact(store.run_path(inputs.units[0].key))
    assert model_campaign.check(inputs, outcome)
    model_campaign.cleanup(inputs)


def test_corrupted_service_report_and_artifact_fail_the_check(tmp_path):
    inputs = service_mixed.setup(11, "tiny", tmp_path)
    try:
        outcome = service_mixed.run_pass(inputs, 4)
        assert service_mixed.check(inputs, outcome) == []
        cid = next(iter(outcome.reports))
        outcome.reports[cid]["groups"][0]["rows"][0]["gpu_energy_j"] += 1.0
        assert any("report" in p for p in service_mixed.check(inputs, outcome))
        job = outcome.service.job(cid)
        _corrupt_artifact(job.store.run_path(job.grid_keys[0]))
        assert any("artifact" in p
                   for p in service_mixed.check(inputs, outcome))
    finally:
        service_mixed.cleanup(inputs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("numeric-sedov", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_what_run_prints():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert ([m["name"] for m in BENCHMARK["per_layer"]]
            == run.layer_metric_names())
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
