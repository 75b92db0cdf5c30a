"""Command-line interface."""

import json

import pytest

from repro.cli import main


def test_systems_lists_catalog(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    assert "LUMI-G" in out and "CSCS-A100" in out and "miniHPC" in out
    assert "pm_counters" in out


def test_run_baseline(capsys):
    rc = main(
        ["run", "--steps", "2", "--particles", "1e7", "--policy", "baseline"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "time-to-solution" in out
    assert "GPU energy per function" in out
    assert "MomentumEnergy" in out


def test_run_mandyn_with_freq_map(capsys):
    freq_map = json.dumps({"MomentumEnergy": 1410.0, "XMass": 1005.0})
    rc = main(
        [
            "run", "--steps", "2", "--particles", "1e7",
            "--policy", "mandyn", "--freq", "1110",
            "--freq-map", freq_map,
        ]
    )
    assert rc == 0
    assert "policy=ManDyn" in capsys.readouterr().out


def test_run_static_requires_freq():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "static", "--steps", "1"])


def test_run_unknown_policy_and_workload(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--policy", "chaotic"])
    with pytest.raises(SystemExit):
        main(["run", "--workload", "sedov-not-a-workload"])
    capsys.readouterr()
    # The removed rank-execution flag is an argparse usage error.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--comm-backend", "process"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --comm-backend" in capsys.readouterr().err


def test_run_writes_report(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    rc = main(
        ["run", "--steps", "1", "--particles", "1e6", "--report", path]
    )
    assert rc == 0
    from repro.core import EnergyReport

    report = EnergyReport.load(path)
    assert report.total_j() > 0


def test_run_evrard_on_lumi(capsys):
    rc = main(
        [
            "run", "--system", "LUMI-G", "--workload", "evrard",
            "--ranks", "8", "--steps", "1", "--particles", "1e6",
        ]
    )
    assert rc == 0
    assert "Gravity" in capsys.readouterr().out


def test_tune_prints_map(capsys):
    rc = main(
        [
            "tune", "--particles", "91125000", "--stride", "9",
            "--iterations", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "MomentumEnergy" in out
    # The JSON map line is machine-readable.
    json_line = [l for l in out.splitlines() if l.startswith("{")][0]
    mapping = json.loads(json_line)
    assert mapping["MomentumEnergy"] >= mapping["XMass"]


def test_tune_on_amd_system(capsys):
    rc = main(
        [
            "tune", "--system", "LUMI-G", "--particles", "1e7",
            "--min-freq", "1200", "--stride", "4", "--iterations", "1",
        ]
    )
    assert rc == 0
    assert "LUMI-G" in capsys.readouterr().out


def test_compare_table(capsys):
    rc = main(
        ["compare", "--steps", "2", "--particles", "2e7", "--freq", "1110"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "static 1110" in out
    assert "mandyn" in out


def test_version_flag_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro ")
    assert out.strip() != "repro"  # an actual version string follows


def test_help_lists_trace_and_version():
    from repro.cli import build_parser

    text = build_parser().format_help()
    assert "--version" in text
    assert "trace" in text


def test_trace_record_writes_chrome_and_jsonl(tmp_path, capsys):
    chrome = str(tmp_path / "trace.json")
    jsonl = str(tmp_path / "trace.jsonl")
    rc = main(
        [
            "trace", "record", "--workload", "sedov", "--steps", "4",
            "--particles", "1e6", "--export", chrome, "--jsonl", jsonl,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "trace events" in out
    drift_line = [
        l for l in out.splitlines() if "max trace-vs-report drift" in l
    ][0]
    assert float(drift_line.split(":")[1].split("s")[0]) < 1e-6
    with open(chrome, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["otherData"]["schema"] == 1
    assert any(e["ph"] == "X" for e in payload["traceEvents"])
    from repro.telemetry import read_trace_jsonl

    assert len(read_trace_jsonl(jsonl)) > 0


def test_trace_summary_mandyn_counts_clock_sets(capsys):
    rc = main(
        [
            "trace", "summary", "--workload", "sedov", "--steps", "2",
            "--particles", "1e6", "--policy", "mandyn",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy=ManDyn" in out
    counts_line = [
        l for l in out.splitlines() if "clock_set_calls (total)" in l
    ][0]
    assert float(counts_line.split()[-1]) > 0
    assert "trace vs EnergyReport reconciliation" in out


def test_trace_export_rerenders_jsonl(tmp_path, capsys):
    jsonl = str(tmp_path / "trace.jsonl")
    chrome = str(tmp_path / "rendered.json")
    assert main(
        [
            "trace", "record", "--workload", "sedov", "--steps", "1",
            "--particles", "1e6", "--jsonl", jsonl,
        ]
    ) == 0
    assert main(["trace", "export", jsonl, chrome]) == 0
    assert "re-rendered" in capsys.readouterr().out
    with open(chrome, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_sacct_reports_energy(capsys):
    rc = main(
        [
            "sacct", "--system", "CSCS-A100", "--ranks", "4",
            "--steps", "2", "--particles", "1e7",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ConsumedEnergy" in out
    assert "COMPLETED" in out
    assert "instrumented (PMT) window" in out


def test_faults_list_shows_scenarios(capsys):
    assert main(["faults", "list"]) == 0
    out = capsys.readouterr().out
    assert "fault scenarios" in out
    assert "gpu-lost" in out
    assert "flaky-clocks" in out
    assert "preempt-mid-run" in out
    assert "chaos" in out


def test_faults_run_gpu_lost_degrades_and_reports(tmp_path, capsys):
    path = str(tmp_path / "degraded.json")
    rc = main(
        [
            "faults", "run", "--scenario", "gpu-lost",
            "--ranks", "2", "--steps", "3", "--particles", "1e5",
            "--seed", "20240", "--report", path,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "steps completed  : 3/3" in out
    assert "degraded ranks   : 0" in out
    assert "gpu-is-lost" in out
    assert "rank 0 DEGRADED" in out
    from repro.core import EnergyReport

    assert EnergyReport.load(path).degraded_ranks() == [0]


def test_faults_run_preemption_scenario(capsys):
    rc = main(
        [
            "faults", "run", "--scenario", "preempt-mid-run",
            "--steps", "6", "--particles", "1e5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "(preempted)" in out
    assert "steps completed  : 3/6" in out


def test_faults_run_power_dropout_reports_sampler_gaps(capsys):
    rc = main(
        [
            "faults", "run", "--scenario", "power-dropout",
            "--steps", "4", "--particles", "1e5", "--seed", "7",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "power sampling" in out


def test_faults_run_unknown_scenario_fails_loud():
    with pytest.raises(ValueError, match="gpu-lost"):
        main(["faults", "run", "--scenario", "not-a-scenario"])


def test_help_lists_faults():
    with pytest.raises(SystemExit):
        main(["--help"])


# ---------------------------------------------------------------------------
# catalog: systems listings and calibrate
# ---------------------------------------------------------------------------


def test_systems_json_is_machine_readable(capsys):
    assert main(["systems", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["kind"] == "system-catalog"
    by_name = {s["name"]: s for s in doc["systems"]}
    assert "H100-SXM" in by_name
    entry = by_name["miniHPC"]
    assert entry["vendor"] == "nvidia"
    assert entry["clock_mhz"] == [210.0, 1410.0]
    assert entry["source"].endswith("minihpc.json")
    assert entry["schema"] == 1


def test_systems_validate_checks_shipped_catalog(capsys):
    assert main(["systems", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "OK miniHPC" in out
    assert "spec(s) valid" in out


def test_calibrate_sweep_and_fit(tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    assert main(["calibrate", "sweep", "--system", "miniHPC",
                 "--out-dir", out_dir]) == 0
    capsys.readouterr()
    trace = f"{out_dir}/calibration.trace.jsonl"
    spec_out = str(tmp_path / "refit.yaml")
    assert main(["calibrate", "fit", "--trace", trace, "--json",
                 "--out", spec_out, "--base-system", "miniHPC",
                 "--name", "minihpc-refit"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[:out.index("spec written")])
    assert doc["kind"] == "calibration-fit"
    assert abs(doc["idle_power_w"] - 45.0) < 1.0
    from repro.catalog import load_system

    assert load_system(spec_out).name == "minihpc-refit"


def test_calibrate_smoke_passes(capsys):
    assert main(["calibrate", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "calibration smoke passed" in out
    assert "FAIL" not in out


def test_calibrate_without_subcommand_fails_loud():
    with pytest.raises(SystemExit, match="sweep | fit"):
        main(["calibrate"])
