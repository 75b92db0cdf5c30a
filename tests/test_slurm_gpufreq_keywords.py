"""Slurm --gpu-freq keywords and CLI report/sedov paths."""

import pytest

from repro.cli import main
from repro.hardware import KernelLaunch
from repro.slurm import (
    GPU_FREQ_KEYWORDS,
    JobSpec,
    SlurmController,
    resolve_gpu_freq_keyword,
)
from repro.systems import Cluster, by_name
from repro.units import to_mhz

CLOCKS = [210.0 + 15.0 * k for k in range(81)]  # A100 bins, ascending


def test_keyword_resolution_semantics():
    assert resolve_gpu_freq_keyword("low", CLOCKS) == 210.0
    assert resolve_gpu_freq_keyword("high", CLOCKS) == 1410.0
    assert resolve_gpu_freq_keyword("highm1", CLOCKS) == 1395.0
    medium = resolve_gpu_freq_keyword("medium", CLOCKS)
    assert CLOCKS[0] < medium < CLOCKS[-1]
    assert resolve_gpu_freq_keyword("HIGH", CLOCKS) == 1410.0  # case-insensitive


def test_keyword_resolution_edge_cases():
    assert resolve_gpu_freq_keyword("highm1", [1000.0]) == 1000.0
    with pytest.raises(ValueError):
        resolve_gpu_freq_keyword("turbo", CLOCKS)
    with pytest.raises(ValueError):
        resolve_gpu_freq_keyword("low", [])


def test_jobspec_rejects_unknown_keyword():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_nodes=1, n_tasks=1, gpu_freq_mhz="turbo")
    # Known keywords and raw numbers are accepted.
    JobSpec(name="x", n_nodes=1, n_tasks=1, gpu_freq_mhz="highm1")
    JobSpec(name="x", n_nodes=1, n_tasks=1, gpu_freq_mhz=1005.0)
    assert set(GPU_FREQ_KEYWORDS) == {"low", "medium", "high", "highm1"}


def test_submit_with_keyword_applies_clock():
    cluster = Cluster(by_name("miniHPC"), 2)
    controller = SlurmController()

    def app(cl, job):
        cl.gpus[0].execute(KernelLaunch("K", 1e11, 0.0, 1.0))
        cl.comm.barrier()
        return None

    try:
        controller.submit(
            JobSpec(name="kw", n_nodes=1, n_tasks=2, gpu_freq_mhz="highm1"),
            cluster,
            app,
        )
        assert to_mhz(cluster.gpus[0].application_clock_hz) == 1395.0
    finally:
        cluster.detach_management_library()


def test_cli_run_sedov_workload(capsys):
    rc = main(
        ["run", "--workload", "sedov", "--steps", "1", "--particles", "1e6"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "workload=SedovBlast" in out
    assert "Gravity" not in out  # sedov is a hydro-only propagator


def test_cli_report_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert main(["run", "--steps", "1", "--particles", "1e6",
                 "--report", path]) == 0
    capsys.readouterr()
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "window time" in out
    assert "GPU energy per function" in out
    assert "CPU energy per function" in out
