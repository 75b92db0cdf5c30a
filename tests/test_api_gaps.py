"""Coverage for API corners not exercised elsewhere."""

import numpy as np
import pytest

from repro import nvml
from repro.core import Metrics, device_breakdown_mj
from repro.core.energy import EnergyReport, FunctionEnergyRecord, RankEnergyReport
from repro.hardware import (
    KernelRecord,
    SimulatedGpu,
    VirtualClock,
    merge_kernel_records,
)
from repro.mpi import CommStats, SimComm
from repro.slurm import JobSetupModel
from repro.sph import hydro_gravity_propagator
from repro.sph.cornerstone import Box, assign_particles
from repro.sph.init import lattice_positions
from repro.systems import by_name


def test_assign_particles_convenience():
    rng = np.random.default_rng(1)
    x, y, z = rng.uniform(0, 1, size=(3, 400))
    keys, order, assignment, ranks = assign_particles(
        x, y, z, Box.cube(0.0, 1.0), n_ranks=4
    )
    assert len(keys) == 400
    assert np.array_equal(np.sort(keys), keys[order])
    counts = np.bincount(ranks, minlength=4)
    assert counts.sum() == 400
    assert counts.min() > 0


def test_merge_kernel_records_accumulates():
    a = {"K": KernelRecord("K", launches=1, busy_seconds=1.0,
                           energy_joules=10.0, flops=100.0, bytes_moved=5.0)}
    b = {"K": KernelRecord("K", launches=2, busy_seconds=2.0,
                           energy_joules=20.0, flops=200.0, bytes_moved=10.0),
         "L": KernelRecord("L", launches=1)}
    merge_kernel_records(a, b)
    assert a["K"].launches == 3
    assert a["K"].energy_joules == 30.0
    assert "L" in a and a["L"].launches == 1
    with pytest.raises(ValueError):
        a["K"].merge(a["L"])


def test_device_breakdown_mj():
    rec = FunctionEnergyRecord(function="F")
    rec.device_j = {"GPU": 2.0e6, "CPU": 5.0e5, "Memory": 0.0, "Other": 5.0e5}
    report = EnergyReport(
        ranks=[RankEnergyReport(rank=0, records={"F": rec},
                                window_start_s=0.0, window_end_s=1.0)]
    )
    mj = device_breakdown_mj(report)
    assert mj["GPU"] == pytest.approx(2.0)
    assert mj["CPU"] == pytest.approx(0.5)


def test_nvml_version_strings():
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, VirtualClock())
    nvml.attach_devices([gpu])
    nvml.nvmlInit()
    assert "sim" in nvml.nvmlSystemGetDriverVersion()
    assert "sim" in nvml.nvmlSystemGetNVMLVersion()


def test_job_setup_model_scales_with_nodes():
    model = JobSetupModel()
    assert model.setup_s(8) > model.setup_s(1)
    assert model.setup_s(1) == pytest.approx(
        model.scheduling_s + model.launch_base_s + model.launch_per_node_s
    )


def test_comm_stats_note():
    stats = CommStats()
    stats.note("allreduce", 100.0, 0.5, 0.01)
    stats.note("allreduce", 50.0, 0.1, 0.01)
    assert stats.calls["allreduce"] == 2
    assert stats.bytes_moved == 150.0
    assert stats.sync_wait_s == pytest.approx(0.6)


def test_normalized_metrics_str():
    norm = Metrics(2.0, 50.0).normalized_to(Metrics(1.0, 100.0))
    text = str(norm)
    assert "time" in text and "EDP" in text


def test_hydro_gravity_propagator_order():
    names = [f.name for f in hydro_gravity_propagator()]
    assert names.index("Gravity") == names.index("MomentumEnergy") - 1
    assert names[0] == "DomainDecompAndSync"
    assert names[-1] == "UpdateQuantities"


def test_lattice_positions_deterministic_and_in_box():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    a = lattice_positions(6, 2.0, 0.2, rng1)
    b = lattice_positions(6, 2.0, 0.2, rng2)
    assert np.array_equal(a, b)
    assert a.shape == (216, 3)
    assert np.all((0 <= a) & (a < 2.0))


def test_sendrecv_stats_and_alltoall_payloads():
    clocks = [VirtualClock() for _ in range(3)]
    comm = SimComm(clocks)
    comm.sendrecv(0, 2, 1e6)
    assert comm.stats.calls["sendrecv"] == 1
    out = comm.alltoall([[b"x" * 10] * 3 for _ in range(3)])
    assert len(out) == 3 and len(out[0]) == 3
