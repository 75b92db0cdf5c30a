"""Shipped systems and cluster assembly/topology."""

import pytest

from repro import nvml, rocm
from repro.systems import Cluster, all_system_names, by_name
from repro.units import to_mhz


def test_presets_match_table1():
    lumi = by_name("LUMI-G")
    assert lumi.ranks_per_node == 8
    assert lumi.gpu_spec.vendor == "amd"
    assert lumi.has_pm_counters
    assert not lumi.allow_user_freq_control

    cscs = by_name("CSCS-A100")
    assert cscs.ranks_per_node == 4
    assert to_mhz(cscs.gpu_spec.max_clock_hz) == 1410.0
    assert cscs.has_pm_counters

    mini = by_name("miniHPC")
    assert mini.ranks_per_node == 2
    assert mini.allow_user_freq_control
    assert not mini.has_pm_counters


def test_by_name_lookup():
    assert by_name("LUMI-G").name == "LUMI-G"
    # The three Table-I systems plus the future-work Intel system.
    assert {"CSCS-A100", "LUMI-G", "miniHPC"} <= set(all_system_names())
    assert "Aurora-PVC" in all_system_names()
    with pytest.raises(ValueError):
        by_name("Frontier")


def test_cluster_builds_whole_nodes():
    cluster = Cluster(by_name("CSCS-A100"), 8)
    try:
        assert cluster.n_nodes == 2
        assert len(cluster.gpus) == 8
        assert cluster.node_of_rank == [0, 0, 0, 0, 1, 1, 1, 1]
        assert cluster.local_rank(5) == 1
        assert cluster.ranks_on_node(1) == [4, 5, 6, 7]
        assert len(cluster.pm_counters) == 2  # HPE/Cray system
    finally:
        cluster.detach_management_library()


def test_cluster_partial_node_allowed_when_smaller():
    cluster = Cluster(by_name("CSCS-A100"), 2)
    try:
        assert cluster.n_nodes == 1
        assert len(cluster.gpus) == 2
    finally:
        cluster.detach_management_library()


def test_lumi_card_mapping():
    cluster = Cluster(by_name("LUMI-G"), 8)
    try:
        # 8 GCDs on one node = 4 cards; ranks 0,1 share card 0.
        assert cluster.card_of_rank(0) == 0
        assert cluster.card_of_rank(1) == 0
        assert cluster.card_of_rank(2) == 1
        assert cluster.card_of_rank(7) == 3
    finally:
        cluster.detach_management_library()


def test_nvidia_cluster_attaches_nvml():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        assert nvml.nvmlDeviceGetCount() == 4
        # Restricted centre: users cannot set clocks through NVML.
        h = nvml.nvmlDeviceGetHandleByIndex(0)
        with pytest.raises(nvml.NVMLError):
            nvml.nvmlDeviceSetApplicationsClocks(h, 1593, 1005)
    finally:
        cluster.detach_management_library()


def test_amd_cluster_attaches_rocm():
    cluster = Cluster(by_name("LUMI-G"), 8)
    try:
        assert rocm.rsmi_num_monitor_devices() == 8
    finally:
        cluster.detach_management_library()


def test_apply_and_reset_gpu_frequency():
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        cluster.apply_gpu_frequency_mhz(1005.0)
        assert all(
            to_mhz(g.application_clock_hz) == 1005.0 for g in cluster.gpus
        )
        cluster.reset_gpu_frequency()
        assert all(g.dvfs_active for g in cluster.gpus)
    finally:
        cluster.detach_management_library()


def test_energy_helpers():
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        for clock in cluster.clocks:
            clock.advance(1.0)
        assert cluster.total_node_energy_j() > 0
        assert cluster.total_gpu_energy_j() > 0
        breakdown = cluster.device_energy_breakdown_j()
        assert breakdown["GPU"] == pytest.approx(
            cluster.total_gpu_energy_j()
        )
        assert cluster.elapsed_s() == pytest.approx(1.0)
    finally:
        cluster.detach_management_library()


def test_invalid_rank_count_rejected():
    with pytest.raises(ValueError):
        Cluster(by_name("CSCS-A100"), 0)
