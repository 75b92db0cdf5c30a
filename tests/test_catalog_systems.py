"""Catalog loader and resolver: pinned system digests, stable run keys.

The contract that matters most here is *byte stability*: a change to a
shipped spec or to the loader must not move a single built system or
content-addressed run key, or every previously stored campaign unit
would be orphaned. The pinned hashes below must never change.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.catalog import (
    available_entries,
    build_system,
    is_path_ref,
    known_system_names,
    load_payload,
    load_system,
    resolve_system,
    spec_payload_from_system,
    validate_shipped_catalog,
    write_spec_file,
)
from repro.systems import all_system_names, by_name

#: Table I plus Aurora-PVC (the paper's §V future work).
PAPER_NAMES = ("LUMI-G", "CSCS-A100", "miniHPC", "Aurora-PVC")
CATALOG_ONLY_NAMES = ("H100-SXM", "GH200-Superchip")

#: First 16 hex digits of the SHA-256 of each built system's repr.
PINNED_SYSTEM_DIGESTS = {
    "Aurora-PVC": "5286d9a935345ec8",
    "CSCS-A100": "c21c32c8c58ce0b3",
    "GH200-Superchip": "cad93ef74b214ea0",
    "H100-SXM": "ca7327bd98ff5380",
    "LUMI-G": "245439ce6a657f8b",
    "miniHPC": "073abdf899f42a50",
}

#: Run keys of a fixed two-unit campaign per system, pinned forever.
PINNED_RUN_KEYS = {
    "LUMI-G": ("5fc30f57b8ee4950", "10c54cdee7edb74e"),
    "CSCS-A100": ("a1c680564c3f315f", "e03966e12acef0e4"),
    "miniHPC": ("e1cd6f7560c70e92", "5b7c60f3f937ad76"),
    "Aurora-PVC": ("9cde70d2379b147a", "f0777e0c4aa56965"),
    "H100-SXM": ("1a7e99b9a9a12bf7", "90517669b8408785"),
    "GH200-Superchip": ("8733b46b66b79261", "49c5c672862de937"),
}


def _stability_spec(system):
    return CampaignSpec(
        name="catalog-stability",
        workloads=("sedov",),
        policies=({"kind": "baseline"}, {"kind": "static"}),
        clocks_mhz=(1005.0,),
        systems=(system,),
        particles=(30_000.0,),
        steps=2,
        seeds=(0,),
    )


# ---------------------------------------------------------------------------
# pinned system digests
# ---------------------------------------------------------------------------


def _system_digest(s):
    fields = (s.name, s.gpu_spec, s.cpu_spec, s.node_power, s.ranks_per_node,
              s.pmt_backend, s.slurm_energy_plugin, s.allow_user_freq_control,
              s.comm_model)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED_SYSTEM_DIGESTS))
def test_shipped_system_digest_is_pinned(name):
    assert _system_digest(by_name(name)) == PINNED_SYSTEM_DIGESTS[name]


def test_shipped_catalog_validates_and_constructs():
    entries = validate_shipped_catalog()
    names = {e.name for e in entries}
    assert set(PAPER_NAMES) <= names
    assert set(CATALOG_ONLY_NAMES) <= names


@pytest.mark.parametrize("name", PAPER_NAMES + CATALOG_ONLY_NAMES)
def test_spec_payload_round_trips(name, tmp_path):
    system = by_name(name)
    payload = spec_payload_from_system(system)
    rebuilt = build_system(payload, source=f"<{name}>")
    assert rebuilt.gpu_spec == system.gpu_spec
    path = str(tmp_path / "spec.yaml")
    write_spec_file(path, payload)
    assert load_system(path).gpu_spec == system.gpu_spec


_NO_YAML_DRIVER = """
import sys


class BlockYaml:
    def find_spec(self, name, path=None, target=None):
        if name == "yaml" or name.startswith("yaml."):
            raise ImportError("PyYAML blocked for this test")
        return None


sys.meta_path.insert(0, BlockYaml())
sys.path.insert(0, {src!r})

from repro.catalog import validate_shipped_catalog
from repro.systems import all_system_names, by_name

for name in all_system_names():
    assert by_name(name).name == name
print(len(validate_shipped_catalog()))
"""


def test_shipped_catalog_needs_no_pyyaml():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_YAML_DRIVER.format(src=src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(PINNED_SYSTEM_DIGESTS)


# ---------------------------------------------------------------------------
# run-key stability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PINNED_RUN_KEYS))
def test_run_keys_are_pinned(name):
    units = _stability_spec(name).expand()
    assert tuple(u.key for u in units) == PINNED_RUN_KEYS[name]


# ---------------------------------------------------------------------------
# resolver
# ---------------------------------------------------------------------------


def test_by_name_resolves_catalog_only_system():
    system = by_name("H100-SXM")
    assert system.gpu_spec.name == "NVIDIA H100-SXM5-80GB"
    assert "H100-SXM" in all_system_names()


def test_unknown_name_error_lists_catalog_entries():
    with pytest.raises(ValueError) as excinfo:
        by_name("Frontier")
    message = str(excinfo.value)
    assert "unknown system 'Frontier'" in message
    for name in PAPER_NAMES + CATALOG_ONLY_NAMES:
        assert name in message


def test_path_refs_resolve(tmp_path):
    payload = spec_payload_from_system(by_name("miniHPC"))
    payload["name"] = "minihpc-copy"
    path = str(tmp_path / "copy.yaml")
    write_spec_file(path, payload)
    assert is_path_ref(path)
    assert is_path_ref(f"path:{path}")
    assert not is_path_ref("miniHPC")
    assert resolve_system(path).name == "minihpc-copy"
    assert resolve_system(f"path:{path}").name == "minihpc-copy"


def test_user_catalog_dir_shadows_shipped(tmp_path, monkeypatch):
    payload = spec_payload_from_system(by_name("miniHPC"))
    payload["description"] = "user override"
    write_spec_file(str(tmp_path / "minihpc.yaml"), payload)
    monkeypatch.setenv("REPRO_CATALOG_PATH", str(tmp_path))
    entries = available_entries()
    assert entries["miniHPC"].origin == "user"
    assert entries["miniHPC"].description == "user override"
    assert "H100-SXM" in entries  # shipped entries still visible


def test_known_system_names_is_sorted_union():
    names = known_system_names()
    assert list(names) == sorted(names)
    assert set(PAPER_NAMES) | set(CATALOG_ONLY_NAMES) <= set(names)


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


def test_campaign_spec_accepts_catalog_name_and_path_ref(tmp_path):
    payload = spec_payload_from_system(by_name("miniHPC"))
    path = str(tmp_path / "site.yaml")
    write_spec_file(path, payload)
    spec = _stability_spec("H100-SXM")
    assert spec.systems == ("H100-SXM",)
    via_path = _stability_spec(path)
    assert via_path.systems == (path,)


def test_campaign_spec_rejects_unknown_system_with_catalog_list():
    with pytest.raises(ValueError, match="H100-SXM"):
        _stability_spec("Frontier")


def test_campaign_runs_end_to_end_on_catalog_only_system(tmp_path):
    from repro.campaign import build_summary

    spec = _stability_spec("H100-SXM")
    status, store = run_campaign(spec, str(tmp_path / "camp"))
    assert status.failed == 0
    assert status.executed == 2
    assert store.completed_keys() == set(PINNED_RUN_KEYS["H100-SXM"])
    summary = build_summary(store)
    assert summary["n_runs"] == 2
    assert {g["system"] for g in summary["groups"]} == {"H100-SXM"}


def test_campaign_runs_via_path_ref(tmp_path):
    payload = spec_payload_from_system(by_name("miniHPC"))
    payload["name"] = "site-box"
    path = str(tmp_path / "site-box.yaml")
    write_spec_file(path, payload)
    spec = _stability_spec(path)
    status, store = run_campaign(spec, str(tmp_path / "camp"))
    assert status.failed == 0
    assert status.executed == 2


def test_service_runs_catalog_only_campaign(tmp_path):
    """The control plane accepts and drains a catalog-only system."""
    import asyncio

    from repro.service import CampaignService, ServiceConfig

    spec_doc = {
        "schema": 1,
        "kind": "campaign-spec",
        "name": "catalog-svc",
        "systems": ["H100-SXM"],
        "workloads": ["sedov"],
        "particles": [30_000.0],
        "steps": 2,
        "seeds": [0],
        "policies": [{"kind": "baseline"}],
        "clocks_mhz": [1005.0],
    }

    async def main():
        service = CampaignService(
            ServiceConfig(root=str(tmp_path / "service-root"))
        )
        await service.start()
        try:
            job, created = service.submit("acme", spec_doc)
            assert created
            deadline = asyncio.get_running_loop().time() + 60.0
            while job.state not in ("done", "failed", "cancelled"):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert job.state == "done"
            report = service.report(job)
            assert {g["system"] for g in report["groups"]} == {"H100-SXM"}
        finally:
            await service.close()

    asyncio.run(main())
