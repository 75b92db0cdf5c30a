"""Load system spec files into the hardware dataclasses.

The loader turns a validated payload (see :mod:`repro.catalog.schema`)
into a :class:`~repro.systems.presets.SystemConfig` holding its
:class:`~repro.hardware.specs.GpuSpec` and
:class:`~repro.hardware.specs.CpuSpec`. Every system — the shipped
Table-I machines and any user spec — is defined this way, so
everything downstream (cluster construction, campaign run keys, energy
reports, the service layer) sees one kind of system.

Unit discipline matters here: file knobs use integer-friendly units
(``MHz``, ``GFLOP/s``, ``GB/s``, ``GiB``) whose conversions to the SI
base units of the dataclasses are exact in binary floating point, so
a spec written back from a built system (:func:`spec_payload_from_system`)
rebuilds it equal field for field and campaign run keys stay
byte-stable.

The shipped specs are JSON; PyYAML is imported only when a ``.yaml`` /
``.yml`` file is read or written.

Search path: the shipped ``data/`` directory next to this module,
preceded by any directories named in the ``REPRO_CATALOG_PATH``
environment variable (``os.pathsep``-separated; earlier entries win,
so a user file can shadow a shipped one by reusing its ``name``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..hardware.specs import (
    CpuSpec,
    GovernorSpec,
    GpuSpec,
    NodePowerSpec,
    ThermalSpec,
)
from ..mpi.timing import CommModel
from ..systems.presets import SystemConfig
from ..units import GIB, MICROSECOND, MILLISECOND, mhz, to_mhz
from .schema import SchemaError, validate_system_payload

#: Environment variable naming extra catalog directories.
CATALOG_PATH_ENV = "REPRO_CATALOG_PATH"

#: File suffixes recognised as catalog spec files.
SPEC_SUFFIXES = (".yaml", ".yml", ".json")

#: Prefix marking a campaign system reference as a file path.
PATH_PREFIX = "path:"


@dataclass(frozen=True)
class CatalogEntry:
    """One listed system: identity plus provenance, for ``repro systems``."""

    name: str
    path: str
    schema_version: int
    vendor: str
    gpu_name: str
    min_clock_mhz: float
    max_clock_mhz: float
    ranks_per_node: int
    pmt_backend: str
    slurm_energy_plugin: str
    description: str
    origin: str  # "shipped" or "user"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "source": self.path,
            "schema": self.schema_version,
            "vendor": self.vendor,
            "gpu": self.gpu_name,
            "clock_mhz": [self.min_clock_mhz, self.max_clock_mhz],
            "ranks_per_node": self.ranks_per_node,
            "pmt_backend": self.pmt_backend,
            "slurm_energy_plugin": self.slurm_energy_plugin,
            "description": self.description,
            "origin": self.origin,
        }


def shipped_catalog_dir() -> str:
    """Directory of the spec files shipped inside the package."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def catalog_search_path() -> Tuple[str, ...]:
    """Catalog directories in priority order (user dirs, then shipped)."""
    dirs: List[str] = []
    extra = os.environ.get(CATALOG_PATH_ENV, "")
    for entry in extra.split(os.pathsep):
        entry = entry.strip()
        if entry:
            dirs.append(entry)
    dirs.append(shipped_catalog_dir())
    return tuple(dirs)


def _import_yaml():
    """PyYAML, or ``None`` — an optional dependency for user spec files."""
    try:
        import yaml
    except ImportError:
        return None
    return yaml


def load_payload(path: str) -> Dict[str, Any]:
    """Parse (but do not validate) one spec file as a raw payload."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(path, "", f"cannot read spec file: {exc}") from exc
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, "", f"invalid JSON: {exc}") from exc
    yaml = _import_yaml()
    if yaml is None:
        raise SchemaError(
            path, "",
            "PyYAML is not installed — convert the spec to .json or "
            "install pyyaml",
        )
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(path, "", f"invalid YAML: {exc}") from exc


# -- payload -> dataclasses -------------------------------------------------


def _governor_from(overlay: Optional[Mapping[str, Any]]) -> GovernorSpec:
    if not overlay:
        return GovernorSpec()
    kwargs: Dict[str, Any] = {}
    if "quantum_ms" in overlay:
        kwargs["quantum"] = float(overlay["quantum_ms"]) * MILLISECOND
    if "active_floor_mhz" in overlay:
        kwargs["active_floor_hz"] = mhz(float(overlay["active_floor_mhz"]))
    if "idle_clock_mhz" in overlay:
        kwargs["idle_clock_hz"] = mhz(float(overlay["idle_clock_mhz"]))
    if "ewma" in overlay:
        kwargs["ewma"] = float(overlay["ewma"])
    if "launch_presence_floor" in overlay:
        kwargs["launch_presence_floor"] = float(
            overlay["launch_presence_floor"]
        )
    if "boost_mhz" in overlay:
        kwargs["boost_hz"] = mhz(float(overlay["boost_mhz"]))
    if "voltage_margin_mhz" in overlay:
        kwargs["voltage_margin_hz"] = mhz(float(overlay["voltage_margin_mhz"]))
    if "transition_energy_j" in overlay:
        kwargs["transition_energy_j"] = float(overlay["transition_energy_j"])
    return GovernorSpec(**kwargs)


def _thermal_from(overlay: Optional[Mapping[str, Any]]) -> ThermalSpec:
    if not overlay:
        return ThermalSpec()
    kwargs = {k: float(v) for k, v in overlay.items()}
    return ThermalSpec(**kwargs)


def _comm_from(overlay: Optional[Mapping[str, Any]]) -> CommModel:
    if not overlay:
        return CommModel()
    kwargs: Dict[str, Any] = {}
    if "inter_latency_us" in overlay:
        kwargs["inter_latency_s"] = (
            float(overlay["inter_latency_us"]) * MICROSECOND
        )
    if "inter_bandwidth_gbps" in overlay:
        kwargs["inter_bandwidth"] = (
            float(overlay["inter_bandwidth_gbps"]) * 1.0e9
        )
    if "intra_latency_us" in overlay:
        kwargs["intra_latency_s"] = (
            float(overlay["intra_latency_us"]) * MICROSECOND
        )
    if "intra_bandwidth_gbps" in overlay:
        kwargs["intra_bandwidth"] = (
            float(overlay["intra_bandwidth_gbps"]) * 1.0e9
        )
    if "call_overhead_us" in overlay:
        kwargs["call_overhead_s"] = (
            float(overlay["call_overhead_us"]) * MICROSECOND
        )
    return CommModel(**kwargs)


def build_gpu_spec(gpu: Mapping[str, Any]) -> GpuSpec:
    """Build a :class:`GpuSpec` from the validated ``gpu`` section."""
    clocks = gpu["clocks"]
    power = gpu["power"]
    compute = gpu["compute"]
    return GpuSpec(
        name=str(gpu["name"]),
        vendor=str(gpu["vendor"]),
        min_clock_hz=mhz(float(clocks["min_mhz"])),
        max_clock_hz=mhz(float(clocks["max_mhz"])),
        clock_step_hz=mhz(float(clocks["step_mhz"])),
        default_clock_hz=mhz(float(clocks["default_mhz"])),
        memory_clock_hz=mhz(float(clocks["memory_mhz"])),
        idle_power_w=float(power["idle_w"]),
        max_power_w=float(power["max_w"]),
        power_exponent=float(power["exponent"]),
        fp_throughput=float(compute["fp64_gflops"]) * 1.0e9,
        mem_bandwidth=float(compute["mem_bandwidth_gbps"]) * 1.0e9,
        memory_bytes=float(compute["memory_gib"]) * GIB,
        gcds_per_card=int(gpu.get("gcds_per_card", 1)),
        arch_efficiency={
            str(k): float(v)
            for k, v in gpu.get("arch_efficiency", {}).items()
        },
        governor=_governor_from(gpu.get("governor")),
        thermal=_thermal_from(gpu.get("thermal")),
    )


def _cpu_from(cpu: Mapping[str, Any]) -> CpuSpec:
    kwargs: Dict[str, Any] = {
        "name": str(cpu["name"]),
        "sockets": int(cpu["sockets"]),
        "cores_per_socket": int(cpu["cores_per_socket"]),
        "idle_power_w": float(cpu["idle_w"]),
        "active_power_w": float(cpu["active_w"]),
        "memory_gib": float(cpu["memory_gib"]),
    }
    if "nominal_mhz" in cpu:
        kwargs["nominal_freq_khz"] = int(round(float(cpu["nominal_mhz"]) * 1e3))
    if "min_mhz" in cpu:
        kwargs["min_freq_khz"] = int(round(float(cpu["min_mhz"]) * 1e3))
    return CpuSpec(**kwargs)


def build_system(payload: Any, source: str = "<payload>") -> SystemConfig:
    """Validate a payload and build its :class:`SystemConfig`."""
    payload = validate_system_payload(payload, source)
    cpu = payload["cpu"]
    node = payload["node"]
    meas = payload["measurement"]
    return SystemConfig(
        name=str(payload["name"]),
        gpu_spec=build_gpu_spec(payload["gpu"]),
        cpu_spec=_cpu_from(cpu),
        node_power=NodePowerSpec(
            memory_power_w=float(node["memory_w"]),
            aux_power_w=float(node["aux_w"]),
        ),
        ranks_per_node=int(node["ranks_per_node"]),
        pmt_backend=str(meas["pmt_backend"]),
        slurm_energy_plugin=str(meas["slurm_energy_plugin"]),
        allow_user_freq_control=bool(meas["allow_user_freq_control"]),
        comm_model=_comm_from(payload.get("comm")),
    )


def load_system(path: str) -> SystemConfig:
    """Load, validate and build the system described by one spec file."""
    return build_system(load_payload(path), source=path)


# -- catalog scanning -------------------------------------------------------

#: Parse cache: absolute path -> (mtime, validated payload).
_PAYLOAD_CACHE: Dict[str, Tuple[float, Dict[str, Any]]] = {}


def _cached_payload(path: str) -> Dict[str, Any]:
    path = os.path.abspath(path)
    mtime = os.path.getmtime(path)
    hit = _PAYLOAD_CACHE.get(path)
    if hit is not None and hit[0] == mtime:
        return hit[1]
    payload = validate_system_payload(load_payload(path), source=path)
    _PAYLOAD_CACHE[path] = (mtime, payload)
    return payload


def _entry_from(payload: Mapping[str, Any], path: str,
                origin: str) -> CatalogEntry:
    gpu = payload["gpu"]
    clocks = gpu["clocks"]
    return CatalogEntry(
        name=str(payload["name"]),
        path=path,
        schema_version=int(payload["schema"]),
        vendor=str(gpu["vendor"]),
        gpu_name=str(gpu["name"]),
        min_clock_mhz=float(clocks["min_mhz"]),
        max_clock_mhz=float(clocks["max_mhz"]),
        ranks_per_node=int(payload["node"]["ranks_per_node"]),
        pmt_backend=str(payload["measurement"]["pmt_backend"]),
        slurm_energy_plugin=str(payload["measurement"]["slurm_energy_plugin"]),
        description=str(payload.get("description", "")),
        origin=origin,
    )


def available_entries() -> Dict[str, CatalogEntry]:
    """All catalog entries on the search path, keyed by system name.

    Earlier search-path directories win on name collisions, so user
    catalogs (``REPRO_CATALOG_PATH``) shadow shipped specs. A file
    that fails validation propagates its :class:`SchemaError` — a
    broken catalog should be loud, not silently absent.
    """
    shipped = shipped_catalog_dir()
    entries: Dict[str, CatalogEntry] = {}
    for directory in catalog_search_path():
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        origin = "shipped" if directory == shipped else "user"
        for filename in names:
            if not filename.endswith(SPEC_SUFFIXES):
                continue
            path = os.path.join(directory, filename)
            payload = _cached_payload(path)
            entry = _entry_from(payload, path, origin)
            entries.setdefault(entry.name, entry)
    return entries


def known_system_names() -> Tuple[str, ...]:
    """Every resolvable system name: the catalog entries on the path.

    This is the single source for "known systems" in error messages —
    both :func:`repro.systems.by_name` and campaign spec validation
    list the same names.
    """
    return tuple(sorted(available_entries()))


def is_path_ref(ref: str) -> bool:
    """Whether a system reference names a spec *file* rather than a name.

    ``path:``-prefixed refs always are; so is anything carrying a spec
    suffix or a directory separator. Campaign validation and the
    resolver share this predicate so a ref is classified identically
    at spec-load time and inside worker processes.
    """
    if ref.startswith(PATH_PREFIX):
        return True
    if ref.endswith(SPEC_SUFFIXES):
        return True
    return os.sep in ref or "/" in ref


def resolve_system(ref: str) -> SystemConfig:
    """Resolve a system reference to a built :class:`SystemConfig`.

    Accepted forms, in order:

    * ``path:<file>`` — explicit spec-file reference;
    * a bare path ending in ``.yaml``/``.yml``/``.json`` (or containing
      a directory separator);
    * a catalog entry name (shipped or ``REPRO_CATALOG_PATH``).
    """
    if ref.startswith(PATH_PREFIX):
        return load_system(ref[len(PATH_PREFIX):])
    if is_path_ref(ref):
        return load_system(ref)
    entry = available_entries().get(ref)
    if entry is not None:
        return build_system(_cached_payload(entry.path), source=entry.path)
    known = ", ".join(known_system_names())
    raise ValueError(f"unknown system {ref!r} (known: {known})")


def validate_shipped_catalog() -> List[CatalogEntry]:
    """Validate every shipped spec file; raise on the first bad one."""
    shipped = shipped_catalog_dir()
    entries: List[CatalogEntry] = []
    for filename in sorted(os.listdir(shipped)):
        if not filename.endswith(SPEC_SUFFIXES):
            continue
        path = os.path.join(shipped, filename)
        payload = _cached_payload(path)
        build_system(payload, source=path)  # must also *construct*
        entries.append(_entry_from(payload, path, "shipped"))
    return entries


def spec_payload_from_system(
    system: SystemConfig, description: str = ""
) -> Dict[str, Any]:
    """Express a built :class:`SystemConfig` as a schema-1 payload.

    The inverse of :func:`build_system` (used by the calibration
    pipeline to emit spec files): converting back through
    :func:`build_system` reproduces the system exactly as long as the
    clock and capacity values sit on their unit grids, which every
    spec produced by this library does.
    """
    gpu = system.gpu_spec
    payload: Dict[str, Any] = {
        "schema": 1,
        "kind": "system-spec",
        "name": system.name,
        "gpu": {
            "name": gpu.name,
            "vendor": gpu.vendor,
            "clocks": {
                "min_mhz": to_mhz(gpu.min_clock_hz),
                "max_mhz": to_mhz(gpu.max_clock_hz),
                "step_mhz": to_mhz(gpu.clock_step_hz),
                "default_mhz": to_mhz(gpu.default_clock_hz),
                "memory_mhz": to_mhz(gpu.memory_clock_hz),
            },
            "power": {
                "idle_w": gpu.idle_power_w,
                "max_w": gpu.max_power_w,
                "exponent": gpu.power_exponent,
            },
            "compute": {
                "fp64_gflops": gpu.fp_throughput / 1.0e9,
                "mem_bandwidth_gbps": gpu.mem_bandwidth / 1.0e9,
                "memory_gib": gpu.memory_bytes / GIB,
            },
        },
        "cpu": {
            "name": system.cpu_spec.name,
            "sockets": system.cpu_spec.sockets,
            "cores_per_socket": system.cpu_spec.cores_per_socket,
            "idle_w": system.cpu_spec.idle_power_w,
            "active_w": system.cpu_spec.active_power_w,
            "memory_gib": system.cpu_spec.memory_gib,
        },
        "node": {
            "ranks_per_node": system.ranks_per_node,
            "memory_w": system.node_power.memory_power_w,
            "aux_w": system.node_power.aux_power_w,
        },
        "measurement": {
            "pmt_backend": system.pmt_backend,
            "slurm_energy_plugin": system.slurm_energy_plugin,
            "allow_user_freq_control": system.allow_user_freq_control,
        },
    }
    if description:
        payload["description"] = description
    if gpu.gcds_per_card != 1:
        payload["gpu"]["gcds_per_card"] = gpu.gcds_per_card
    if gpu.arch_efficiency:
        payload["gpu"]["arch_efficiency"] = {
            k: round(float(v), 6) for k, v in sorted(
                gpu.arch_efficiency.items()
            )
        }
    default_gov = GovernorSpec()
    if gpu.governor != default_gov:
        gov: Dict[str, Any] = {}
        g = gpu.governor
        if g.quantum != default_gov.quantum:
            gov["quantum_ms"] = g.quantum / MILLISECOND
        if g.active_floor_hz != default_gov.active_floor_hz:
            gov["active_floor_mhz"] = to_mhz(g.active_floor_hz)
        if g.idle_clock_hz != default_gov.idle_clock_hz:
            gov["idle_clock_mhz"] = to_mhz(g.idle_clock_hz)
        if g.ewma != default_gov.ewma:
            gov["ewma"] = g.ewma
        if g.launch_presence_floor != default_gov.launch_presence_floor:
            gov["launch_presence_floor"] = g.launch_presence_floor
        if g.boost_hz != default_gov.boost_hz:
            gov["boost_mhz"] = to_mhz(g.boost_hz)
        if g.voltage_margin_hz != default_gov.voltage_margin_hz:
            gov["voltage_margin_mhz"] = to_mhz(g.voltage_margin_hz)
        if g.transition_energy_j != default_gov.transition_energy_j:
            gov["transition_energy_j"] = g.transition_energy_j
        payload["gpu"]["governor"] = gov
    default_thermal = ThermalSpec()
    if gpu.thermal != default_thermal:
        thermal: Dict[str, Any] = {}
        for knob in ("ambient_c", "resistance_c_per_w", "tau_s",
                     "throttle_temp_c", "throttle_mhz_per_c"):
            value = getattr(gpu.thermal, knob)
            if value != getattr(default_thermal, knob):
                thermal[knob] = value
        payload["gpu"]["thermal"] = thermal
    cpu_defaults = CpuSpec(
        name="x", sockets=1, cores_per_socket=1,
        idle_power_w=1.0, active_power_w=2.0, memory_gib=1.0,
    )
    if system.cpu_spec.nominal_freq_khz != cpu_defaults.nominal_freq_khz:
        payload["cpu"]["nominal_mhz"] = system.cpu_spec.nominal_freq_khz / 1e3
    if system.cpu_spec.min_freq_khz != cpu_defaults.min_freq_khz:
        payload["cpu"]["min_mhz"] = system.cpu_spec.min_freq_khz / 1e3
    default_comm = CommModel()
    if system.comm_model != default_comm:
        comm: Dict[str, Any] = {}
        c = system.comm_model
        if c.inter_latency_s != default_comm.inter_latency_s:
            comm["inter_latency_us"] = c.inter_latency_s / MICROSECOND
        if c.inter_bandwidth != default_comm.inter_bandwidth:
            comm["inter_bandwidth_gbps"] = c.inter_bandwidth / 1.0e9
        if c.intra_latency_s != default_comm.intra_latency_s:
            comm["intra_latency_us"] = c.intra_latency_s / MICROSECOND
        if c.intra_bandwidth != default_comm.intra_bandwidth:
            comm["intra_bandwidth_gbps"] = c.intra_bandwidth / 1.0e9
        if c.call_overhead_s != default_comm.call_overhead_s:
            comm["call_overhead_us"] = c.call_overhead_s / MICROSECOND
        payload["comm"] = comm
    return payload


def write_spec_file(path: str, payload: Mapping[str, Any]) -> None:
    """Write a payload as a spec file (format chosen by suffix)."""
    payload = validate_system_payload(payload, source=path)
    yaml = None if path.endswith(".json") else _import_yaml()
    if yaml is None:
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        text = yaml.safe_dump(payload, sort_keys=True,
                              default_flow_style=False)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
