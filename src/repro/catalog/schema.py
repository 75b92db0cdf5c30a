"""Schema validation for declarative system spec files.

A catalog file is a versioned, knob-based description of one system —
the JSON/YAML source of a :class:`~repro.systems.SystemConfig`
(following the ``hardware.yaml`` idiom of knob-based estimator
configs). Validation is strict and *actionable*: unknown keys name the
spot and list what is accepted there, out-of-range values say which
unit was probably confused, and a missing version says exactly what to
add. Anything that passes :func:`validate_system_payload` is
guaranteed to build a working :class:`SystemConfig` in the loader.

Optional sections (``governor``, ``thermal``, ``comm``) are
*defaults-preserving overlays*: a file only states the knobs it wants
to change, every omitted knob keeps the dataclass default — so specs
stay short and older files keep working when new knobs appear.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Version of the catalog file format.
CATALOG_SCHEMA_VERSION = 1

#: The ``kind`` header value of a system spec file.
SYSTEM_KIND = "system-spec"

#: GPU vendors the simulated management libraries cover.
KNOWN_VENDORS = ("amd", "intel", "nvidia")

#: PMT backends a system may name (see :mod:`repro.pmt`).
KNOWN_PMT_BACKENDS = ("cray", "levelzero", "nvml", "rocm")

#: Slurm acct_gather_energy plugins (see :mod:`repro.slurm`).
KNOWN_ENERGY_PLUGINS = ("ipmi", "pm_counters", "rapl")


class SchemaError(ValueError):
    """A catalog payload violates the schema (with a path-based message)."""

    def __init__(self, source: str, path: str, message: str) -> None:
        where = f"{source}: {path}" if path else source
        super().__init__(f"{where}: {message}")
        self.source = source
        self.path = path


def _fail(source: str, path: str, message: str) -> None:
    raise SchemaError(source, path, message)


def _section(
    payload: Mapping[str, Any], key: str, source: str, parent: str = ""
) -> Mapping[str, Any]:
    path = f"{parent}.{key}" if parent else key
    if key not in payload:
        _fail(source, parent, f"missing required section {key!r}")
    value = payload[key]
    if not isinstance(value, Mapping):
        _fail(source, path, f"expected a mapping, got {type(value).__name__}")
    return value

def _reject_unknown(
    mapping: Mapping[str, Any],
    known: Sequence[str],
    source: str,
    path: str,
) -> None:
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        names = ", ".join(repr(k) for k in unknown)
        where = path or "top level"
        _fail(
            source,
            path,
            f"unknown key(s) {names} in {where} "
            f"(known: {', '.join(sorted(known))})",
        )


def _number(
    mapping: Mapping[str, Any],
    key: str,
    source: str,
    parent: str,
    lo: float,
    hi: float,
    unit_hint: str,
    required: bool = True,
    default: Optional[float] = None,
) -> Optional[float]:
    path = f"{parent}.{key}" if parent else key
    if key not in mapping:
        if required:
            _fail(source, parent, f"missing required key {key!r} [{unit_hint}]")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(source, path, f"expected a number, got {value!r}")
    value = float(value)
    if not lo <= value <= hi:
        _fail(
            source,
            path,
            f"{value:g} is outside the plausible range [{lo:g}, {hi:g}] "
            f"for {unit_hint} — check the unit",
        )
    return value


def _integer(
    mapping: Mapping[str, Any],
    key: str,
    source: str,
    parent: str,
    lo: int,
    hi: int,
    required: bool = True,
    default: Optional[int] = None,
) -> Optional[int]:
    path = f"{parent}.{key}" if parent else key
    if key not in mapping:
        if required:
            _fail(source, parent, f"missing required key {key!r}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(source, path, f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        _fail(source, path, f"{value} is outside [{lo}, {hi}]")
    return value


def _string(
    mapping: Mapping[str, Any],
    key: str,
    source: str,
    parent: str,
    choices: Optional[Sequence[str]] = None,
) -> str:
    path = f"{parent}.{key}" if parent else key
    if key not in mapping:
        _fail(source, parent, f"missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, str) or not value:
        _fail(source, path, f"expected a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(
            source,
            path,
            f"{value!r} is not one of {', '.join(sorted(choices))}",
        )
    return value


# -- unit plausibility windows (the "did you pass Hz?" guards) --------------

_MHZ = (10.0, 20_000.0, "a clock in MHz (did you write Hz or GHz?)")
_WATTS = (0.1, 10_000.0, "a power draw in watts")
_GFLOPS = (1.0, 1.0e6, "a throughput in GFLOP/s")
_GBPS = (1.0, 1.0e5, "a bandwidth in GB/s")
_GIB = (0.5, 16_384.0, "a capacity in GiB")


def _validate_clocks(gpu: Mapping[str, Any], source: str) -> None:
    clocks = _section(gpu, "clocks", source, "gpu")
    known = ("default_mhz", "max_mhz", "memory_mhz", "min_mhz", "step_mhz")
    _reject_unknown(clocks, known, source, "gpu.clocks")
    lo, hi, hint = _MHZ
    min_mhz = _number(clocks, "min_mhz", source, "gpu.clocks", lo, hi, hint)
    max_mhz = _number(clocks, "max_mhz", source, "gpu.clocks", lo, hi, hint)
    step = _number(clocks, "step_mhz", source, "gpu.clocks", 0.5, 500.0,
                   "a clock bin size in MHz")
    default = _number(clocks, "default_mhz", source, "gpu.clocks", lo, hi, hint)
    _number(clocks, "memory_mhz", source, "gpu.clocks", lo, hi, hint)
    if min_mhz > max_mhz:
        _fail(source, "gpu.clocks",
              f"min_mhz {min_mhz:g} exceeds max_mhz {max_mhz:g}")
    if not min_mhz <= default <= max_mhz:
        _fail(source, "gpu.clocks.default_mhz",
              f"{default:g} is outside [{min_mhz:g}, {max_mhz:g}]")
    span = max_mhz - min_mhz
    bins = span / step
    if abs(bins - round(bins)) > 1e-6:
        _fail(source, "gpu.clocks",
              f"the clock window {min_mhz:g}..{max_mhz:g} MHz is not a "
              f"whole number of {step:g} MHz bins")


def _validate_power(gpu: Mapping[str, Any], source: str) -> None:
    power = _section(gpu, "power", source, "gpu")
    _reject_unknown(power, ("exponent", "idle_w", "max_w"), source, "gpu.power")
    lo, hi, hint = _WATTS
    idle = _number(power, "idle_w", source, "gpu.power", lo, hi, hint)
    peak = _number(power, "max_w", source, "gpu.power", lo, hi, hint)
    _number(power, "exponent", source, "gpu.power", 0.5, 4.0,
            "the DVFS power exponent alpha")
    if idle >= peak:
        _fail(source, "gpu.power",
              f"idle_w {idle:g} must be below max_w {peak:g} "
              "(the dynamic envelope is max_w - idle_w)")


def _validate_compute(gpu: Mapping[str, Any], source: str) -> None:
    compute = _section(gpu, "compute", source, "gpu")
    known = ("fp64_gflops", "mem_bandwidth_gbps", "memory_gib")
    _reject_unknown(compute, known, source, "gpu.compute")
    _number(compute, "fp64_gflops", source, "gpu.compute", *_GFLOPS)
    _number(compute, "mem_bandwidth_gbps", source, "gpu.compute", *_GBPS)
    _number(compute, "memory_gib", source, "gpu.compute", *_GIB)


#: Governor overlay knobs: file key -> (lo, hi, unit hint).
_GOVERNOR_KNOBS = {
    "quantum_ms": (0.1, 1000.0, "a governor quantum in milliseconds"),
    "active_floor_mhz": _MHZ,
    "idle_clock_mhz": _MHZ,
    "ewma": (0.01, 1.0, "an EWMA factor in (0, 1]"),
    "launch_presence_floor": (0.0, 1.0, "a utilization fraction"),
    "boost_mhz": (0.0, 2000.0, "a boost headroom in MHz"),
    "voltage_margin_mhz": (0.0, 2000.0, "a voltage margin in MHz"),
    "transition_energy_j": (0.0, 10.0, "a transition cost in joules"),
}

#: Thermal overlay knobs (keys match :class:`ThermalSpec` fields).
_THERMAL_KNOBS = {
    "ambient_c": (-20.0, 60.0, "an inlet temperature in degC"),
    "resistance_c_per_w": (0.001, 2.0, "a thermal resistance in degC/W"),
    "tau_s": (0.5, 600.0, "a thermal time constant in seconds"),
    "throttle_temp_c": (40.0, 120.0, "a throttle threshold in degC"),
    "throttle_mhz_per_c": (0.0, 500.0, "a clock shed rate in MHz/degC"),
}

#: Comm overlay knobs: alpha-beta model parameters.
_COMM_KNOBS = {
    "inter_latency_us": (0.01, 1000.0, "an inter-node latency in us"),
    "inter_bandwidth_gbps": (0.1, 10_000.0, "a link bandwidth in GB/s"),
    "intra_latency_us": (0.01, 1000.0, "an intra-node latency in us"),
    "intra_bandwidth_gbps": (0.1, 10_000.0, "a link bandwidth in GB/s"),
    "call_overhead_us": (0.0, 1000.0, "a per-call overhead in us"),
}


def _validate_overlay(
    parent: Mapping[str, Any],
    key: str,
    knobs: Mapping[str, Tuple[float, float, str]],
    source: str,
    parent_path: str,
) -> None:
    if key not in parent:
        return
    path = f"{parent_path}.{key}" if parent_path else key
    overlay = parent[key]
    if not isinstance(overlay, Mapping):
        _fail(source, path, f"expected a mapping, got {type(overlay).__name__}")
    _reject_unknown(overlay, tuple(knobs), source, path)
    for knob, (lo, hi, hint) in knobs.items():
        _number(overlay, knob, source, path, lo, hi, hint, required=False)


def _validate_gpu(payload: Mapping[str, Any], source: str) -> None:
    gpu = _section(payload, "gpu", source)
    known = ("arch_efficiency", "clocks", "compute", "gcds_per_card",
             "governor", "name", "power", "thermal", "vendor")
    _reject_unknown(gpu, known, source, "gpu")
    _string(gpu, "name", source, "gpu")
    _string(gpu, "vendor", source, "gpu", choices=KNOWN_VENDORS)
    _validate_clocks(gpu, source)
    _validate_power(gpu, source)
    _validate_compute(gpu, source)
    _integer(gpu, "gcds_per_card", source, "gpu", 1, 16,
             required=False, default=1)
    if "arch_efficiency" in gpu:
        eff = gpu["arch_efficiency"]
        if not isinstance(eff, Mapping):
            _fail(source, "gpu.arch_efficiency",
                  f"expected a mapping, got {type(eff).__name__}")
        for kernel, value in eff.items():
            if not isinstance(kernel, str) or not kernel:
                _fail(source, "gpu.arch_efficiency",
                      f"kernel names must be strings, got {kernel!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0.0 < float(value) <= 1.0:
                _fail(source, f"gpu.arch_efficiency.{kernel}",
                      f"efficiency must be a number in (0, 1], got {value!r}")
    _validate_overlay(gpu, "governor", _GOVERNOR_KNOBS, source, "gpu")
    _validate_overlay(gpu, "thermal", _THERMAL_KNOBS, source, "gpu")


def _validate_cpu(payload: Mapping[str, Any], source: str) -> None:
    cpu = _section(payload, "cpu", source)
    known = ("active_w", "cores_per_socket", "idle_w", "memory_gib",
             "min_mhz", "name", "nominal_mhz", "sockets")
    _reject_unknown(cpu, known, source, "cpu")
    _string(cpu, "name", source, "cpu")
    _integer(cpu, "sockets", source, "cpu", 1, 16)
    _integer(cpu, "cores_per_socket", source, "cpu", 1, 512)
    lo, hi, hint = _WATTS
    idle = _number(cpu, "idle_w", source, "cpu", lo, hi, hint)
    active = _number(cpu, "active_w", source, "cpu", lo, hi, hint)
    if idle > active:
        _fail(source, "cpu",
              f"idle_w {idle:g} must not exceed active_w {active:g}")
    _number(cpu, "memory_gib", source, "cpu", *_GIB)
    mhz_lo, mhz_hi, mhz_hint = _MHZ
    nominal = _number(cpu, "nominal_mhz", source, "cpu", mhz_lo, mhz_hi,
                      mhz_hint, required=False)
    minimum = _number(cpu, "min_mhz", source, "cpu", mhz_lo, mhz_hi,
                      mhz_hint, required=False)
    if nominal is not None and minimum is not None and minimum > nominal:
        _fail(source, "cpu",
              f"min_mhz {minimum:g} exceeds nominal_mhz {nominal:g}")


def _validate_node(payload: Mapping[str, Any], source: str) -> None:
    node = _section(payload, "node", source)
    _reject_unknown(node, ("aux_w", "memory_w", "ranks_per_node"),
                    source, "node")
    _integer(node, "ranks_per_node", source, "node", 1, 64)
    _number(node, "memory_w", source, "node", 0.0, 10_000.0,
            "the node DIMM power in watts")
    _number(node, "aux_w", source, "node", 0.0, 10_000.0,
            "the node auxiliary power in watts")


def _validate_measurement(payload: Mapping[str, Any], source: str) -> None:
    meas = _section(payload, "measurement", source)
    known = ("allow_user_freq_control", "pmt_backend", "slurm_energy_plugin")
    _reject_unknown(meas, known, source, "measurement")
    _string(meas, "pmt_backend", source, "measurement",
            choices=KNOWN_PMT_BACKENDS)
    _string(meas, "slurm_energy_plugin", source, "measurement",
            choices=KNOWN_ENERGY_PLUGINS)
    if "allow_user_freq_control" not in meas:
        _fail(source, "measurement",
              "missing required key 'allow_user_freq_control'")
    if not isinstance(meas["allow_user_freq_control"], bool):
        _fail(source, "measurement.allow_user_freq_control",
              f"expected true/false, got {meas['allow_user_freq_control']!r}")


def validate_system_payload(
    payload: Any, source: str = "<payload>"
) -> Dict[str, Any]:
    """Validate one parsed system-spec payload; return it as a dict.

    Raises :class:`SchemaError` (a ``ValueError``) with a
    ``source: path: problem`` message on the first violation.
    """
    if not isinstance(payload, Mapping):
        _fail(source, "", f"expected a mapping at the top level, "
                          f"got {type(payload).__name__}")
    if "schema" not in payload:
        _fail(source, "", "missing schema version — add 'schema: "
                          f"{CATALOG_SCHEMA_VERSION}' at the top level")
    version = payload["schema"]
    if not isinstance(version, int) or isinstance(version, bool):
        _fail(source, "schema", f"expected an integer, got {version!r}")
    if version != CATALOG_SCHEMA_VERSION:
        _fail(source, "schema",
              f"file has schema {version}, this build reads "
              f"{CATALOG_SCHEMA_VERSION}")
    kind = payload.get("kind")
    if kind != SYSTEM_KIND:
        _fail(source, "kind",
              f"expected a {SYSTEM_KIND!r} file, found {kind!r}")
    known = ("comm", "cpu", "description", "gpu", "kind", "measurement",
             "name", "node", "schema")
    _reject_unknown(payload, known, source, "")
    _string(payload, "name", source, "")
    if "description" in payload and not isinstance(payload["description"], str):
        _fail(source, "description", "expected a string")
    _validate_gpu(payload, source)
    _validate_cpu(payload, source)
    _validate_node(payload, source)
    _validate_measurement(payload, source)
    _validate_overlay(payload, "comm", _COMM_KNOBS, source, "")
    return dict(payload)
