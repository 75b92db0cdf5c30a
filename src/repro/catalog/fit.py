"""Calibration: recover device model parameters from measured traces.

The paper's power model is a low-dimensional response surface,

    P(f, i) = P_idle + i * P_dyn * (f / f_max) ** alpha
    t(f)    = FLOPs / (T_fp * eff * f / f_max) + bytes / BW + overhead

so a handful of probe points pinned at different application clocks
determine every parameter (Afzal et al., PAPERS.md, fit the same
surface on real A100/H100 parts). This module provides both halves of
that loop:

* :func:`run_calibration_sweep` drives a simulated device through a
  deterministic probe schedule — idle windows, pure-compute and
  pure-memory kernels, and the application kernels — across a set of
  pinned clocks, recording a telemetry JSONL trace, a PMT dump, and a
  schedule sidecar describing each probe window.
* :func:`fit_from_trace` / :func:`fit_from_dump` ingest those
  artifacts (either is sufficient on its own) and fit ``P_idle``,
  ``P_dyn``, ``alpha``, peak throughput, memory bandwidth and
  per-kernel roofline fractions by least squares.
* :func:`fit_to_spec_payload` emits the result as a catalog spec file
  payload; :func:`verify_fit` compares a fit against a ground-truth
  :class:`GpuSpec` (the round-trip the tests and ``repro calibrate
  --smoke`` pin).

Probe windows whose mean power feeds the power fit are aligned to the
PMT sampler's tick grid (idle filler up to
:attr:`~repro.pmt.sampler.PmtSampler.next_tick_s`), so the cumulative
joule counter is sampled *exactly* at window boundaries and the fitted
power carries no interpolation error across the busy/idle transition.
Roofline probes only need durations, which the schedule records
exactly, so they skip the alignment.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hardware.clock import VirtualClock
from ..hardware.gpu import SimulatedGpu
from ..hardware.kernel import KernelLaunch
from ..pmt.base import PMT, State
from ..pmt.sampler import PmtSampler, Sample
from ..systems.presets import SystemConfig
from ..telemetry.chrome_trace import read_trace_jsonl, write_trace_jsonl
from ..telemetry.events import (
    TRACK_CLOCKS,
    TRACK_FUNCTIONS,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    check_schema_header,
    schema_header,
)
from ..units import mhz, to_mhz
from .loader import spec_payload_from_system

#: ``kind`` of the schedule sidecar's schema header.
SCHEDULE_KIND = "calibration-schedule"

#: Probe kernel names (never collide with application kernel names).
CALIBRATION_IDLE = "CalibrationIdle"
CALIBRATION_COMPUTE = "CalibrationCompute"
CALIBRATION_MEMORY = "CalibrationMemory"

#: Application kernels probed by default, with representative power
#: intensities (the SPH-EXA §IV-B trio).
DEFAULT_PROBE_KERNELS: Mapping[str, float] = {
    "MomentumEnergy": 1.0,
    "IADVelocityDivCurl": 0.95,
    "Gravity": 0.85,
}

#: Clock ratios (of f_max) probed by default, before bin quantization.
DEFAULT_CLOCK_RATIOS = (1.0, 0.9, 0.8, 0.71, 0.62, 0.5)


class CalibrationError(ValueError):
    """A trace does not contain enough (or consistent) probe data."""


@dataclass(frozen=True)
class ProbeWindow:
    """One probe of the sweep: what ran, when, and at which clock."""

    phase: str  # "idle" | "compute" | "memory" | "kernel"
    kernel: str
    clock_mhz: float
    t0_s: float
    t1_s: float
    flops: float = 0.0
    bytes_moved: float = 0.0
    intensity: float = 0.0
    throttled: bool = False

    @property
    def duration_s(self) -> float:
        return self.t1_s - self.t0_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "kernel": self.kernel,
            "clock_mhz": self.clock_mhz,
            "t0_s": self.t0_s,
            "t1_s": self.t1_s,
            "flops": self.flops,
            "bytes": self.bytes_moved,
            "intensity": self.intensity,
            "throttled": self.throttled,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ProbeWindow":
        return cls(
            phase=str(raw["phase"]),
            kernel=str(raw["kernel"]),
            clock_mhz=float(raw["clock_mhz"]),
            t0_s=float(raw["t0_s"]),
            t1_s=float(raw["t1_s"]),
            flops=float(raw.get("flops", 0.0)),
            bytes_moved=float(raw.get("bytes", 0.0)),
            intensity=float(raw.get("intensity", 0.0)),
            throttled=bool(raw.get("throttled", False)),
        )


@dataclass(frozen=True)
class SweepResult:
    """Artifacts of one calibration sweep."""

    system: str
    trace_path: str
    dump_path: str
    schedule_path: str
    n_probes: int
    elapsed_s: float
    clocks_mhz: Tuple[float, ...]


@dataclass(frozen=True)
class KernelFit:
    """Roofline decomposition of one application kernel."""

    name: str
    #: Compute seconds at f_max (the roofline ``A`` coefficient).
    compute_seconds_ref: float
    #: Clock-independent seconds (memory phase + overhead, ``B``).
    memory_seconds: float
    #: Fitted architecture efficiency (fraction of fitted peak).
    efficiency: float
    #: Frequency-sensitive fraction kappa at f_max.
    compute_fraction_max: float
    #: Power intensity estimate (diagnostic; boundary-interpolation
    #: limited, unlike the aligned power-fit probes).
    intensity_estimate: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "compute_seconds_ref": self.compute_seconds_ref,
            "memory_seconds": self.memory_seconds,
            "efficiency": self.efficiency,
            "compute_fraction_max": self.compute_fraction_max,
            "intensity_estimate": self.intensity_estimate,
        }


@dataclass(frozen=True)
class FitResult:
    """Every parameter the calibration recovers, plus fit diagnostics."""

    system: str
    gpu_name: str
    vendor: str
    max_clock_mhz: float
    idle_power_w: float
    dynamic_power_w: float
    power_exponent: float
    fp_throughput: float
    mem_bandwidth: float
    kernels: Tuple[KernelFit, ...] = ()
    n_windows: int = 0
    clocks_mhz: Tuple[float, ...] = ()
    #: Max |residual| of the idle-power regression, watts.
    residual_idle_w: float = 0.0
    #: Max |residual| of the dynamic-power regression, watts.
    residual_dynamic_w: float = 0.0
    #: Clock-grid metadata carried over from the sweep (what a real
    #: calibration reads from the management library's supported-clocks
    #: query), used when emitting a spec payload.
    clock_grid: Mapping[str, float] = field(default_factory=dict)

    @property
    def max_power_w(self) -> float:
        return self.idle_power_w + self.dynamic_power_w

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "gpu_name": self.gpu_name,
            "vendor": self.vendor,
            "max_clock_mhz": self.max_clock_mhz,
            "idle_power_w": self.idle_power_w,
            "dynamic_power_w": self.dynamic_power_w,
            "max_power_w": self.max_power_w,
            "power_exponent": self.power_exponent,
            "fp_throughput": self.fp_throughput,
            "mem_bandwidth": self.mem_bandwidth,
            "kernels": [k.to_dict() for k in self.kernels],
            "n_windows": self.n_windows,
            "clocks_mhz": list(self.clocks_mhz),
            "residual_idle_w": self.residual_idle_w,
            "residual_dynamic_w": self.residual_dynamic_w,
        }


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


class _DevicePmt(PMT):
    """Direct board sensor over one simulated GPU.

    Unlike the NVML backend this reads joules at full float precision
    (no millijoule truncation), which keeps the sweep's dump exact —
    the calibration tolerances then genuinely measure the *fit*, not
    sensor quantization.
    """

    platform = "sim"

    def __init__(self, gpu: SimulatedGpu) -> None:
        self._gpu = gpu

    def read(self) -> State:
        return State(
            timestamp_s=self._gpu.clock.now,
            joules=self._gpu.energy_j,
            watts=self._gpu.power_w(),
        )


def _align_to_tick(clock: VirtualClock, sampler: PmtSampler) -> None:
    """Idle the device up to the sampler's next grid tick."""
    gap = sampler.next_tick_s - clock.now
    if gap > 1.0e-9:
        clock.advance(gap)


def default_probe_clocks_mhz(
    spec, ratios: Sequence[float] = DEFAULT_CLOCK_RATIOS
) -> Tuple[float, ...]:
    """Quantized, deduplicated probe clocks for a device, descending."""
    out: List[float] = []
    for ratio in ratios:
        hz = spec.quantize_clock_hz(spec.max_clock_hz * ratio)
        clock_mhz = to_mhz(hz)
        if clock_mhz not in out:
            out.append(clock_mhz)
    return tuple(sorted(out, reverse=True))


def run_calibration_sweep(
    system: SystemConfig,
    out_dir: str,
    clocks_mhz: Optional[Sequence[float]] = None,
    period_s: float = 0.01,
    window_s: float = 0.2,
    kernels: Optional[Mapping[str, float]] = None,
    prefix: str = "calibration",
) -> SweepResult:
    """Probe one simulated device across pinned clocks.

    Emits three artifacts into ``out_dir``:

    * ``<prefix>.trace.jsonl`` — probe spans + power counter samples
      (self-contained: :func:`fit_from_trace` needs nothing else);
    * ``<prefix>.pmt.dat`` — the PMT dump (``timestamp joules watts``);
    * ``<prefix>.schedule.json`` — the probe windows + device metadata
      (:func:`fit_from_dump` pairs this with the dump).

    ``window_s`` must be a multiple of ``period_s`` so measured
    windows span whole sampler ticks.
    """
    if window_s < period_s:
        raise ValueError("window_s must be at least period_s")
    if abs(window_s / period_s - round(window_s / period_s)) > 1e-9:
        raise ValueError("window_s must be a whole multiple of period_s")
    os.makedirs(out_dir, exist_ok=True)
    spec = system.gpu_spec
    if kernels is None:
        kernels = DEFAULT_PROBE_KERNELS
    if clocks_mhz is None:
        probe_clocks = default_probe_clocks_mhz(spec)
    else:
        probe_clocks = tuple(
            to_mhz(spec.quantize_clock_hz(mhz(c))) for c in clocks_mhz
        )
    if len(set(probe_clocks)) < 3:
        raise ValueError(
            f"need at least 3 distinct probe clocks to fit alpha, "
            f"got {sorted(set(probe_clocks))}"
        )

    clock = VirtualClock()
    gpu = SimulatedGpu(spec, clock)
    sampler = PmtSampler(_DevicePmt(gpu), clock, period_s=period_s)
    sampler.start()

    windows: List[ProbeWindow] = []

    def record(phase: str, kernel: str, clock_mhz: float, t0: float,
               t1: float, flops: float = 0.0, bytes_moved: float = 0.0,
               intensity: float = 0.0, throttled: bool = False) -> None:
        windows.append(ProbeWindow(
            phase=phase, kernel=kernel, clock_mhz=clock_mhz,
            t0_s=t0, t1_s=t1, flops=flops, bytes_moved=bytes_moved,
            intensity=intensity, throttled=throttled,
        ))

    # Fixed roofline work per application kernel, chosen once at the
    # reference clock so durations *vary* with the clock (that
    # variation is what the A/r + B regression fits).
    ref_ratio = 1.0
    kernel_work: Dict[str, Tuple[float, float]] = {}
    for name in kernels:
        eff = spec.kernel_efficiency(name)
        compute_s = window_s / 2.0
        memory_s = window_s / 2.0
        kernel_work[name] = (
            compute_s * spec.fp_throughput * eff * ref_ratio,
            memory_s * spec.mem_bandwidth,
        )

    for clock_mhz in probe_clocks:
        set_hz = gpu.set_application_clocks(
            spec.memory_clock_hz, mhz(clock_mhz), charge_latency=False
        )
        actual_mhz = to_mhz(set_hz)
        ratio = set_hz / spec.max_clock_hz

        # Idle probe (aligned): P = P_idle * (0.80 + 0.20 * f/f_max).
        _align_to_tick(clock, sampler)
        t0 = clock.now
        clock.advance(window_s)
        record("idle", CALIBRATION_IDLE, actual_mhz, t0, clock.now)

        # Pure-compute probe (aligned): full-intensity FLOPs sized to
        # fill the window exactly at this clock, so the mean power over
        # [t0, t1] is the busy power — P_idle + P_dyn * ratio**alpha.
        _align_to_tick(clock, sampler)
        flops = window_s * spec.fp_throughput * ratio
        t0 = clock.now
        gpu.execute(KernelLaunch(
            name=CALIBRATION_COMPUTE, flops=flops, bytes_moved=0.0,
            power_intensity=1.0,
        ))
        record("compute", CALIBRATION_COMPUTE, actual_mhz, t0, clock.now,
               flops=flops, intensity=1.0,
               throttled=gpu.thermal_throttle_active)

        # Pure-memory probe: duration is clock-independent (bytes/BW),
        # so it is grid-aligned by construction.
        _align_to_tick(clock, sampler)
        bytes_moved = window_s * spec.mem_bandwidth
        t0 = clock.now
        gpu.execute(KernelLaunch(
            name=CALIBRATION_MEMORY, flops=0.0, bytes_moved=bytes_moved,
            power_intensity=0.35,
        ))
        record("memory", CALIBRATION_MEMORY, actual_mhz, t0, clock.now,
               bytes_moved=bytes_moved, intensity=0.35,
               throttled=gpu.thermal_throttle_active)

        # Application kernels: fixed work, duration read off the clock.
        for name, intensity in kernels.items():
            flops, bytes_moved = kernel_work[name]
            t0 = clock.now
            gpu.execute(KernelLaunch(
                name=name, flops=flops, bytes_moved=bytes_moved,
                power_intensity=intensity,
            ))
            record("kernel", name, actual_mhz, t0, clock.now,
                   flops=flops, bytes_moved=bytes_moved,
                   intensity=intensity,
                   throttled=gpu.thermal_throttle_active)

        # Cool-down idle keeps the die far from the throttle limit on
        # high-TDP parts and separates this clock's windows from the
        # next (also realigns after the unaligned kernel probes).
        _align_to_tick(clock, sampler)
        clock.advance(window_s)

    samples = sampler.stop()
    elapsed = clock.now

    meta: Dict[str, Any] = {
        "system": system.name,
        "gpu_name": spec.name,
        "vendor": spec.vendor,
        "period_s": period_s,
        "window_s": window_s,
        "max_clock_mhz": to_mhz(spec.max_clock_hz),
        # What a real calibration reads from the management library's
        # supported-clocks query; carried into emitted spec payloads.
        "clock_grid": {
            "min_mhz": to_mhz(spec.min_clock_hz),
            "max_mhz": to_mhz(spec.max_clock_hz),
            "step_mhz": to_mhz(spec.clock_step_hz),
            "default_mhz": to_mhz(spec.default_clock_hz),
            "memory_mhz": to_mhz(spec.memory_clock_hz),
        },
        "memory_gib": spec.memory_bytes / float(1 << 30),
    }

    trace_path = os.path.join(out_dir, f"{prefix}.trace.jsonl")
    dump_path = os.path.join(out_dir, f"{prefix}.pmt.dat")
    schedule_path = os.path.join(out_dir, f"{prefix}.schedule.json")

    events: List[Any] = [
        InstantEvent(name="calibration-meta", rank=0, ts_s=0.0,
                     track=TRACK_CLOCKS, args=meta)
    ]
    for w in windows:
        events.append(SpanEvent(
            name=w.kernel, rank=0, t0_s=w.t0_s, t1_s=w.t1_s,
            track=TRACK_FUNCTIONS,
            args={
                "calibration_phase": w.phase,
                "clock_mhz": w.clock_mhz,
                "flops": w.flops,
                "bytes": w.bytes_moved,
                "intensity": w.intensity,
                "throttled": w.throttled,
            },
        ))
    for s in samples:
        events.append(CounterEvent(
            name="power", rank=0, ts_s=s.timestamp_s,
            values={"joules": s.joules, "watts": s.watts},
        ))
    write_trace_jsonl(trace_path, events)
    sampler.dump(dump_path)
    with open(schedule_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                **schema_header(SCHEDULE_KIND),
                "meta": meta,
                "probes": [w.to_dict() for w in windows],
            },
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    return SweepResult(
        system=system.name,
        trace_path=trace_path,
        dump_path=dump_path,
        schedule_path=schedule_path,
        n_probes=len(windows),
        elapsed_s=elapsed,
        clocks_mhz=probe_clocks,
    )


# ---------------------------------------------------------------------------
# Fit
# ---------------------------------------------------------------------------


def _mean_power(ts: np.ndarray, js: np.ndarray, t0: float,
                t1: float) -> float:
    """Mean power over [t0, t1] from a cumulative-joules series.

    Exact when the boundaries coincide with samples (the aligned probe
    windows); linear interpolation otherwise.
    """
    if t1 <= t0:
        raise CalibrationError(f"degenerate probe window [{t0}, {t1}]")
    j0 = float(np.interp(t0, ts, js))
    j1 = float(np.interp(t1, ts, js))
    return (j1 - j0) / (t1 - t0)


def _fit(meta: Mapping[str, Any], windows: Sequence[ProbeWindow],
         ts: np.ndarray, js: np.ndarray) -> FitResult:
    """Shared least-squares core of both ingest paths."""
    if len(ts) < 2:
        raise CalibrationError("trace contains fewer than 2 power samples")
    max_clock_mhz = float(meta["max_clock_mhz"])
    usable = [w for w in windows if not w.throttled]
    dropped = len(windows) - len(usable)

    idle = [w for w in usable if w.phase == "idle"]
    compute = [w for w in usable if w.phase == "compute"]
    memory = [w for w in usable if w.phase == "memory"]
    kernel = [w for w in usable if w.phase == "kernel"]
    if len(idle) < 2 or len(compute) < 3:
        raise CalibrationError(
            f"need >= 2 idle and >= 3 compute probes at distinct clocks "
            f"(got {len(idle)} idle, {len(compute)} compute, "
            f"{dropped} dropped as throttled)"
        )

    # 1. Idle power: P = P_idle * (0.80 + 0.20 * r) — regression
    #    through the origin on x = 0.80 + 0.20 r.
    x = np.array([0.80 + 0.20 * (w.clock_mhz / max_clock_mhz)
                  for w in idle])
    y = np.array([_mean_power(ts, js, w.t0_s, w.t1_s) for w in idle])
    idle_power = float(np.dot(x, y) / np.dot(x, x))
    residual_idle = float(np.max(np.abs(y - idle_power * x)))

    # 2. Dynamic power + alpha: busy power at full intensity is
    #    P_idle + P_dyn * r**alpha, so log(P - P_idle) is linear in
    #    log r with slope alpha and intercept log P_dyn.
    ratios = np.array([w.clock_mhz / max_clock_mhz for w in compute])
    p_busy = np.array([_mean_power(ts, js, w.t0_s, w.t1_s)
                       for w in compute])
    excess = p_busy - idle_power
    if np.any(excess <= 0.0):
        raise CalibrationError(
            "compute-probe power does not exceed fitted idle power — "
            "the trace is inconsistent (wrong schedule or wrong dump?)"
        )
    if len(set(np.round(ratios, 9))) < 3:
        raise CalibrationError(
            "compute probes span fewer than 3 distinct clocks; "
            "alpha is not identifiable"
        )
    design = np.column_stack([np.ones_like(ratios), np.log(ratios)])
    coef, *_ = np.linalg.lstsq(design, np.log(excess), rcond=None)
    dyn_power = float(math.exp(coef[0]))
    alpha = float(coef[1])
    residual_dyn = float(np.max(np.abs(
        (idle_power + dyn_power * ratios**alpha) - p_busy
    )))

    # 3. Peak throughput from the pure-compute probes' durations:
    #    t = FLOPs / (T_fp * r)  =>  T_fp = FLOPs / (t * r).
    tfp = float(np.median(np.array([
        w.flops / (w.duration_s * (w.clock_mhz / max_clock_mhz))
        for w in compute if w.flops > 0.0
    ])))

    # 4. Memory bandwidth from the pure-memory probes (duration is
    #    clock-independent): BW = bytes / t.
    if memory:
        bandwidth = float(np.median(np.array([
            w.bytes_moved / w.duration_s
            for w in memory if w.bytes_moved > 0.0
        ])))
    else:
        bandwidth = 0.0

    # 5. Per-kernel roofline split: t(r) = A / r + B with A the
    #    compute seconds at f_max and B the clock-independent part.
    by_name: Dict[str, List[ProbeWindow]] = {}
    for w in kernel:
        by_name.setdefault(w.kernel, []).append(w)
    kernel_fits: List[KernelFit] = []
    for name in sorted(by_name):
        group = by_name[name]
        r = np.array([w.clock_mhz / max_clock_mhz for w in group])
        if len(set(np.round(r, 9))) < 2:
            continue  # A and B are not separable from one clock
        t = np.array([w.duration_s for w in group])
        design = np.column_stack([1.0 / r, np.ones_like(r)])
        (a, b), *_ = np.linalg.lstsq(design, t, rcond=None)
        a = float(a)
        b = float(max(b, 0.0))
        flops = group[0].flops
        efficiency = flops / (a * tfp) if a > 0.0 and flops > 0.0 else 1.0
        intensities = []
        for w in group:
            p = _mean_power(ts, js, w.t0_s, w.t1_s)
            rr = w.clock_mhz / max_clock_mhz
            denom = dyn_power * rr**alpha
            if denom > 0.0:
                intensities.append((p - idle_power) / denom)
        kernel_fits.append(KernelFit(
            name=name,
            compute_seconds_ref=a,
            memory_seconds=b,
            efficiency=efficiency,
            compute_fraction_max=a / (a + b) if (a + b) > 0.0 else 0.0,
            intensity_estimate=(
                float(np.median(intensities)) if intensities else 0.0
            ),
        ))

    return FitResult(
        system=str(meta.get("system", "")),
        gpu_name=str(meta.get("gpu_name", "")),
        vendor=str(meta.get("vendor", "")),
        max_clock_mhz=max_clock_mhz,
        idle_power_w=idle_power,
        dynamic_power_w=dyn_power,
        power_exponent=alpha,
        fp_throughput=tfp,
        mem_bandwidth=bandwidth,
        kernels=tuple(kernel_fits),
        n_windows=len(usable),
        clocks_mhz=tuple(sorted({w.clock_mhz for w in usable},
                                reverse=True)),
        residual_idle_w=residual_idle,
        residual_dynamic_w=residual_dyn,
        clock_grid=dict(meta.get("clock_grid", {})),
    )


def fit_from_trace(trace_path: str) -> FitResult:
    """Fit from a self-contained telemetry JSONL trace."""
    meta: Optional[Mapping[str, Any]] = None
    windows: List[ProbeWindow] = []
    times: List[float] = []
    joules: List[float] = []
    for event in read_trace_jsonl(trace_path):
        if isinstance(event, InstantEvent) and event.name == "calibration-meta":
            meta = dict(event.args)
        elif isinstance(event, SpanEvent) and "calibration_phase" in event.args:
            windows.append(ProbeWindow(
                phase=str(event.args["calibration_phase"]),
                kernel=event.name,
                clock_mhz=float(event.args["clock_mhz"]),
                t0_s=event.t0_s,
                t1_s=event.t1_s,
                flops=float(event.args.get("flops", 0.0)),
                bytes_moved=float(event.args.get("bytes", 0.0)),
                intensity=float(event.args.get("intensity", 0.0)),
                throttled=bool(event.args.get("throttled", False)),
            ))
        elif isinstance(event, CounterEvent) and event.name == "power":
            if "joules" in event.values:
                times.append(event.ts_s)
                joules.append(event.values["joules"])
    if meta is None:
        raise CalibrationError(
            f"{trace_path}: no 'calibration-meta' event — this is not a "
            "calibration trace (see repro calibrate sweep)"
        )
    order = np.argsort(np.array(times))
    return _fit(meta, windows,
                np.array(times)[order], np.array(joules)[order])


def load_schedule(path: str) -> Tuple[Dict[str, Any], List[ProbeWindow]]:
    """Read a schedule sidecar; returns (meta, probe windows)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    check_schema_header(payload, SCHEDULE_KIND)
    meta = dict(payload["meta"])
    windows = [ProbeWindow.from_dict(p) for p in payload["probes"]]
    return meta, windows


def fit_from_dump(dump_path: str, schedule_path: str) -> FitResult:
    """Fit from a PMT dump plus its schedule sidecar."""
    meta, windows = load_schedule(schedule_path)
    samples: List[Sample] = PmtSampler.load_dump(dump_path)
    if not samples:
        raise CalibrationError(f"{dump_path}: dump contains no samples")
    ts = np.array([s.timestamp_s for s in samples])
    js = np.array([s.joules for s in samples])
    order = np.argsort(ts)
    return _fit(meta, windows, ts[order], js[order])


# ---------------------------------------------------------------------------
# Spec emission and verification
# ---------------------------------------------------------------------------


def fit_to_spec_payload(
    fit: FitResult,
    base_system: SystemConfig,
    name: Optional[str] = None,
    efficiency_tolerance: float = 0.02,
) -> Dict[str, Any]:
    """Express a fit as a catalog spec payload.

    The GPU power/compute sections come from the fit; everything a
    power trace cannot determine (CPU, node power, measurement stack,
    overlays) is inherited from ``base_system``. Fitted per-kernel
    efficiencies within ``efficiency_tolerance`` of 1.0 are dropped —
    1.0 is the dataclass default, so near-unity entries are noise.
    """
    payload = spec_payload_from_system(
        base_system,
        description=f"calibrated from a measured trace of "
                    f"{fit.gpu_name or base_system.gpu_spec.name}",
    )
    payload["name"] = name or fit.system or base_system.name
    gpu = payload["gpu"]
    if fit.gpu_name:
        gpu["name"] = fit.gpu_name
    if fit.vendor:
        gpu["vendor"] = fit.vendor
    if fit.clock_grid:
        gpu["clocks"] = {k: float(v) for k, v in fit.clock_grid.items()}
    gpu["power"] = {
        "idle_w": round(fit.idle_power_w, 2),
        "max_w": round(fit.idle_power_w + fit.dynamic_power_w, 2),
        "exponent": round(fit.power_exponent, 4),
    }
    gpu["compute"]["fp64_gflops"] = round(fit.fp_throughput / 1.0e9, 1)
    if fit.mem_bandwidth > 0.0:
        gpu["compute"]["mem_bandwidth_gbps"] = round(
            fit.mem_bandwidth / 1.0e9, 1
        )
    efficiencies = {
        k.name: round(k.efficiency, 3)
        for k in fit.kernels
        if abs(k.efficiency - 1.0) > efficiency_tolerance
    }
    if efficiencies:
        gpu["arch_efficiency"] = efficiencies
    else:
        gpu.pop("arch_efficiency", None)
    return payload


def verify_fit(fit: FitResult, spec) -> Dict[str, Any]:
    """Relative errors of a fit against a ground-truth :class:`GpuSpec`.

    Returns a dict of relative errors (fractions, not percent); the
    ``kernels`` entry maps kernel names to their efficiency and
    compute-fraction errors. This is what the round-trip tests and
    ``repro calibrate --smoke`` assert tolerances on.
    """
    def rel(measured: float, truth: float) -> float:
        if truth == 0.0:
            return abs(measured)
        return abs(measured - truth) / abs(truth)

    errors: Dict[str, Any] = {
        "idle_power_w": rel(fit.idle_power_w, spec.idle_power_w),
        "dynamic_power_w": rel(fit.dynamic_power_w, spec.dynamic_power_w),
        "power_exponent": rel(fit.power_exponent, spec.power_exponent),
        "fp_throughput": rel(fit.fp_throughput, spec.fp_throughput),
    }
    if fit.mem_bandwidth > 0.0:
        errors["mem_bandwidth"] = rel(fit.mem_bandwidth, spec.mem_bandwidth)
    kernels: Dict[str, Dict[str, float]] = {}
    for k in fit.kernels:
        truth_eff = spec.kernel_efficiency(k.name)
        # Ground-truth compute fraction at f_max for the probe's work
        # mix, rebuilt from the fit's own FLOP/byte volumes: the sweep
        # sized each kernel at compute_s = memory_s, so the true kappa
        # follows from the spec's roofline on that same work.
        a_truth = (k.compute_seconds_ref * k.efficiency * fit.fp_throughput
                   / (spec.fp_throughput * truth_eff)
                   if truth_eff > 0.0 else 0.0)
        mix_truth = a_truth / (a_truth + k.memory_seconds) \
            if (a_truth + k.memory_seconds) > 0.0 else 0.0
        kernels[k.name] = {
            "efficiency": rel(k.efficiency, truth_eff),
            "compute_fraction_max": rel(k.compute_fraction_max, mix_truth),
        }
    if kernels:
        errors["kernels"] = kernels
    return errors
