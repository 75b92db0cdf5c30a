"""Unit execution in worker processes.

Everything here is importable at module top level and traffics only in
plain dicts, because :class:`concurrent.futures.ProcessPoolExecutor`
pickles the callable and its arguments into the worker and the return
value back out. A worker never lets an exception escape: it classifies
the failure with the :mod:`repro.faults` / controller error taxonomy
(transient → worth retrying, permanent → record and move on) and
returns a structured outcome either way, so fault classification
happens *in* the process that owns the exception object and nothing
depends on cross-process exception pickling.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional

from ..checkpoint import CheckpointError, checkpoint_exists, read_checkpoint
from ..core import (
    DvfsPolicy,
    EnergyReport,
    FrequencyController,
    FrequencyPolicy,
    ManDynPolicy,
    OnlineTuningPolicy,
    ResilienceConfig,
    StaticFrequencyPolicy,
    baseline_policy,
)
from ..faults import FaultInjector, JobPreempted, build_plan
from ..nvml.errors import NVMLError
from ..pmt.base import PowerReadError
from ..rocm.smi import RocmSmiError
from ..sph import run_instrumented
from ..systems import Cluster, by_name
from ..telemetry import TraceCollector, TraceContext
from ..units import to_mhz
from .spec import run_key

#: The Fig. 2 outcome, used when a mandyn policy entry omits its map:
#: the two compute-bound kernels stay at the device maximum, everything
#: else drops to the deep sweet spot.
DEFAULT_MANDYN_FUNCTIONS = ("MomentumEnergy", "IADVelocityDivCurl")
DEFAULT_MANDYN_LOW_MHZ = 1005.0


def build_policy(
    policy: Mapping[str, Any], max_mhz: float, cluster: Optional[Cluster] = None
) -> FrequencyPolicy:
    """Instantiate a :class:`FrequencyPolicy` from its canonical dict."""
    kind = policy["kind"]
    if kind == "baseline":
        return baseline_policy(max_mhz)
    if kind == "static":
        return StaticFrequencyPolicy(float(policy["freq_mhz"]))
    if kind == "dvfs":
        return DvfsPolicy()
    if kind == "mandyn":
        freq_map = policy.get("freq_map")
        if freq_map is None:
            freq_map = {fn: max_mhz for fn in DEFAULT_MANDYN_FUNCTIONS}
        default = policy.get("default_mhz", DEFAULT_MANDYN_LOW_MHZ)
        return ManDynPolicy(dict(freq_map), default_mhz=float(default))
    if kind == "autodyn":
        if cluster is None:
            raise ValueError("autodyn policies need a cluster to observe")
        kwargs: Dict[str, Any] = {}
        if "candidates_mhz" in policy:
            kwargs["candidates_mhz"] = tuple(policy["candidates_mhz"])
        if "rounds_per_candidate" in policy:
            kwargs["rounds_per_candidate"] = policy["rounds_per_candidate"]
        return OnlineTuningPolicy(cluster.gpus, **kwargs)
    raise ValueError(f"unknown policy kind {kind!r}")


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for a unit-level failure.

    Reuses the frequency controller's vendor-error taxonomy (NVML
    timeout/unknown and RSMI busy are transient; lost devices and
    permission walls are not) and extends it to campaign-level failure
    modes: power-read dropouts and Slurm-style preemptions are
    transient — a re-run may well succeed — while programming errors
    are permanent.
    """
    if isinstance(exc, (NVMLError, RocmSmiError)):
        severity = FrequencyController._classify(exc)
        return "transient" if severity == "transient" else "permanent"
    if isinstance(exc, (PowerReadError, JobPreempted, TimeoutError)):
        return "transient"
    if isinstance(exc, (OSError, ConnectionError)):
        return "transient"
    return "permanent"


def _metrics_of(result) -> Dict[str, Any]:
    """The comparable scalar metrics of one finished run."""
    return {
        "elapsed_s": result.elapsed_s,
        "gpu_energy_j": result.gpu_energy_j,
        "total_energy_j": result.report.total_j(),
        "edp_j_s": result.edp,
        "steps": result.steps,
        "clock_set_calls": result.clock_set_calls,
        "clock_set_skipped": result.clock_set_skipped,
        "degraded_ranks": list(result.degraded_ranks),
        "preempted": result.preempted,
        "faults_injected": result.faults_injected,
        "retries": result.retries,
        "resumed_from_step": result.resumed_from_step,
        "checkpoints_written": result.checkpoints_written,
    }


def _write_beat(path: str, payload: Mapping[str, Any]) -> None:
    """Atomically persist one unit beat; never raises.

    Beats are pure liveness evidence for the executor's pool
    supervision — losing one must not take the unit down.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(dict(payload), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - disk-full / perms only
        pass


def _install_preempt_signal_handler() -> None:
    """Deliver SIGTERM to the step loop as a :class:`JobPreempted`.

    A scheduler (or the campaign executor reaping a lane) terminates
    workers with SIGTERM; raising :class:`JobPreempted` routes that
    through the simulation's preemption path, which persists a final
    checkpoint at the last completed step boundary before unwinding.
    Signal handlers only install on the main thread of a process —
    inline (serial) execution inside a service worker thread simply
    skips this, keeping SIGTERM semantics owned by the host process.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise_preempted(signum, frame):  # noqa: ARG001 - signal ABI
        raise JobPreempted(time_s=0.0, steps_done=-1)

    try:
        signal.signal(signal.SIGTERM, _raise_preempted)
    except ValueError:  # pragma: no cover - non-main interpreter thread
        pass


def execute_unit(
    config: Mapping[str, Any],
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    on_step: Optional[Callable[[int], None]] = None,
    trace: Optional[Mapping[str, Any]] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one campaign unit to completion; raises on failure.

    The returned payload carries the scalar metrics plus the full
    per-rank :class:`~repro.core.EnergyReport` as a dict, so the run
    store can persist a durable, re-analyzable artifact.

    With ``checkpoint_path`` set, an existing checkpoint at that path
    is restored (the retry-after-crash path: the unit resumes at its
    recorded step instead of step 0) and, with ``checkpoint_every >
    0``, fresh snapshots are written on that cadence. The payload's
    ``checkpoint`` field records ``"hit"`` or ``"miss"`` provenance.
    A preempted run with checkpointing enabled re-raises
    :class:`JobPreempted` — its state *is* durable at the checkpoint,
    so the executor's transient-retry path finishes the remaining
    steps rather than recording a truncated result.

    With ``trace`` (a :class:`~repro.telemetry.TraceContext` dict — the
    context travels in the *call*, never inside ``config``, so the
    unit's content-addressed run key is unaffected) the run executes
    under a :class:`~repro.telemetry.TraceCollector` that writes one
    clock-aligned ``merged.jsonl`` into ``trace_dir`` as the run ends;
    the payload's ``trace`` field records the trace id and merged
    event count. A checkpointed restore keeps the checkpoint's trace
    identity (same trace id, new span lineage), so a resumed unit stays
    correlated to the request that first launched it.
    """
    system = by_name(config["system"])
    cluster = Cluster(system, int(config["ranks"]))
    injector = None
    resilience = None
    restore_from = None
    if checkpoint_path is not None and checkpoint_exists(checkpoint_path):
        try:
            read_checkpoint(checkpoint_path)
        except CheckpointError:
            # A torn or foreign checkpoint must not poison the retry:
            # drop it and start the unit from step 0.
            try:
                os.unlink(checkpoint_path)
            except OSError:
                pass
        else:
            restore_from = checkpoint_path
    trace_ctx: Optional[TraceContext] = None
    telemetry: Optional[TraceCollector] = None
    if trace is not None:
        trace_ctx = TraceContext.from_dict(trace)
        telemetry = TraceCollector.for_cluster(cluster)
        telemetry.configure_tracing(trace_ctx, trace_dir=trace_dir)
    try:
        max_mhz = to_mhz(system.gpu_spec.max_clock_hz)
        policy = build_policy(config["policy"], max_mhz, cluster=cluster)
        scenario = config.get("fault_scenario")
        if scenario is not None:
            plan = build_plan(
                scenario,
                seed=int(config["seed"]),
                n_ranks=int(config["ranks"]),
            )
            injector = FaultInjector(plan)
            resilience = ResilienceConfig()
        result = run_instrumented(
            cluster,
            config["workload"],
            float(config["particles"]),
            int(config["steps"]),
            policy=policy,
            telemetry=telemetry,
            resilience=resilience,
            faults=injector,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            restore_from=restore_from,
            checkpoint_fingerprint=(
                run_key(config) if checkpoint_path is not None else None
            ),
            on_step=on_step,
        )
    finally:
        cluster.detach_management_library()
    if result.preempted and checkpoint_path is not None:
        # The preemption checkpoint is on disk; surface the
        # interruption so the executor retries from it.
        raise JobPreempted(time_s=result.elapsed_s, steps_done=result.steps)
    payload: Dict[str, Any] = {
        "metrics": _metrics_of(result),
        "report": result.report.to_dict(),
    }
    if checkpoint_path is not None:
        payload["checkpoint"] = "hit" if restore_from is not None else "miss"
    if injector is not None:
        payload["faults"] = injector.summary()
    if trace_ctx is not None and trace_dir is not None:
        # The run wrote its merged trace as it ended. A failed write
        # loses the artifact (0 events), never the unit's result.
        traced = telemetry.flushed_events
        payload["trace"] = {
            "trace_id": (
                telemetry.context.trace_id if traced else trace_ctx.trace_id
            ),
            "span_id": trace_ctx.span_id,
            "events": traced,
        }
    return payload


def run_unit_safe(
    config: Mapping[str, Any],
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    beat_path: Optional[str] = None,
    trace: Optional[Mapping[str, Any]] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Pool entry point: execute one unit, never raise.

    ``checkpoint_path``/``checkpoint_every`` enable crash-tolerant
    execution (see :func:`execute_unit`); ``beat_path`` names the unit's
    beat file, which a pool worker writes as the unit starts and after
    every simulation step so the executor's supervision can tell slow
    from dead (the inline drain passes none: nothing supervises it).
    ``trace``/``trace_dir`` enable distributed tracing (see
    :func:`execute_unit`).
    """
    t0 = time.perf_counter()
    if checkpoint_path is not None:
        _install_preempt_signal_handler()
    on_step = None
    if beat_path is not None:
        unit_key = run_key(config)

        def on_step(steps_done: int) -> None:
            _write_beat(
                beat_path,
                {
                    "updated_s": time.time(),
                    "pid": os.getpid(),
                    "key": unit_key,
                    "step": steps_done,
                },
            )

        # The start beat: a unit that hangs before its first step
        # completes is still judged from a beat of its own.
        on_step(0)

    try:
        result = execute_unit(
            config,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            on_step=on_step,
            trace=trace,
            trace_dir=trace_dir,
        )
    except BaseException as exc:  # noqa: BLE001 - classified, not hidden
        return {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "severity": classify_error(exc),
            },
            "wall_s": time.perf_counter() - t0,
        }
    return {
        "ok": True,
        "result": result,
        "wall_s": time.perf_counter() - t0,
    }


def report_from_result(artifact: Mapping[str, Any]) -> EnergyReport:
    """Rehydrate the :class:`EnergyReport` stored in a run artifact."""
    return EnergyReport.from_dict(artifact["result"]["report"])
