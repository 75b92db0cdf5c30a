"""The instrumented simulation facade.

Ties together the cluster hardware, the per-rank workload models, the
optional numeric backend, the frequency-scaling policy (through the
NVML/ROCm controller) and the energy profiler — i.e. this module *is*
the instrumented SPH-EXA of the paper:

* hooks fire around every step function (§III-B);
* the frequency controller pins application clocks before each
  function according to the active policy (§III-D);
* the energy profiler measures per-function, per-device energy per
  rank, gathered only at the end of the run (§III-B);
* Slurm-visible setup (data allocation, host-to-device transfer)
  advances simulated time *before* the instrumented window opens,
  creating the PMT-vs-Slurm gap of Fig. 3.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from ..core.controller import FrequencyController, ResilienceConfig
from ..core.energy import EnergyProfiler, EnergyReport, make_profiler
from ..core.freq_policy import FrequencyPolicy, baseline_policy
from ..core.hooks import HookRegistry
from ..faults.injector import FaultInjector, JobPreempted
from ..units import to_mhz
from .numeric import NumericProblem
from .propagator import StepFunction, propagator_for
from .workload import REFERENCE_NEIGHBORS, WorkloadModel

#: Fixed application-initialization cost (binary, IC generation, MPI).
INIT_BASE_S = 3.0

#: Per-particle allocation + host-to-device transfer time.
INIT_PER_PARTICLE_S = 3.0e-8

#: Wire bytes per model-mode halo particle.
MODEL_HALO_BYTES = 88.0


@dataclass
class SimulationResult:
    """Outcome of one instrumented run."""

    report: EnergyReport
    elapsed_s: float
    gpu_energy_j: float
    steps: int
    clock_set_calls: int
    dt_history: List[float] = field(default_factory=list)
    clock_set_skipped: int = 0
    #: Ranks whose frequency control degraded to the DVFS governor.
    degraded_ranks: List[int] = field(default_factory=list)
    #: True when the run was cut short by a (simulated) Slurm preemption.
    preempted: bool = False
    #: Faults delivered by the attached injector during the run.
    faults_injected: int = 0
    #: Transient-error retries the controller performed.
    retries: int = 0
    #: Step the run resumed from (0 = started from scratch).
    resumed_from_step: int = 0
    #: Periodic checkpoints written during this run.
    checkpoints_written: int = 0

    @property
    def edp(self) -> float:
        return self.elapsed_s * self.gpu_energy_j

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_ranks)


class Simulation:
    """One instrumented simulation on a cluster.

    Parameters
    ----------
    cluster:
        :class:`~repro.systems.Cluster` (hardware + comm already built).
    workload_name:
        ``"SubsonicTurbulence"`` or ``"EvrardCollapse"`` (Table I).
    n_particles_per_rank:
        Local problem size fed to the GPU cost model. In numeric mode
        the real decomposition counts override this each step.
    policy:
        Frequency-scaling strategy; defaults to the pinned-max baseline.
    numeric:
        Optional :class:`~repro.sph.numeric.NumericProblem` running the
        real physics alongside the cost model.
    telemetry:
        Optional :class:`~repro.telemetry.TraceCollector`. When given,
        it is bound to the cluster, registered as the *innermost* hook
        (so its spans cover exactly the profiler's measured windows)
        and attached to the frequency controller for clock-change
        instants. When ``None`` — the default — no extra hooks are
        registered and the run is bit-for-bit identical to an
        un-traced one.
    resilience:
        Optional :class:`~repro.core.controller.ResilienceConfig`. When
        given, the frequency controller retries transient
        management-library errors and degrades failing ranks to their
        DVFS governor instead of propagating; when ``None`` — the
        default — vendor errors are fail-loud, exactly as before.
    faults:
        Optional :class:`~repro.faults.FaultInjector`. When given, it
        is bound to the cluster's clocks (and the telemetry collector,
        if any), installed over the vendor layers for the duration of
        :meth:`run`, and polled for job preemption once per step. A
        preempted run returns a partial result flagged ``preempted``
        rather than raising.
    monitor:
        Optional :class:`~repro.monitor.Monitor`. When given, it is
        bound to the cluster and the frequency controller (sharing the
        telemetry collector, if any); the device sampler starts after
        initialization — covering exactly the instrumented window — and
        stops when the run finishes. When ``None`` — the default — no
        monitoring happens and the run is unchanged.
    """

    def __init__(
        self,
        cluster,
        workload_name: str,
        n_particles_per_rank: float,
        policy: Optional[FrequencyPolicy] = None,
        numeric: Optional[NumericProblem] = None,
        mean_neighbors: float = REFERENCE_NEIGHBORS,
        telemetry=None,
        resilience: Optional[ResilienceConfig] = None,
        faults: Optional[FaultInjector] = None,
        monitor=None,
    ) -> None:
        self.cluster = cluster
        self.workload_name = workload_name
        self.functions: List[StepFunction] = propagator_for(workload_name)
        with_gravity = any(f.name == "Gravity" for f in self.functions)
        self.workloads: List[WorkloadModel] = [
            WorkloadModel(
                n_particles_per_rank, mean_neighbors, with_gravity
            )
            for _ in range(cluster.n_ranks)
        ]
        self.numeric = numeric
        if numeric is not None and numeric.n_ranks != cluster.n_ranks:
            raise ValueError("numeric problem rank count must match cluster")

        if policy is None:
            policy = baseline_policy(
                to_mhz(cluster.gpus[0].spec.default_clock_hz)
            )
        self.policy = policy
        self.controller = FrequencyController(
            cluster.gpus, policy, resilience=resilience
        )
        self.profiler: EnergyProfiler = make_profiler(cluster)
        self.hooks = HookRegistry()
        # Controller outside, profiler inside: clock-set latency before a
        # function is charged to the caller, not to the function itself.
        self.hooks.register(self.controller)
        # Policies that measure (e.g. OnlineTuningPolicy) are hooks too.
        if hasattr(policy, "before_function") and hasattr(
            policy, "after_function"
        ):
            self.hooks.register(policy)
        self.hooks.register(self.profiler)
        # Telemetry is opt-in and innermost: its spans open/close at the
        # same clock readings as the profiler's, making the
        # trace-vs-report reconciliation exact; a run without a
        # collector registers no extra hooks at all.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_cluster(cluster)
            self.controller.telemetry = telemetry
            self.hooks.register(telemetry)
        self.faults = faults
        if faults is not None:
            faults.bind_cluster(cluster)
            if telemetry is not None and faults.telemetry is None:
                faults.telemetry = telemetry
        self.monitor = monitor
        if monitor is not None:
            if monitor.telemetry is None and telemetry is not None:
                monitor.telemetry = telemetry
            if not monitor.bound:
                monitor.bind_cluster(cluster, controller=self.controller)
            else:
                monitor.bind_controller(self.controller)
        self.dt_history: List[float] = []
        self._initialized = False

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Application setup: allocation + host-to-device data movement.

        Runs before the instrumented window — the paper's explanation
        for PMT reading less than Slurm (Fig. 3): GPUs idle here.
        """
        if self._initialized:
            return
        for rank, clock in enumerate(self.cluster.clocks):
            n_local = self.workloads[rank].n_particles
            clock.advance(INIT_BASE_S + INIT_PER_PARTICLE_S * n_local)
        self.cluster.comm.barrier()
        self.controller.apply_initial_mode()
        self._initialized = True

    def run(
        self,
        n_steps: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        restore_from: Optional[str] = None,
        checkpoint_fingerprint: Optional[str] = None,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> SimulationResult:
        """Execute the instrumented time-stepping loop up to ``n_steps``.

        With a fault injector attached, the vendor layers are wrapped
        for the duration of the run (including initialization — the
        initial clock pin can fail too), preemption is polled between
        steps, and the result carries the degradation outcome: which
        ranks fell back to DVFS, whether the run was preempted, and how
        many faults were delivered.

        Crash tolerance: with ``checkpoint_every > 0`` and a
        ``checkpoint_path``, a full state snapshot is written atomically
        every that many completed steps (and at a preemption boundary).
        With ``restore_from`` naming an existing checkpoint, the run
        resumes from its recorded step instead of step 0 — the loop
        executes only the remaining steps, and the final result is
        bit-identical to an uninterrupted run. ``n_steps`` is always the
        *total* step count. ``checkpoint_fingerprint`` (e.g. a campaign
        run key) guards against restoring a checkpoint from a different
        configuration. ``on_step`` is invoked with the completed-step
        count after every step (worker-lane heartbeats hang off it).
        """
        if n_steps < 1:
            raise ValueError("need at least one step")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        injected = self.faults
        resumed_from = 0
        checkpoints_written = 0
        if restore_from is not None:
            state = read_checkpoint(restore_from)
            self._check_compatible(state, checkpoint_fingerprint)
            resumed_from = self.restore(state)
            if resumed_from > n_steps:
                raise CheckpointError(
                    f"checkpoint is at step {resumed_from}, beyond the "
                    f"requested {n_steps}"
                )
        steps_done = resumed_from
        preempted = False
        try:
            return self._run_loop(
                n_steps,
                steps_done,
                preempted,
                resumed_from,
                checkpoints_written,
                injected,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                checkpoint_fingerprint=checkpoint_fingerprint,
                on_step=on_step,
            )
        finally:
            self._flush_trace()

    def _flush_trace(self) -> None:
        """Write the run's merged trace into its trace dir.

        Observability must never take down a run, so failures are
        swallowed (the run's numbers stand; only the trace artifact is
        lost).
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        if getattr(telemetry, "context", None) is None:
            return
        if getattr(telemetry, "trace_dir", None) is None:
            return
        try:
            telemetry.flush_shards()
        except Exception:
            pass

    def _run_loop(
        self,
        n_steps: int,
        steps_done: int,
        preempted: bool,
        resumed_from: int,
        checkpoints_written: int,
        injected,
        *,
        checkpoint_every: int,
        checkpoint_path: Optional[str],
        checkpoint_fingerprint: Optional[str],
        on_step: Optional[Callable[[int], None]],
    ) -> SimulationResult:
        with injected if injected is not None else nullcontext():
            if resumed_from == 0:
                self.initialize()
                # The sampler opens with the instrumented window, so the
                # setup phase (idle GPUs, one long clock advance) does
                # not masquerade as a sampling gap.
                if self.monitor is not None and not self.monitor.running:
                    self.monitor.start()
                self.profiler.open_window()
            elif self.monitor is not None and not self.monitor.running:
                # The restored profiler window is already open; the
                # monitor restarts fresh (sampling is observability,
                # not result state).
                self.monitor.start()
            try:
                while steps_done < n_steps:
                    if injected is not None:
                        injected.check_preemption(steps_done)
                    self._run_step()
                    steps_done += 1
                    if on_step is not None:
                        on_step(steps_done)
                    if (
                        checkpoint_every > 0
                        and steps_done % checkpoint_every == 0
                    ):
                        self.save_checkpoint(
                            checkpoint_path,
                            n_steps=n_steps,
                            steps_done=steps_done,
                            fingerprint=checkpoint_fingerprint,
                        )
                        checkpoints_written += 1
            except JobPreempted as exc:
                preempted = True
                if checkpoint_path is not None:
                    # check_preemption raises between steps, so the
                    # state is at a boundary; an async (signal-raised)
                    # preemption mid-step is refused by the profiler
                    # guard and the last periodic checkpoint stands.
                    try:
                        self.save_checkpoint(
                            checkpoint_path,
                            n_steps=n_steps,
                            steps_done=steps_done,
                            fingerprint=checkpoint_fingerprint,
                        )
                        checkpoints_written += 1
                    except (RuntimeError, CheckpointError):
                        pass
                if self.telemetry is not None:
                    self.telemetry.emit_instant(
                        "job-preempted",
                        0,
                        track="faults",
                        steps_done=exc.steps_done,
                    )
            self.profiler.close_window()
            if self.monitor is not None:
                self.monitor.stop()
        report = self.profiler.gather(self.cluster.comm)
        for degradation in self.controller.degradations:
            report.mark_degraded(degradation.rank, degradation.reason)
        return SimulationResult(
            report=report,
            elapsed_s=report.max_window_time_s(),
            gpu_energy_j=report.total_window_gpu_j(),
            steps=steps_done,
            clock_set_calls=self.controller.clock_set_calls,
            dt_history=list(self.dt_history),
            clock_set_skipped=self.controller.clock_set_skipped,
            degraded_ranks=self.controller.degraded_ranks,
            preempted=preempted,
            faults_injected=(
                len(injected.records) if injected is not None else 0
            ),
            retries=self.controller.retries_performed,
            resumed_from_step=resumed_from,
            checkpoints_written=checkpoints_written,
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def state_dict(
        self,
        n_steps: int,
        steps_done: int,
        fingerprint: Optional[str] = None,
    ) -> Dict[str, object]:
        """Complete simulation state at a step boundary.

        Raises :class:`RuntimeError` when called mid-step (open
        profiler measurements) — a checkpoint must never capture a
        half-executed step.
        """
        state: Dict[str, object] = {
            "workload": self.workload_name,
            "policy": self.policy.name,
            "n_steps": int(n_steps),
            "steps_done": int(steps_done),
            "fingerprint": fingerprint,
            "initialized": self._initialized,
            "cluster": self.cluster.state_dict(),
            "profiler": self.profiler.state_dict(),
            "controller": self.controller.state_dict(),
            "policy_state": self.policy.state_dict(),
            "workloads": [
                {
                    "n_particles": w.n_particles,
                    "mean_neighbors": w.mean_neighbors,
                    "with_gravity": w.with_gravity,
                }
                for w in self.workloads
            ],
            "dt_history": list(self.dt_history),
            "numeric": (
                None if self.numeric is None else self.numeric.state_dict()
            ),
            "faults": (
                None if self.faults is None else self.faults.state_dict()
            ),
            "telemetry": (
                self.telemetry.state_dict()
                if self.telemetry is not None
                and hasattr(self.telemetry, "state_dict")
                else None
            ),
        }
        return state

    def save_checkpoint(
        self,
        path: str,
        n_steps: int,
        steps_done: int,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Atomically write a checkpoint of the current state."""
        write_checkpoint(
            path,
            self.state_dict(
                n_steps, steps_done, fingerprint=fingerprint
            ),
        )

    def _check_compatible(
        self, state: Dict[str, object], fingerprint: Optional[str]
    ) -> None:
        if state.get("workload") != self.workload_name:
            raise CheckpointError(
                f"checkpoint is for workload {state.get('workload')!r}, "
                f"not {self.workload_name!r}"
            )
        if state.get("policy") != self.policy.name:
            raise CheckpointError(
                f"checkpoint is for policy {state.get('policy')!r}, "
                f"not {self.policy.name!r}"
            )
        saved = state.get("fingerprint")
        if fingerprint is not None and saved not in (None, fingerprint):
            raise CheckpointError(
                f"checkpoint fingerprint {saved!r} does not match "
                f"{fingerprint!r}"
            )
        if (self.numeric is None) != (state.get("numeric") is None):
            raise CheckpointError(
                "checkpoint and simulation disagree on numeric mode"
            )
        if (self.faults is None) != (state.get("faults") is None):
            raise CheckpointError(
                "checkpoint and simulation disagree on fault injection"
            )

    def restore(self, state: Dict[str, object]) -> int:
        """Restore a :meth:`state_dict`; returns the completed-step count.

        The restored simulation is mid-window: :meth:`run` skips
        ``initialize``/``open_window`` and continues the loop from the
        returned step.
        """
        self.cluster.restore_state(state["cluster"])
        self.profiler.restore_state(state["profiler"])
        self.controller.restore_state(state["controller"])
        self.policy.restore_state(state["policy_state"])
        self.workloads = [
            WorkloadModel(
                w["n_particles"], w["mean_neighbors"], w["with_gravity"]
            )
            for w in state["workloads"]
        ]
        self.dt_history = [float(dt) for dt in state["dt_history"]]
        if self.numeric is not None:
            self.numeric.restore_state(state["numeric"])
        if self.faults is not None:
            self.faults.restore_state(state["faults"])
        if (
            self.telemetry is not None
            and hasattr(self.telemetry, "restore_state")
            and state.get("telemetry") is not None
        ):
            self.telemetry.restore_state(state["telemetry"])
        self._initialized = bool(state["initialized"])
        return int(state["steps_done"])

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------

    def _run_step(self) -> None:
        for fn in self.functions:
            self._run_function(fn)
        self.profiler.mark_step()
        if self.telemetry is not None:
            self.telemetry.mark_step()

    def _run_function(self, fn: StepFunction) -> None:
        n_ranks = self.cluster.n_ranks
        for rank in range(n_ranks):
            self.hooks.fire_before(fn.name, rank)

        # Per-rank GPU work (each rank advances its own clock).
        for rank in range(n_ranks):
            gpu = self.cluster.gpu_of_rank(rank)
            for launch in self.workloads[rank].launches_for(fn.name):
                gpu.execute(launch)

        # Real numerics (no simulated-time cost: the GPU model carries it).
        if self.numeric is not None:
            self._dispatch_numeric(fn.name)

        # Trailing collective, inside the function's measured window.
        if fn.collective == "allreduce":
            self._run_allreduce(fn)
        elif fn.collective == "exchange":
            self._run_exchange(fn)

        # Host-side tail (physical-time computation, bookkeeping): the
        # GPUs idle here, letting the DVFS governor clock down (Fig. 9).
        # CPU-frequency scaling (--cpu-freq) slows exactly these phases.
        if fn.host_overhead_s > 0.0:
            for rank, clock in enumerate(self.cluster.clocks):
                slowdown = self.cluster.cpu_slowdown_factor(rank)
                clock.advance(fn.host_overhead_s * slowdown)

        for rank in range(n_ranks):
            self.hooks.fire_after(fn.name, rank)

    def _dispatch_numeric(self, name: str) -> None:
        problem = self.numeric
        assert problem is not None
        if name == "DomainDecompAndSync":
            problem.domain_decomp_and_sync()
            self._refresh_workloads(particles=True)
        elif name == "FindNeighbors":
            problem.find_neighbors()
            self._refresh_workloads(neighbors=True)
        elif name == "XMass":
            problem.xmass()
        elif name == "NormalizationGradh":
            problem.normalization_gradh()
        elif name == "EquationOfState":
            problem.equation_of_state()
        elif name == "IADVelocityDivCurl":
            problem.iad_velocity_div_curl()
        elif name == "Gravity":
            problem.gravity_step()
        elif name == "MomentumEnergy":
            problem.momentum_energy()
        elif name == "Timestep":
            pass  # handled by the allreduce below
        elif name == "UpdateQuantities":
            problem.update_quantities()
        else:  # pragma: no cover - propagator and model must agree
            raise KeyError(f"no numeric implementation for {name!r}")

    def _refresh_workloads(
        self, particles: bool = False, neighbors: bool = False
    ) -> None:
        problem = self.numeric
        assert problem is not None
        if particles:
            counts = problem.local_particle_counts()
            for rank in range(self.cluster.n_ranks):
                if counts[rank] > 0:
                    self.workloads[rank] = self.workloads[rank].with_particles(
                        float(counts[rank])
                    )
        if neighbors:
            means = problem.mean_neighbor_counts()
            for rank in range(self.cluster.n_ranks):
                if means[rank] > 0:
                    self.workloads[rank] = self.workloads[rank].with_neighbors(
                        float(means[rank])
                    )

    def _run_allreduce(self, fn: StepFunction) -> None:
        comm = self.cluster.comm
        if self.numeric is not None and fn.name == "Timestep":
            dts = self.numeric.local_timesteps()
            dt = comm.allreduce(dts, op=min)
            self.numeric.set_global_dt(dt)
            self.dt_history.append(dt)
        else:
            payload = [fn.collective_bytes_per_rank / 8.0] * comm.size
            comm.allreduce(payload, op=min)
            self.dt_history.append(0.0)

    def _run_exchange(self, fn: StepFunction) -> None:
        comm = self.cluster.comm
        n_ranks = comm.size
        if n_ranks == 1:
            return
        if self.numeric is not None and self.numeric.exchange_bytes is not None:
            matrix = self.numeric.exchange_bytes
        else:
            matrix = self._model_exchange_bytes()
        for src in range(n_ranks):
            for dst in range(n_ranks):
                if src == dst:
                    continue
                nbytes = float(matrix[src][dst])
                if nbytes > 0.0:
                    comm.sendrecv(src, dst, nbytes)
        comm.barrier()

    def _model_exchange_bytes(self) -> np.ndarray:
        """Surface-scaling halo estimate for model-mode runs."""
        n_ranks = self.cluster.n_ranks
        matrix = np.zeros((n_ranks, n_ranks))
        for src in range(n_ranks):
            n_local = self.workloads[src].n_particles
            halo = 3.0 * n_local ** (2.0 / 3.0)
            partners = [
                p
                for p in (src - 1, src + 1, src - 2, src + 2)
                if 0 <= p < n_ranks
            ]
            for dst in partners:
                matrix[src][dst] = halo * MODEL_HALO_BYTES / max(
                    len(partners), 1
                )
        return matrix


def run_instrumented(
    cluster,
    workload_name: str,
    n_particles_per_rank: float,
    n_steps: int,
    policy: Optional[FrequencyPolicy] = None,
    numeric: Optional[NumericProblem] = None,
    mean_neighbors: float = REFERENCE_NEIGHBORS,
    telemetry=None,
    resilience: Optional[ResilienceConfig] = None,
    faults: Optional[FaultInjector] = None,
    monitor=None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    checkpoint_fingerprint: Optional[str] = None,
    on_step: Optional[Callable[[int], None]] = None,
) -> SimulationResult:
    """Convenience wrapper: build, initialize and run a simulation."""
    sim = Simulation(
        cluster,
        workload_name,
        n_particles_per_rank,
        policy=policy,
        numeric=numeric,
        mean_neighbors=mean_neighbors,
        telemetry=telemetry,
        resilience=resilience,
        faults=faults,
        monitor=monitor,
    )
    return sim.run(
        n_steps,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        restore_from=restore_from,
        checkpoint_fingerprint=checkpoint_fingerprint,
        on_step=on_step,
    )
