"""Slurm controller: job lifecycle on a simulated cluster.

The controller owns the timing semantics that create the paper's Fig. 3
PMT-vs-Slurm gap: the energy accounting window opens at *job start*
(after scheduling but before the application does anything), while the
application's own PMT instrumentation only opens at the simulation's
time-stepping loop. Job launch (prolog, srun, binary load, MPI wire-up)
advances simulated time with every GPU idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..faults.injector import JobPreempted
from .accounting import AccountingDatabase
from .energy_plugins import get_plugin
from .job import Job, JobSpec, JobState, resolve_gpu_freq_keyword


@dataclass(frozen=True)
class JobSetupModel:
    """Durations of the pre-application job phases (simulated seconds)."""

    #: Scheduling delay + prolog before the allocation starts.
    scheduling_s: float = 4.0
    #: srun launch base cost (binary broadcast, PMI wire-up).
    launch_base_s: float = 6.0
    #: Additional launch cost per node (scales with allocation size).
    launch_per_node_s: float = 0.25

    def setup_s(self, n_nodes: int) -> float:
        return self.scheduling_s + self.launch_base_s + self.launch_per_node_s * n_nodes


class SlurmController:
    """Submits jobs onto a :class:`~repro.systems.Cluster`-like object.

    The cluster object must provide ``nodes``, ``pm_counters`` (possibly
    empty), ``clocks``, ``comm``, ``apply_gpu_frequency_mhz`` and the
    ``system`` record (for the energy plugin name).
    """

    def __init__(
        self,
        accounting: AccountingDatabase | None = None,
        setup_model: JobSetupModel | None = None,
        telemetry=None,
    ) -> None:
        self.accounting = accounting or AccountingDatabase()
        self.setup_model = setup_model or JobSetupModel()
        #: Optional :class:`~repro.telemetry.TraceCollector`; the job
        #: phases (scheduling+launch, accounting window) are emitted as
        #: spans on the job track so the PMT-vs-Slurm gap of Fig. 3 is
        #: visible directly in the trace.
        self.telemetry = telemetry
        self._next_job_id = 1000

    def submit(
        self,
        spec: JobSpec,
        cluster: Any,
        app: Callable[[Any, Job], Any],
    ) -> Job:
        """Run ``app(cluster, job)`` under full Slurm accounting.

        Blocking (the simulation is single-process): returns the
        completed job with its accounting window closed and recorded.
        """
        if spec.n_nodes != len(cluster.nodes):
            raise ValueError(
                f"job requests {spec.n_nodes} nodes but the allocation "
                f"has {len(cluster.nodes)}"
            )
        job = Job(job_id=self._next_job_id, spec=spec)
        self._next_job_id += 1
        job.submit_time = max(c.now for c in cluster.clocks)

        # Scheduling + launch: all ranks idle through the setup window.
        setup = self.setup_model.setup_s(spec.n_nodes)
        for clock in cluster.clocks:
            clock.advance(setup)

        # The accounting window opens at job start.
        plugin = get_plugin(cluster.system.slurm_energy_plugin)
        job.start_time = max(c.now for c in cluster.clocks)
        job.state = JobState.RUNNING
        job.energy_at_start_j = self._read_all(plugin, cluster)
        self._emit_phase(
            "slurm:scheduling+launch", job, job.submit_time, job.start_time
        )

        # --gpu-freq takes effect at launch, if the centre allows it.
        if spec.gpu_freq_mhz is not None:
            if not cluster.system.allow_user_freq_control:
                raise PermissionError(
                    f"{cluster.system.name} does not allow user GPU "
                    "frequency control"
                )
            freq = spec.gpu_freq_mhz
            if isinstance(freq, str):
                supported = [
                    hz / 1e6
                    for hz in cluster.gpus[0].spec.supported_clocks_hz()
                ]
                freq = resolve_gpu_freq_keyword(freq, supported)
            cluster.apply_gpu_frequency_mhz(freq)

        # --cpu-freq (centres allow this broadly; cf. ARCHER2 [24]).
        if spec.cpu_freq_khz is not None:
            cluster.apply_cpu_frequency_khz(spec.cpu_freq_khz)

        try:
            job.result = app(cluster, job)
        except JobPreempted:
            # Preemption is a scheduler decision, not an application
            # failure: close the accounting window (Slurm accounts the
            # consumed allocation) and return the job as PREEMPTED.
            job.state = JobState.PREEMPTED
            job.end_time = max(c.now for c in cluster.clocks)
            job.energy_at_end_j = self._read_all(plugin, cluster)
            self.accounting.record(job)
            self._emit_phase(
                "slurm:accounting-window", job, job.start_time, job.end_time
            )
            return job
        except Exception:
            job.state = JobState.FAILED
            job.end_time = max(c.now for c in cluster.clocks)
            job.energy_at_end_j = self._read_all(plugin, cluster)
            self.accounting.record(job)
            self._emit_phase(
                "slurm:accounting-window", job, job.start_time, job.end_time
            )
            raise

        # Epilog barrier, then close the accounting window.
        cluster.comm.barrier()
        job.end_time = max(c.now for c in cluster.clocks)
        job.energy_at_end_j = self._read_all(plugin, cluster)
        job.state = JobState.COMPLETED
        self.accounting.record(job)
        self._emit_phase(
            "slurm:accounting-window", job, job.start_time, job.end_time
        )
        return job

    def _emit_phase(self, name: str, job: Job, t0: float, t1: float) -> None:
        if self.telemetry is not None:
            self.telemetry.emit_phase(
                name,
                rank=0,
                t0=t0,
                t1=t1,
                job_id=job.job_id,
                job_name=job.spec.name,
                state=job.state.name,
            )

    @staticmethod
    def _read_all(plugin, cluster: Any) -> dict:
        readings = {}
        for idx, node in enumerate(cluster.nodes):
            pm = cluster.pm_counters[idx] if cluster.pm_counters else None
            readings[node.name] = plugin(node, pm)
        return readings
