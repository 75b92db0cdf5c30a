"""The :class:`Monitor` facade: one object wiring the whole layer.

Everything in ``repro.monitor`` composes from small parts (sampler,
alert engine, exposition, report); the facade is the one-call way the
CLI and :class:`~repro.sph.simulation.Simulation` use them together:

.. code-block:: python

    monitor = Monitor(MonitorConfig(period_s=0.02), telemetry=collector)
    monitor.bind_cluster(cluster, controller=controller)
    monitor.start()
    ...  # run the simulation
    monitor.stop()
    monitor.write_prom("metrics.prom")
    monitor.write_report("report.html", report=energy_report)

The config mirrors the knobs of the underlying components so callers
tune one dataclass instead of four constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .alerts import Alert, AlertEngine, AlertRule, default_rules
from .exposition import (
    MetricsServer,
    comm_gauges,
    render_prometheus,
    write_prom_file,
)
from .report import build_report, write_html_report, write_json_snapshot
from .sampler import DeviceSampler
from .series import DEFAULT_CAPACITY


@dataclass
class MonitorConfig:
    """Tuning knobs for the whole monitoring layer."""

    #: Sampling contract in simulated seconds.
    period_s: float = 0.05
    #: Ring capacity per time series.
    capacity: int = DEFAULT_CAPACITY
    #: Time constant of the power EMA.
    ema_tau_s: float = 0.5
    #: Trailing window of the rolling-EDP series.
    edp_window_s: float = 2.0
    #: A clock advance spanning this many periods counts as a gap.
    gap_factor: float = 4.0
    #: Power-cap proximity rule threshold, as a fraction of the envelope.
    power_cap_frac: float = 0.95
    #: Extra rules installed alongside :func:`default_rules`.
    extra_rules: List[AlertRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ValueError("sampling period must be positive")
        if not 0.0 < self.power_cap_frac <= 1.0:
            raise ValueError("power cap fraction must be in (0, 1]")


class Monitor:
    """Owns a sampler + alert engine bound to one cluster/run."""

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        telemetry=None,
        on_alert: Optional[Callable[[Alert, str], None]] = None,
    ) -> None:
        self.config = config or MonitorConfig()
        self.telemetry = telemetry
        self.on_alert = on_alert
        self.sampler: Optional[DeviceSampler] = None
        self.engine: Optional[AlertEngine] = None
        self._server: Optional[MetricsServer] = None
        self._cluster = None

    # -- wiring ------------------------------------------------------------

    def bind_cluster(self, cluster, controller=None) -> "Monitor":
        """Build the sampler + engine over a cluster's devices.

        Installs :func:`default_rules` (using the cluster's GPU spec for
        the power-cap rule) plus any :attr:`MonitorConfig.extra_rules`.
        Idempotent rebind is an error — one monitor per run.
        """
        if self.sampler is not None:
            raise RuntimeError("monitor is already bound to a cluster")
        # Kept for the exposition/report paths: the communicator's
        # per-rank wait counters live on the cluster, not the sampler.
        self._cluster = cluster
        cfg = self.config
        spec = cluster.gpus[0].spec if cluster.gpus else None
        rules = default_rules(
            gpu_spec=spec, power_cap_frac=cfg.power_cap_frac
        ) + list(cfg.extra_rules)
        self.engine = AlertEngine(
            rules, telemetry=self.telemetry, on_alert=self.on_alert
        )
        self.sampler = DeviceSampler.for_cluster(
            cluster,
            period_s=cfg.period_s,
            capacity=cfg.capacity,
            telemetry=self.telemetry,
            controller=controller,
            alerts=self.engine,
            ema_tau_s=cfg.ema_tau_s,
            edp_window_s=cfg.edp_window_s,
            gap_factor=cfg.gap_factor,
        )
        return self

    def bind_controller(self, controller) -> None:
        """Late-bind the frequency controller (failure-rate series)."""
        if self.sampler is None:
            raise RuntimeError("bind a cluster before a controller")
        self.sampler._controller = controller

    # -- lifecycle ---------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self.sampler is not None

    @property
    def running(self) -> bool:
        return self.sampler is not None and self.sampler.running

    def start(self) -> None:
        if self.sampler is None:
            raise RuntimeError("monitor is not bound to a cluster")
        self.sampler.start()

    def stop(self) -> None:
        if self.sampler is None:
            raise RuntimeError("monitor is not bound to a cluster")
        if self.sampler.running:
            self.sampler.stop()

    # -- alerts ------------------------------------------------------------

    @property
    def alerts(self) -> List[Alert]:
        return list(self.engine.alerts) if self.engine is not None else []

    def fired(self, rule_name: str) -> List[Alert]:
        if self.engine is None:
            return []
        return self.engine.fired(rule_name)

    # -- outputs -----------------------------------------------------------

    def _require_sampler(self) -> DeviceSampler:
        if self.sampler is None:
            raise RuntimeError("monitor is not bound to a cluster")
        return self.sampler

    def _comm_stats(self):
        """The bound cluster's communicator counters, if any."""
        return getattr(getattr(self._cluster, "comm", None), "stats", None)

    def snapshot(
        self,
        collector=None,
        report=None,
        title: str = "repro monitored run",
        meta: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """The JSON-able report payload (series, alerts, metrics...)."""
        return build_report(
            self._require_sampler(),
            engine=self.engine,
            collector=collector if collector is not None else self.telemetry,
            report=report,
            title=title,
            meta=meta,
            comm=self._comm_stats(),
        )

    def prometheus(self) -> str:
        """Current registry + live series as Prometheus text."""
        sampler = self._require_sampler()
        comm = self._comm_stats()
        return render_prometheus(
            sampler.metrics,
            extra_gauges=comm_gauges(comm) if comm is not None else None,
        )

    def write_prom(self, path: str) -> None:
        write_prom_file(path, self.prometheus())

    def write_report(
        self,
        path: str,
        collector=None,
        report=None,
        title: str = "repro monitored run",
        meta: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Write the self-contained HTML report; returns the HTML."""
        data = self.snapshot(
            collector=collector, report=report, title=title, meta=meta
        )
        return write_html_report(path, data)

    def write_snapshot(self, path: str, **kwargs) -> None:
        write_json_snapshot(path, self.snapshot(**kwargs))

    # -- live endpoint -----------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> MetricsServer:
        """Start the ``/metrics`` endpoint (daemon thread); returns it."""
        if self._server is not None and self._server.running:
            raise RuntimeError("metrics server is already running")
        self._server = MetricsServer(
            self.prometheus, host=host, port=port
        ).start()
        return self._server

    def stop_serving(self) -> None:
        if self._server is not None and self._server.running:
            self._server.stop()
        self._server = None
