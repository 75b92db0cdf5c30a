"""Prometheus text-format exposition of the metrics registry.

Renders every counter, gauge and histogram of a
:class:`~repro.telemetry.metrics.MetricsRegistry` in the Prometheus
text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE``
comments, ``repro_``-prefixed sanitized metric names, counters with the
``_total`` suffix, histograms as *cumulative* ``_bucket{le="..."}``
series plus ``_sum`` / ``_count``, and label values escaped per the
spec (backslash, double quote, newline).

Two delivery paths, matching how operators actually consume it:

* :func:`write_prom_file` — atomic write (temp + rename) of a
  ``metrics.prom`` file, the node-exporter *textfile collector*
  pattern: a scraper never observes a half-written file;
* :class:`MetricsServer` — an optional stdlib ``http.server`` endpoint
  serving ``GET /metrics`` from a background thread, for live scrapes
  of a long-running campaign.

:func:`parse_prometheus_text` is a strict validating parser used by the
test suite (and usable for cross-checking any exposition file): it
rejects malformed sample lines, type-less families and non-float
values rather than guessing.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Content type of the text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix applied to every exported metric name.
PROM_PREFIX = "repro_"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)

#: Help strings for well-known registry metrics (fallback is generated).
HELP_TEXTS: Dict[str, str] = {
    "clock_set_calls": "Performed management-library clock changes.",
    "clock_set_skipped": "Redundant clock requests elided by the controller.",
    "trace_events_dropped": "Events dropped by the trace ring buffer.",
    "counter_samples": "Periodic counter samples recorded in the trace.",
    "spans_recorded": "Function spans recorded in the trace.",
    "monitor_samples": "Device samples taken by the monitor sampler.",
    "sampler_gaps": "Intervals the monitor sampler could not observe.",
    "sampler_gap_ticks": "Sampling ticks missed inside sampler gaps.",
    "alerts_fired": "Alert rules that transitioned to firing.",
    "faults_injected": "Faults delivered by the fault injector.",
    "fault_retries": "Transient-error retries performed.",
    "ranks_degraded": "Ranks handed to their DVFS governor.",
    "power_read_gaps": "Bridged power-sampling gaps.",
    "comm_rank_wait_seconds": (
        "Per-rank idle time waiting at collectives (simulated seconds)."
    ),
    "comm_collective_calls": "Collective operations issued, by op.",
    "comm_sync_wait_seconds": (
        "Total synchronization wait summed over ranks (simulated seconds)."
    ),
    "comm_time_seconds": "Time spent moving bytes (simulated seconds).",
    "comm_bytes_moved": "Bytes moved through the communicator.",
}


def comm_gauges(stats) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Extra gauge samples for one :class:`~repro.mpi.comm.CommStats`.

    The communicator's counters are plain Python state, not registry
    gauges, so the monitor folds them into the exposition through
    :func:`render_prometheus`'s ``extra_gauges`` hook. The per-rank
    wait series is the scrape-side view of the load imbalance the
    critical-path profiler attributes per step — same numbers, so an
    operator watching ``comm_rank_wait_seconds`` and an engineer
    reading ``repro profile critical-path`` agree on the gating rank.
    """
    gauges: Dict[str, List[Tuple[Dict[str, str], float]]] = {
        "comm_sync_wait_seconds": [({}, float(stats.sync_wait_s))],
        "comm_time_seconds": [({}, float(stats.comm_time_s))],
        "comm_bytes_moved": [({}, float(stats.bytes_moved))],
        "comm_rank_wait_seconds": [
            ({"rank": str(rank)}, float(wait))
            for rank, wait in enumerate(stats.rank_wait_s)
        ],
        "comm_collective_calls": [
            ({"op": op}, float(count))
            for op, count in sorted(stats.calls.items())
        ],
    }
    return {name: samples for name, samples in gauges.items() if samples}


def sanitize_metric_name(name: str) -> str:
    """Coerce a registry metric name into a legal Prometheus name."""
    if not name:
        raise ValueError("metric name must not be empty")
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if re.match(r"^[0-9]", cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _unescape_label_value(value: str) -> str:
    return (
        value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(k)}="{escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Family:
    """One metric family being rendered (name, type, samples)."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[Tuple[str, Mapping[str, str], float]] = []

    def add(self, suffix: str, labels: Mapping[str, str], value: float) -> None:
        self.samples.append((suffix, labels, value))

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            lines.append(
                f"{self.name}{suffix}{_render_labels(labels)} "
                f"{_format_value(value)}"
            )
        return lines


def render_prometheus(metrics, extra_gauges=None) -> str:
    """Render a :class:`MetricsRegistry` as Prometheus exposition text.

    ``extra_gauges`` optionally supplies additional gauge samples as a
    mapping ``name -> [(labels, value), ...]`` — the monitor uses it to
    expose live series values that are not registry gauges.
    """
    families: Dict[str, _Family] = {}

    def family(raw_name: str, kind: str, suffix: str = "") -> _Family:
        name = PROM_PREFIX + sanitize_metric_name(raw_name) + suffix
        fam = families.get(name)
        if fam is None:
            help_text = HELP_TEXTS.get(
                raw_name, f"repro metric {raw_name!r}."
            )
            fam = families[name] = _Family(name, kind, help_text)
        return fam

    for name, labels, counter in metrics.iter_counters():
        family(name, "counter", "_total").add("", dict(labels), counter.value)
    for name, labels, gauge in metrics.iter_gauges():
        family(name, "gauge").add("", dict(labels), gauge.value)
    if extra_gauges:
        for name, samples in extra_gauges.items():
            fam = family(name, "gauge")
            for labels, value in samples:
                fam.add("", dict(labels), value)
    for name, labels, hist in metrics.iter_histograms():
        fam = family(name, "histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.bucket_counts):
            cumulative += count
            fam.add(
                "_bucket",
                {**dict(labels), "le": f"{bound:g}"},
                float(cumulative),
            )
        fam.add(
            "_bucket",
            {**dict(labels), "le": "+Inf"},
            float(hist.count),
        )
        fam.add("_sum", dict(labels), hist.sum)
        fam.add("_count", dict(labels), float(hist.count))

    lines: List[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    return "\n".join(lines) + "\n" if lines else ""


def write_prom_file(path: str, text: str) -> None:
    """Atomically write exposition text (textfile-collector pattern)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".metrics-", suffix=".prom.tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Validating parser (used by tests and cross-checks)
# ---------------------------------------------------------------------------

def _parse_float(token: str, lineno: int) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"line {lineno}: invalid sample value {token!r}"
        ) from None


def _parse_labels(body: str, lineno: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_PAIR.match(body, pos)
        if match is None:
            raise ValueError(
                f"line {lineno}: malformed label pair at {body[pos:]!r}"
            )
        key = match.group("key")
        if key in labels:
            raise ValueError(f"line {lineno}: duplicate label {key!r}")
        labels[key] = _unescape_label_value(match.group("value"))
        pos = match.end()
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse (and strictly validate) Prometheus exposition text.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels, value), ...]}}``. Raises ``ValueError`` with
    a line number for anything malformed: unknown metric types, sample
    lines that do not parse, samples whose name does not extend a
    declared family, or non-float values.
    """
    families: Dict[str, Dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not _NAME_OK.match(name):
                    raise ValueError(
                        f"line {lineno}: invalid metric name {name!r}"
                    )
                fam = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if parts[1] == "HELP":
                    fam["help"] = parts[3] if len(parts) > 3 else ""
                else:
                    kind = parts[3] if len(parts) > 3 else ""
                    if kind not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        raise ValueError(
                            f"line {lineno}: unknown metric type {kind!r}"
                        )
                    fam["type"] = kind
            # Other comments are legal and ignored.
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "", lineno)
        value = _parse_float(match.group("value"), lineno)
        owner = None
        for fam_name in families:
            if name == fam_name or (
                name.startswith(fam_name)
                and name[len(fam_name):] in ("_bucket", "_sum", "_count", "_total")
            ):
                if owner is None or len(fam_name) > len(owner):
                    owner = fam_name
        if owner is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        families[owner]["samples"].append((name, labels, value))
    for name, fam in families.items():
        if fam["type"] is None:
            raise ValueError(f"family {name!r} has no # TYPE line")
    return families


# ---------------------------------------------------------------------------
# Live /metrics endpoint
# ---------------------------------------------------------------------------

class MetricsServer:
    """A stdlib HTTP server exposing ``/metrics`` from a provider.

    The provider callable is invoked per scrape, so the endpoint always
    reflects the current registry state. The server runs on a daemon
    thread; ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).
    """

    def __init__(
        self,
        provider: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._provider = provider
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        provider = self._provider

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404, "try /metrics")
                    return
                try:
                    body = provider().encode("utf-8")
                except Exception as exc:  # pragma: no cover - provider bug
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", PROM_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-scrape spam
                return

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            raise RuntimeError("server is not running")
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
