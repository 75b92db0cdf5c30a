"""W3C-traceparent-style trace context for cross-process correlation.

A :class:`TraceContext` is the identity that ties every span of one
logical request together: a service submission, a ``repro campaign
run`` invocation, or a bare traced :class:`~repro.sph.Simulation.run`
mints one **root** context at the outermost entry point, and every
boundary the request crosses — campaign ProcessPool lanes, per-rank
trace shards, service WAL records — carries a **child** context
derived from it.

Two properties matter more here than in a wall-clock tracing system:

* **Determinism.** The whole telemetry layer is bit-stable: virtual
  timestamps make a re-run's trace compare equal float-for-float.
  Context derivation keeps that property — child span ids are content
  hashes of ``(trace_id, parent span, edge name)``, never random — so
  a re-run of a campaign unit writes an identical merged trace, and a
  resubmitted spec reattaches to the same trace identity its first
  submission minted.
* **Crash continuity.** A context survives checkpoint/restore with the
  *same* ``trace_id`` but a *new* span lineage (the restored process
  is a different span parented on the interrupted one), so a resumed
  unit's spans stay correlated to the original request while remaining
  distinguishable from the pre-crash attempt.

The wire format follows the W3C Trace Context shape: a 32-hex-digit
``trace_id``, 16-hex-digit ``span_id``, and the ``traceparent`` header
rendering ``00-<trace_id>-<span_id>-01`` for anything that wants to
interoperate (the service returns it to HTTP clients).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

#: Version byte of the ``traceparent`` rendering (W3C Trace Context).
TRACEPARENT_VERSION = "00"

#: Flags byte: always "sampled" — repro traces are opt-in already.
TRACEPARENT_FLAGS = "01"

_TRACE_ID_CHARS = 32
_SPAN_ID_CHARS = 16
_HEX = set("0123456789abcdef")


def _derive(seed: str, n_chars: int) -> str:
    """Deterministic hex id: truncated SHA-256 of the seed string."""
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:n_chars]


def _check_hex(value: str, n_chars: int, what: str) -> None:
    if len(value) != n_chars or not set(value) <= _HEX:
        raise ValueError(
            f"{what} must be {n_chars} lowercase hex chars, got {value!r}"
        )


@dataclass(frozen=True)
class TraceContext:
    """One node of a distributed trace: trace identity + span lineage."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    def __post_init__(self) -> None:
        _check_hex(self.trace_id, _TRACE_ID_CHARS, "trace_id")
        _check_hex(self.span_id, _SPAN_ID_CHARS, "span_id")
        if self.parent_span_id is not None:
            _check_hex(self.parent_span_id, _SPAN_ID_CHARS, "parent_span_id")

    # -- derivation ----------------------------------------------------------

    def child(self, edge: str) -> "TraceContext":
        """Context for a child process/scope reached via ``edge``.

        Derivation is a content hash, so both sides of a process
        boundary compute the *same* child id from the same edge name —
        the parent can predict (and later merge against) the contexts
        its children will record under without any return channel.
        """
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_derive(
                f"{self.trace_id}:{self.span_id}:{edge}", _SPAN_ID_CHARS
            ),
            parent_span_id=self.span_id,
        )

    def restarted(self, generation: Any) -> "TraceContext":
        """Post-restore lineage: same trace, new span parented on us.

        ``generation`` disambiguates successive restarts (a step count
        or attempt number); the trace id is untouched so a resumed unit
        stays correlated to the originating request.
        """
        return self.child(f"restart:{generation}")

    def event_span_id(self, seq: int) -> str:
        """Span id of the ``seq``-th event recorded under this context."""
        return _derive(
            f"{self.trace_id}:{self.span_id}:event:{seq}", _SPAN_ID_CHARS
        )

    # -- wire formats --------------------------------------------------------

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value."""
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-"
            f"{self.span_id}-{TRACEPARENT_FLAGS}"
        )

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header (inverse of
        :meth:`to_traceparent`; the parent link does not travel)."""
        parts = header.strip().split("-")
        if len(parts) != 4:
            raise ValueError(f"malformed traceparent {header!r}")
        version, trace_id, span_id, _flags = parts
        if version != TRACEPARENT_VERSION:
            raise ValueError(
                f"unsupported traceparent version {version!r} "
                f"(this build reads {TRACEPARENT_VERSION})"
            )
        return cls(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (pipe messages, WAL records,
        checkpoint state)."""
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_span_id=(
                str(payload["parent_span_id"])
                if payload.get("parent_span_id") is not None
                else None
            ),
        )


def mint_context(seed: Optional[str] = None) -> TraceContext:
    """Mint a **root** context at an outermost entry point.

    With a ``seed`` the context is fully deterministic — the service
    seeds with its content-addressed job id, so resubmitting the same
    spec reattaches to the same trace, and smoke tests get reproducible
    ids. Without one, fresh randomness is used (an interactive
    ``repro profile record`` wants a new trace per invocation).
    """
    if seed is None:
        seed = os.urandom(16).hex()
    return TraceContext(
        trace_id=_derive(f"trace:{seed}", _TRACE_ID_CHARS),
        span_id=_derive(f"span:{seed}", _SPAN_ID_CHARS),
    )
