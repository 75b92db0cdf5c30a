"""Persistent, content-addressed run store.

One campaign directory holds everything a sweep produces::

    <root>/
        spec.json           # the campaign spec (written by `campaign run`)
        manifest.jsonl      # {"schema": 1} header + one record per outcome
        trace.jsonl         # campaign-level telemetry (optional)
        runs/<key>.json     # one durable result artifact per completed unit

The manifest is append-only JSONL: the executor appends one record per
unit outcome (``done`` or ``failed``) *after* the run artifact is
safely on disk (write-to-temp + atomic rename), so a campaign killed at
any instant leaves a consistent store. On re-open the store replays the
manifest; completed keys are skipped by the executor, which is the
entire resume mechanism — there is no separate checkpoint format. A
crash *during* a manifest append can leave a torn final line (no
trailing newline); replay skips it with a warning — the worst case is
re-executing the unit whose outcome record was lost, which idempotent
keys make safe. A corrupt line anywhere else still raises.

Result artifacts embed the full per-rank :class:`~repro.core.EnergyReport`
so every run of every sweep stays a durable, comparable measurement
(the companion measurement paper's per-run artifact discipline), not
just a summary row.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

from ..telemetry.events import check_schema_header, schema_header

#: File names inside a campaign directory.
MANIFEST_NAME = "manifest.jsonl"
SPEC_NAME = "spec.json"
TRACE_NAME = "trace.jsonl"
HEARTBEATS_NAME = "heartbeats.json"
RUNS_DIR = "runs"
CHECKPOINTS_DIR = "checkpoints"
BEATS_DIR = "beats"
TRACES_DIR = "traces"


class RunStore:
    """Append-only store of campaign run outcomes under one directory."""

    def __init__(self, root: str, campaign: Optional[str] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / RUNS_DIR).mkdir(exist_ok=True)
        self.campaign = campaign
        self._records: List[Dict[str, Any]] = []
        # One store instance may be shared by concurrent executors (the
        # service runs overlapping campaigns against the same tenant
        # store); appends and snapshot reads are serialized here.
        self._lock = threading.Lock()
        self._load_manifest()

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_NAME

    @property
    def trace_path(self) -> Path:
        return self.root / TRACE_NAME

    def run_path(self, key: str) -> Path:
        return self.root / RUNS_DIR / f"{key}.json"

    @property
    def heartbeats_path(self) -> Path:
        return self.root / HEARTBEATS_NAME

    # -- distributed traces ----------------------------------------------------

    def unit_trace_dir(self, key: str) -> Path:
        """Where a unit's merged trace (``merged.jsonl``) lives.

        Created lazily, like checkpoints, so untraced campaigns leave
        the store layout untouched.
        """
        directory = self.root / TRACES_DIR
        directory.mkdir(exist_ok=True)
        unit_dir = directory / key
        unit_dir.mkdir(exist_ok=True)
        return unit_dir

    def has_unit_trace(self, key: str) -> bool:
        from ..telemetry.profile import MERGED_TRACE_NAME

        return (
            self.root / TRACES_DIR / key / MERGED_TRACE_NAME
        ).exists()

    def unit_trace_keys(self) -> Set[str]:
        """Keys with a unit trace dir on disk."""
        directory = self.root / TRACES_DIR
        if not directory.is_dir():
            return set()
        return {p.name for p in directory.iterdir() if p.is_dir()}

    # -- checkpoints -----------------------------------------------------------

    def checkpoint_path(self, key: str) -> Path:
        """Where a unit's in-progress simulation checkpoint lives.

        The directory is created lazily so stores from campaigns that
        never checkpoint stay exactly as before.
        """
        directory = self.root / CHECKPOINTS_DIR
        directory.mkdir(exist_ok=True)
        return directory / f"{key}.json"

    def has_checkpoint(self, key: str) -> bool:
        return (self.root / CHECKPOINTS_DIR / f"{key}.json").exists()

    def clear_checkpoint(self, key: str) -> None:
        """Drop a unit's checkpoint once its outcome is durable.

        A finished unit's result artifact supersedes any mid-run
        snapshot; keeping stale checkpoints around would only risk a
        future spec revision resuming from the wrong state. Idempotent.
        """
        path = self.root / CHECKPOINTS_DIR / f"{key}.json"
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def checkpoint_keys(self) -> Set[str]:
        """Keys with a live (not yet cleared) checkpoint on disk."""
        directory = self.root / CHECKPOINTS_DIR
        if not directory.is_dir():
            return set()
        return {p.stem for p in directory.glob("*.json")}

    # -- worker heartbeats ----------------------------------------------------

    def write_heartbeats(self, lanes: Mapping[str, Mapping[str, Any]]) -> None:
        """Atomically persist per-lane worker heartbeats.

        ``lanes`` maps worker-lane ids to ``{"updated_s": <epoch>,
        "state": ...}`` records; ``repro monitor watch`` reads this file
        to judge the ``campaign_worker_stalled`` alert rule. Written
        atomically so a watcher never observes a torn file.
        """
        payload = {
            "schema": 1,
            "kind": "campaign-heartbeats",
            "campaign": self.campaign,
            "lanes": {str(k): dict(v) for k, v in lanes.items()},
        }
        path = self.heartbeats_path
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def read_heartbeats(self) -> Dict[str, Dict[str, Any]]:
        """The lane records of ``heartbeats.json`` ({} when absent)."""
        path = self.heartbeats_path
        if not path.exists():
            return {}
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if (
            payload.get("schema") != 1
            or payload.get("kind") != "campaign-heartbeats"
        ):
            raise ValueError(f"{path}: not a campaign heartbeats file")
        return {str(k): dict(v) for k, v in payload.get("lanes", {}).items()}

    def reset_heartbeats(self) -> None:
        """Remove the heartbeat file left by a previous (dead) drain.

        A campaign killed mid-drain leaves ``heartbeats.json`` frozen
        at its final lane states; without this reset, a monitor watcher
        started before the next drain re-reads those stale timestamps
        and fires ``campaign_worker_stalled`` false alarms. Every
        executor invocation starts from a clean slate.
        """
        try:
            self.heartbeats_path.unlink()
        except FileNotFoundError:
            pass

    # -- unit beats -----------------------------------------------------------

    def unit_beat_path(self, key: str) -> Path:
        """Where the pool worker running unit ``key`` writes its beat.

        Unlike ``heartbeats.json`` (written by the executor between
        dispatches), beat files are written *from inside* the worker
        process as the unit starts and after every simulation step, so
        the executor can distinguish a unit that is slowly computing
        from one whose process is hung or gone. One file per unit key:
        a queued unit never reads a running unit's beat, and a reap
        signals only the pid of the unit judged dead. The inline drain
        has nothing to supervise and writes none.
        """
        (self.root / BEATS_DIR).mkdir(exist_ok=True)
        return self._beat_file(key)

    def _beat_file(self, key: str) -> Path:
        return self.root / BEATS_DIR / f"{key}.json"

    def read_unit_beat(self, key: str) -> Dict[str, Any]:
        """Latest beat of unit ``key`` ({} before its worker starts it)."""
        try:
            with open(self._beat_file(key), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}  # absent, torn or vanished beat

    def clear_unit_beat(self, key: str) -> None:
        """Drop unit ``key``'s beat (an earlier attempt's must not count)."""
        try:
            self._beat_file(key).unlink()
        except FileNotFoundError:
            pass

    def reset_unit_beats(self) -> None:
        """Drop beat files from previous drains (fresh supervision)."""
        directory = self.root / BEATS_DIR
        if not directory.is_dir():
            return
        for path in directory.glob("*.json"):
            self.clear_unit_beat(path.stem)

    def _load_manifest(self) -> None:
        path = self.manifest_path
        if not path.exists():
            return
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        # A line is *torn* only when it is the very last one and the
        # file lacks its trailing newline — the signature of a crash
        # mid-append. Complete-but-corrupt lines still raise.
        torn_tail = bool(text) and not text.endswith("\n")
        header_seen = False
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if torn_tail and lineno == len(lines):
                    warnings.warn(
                        f"{path}:{lineno}: skipping torn final manifest "
                        f"line (crash during append?); the affected "
                        f"unit will re-run",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    # Truncate the torn bytes so the next append starts
                    # a fresh line instead of gluing onto garbage.
                    keep = len(text.encode("utf-8")) - len(
                        lines[-1].encode("utf-8")
                    )
                    with open(path, "r+b") as out:
                        out.truncate(keep)
                    continue
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if not header_seen:
                try:
                    check_schema_header(record, "campaign-manifest")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                manifest_campaign = record.get("campaign")
                if self.campaign is None:
                    self.campaign = manifest_campaign
                elif (
                    manifest_campaign is not None
                    and manifest_campaign != self.campaign
                ):
                    raise ValueError(
                        f"{path}: manifest belongs to campaign "
                        f"{manifest_campaign!r}, not {self.campaign!r}"
                    )
                header_seen = True
                continue
            self._records.append(record)

    def _append_manifest(self, record: Mapping[str, Any]) -> None:
        path = self.manifest_path
        with self._lock:
            new_file = not path.exists()
            with open(path, "a", encoding="utf-8") as fh:
                if new_file:
                    header = schema_header(
                        "campaign-manifest", campaign=self.campaign
                    )
                    fh.write(json.dumps(header, sort_keys=True) + "\n")
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._records.append(dict(record))

    # -- outcomes ------------------------------------------------------------

    def record_done(
        self, key: str, config: Mapping[str, Any], result: Mapping[str, Any]
    ) -> None:
        """Persist one completed unit: artifact first, then manifest."""
        payload = {
            "schema": 1,
            "kind": "campaign-run",
            "key": key,
            "unit": dict(config),
            "result": dict(result),
        }
        path = self.run_path(key)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._append_manifest(
            {
                "key": key,
                "status": "done",
                "unit": dict(config),
                "file": f"{RUNS_DIR}/{key}.json",
            }
        )

    def record_failed(
        self, key: str, config: Mapping[str, Any], error: Mapping[str, Any]
    ) -> None:
        """Persist one permanently-failed unit (retried on resume)."""
        self._append_manifest(
            {
                "key": key,
                "status": "failed",
                "unit": dict(config),
                "error": dict(error),
            }
        )

    # -- queries -------------------------------------------------------------

    def _latest_statuses(self) -> Dict[str, str]:
        with self._lock:
            records = list(self._records)
        latest: Dict[str, str] = {}
        for record in records:
            latest[record["key"]] = record.get("status", "failed")
        return latest

    def completed_keys(self) -> Set[str]:
        """Keys whose latest outcome is ``done`` and whose artifact exists."""
        return {
            key
            for key, status in self._latest_statuses().items()
            if status == "done" and self.run_path(key).exists()
        }

    def failed_keys(self) -> Set[str]:
        return {
            k for k, s in self._latest_statuses().items() if s == "failed"
        }

    def load_result(self, key: str) -> Dict[str, Any]:
        """The full artifact of one completed unit."""
        path = self.run_path(key)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("schema") != 1 or payload.get("kind") != "campaign-run":
            raise ValueError(f"{path}: not a campaign run artifact")
        return payload

    def results(self, keys: Optional[Iterable[str]] = None) -> List[Dict[str, Any]]:
        """All completed artifacts, sorted by key (deterministic order).

        With ``keys`` given, restrict to that subset (e.g. the current
        spec's grid, ignoring stale runs from older spec revisions).
        """
        selected = self.completed_keys()
        if keys is not None:
            selected &= set(keys)
        return [self.load_result(key) for key in sorted(selected)]

    def counts(self) -> Dict[str, int]:
        """Manifest roll-up: outcomes by latest status."""
        done = self.completed_keys()
        failed = self.failed_keys() - done
        return {"done": len(done), "failed": len(failed)}
