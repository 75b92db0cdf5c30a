"""Atomic, schema-versioned simulation checkpoints.

A checkpoint is one JSON document capturing the *complete* state of a
:class:`~repro.sph.simulation.Simulation` at a step boundary: particle
arrays, Verlet-skin neighbor state, policy/tuner observations, energy
accumulators, controller counters, telemetry counters and fault-injector
RNG state. Restoring it and running the remaining steps is proven (by
test) to be bit-identical to an uninterrupted run — JSON round-trips
Python floats exactly, and numpy arrays travel as base64 of their raw
bytes with dtype/shape preserved.

Files are written with the same durability idiom as the campaign
RunStore artifacts: serialize to ``<path>.tmp``, ``fsync``, then
``os.replace`` — a reader (or a resume after SIGKILL) never observes a
torn checkpoint, only the previous complete one or none at all.

The document layout is versioned (:data:`CHECKPOINT_SCHEMA`); loaders
reject unknown schemas/kinds with :class:`CheckpointError` so callers
can treat an incompatible file as a checkpoint *miss* rather than a
crash.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "checkpoint_exists",
    "decode_array",
    "decode_state",
    "encode_array",
    "encode_state",
    "read_checkpoint",
    "write_checkpoint",
]

#: Version of the checkpoint document layout.
CHECKPOINT_SCHEMA = 1

#: The ``kind`` tag every checkpoint document carries.
CHECKPOINT_KIND = "sim-checkpoint"

#: Marker key identifying an encoded ndarray inside the JSON tree.
_ND_KEY = "__ndarray__"


class CheckpointError(ValueError):
    """A checkpoint file is missing, incompatible or inconsistent."""


# -- array codec -------------------------------------------------------------


def _narrowed(array: np.ndarray) -> np.ndarray:
    """Smallest lossless integer storage dtype for ``array``.

    Index arrays (the Verlet-skin neighbor CSR is by far the largest
    checkpoint payload) are int64 in memory but their values fit in
    int32/int16 for any problem this codebase simulates; storing them
    narrow halves the snapshot size, which is most of the per-write
    cost. Exact by construction — integers narrow losslessly and the
    decoder casts back to the recorded in-memory dtype. Floats are
    never narrowed (that would break bit-exactness).
    """
    if array.dtype.kind not in ("i", "u") or array.size == 0:
        return array
    lo, hi = int(array.min()), int(array.max())
    kind = array.dtype.kind
    for width in (1, 2, 4, 8):
        if width >= array.dtype.itemsize:
            return array
        narrow = np.dtype(f"{kind}{width}")
        info = np.iinfo(narrow)
        if info.min <= lo and hi <= info.max:
            return array.astype(narrow)
    return array


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode one ndarray as ``{dtype, shape, data}`` (base64 raw bytes).

    Raw-byte transport (not repr/str) is what makes restore bit-exact:
    the float64 payload is byte-identical after a round trip. Integer
    arrays are stored in the smallest lossless width (``store_dtype``)
    and widened back to ``dtype`` on decode.
    """
    contiguous = np.ascontiguousarray(array)
    payload: Dict[str, Any] = {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
    }
    if contiguous.dtype == np.bool_:
        # One bit per flag instead of one byte (per-pair masks are
        # as long as the neighbor list).
        payload["store_dtype"] = "packbits"
        stored = np.packbits(contiguous.reshape(-1))
    else:
        stored = _narrowed(contiguous)
        if (
            contiguous.dtype.kind == "i"
            and contiguous.ndim == 1
            and contiguous.size > 1024
        ):
            # Large index arrays (the neighbor CSR) are runs of nearby
            # values; first-differences narrow further than the values
            # themselves. Exact: integer cumsum inverts integer diff.
            deltas = _narrowed(np.diff(contiguous))
            if deltas.itemsize < stored.itemsize:
                payload["store_delta"] = int(contiguous[0])
                stored = deltas
        if stored.dtype != contiguous.dtype:
            payload["store_dtype"] = str(stored.dtype)
    payload["data"] = base64.b64encode(
        np.ascontiguousarray(stored).tobytes()
    ).decode("ascii")
    return {_ND_KEY: payload}


def decode_array(payload: Mapping[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    spec = payload[_ND_KEY]
    raw = base64.b64decode(spec["data"])
    shape = tuple(spec["shape"])
    stored = spec.get("store_dtype")
    if stored == "packbits":
        n = int(np.prod(shape, dtype=np.int64))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n)
        return bits.astype(np.bool_).reshape(shape).copy()
    array = np.frombuffer(raw, dtype=np.dtype(stored or spec["dtype"]))
    if "store_delta" in spec:
        first = np.array([spec["store_delta"]], dtype=np.int64)
        array = np.concatenate([first, array.astype(np.int64)]).cumsum()
    if stored:
        array = array.astype(np.dtype(spec["dtype"]))
    return array.reshape(shape).copy()


def encode_state(value: Any) -> Any:
    """Recursively encode a state tree for JSON.

    ndarrays become :func:`encode_array` payloads; tuples become lists
    (component ``restore_state`` hooks re-tuple where identity matters);
    dicts/lists/scalars pass through. Unknown types raise so a new
    unserializable field fails loudly at save time, not at restore.
    """
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): encode_state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_state(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}"
    )


def decode_state(value: Any) -> Any:
    """Recursively decode a JSON tree, materializing encoded ndarrays."""
    if isinstance(value, dict):
        if _ND_KEY in value and len(value) == 1:
            return decode_array(value)
        return {k: decode_state(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_state(v) for v in value]
    return value


# -- file I/O ----------------------------------------------------------------


def write_checkpoint(
    path: Union[str, Path], state: Mapping[str, Any]
) -> Path:
    """Atomically persist one checkpoint document.

    ``state`` is the component-state tree (may contain raw ndarrays);
    the schema header and kind tag are added here. Written with the
    temp-file + fsync + rename idiom so a crash mid-write leaves the
    previous checkpoint (or nothing) — never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": CHECKPOINT_KIND,
    }
    document.update(encode_state(dict(state)))
    tmp = path.with_name(path.name + ".tmp")
    # NaN/inf must survive (DvfsGovernor._since_launch starts at inf),
    # so this deliberately keeps json's default allow_nan=True.
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate one checkpoint document.

    Raises :class:`CheckpointError` when the file is absent, not valid
    JSON, or carries an unknown schema/kind — callers treat any of
    those as a checkpoint miss and start from scratch.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from None
    if not isinstance(document, dict):
        raise CheckpointError(f"{path}: checkpoint is not an object")
    if document.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema "
            f"{document.get('schema')!r} (expected {CHECKPOINT_SCHEMA})"
        )
    if document.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path}: not a simulation checkpoint "
            f"(kind={document.get('kind')!r})"
        )
    return decode_state(document)


def checkpoint_exists(path: Optional[Union[str, Path]]) -> bool:
    """True when ``path`` names an existing (possibly stale) checkpoint."""
    return bool(path) and Path(path).exists()
