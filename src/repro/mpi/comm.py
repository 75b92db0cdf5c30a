"""Deterministic single-process MPI rank simulator.

Real SPH-EXA runs MPI+CUDA with one rank per GPU/GCD. Here every rank
is a cooperating object inside one Python process, each with its *own*
:class:`~repro.hardware.clock.VirtualClock` (rank-local time). Ranks
execute their compute phases sequentially in program order, advancing
only their own clocks; collectives then synchronize: every
participant's clock is advanced to the latest participant's time plus
the modelled collective latency. This reproduces the two effects the
paper depends on:

* load imbalance shows up as idle (GPU-clock-decaying) wait time at
  synchronization points, and
* end-of-step collective communication leaves the GPUs idle long
  enough for the DVFS governor to dip below 1000 MHz (Fig. 9).

Data movement itself is trivial (all values live in one process); the
point of the layer is faithful *time* behaviour plus mpi4py-style
calling conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _functools_reduce
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..hardware.clock import VirtualClock
from .timing import CommModel


class MpiError(RuntimeError):
    """Raised on invalid communicator usage."""


@dataclass
class CommStats:
    """Aggregate statistics of communicator activity."""

    calls: Dict[str, int] = field(default_factory=dict)
    bytes_moved: float = 0.0
    sync_wait_s: float = 0.0
    comm_time_s: float = 0.0
    #: Per-rank share of ``sync_wait_s`` (idle time at collectives);
    #: grown lazily to the highest rank seen.
    rank_wait_s: List[float] = field(default_factory=list)

    def note(
        self,
        op: str,
        nbytes: float,
        wait_s: float,
        comm_s: float,
        rank_waits: Optional[Sequence[float]] = None,
    ) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1
        self.bytes_moved += nbytes
        self.sync_wait_s += wait_s
        self.comm_time_s += comm_s
        if rank_waits is not None:
            if len(self.rank_wait_s) < len(rank_waits):
                self.rank_wait_s.extend(
                    0.0 for _ in range(len(rank_waits) - len(self.rank_wait_s))
                )
            for rank, w in enumerate(rank_waits):
                self.rank_wait_s[rank] += w

    def note_rank_wait(self, rank: int, wait_s: float) -> None:
        """Charge ``wait_s`` of idle time to a single rank."""
        if len(self.rank_wait_s) <= rank:
            self.rank_wait_s.extend(
                0.0 for _ in range(rank + 1 - len(self.rank_wait_s))
            )
        self.rank_wait_s[rank] += wait_s

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "calls": dict(self.calls),
            "bytes_moved": self.bytes_moved,
            "sync_wait_s": self.sync_wait_s,
            "comm_time_s": self.comm_time_s,
            "rank_wait_s": list(self.rank_wait_s),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.calls = {k: int(v) for k, v in state["calls"].items()}
        self.bytes_moved = float(state["bytes_moved"])
        self.sync_wait_s = float(state["sync_wait_s"])
        self.comm_time_s = float(state["comm_time_s"])
        # Older checkpoints carry no per-rank breakdown.
        self.rank_wait_s = [float(w) for w in state.get("rank_wait_s", [])]


def _payload_bytes(value: Any) -> float:
    """Approximate wire size of a per-rank contribution."""
    if value is None:
        return 0.0
    if isinstance(value, np.ndarray):
        return float(value.nbytes)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8.0
    if isinstance(value, (list, tuple)):
        return float(sum(_payload_bytes(v) for v in value))
    if isinstance(value, dict):
        return float(
            sum(_payload_bytes(k) + _payload_bytes(v) for k, v in value.items())
        )
    if isinstance(value, (bytes, bytearray)):
        return float(len(value))
    if isinstance(value, str):
        return float(len(value.encode()))
    return 64.0  # pickled-object fallback


class SimComm:
    """A simulated communicator over ``size`` ranks.

    Parameters
    ----------
    clocks:
        One rank-local clock per rank, index == rank id.
    model:
        Communication cost model.
    node_of_rank:
        Node index of each rank (for intra- vs inter-node costing).
        Defaults to all ranks on one node.
    """

    def __init__(
        self,
        clocks: Sequence[VirtualClock],
        model: Optional[CommModel] = None,
        node_of_rank: Optional[Sequence[int]] = None,
    ) -> None:
        if not clocks:
            raise MpiError("a communicator needs at least one rank")
        self._clocks = list(clocks)
        self.model = model or CommModel()
        self.node_of_rank = (
            list(node_of_rank)
            if node_of_rank is not None
            else [0] * len(clocks)
        )
        if len(self.node_of_rank) != len(self._clocks):
            raise MpiError("node_of_rank must have one entry per rank")
        self.stats = CommStats()

    @property
    def size(self) -> int:
        return len(self._clocks)

    def clock(self, rank: int) -> VirtualClock:
        """Rank-local clock for ``rank``."""
        return self._clocks[rank]

    @property
    def multi_node(self) -> bool:
        return len(set(self.node_of_rank)) > 1

    # ------------------------------------------------------------------
    # Synchronization core
    # ------------------------------------------------------------------

    def _synchronize(self, op: str, nbytes_per_rank: float, comm_s: float) -> None:
        """Advance all ranks to the common completion time of an op."""
        arrive = max(c.now for c in self._clocks)
        finish = arrive + comm_s
        rank_waits = [arrive - c.now for c in self._clocks]
        for c in self._clocks:
            c.advance_to(finish)
        self.stats.note(
            op, nbytes_per_rank * self.size, sum(rank_waits), comm_s,
            rank_waits=rank_waits,
        )

    def barrier(self) -> None:
        """Synchronize all ranks (zero-payload collective)."""
        self._synchronize(
            "barrier", 0.0, self.model.collective_s(self.size, 0.0, self.multi_node)
        )

    # ------------------------------------------------------------------
    # Collectives (mpi4py-style lowercase, value-per-rank inputs)
    # ------------------------------------------------------------------

    def _check_contribs(self, values: Sequence[Any]) -> None:
        if len(values) != self.size:
            raise MpiError(
                f"expected one contribution per rank "
                f"({self.size}), got {len(values)}"
            )

    def allreduce(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any] = None
    ) -> Any:
        """Reduce all ranks' contributions; every rank gets the result.

        ``op`` combines two contributions (default: elementwise/NumPy
        aware sum).
        """
        self._check_contribs(values)
        nbytes = max(_payload_bytes(v) for v in values)
        self._synchronize(
            "allreduce",
            nbytes,
            self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        return _functools_reduce(op or _default_sum, values)

    def reduce(
        self,
        values: Sequence[Any],
        root: int = 0,
        op: Callable[[Any, Any], Any] = None,
    ) -> Any:
        """Reduce to ``root``; non-roots receive ``None``."""
        self._check_contribs(values)
        self._check_rank(root)
        nbytes = max(_payload_bytes(v) for v in values)
        self._synchronize(
            "reduce",
            nbytes,
            self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        return _functools_reduce(op or _default_sum, values)

    def bcast(self, value: Any, root: int = 0) -> List[Any]:
        """Broadcast ``value`` from ``root``; returns per-rank copies."""
        self._check_rank(root)
        nbytes = _payload_bytes(value)
        self._synchronize(
            "bcast",
            nbytes,
            self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        return [value for _ in range(self.size)]

    def gather(self, values: Sequence[Any], root: int = 0) -> List[Any]:
        """Gather one contribution per rank at ``root``."""
        self._check_contribs(values)
        self._check_rank(root)
        nbytes = max(_payload_bytes(v) for v in values)
        self._synchronize(
            "gather",
            nbytes,
            self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        return list(values)

    def allgather(self, values: Sequence[Any]) -> List[Any]:
        """Gather contributions from all ranks to all ranks."""
        self._check_contribs(values)
        nbytes = max(_payload_bytes(v) for v in values)
        self._synchronize(
            "allgather",
            nbytes,
            self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        return list(values)

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Exchange ``matrix[src][dst]`` so ranks receive their column."""
        self._check_contribs(matrix)
        for row in matrix:
            self._check_contribs(row)
        nbytes = max(
            _payload_bytes(cell) for row in matrix for cell in row
        )
        self._synchronize(
            "alltoall",
            nbytes,
            self.model.alltoall_s(self.size, nbytes, self.multi_node),
        )
        return [[matrix[src][dst] for src in range(self.size)]
                for dst in range(self.size)]

    def reduce_scatter(
        self,
        matrix: Sequence[Sequence[Any]],
        op: Callable[[Any, Any], Any] = None,
    ) -> List[Any]:
        """Reduce ``matrix[src][dst]`` over ``src``; rank ``dst`` keeps
        element ``dst`` of the result.

        The mpi4py ``Reduce_scatter_block`` shape: every rank
        contributes one block per destination, each destination
        receives the reduction of its column. Costed like a reduce
        followed by a scatter (one tree each), which is how
        recursive-halving implementations behave.
        """
        self._check_contribs(matrix)
        for row in matrix:
            self._check_contribs(row)
        nbytes = max(
            _payload_bytes(cell) for row in matrix for cell in row
        )
        self._synchronize(
            "reduce_scatter",
            nbytes,
            2.0 * self.model.collective_s(self.size, nbytes, self.multi_node),
        )
        if op is None:
            op = _default_sum
        return [
            _functools_reduce(op, [matrix[src][dst] for src in range(self.size)])
            for dst in range(self.size)
        ]

    # ------------------------------------------------------------------
    # Point-to-point (used by halo exchange)
    # ------------------------------------------------------------------

    def sendrecv(self, src: int, dst: int, nbytes: float) -> None:
        """Account one ``nbytes`` message from ``src`` to ``dst``.

        Both endpoints complete at the later endpoint's time plus the
        transfer cost; other ranks are unaffected.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return
        same_node = self.node_of_rank[src] == self.node_of_rank[dst]
        cost = self.model.point_to_point_s(nbytes, same_node)
        start = max(self._clocks[src].now, self._clocks[dst].now)
        finish = start + cost
        src_wait = start - self._clocks[src].now
        dst_wait = start - self._clocks[dst].now
        self._clocks[src].advance_to(finish)
        self._clocks[dst].advance_to(finish)
        self.stats.note("sendrecv", nbytes, src_wait + dst_wait, cost)
        self.stats.note_rank_wait(src, src_wait)
        self.stats.note_rank_wait(dst, dst_wait)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range 0..{self.size - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimComm(size={self.size}, multi_node={self.multi_node})"


def _default_sum(a: Any, b: Any) -> Any:
    """NumPy-aware elementwise sum used as the default reduction."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.add(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a)(x + y for x, y in zip(a, b))
    return a + b
