"""The virtual cluster: collectives over per-rank NumPy blocks.

:class:`SimCluster` plays the role of ``MPI_COMM_WORLD`` plus the mode
sub-communicators of a Cartesian grid. Because the cluster is simulated
in-process, a "distributed" array is simply a ``dict[rank -> ndarray]`` and a
collective is a function transforming such dicts. Each collective

* computes the result with the same data movement pattern a real MPI
  implementation would use (so results are bit-identical to an SPMD run up to
  floating-point reduction order, which we fix to ascending-rank order);
* appends a :class:`~repro.dist.stats.Record` with the *exact* element volume
  (the paper's metric) and the alpha-beta modeled time.

Volume conventions (elements, not bytes):

* ``reduce_scatter`` over ``p`` ranks producing chunks of total size ``m``:
  volume ``(p - 1) * m`` — each output element is combined from ``p`` partial
  values held on distinct ranks, costing ``p - 1`` transfers (ring). This is
  exactly the paper's ``(q_n - 1) |Out(u)|`` once summed over fibers.
* ``alltoallv``: the number of elements whose source differs from their
  destination rank.
* ``allgather`` over ``p`` ranks of per-rank pieces summing to ``m``:
  volume ``(p - 1) * m`` (ring).
* ``allreduce`` of an ``n``-element buffer: ``2 n (p - 1) / p * p = 2 n (p-1)``
  total elements (reduce-scatter + allgather decomposition).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.dist.machine import MachineModel
from repro.dist.stats import StatsLedger
from repro.util.dtypes import accumulator_dtype
from repro.util.validation import check_positive_int


class SimCluster:
    """A deterministic, in-process stand-in for an MPI communicator.

    Parameters
    ----------
    n_procs:
        World size (the paper uses 32: one rank per BG/Q node).
    machine:
        Performance model used for the modeled-seconds column of the stats
        ledger; defaults to :meth:`MachineModel.bgq_like`.
    """

    def __init__(self, n_procs: int, machine: MachineModel | None = None) -> None:
        self.n_procs = check_positive_int(n_procs, "n_procs")
        self.machine = machine if machine is not None else MachineModel.bgq_like()
        self.stats = StatsLedger()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _check_group(self, group: Sequence[int]) -> list[int]:
        group = list(group)
        if len(group) == 0:
            raise ValueError("group must be non-empty")
        if len(set(group)) != len(group):
            raise ValueError(f"group has duplicate ranks: {group}")
        for r in group:
            if not 0 <= r < self.n_procs:
                raise ValueError(f"rank {r} out of range [0, {self.n_procs})")
        return group

    def record_compute(self, op: str, tag: str, flops: float) -> float:
        """Record a modeled compute kernel; returns modeled seconds.

        ``op`` selects the rate: ``"gemm"``/``"syrk"`` use the BLAS-3 rate,
        ``"evd"`` the sequential eigensolver rate.
        """
        if op in ("gemm", "syrk"):
            seconds = self.machine.gemm_seconds(flops)
        elif op == "evd":
            seconds = self.machine.evd_seconds(flops)
        else:
            raise ValueError(f"unknown compute op {op!r}")
        self.stats.add_compute(op=op, tag=tag, flops=flops, seconds=seconds)
        return seconds

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def reduce_scatter(
        self,
        group: Sequence[int],
        partials: Mapping[int, np.ndarray],
        counts: Sequence[int],
        *,
        axis: int = 0,
        tag: str = "reduce_scatter",
    ) -> dict[int, np.ndarray]:
        """Sum per-rank partial arrays and scatter chunks along ``axis``.

        ``partials[r]`` for each rank ``r`` in ``group`` must have identical
        shape; ``counts[i]`` is the chunk size (along ``axis``) delivered to
        ``group[i]``. Returns ``{rank: chunk}``.
        """
        group = self._check_group(group)
        if set(partials.keys()) != set(group):
            raise ValueError("partials must provide exactly the group ranks")
        counts = [int(c) for c in counts]
        if len(counts) != len(group):
            raise ValueError("counts must have one entry per group rank")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        shapes = {partials[r].shape for r in group}
        if len(shapes) != 1:
            raise ValueError(f"partial shapes differ: {shapes}")
        (shape,) = shapes
        if sum(counts) != shape[axis]:
            raise ValueError(
                f"counts sum to {sum(counts)} but axis {axis} has length {shape[axis]}"
            )

        # Deterministic ascending-rank reduction order; floats keep their
        # precision, everything else accumulates in float64.
        first = partials[group[0]]
        total = first.astype(accumulator_dtype(first.dtype), copy=True)
        for r in group[1:]:
            total += partials[r]

        offsets = np.concatenate(([0], np.cumsum(counts)))
        out: dict[int, np.ndarray] = {}
        index: list[slice] = [slice(None)] * total.ndim
        for i, r in enumerate(group):
            index[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            out[r] = np.ascontiguousarray(total[tuple(index)])

        p = len(group)
        if p > 1:
            per_fiber = int(np.prod(shape)) // shape[axis] if shape[axis] else 0
            chunk_elems = [c * per_fiber for c in counts]
            total_out = sum(chunk_elems)
            volume = (p - 1) * total_out
            # Each rank's ring send volume is (p-1) x its *output* chunk of
            # the reduction; the slowest rank owns the largest chunk.
            max_rank = (p - 1) * max(chunk_elems)
            seconds = self.machine.reduce_scatter_seconds(p, max_rank)
            self.stats.add_comm("reduce_scatter", tag, p, float(volume), seconds)
        return out

    def alltoallv(
        self,
        send: Mapping[int, Mapping[int, np.ndarray]],
        *,
        tag: str = "alltoallv",
    ) -> dict[int, dict[int, np.ndarray]]:
        """Personalized exchange: ``send[src][dst]`` -> ``recv[dst][src]``.

        Only off-rank pieces (``src != dst``) count toward volume. Pieces may
        be absent (no message). Arrays are not copied for the local piece.
        """
        group = self._check_group(list(send.keys()))
        recv: dict[int, dict[int, np.ndarray]] = {r: {} for r in group}
        sent = dict.fromkeys(group, 0)
        got = dict.fromkeys(group, 0)
        volume = 0
        for src in group:
            for dst, piece in send[src].items():
                if dst not in recv:
                    raise ValueError(f"destination rank {dst} not in group {group}")
                recv[dst][src] = piece
                if src != dst:
                    size = int(piece.size)
                    volume += size
                    sent[src] += size
                    got[dst] += size
        p = len(group)
        if p > 1 and volume > 0:
            max_rank = max(max(sent[r], got[r]) for r in group)
            seconds = self.machine.alltoall_seconds(p, max_rank)
            self.stats.add_comm("alltoallv", tag, p, float(volume), seconds)
        return recv

    def allgather(
        self,
        group: Sequence[int],
        pieces: Mapping[int, np.ndarray],
        *,
        axis: int = 0,
        tag: str = "allgather",
    ) -> dict[int, np.ndarray]:
        """Concatenate per-rank pieces along ``axis``; everyone gets the whole.

        Pieces are concatenated in ascending *group position* order, matching
        MPI_Allgatherv semantics with ranks ordered as in ``group``.
        """
        group = self._check_group(group)
        if set(pieces.keys()) != set(group):
            raise ValueError("pieces must provide exactly the group ranks")
        gathered = np.concatenate([pieces[r] for r in group], axis=axis)
        out = {r: gathered if i == 0 else gathered.copy() for i, r in enumerate(group)}
        p = len(group)
        if p > 1:
            total = int(gathered.size)
            sizes = {r: int(pieces[r].size) for r in group}
            volume = sum(total - s for s in sizes.values())  # == (p-1)*total
            max_rank = total - min(sizes.values())
            seconds = self.machine.allgather_seconds(p, max_rank)
            self.stats.add_comm("allgather", tag, p, float(volume), seconds)
        return out

    def allreduce(
        self,
        group: Sequence[int],
        data: Mapping[int, np.ndarray],
        *,
        tag: str = "allreduce",
    ) -> dict[int, np.ndarray]:
        """Elementwise sum over the group; everyone gets the total."""
        group = self._check_group(group)
        if set(data.keys()) != set(group):
            raise ValueError("data must provide exactly the group ranks")
        shapes = {data[r].shape for r in group}
        if len(shapes) != 1:
            raise ValueError(f"shapes differ: {shapes}")
        first = data[group[0]]
        total = first.astype(accumulator_dtype(first.dtype), copy=True)
        for r in group[1:]:
            total += data[r]
        out = {r: total if i == 0 else total.copy() for i, r in enumerate(group)}
        p = len(group)
        if p > 1:
            n = int(total.size)
            volume = 2.0 * n * (p - 1)
            seconds = self.machine.allreduce_seconds(p, n)
            self.stats.add_comm("allreduce", tag, p, volume, seconds)
        return out
