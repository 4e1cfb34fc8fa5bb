"""Shared-memory embedding shards and their placement plan.

All embedding tables live in two ``multiprocessing.shared_memory``
segments — one for the weights, one for the Adagrad accumulators — laid
out like the model's weight slabs (tables back to back in
:meth:`~repro.core.embedding.EmbeddingBagCollection.storage_order`), and
created — and, crucially, unlinked — by the parent process.  Workers
inherit the mapping through ``fork``; each adopts the whole weight segment
as its slabs with one call (:meth:`~repro.core.embedding.
EmbeddingBagCollection.adopt_storage`): all ranks read rows straight out of
shared memory during the forward pass (this is what replaces the
all-to-all of a message-passing design), while sparse updates to a table
are applied only by the one rank that owns it.

Lifecycle contract (pinned by ``tests/test_mp_shm.py``): the parent is the
sole owner of ``unlink``.  Segments are removed in a ``finally`` whether
workers exit cleanly or crash mid-step, so no ``/dev/shm`` entries and no
resource-tracker "leaked shared_memory" warnings survive a run.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ...core.config import ModelConfig

__all__ = ["ShardPlan", "TableShards"]

_SEGMENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class ShardPlan:
    """Which rank owns each embedding table's sparse updates.

    Greedy largest-first bin packing over table bytes: tables are assigned,
    biggest first, to the currently-lightest rank — the same
    capacity-balancing heuristic the paper's placement study uses for
    multi-GPU sharding, here balancing per-worker update work.
    """

    owners: dict[str, int]
    world: int

    @classmethod
    def greedy(cls, config: ModelConfig, world: int) -> "ShardPlan":
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        loads = [0] * world
        owners: dict[str, int] = {}
        tables = sorted(
            config.tables,
            key=lambda t: (-t.hash_size * t.dim, t.name),
        )
        for spec in tables:
            rank = min(range(world), key=lambda r: (loads[r], r))
            owners[spec.name] = rank
            loads[rank] += spec.hash_size * spec.dim
        return cls(owners=owners, world=world)

    def owned(self, rank: int) -> list[str]:
        """Tables owned by ``rank``, in the plan's insertion (size) order."""
        return [name for name, r in self.owners.items() if r == rank]

    def owner_bytes(self, config: ModelConfig) -> list[int]:
        """Per-rank owned table bytes (weights only) — balance diagnostics."""
        itemsize = np.dtype(config.np_dtype).itemsize
        loads = [0] * self.world
        for spec in config.tables:
            loads[self.owners[spec.name]] += spec.hash_size * spec.dim * itemsize
        return loads


class TableShards:
    """All embedding shards of one hybrid run, in named shared memory.

    ``create`` builds two segments — ``weight`` initialized from the
    seeded model (so every process sees the same init the serial trainer
    would produce) and ``accum`` zeroed for the Adagrad state — each
    holding every table back to back in the given order, under explicit
    names carrying the parent pid and a run counter, which the lifecycle
    tests use to detect leaks.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: table name -> (shape, byte offset) within each segment
        self._layout: dict[str, tuple[tuple[int, int], int]] = {}
        self._dtype: np.dtype | None = None
        self._owner_pid = os.getpid()

    @classmethod
    def create(
        cls,
        weights: dict[str, np.ndarray],
        accums: dict[str, np.ndarray] | None = None,
    ) -> "TableShards":
        """Allocate and initialize segments from ``table name -> weights``.

        Tables are laid out back to back in ``weights``' order (pass
        :meth:`~repro.core.embedding.EmbeddingBagCollection.storage_order`
        to make the weight segment adoptable as a model's slabs).
        ``accums`` optionally seeds the Adagrad accumulator segment (the
        checkpoint-restore path); absent tables get zeroed accumulators,
        exactly like a fresh run.
        """
        shards = cls()
        accums = accums or {}
        run_id = next(_SEGMENT_COUNTER)
        offset = 0
        for name, weight in weights.items():
            if shards._dtype is None:
                shards._dtype = weight.dtype
            shards._layout[name] = (weight.shape, offset)
            offset += weight.nbytes
        try:
            for kind, init in (("weight", weights), ("accum", accums)):
                shards._segments[kind] = shared_memory.SharedMemory(
                    create=True,
                    size=offset,
                    name=f"repro_mp_{os.getpid()}_{run_id}_{kind}",
                )
                for name in weights:
                    view = shards.view(name, kind)
                    if init.get(name) is None:
                        view.fill(0.0)
                    else:
                        view[...] = init[name]
        except BaseException:
            shards.close()
            raise
        return shards

    def buffer(self, kind: str = "weight") -> memoryview:
        """A whole segment: every table back to back, in creation order."""
        return self._segments[kind].buf

    def view(self, name: str, kind: str = "weight") -> np.ndarray:
        """Zero-copy ndarray over one table's rows of a segment (valid in
        parent and children)."""
        shape, offset = self._layout[name]
        return np.ndarray(
            shape, dtype=self._dtype, buffer=self._segments[kind].buf, offset=offset
        )

    def digest(self, name: str, kind: str = "weight") -> str:
        """sha256 over a segment's current bytes (checkpoint verification)."""
        import hashlib

        return hashlib.sha256(self.view(name, kind).tobytes()).hexdigest()

    @property
    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments.values()]

    @property
    def total_bytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    def close(self) -> None:
        """Close the mapping and (in the creating process) unlink segments.

        Idempotent; called from the parent's ``finally`` so segments are
        removed even when a worker crashed mid-run.  Forked children also
        inherit this object but must *not* unlink — only the creator does.
        """
        unlink = os.getpid() == self._owner_pid
        for seg in self._segments.values():
            # Unlink before close: shm_unlink removes the /dev/shm name (and
            # the resource-tracker registration) regardless of live mappings,
            # so a view still alive inside a model replica cannot leak the
            # segment — it only delays freeing the memory until GC.
            if unlink:
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
        self._segments.clear()
