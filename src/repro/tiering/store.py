"""The chunked, software-managed two-tier embedding store.

Multi-TB DLRM embedding tables exceed DRAM on any realistic host (paper
§III, Table II); ROADMAP item 2 asks for a software-managed tier in the
spirit of MTrainS: keep the frequently-accessed rows in a fast hot tier
(DRAM), spill the long Zipf tail to a cheap cold tier (SCM/SSD), and use
training-time access-frequency statistics to decide placement.

:class:`TieredEmbeddingTable` is a drop-in replacement for
:class:`~repro.core.embedding.EmbeddingTable` that is **bit-identical** to
the flat table at every precision: all rows live in the one flat weight
array, so forward/backward/optimizer numerics never change — only the
*simulated cost* of each access depends on tier placement.  Rows are
grouped into fixed-size chunks (the migration granule); a
:class:`~repro.tiering.policy.PolicyCache` over chunk ids decides which
chunks are hot, scored by a per-chunk decayed access frequency
(:class:`~repro.tiering.freq.FreqStats`); and a
:class:`~repro.tiering.costs.TierCostModel` prices every hit, miss and
chunk migration into :class:`TierStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.config import PoolingType, TableSpec
from ..core.embedding import EmbeddingTable, RaggedIndices
from ..hardware.memory import DRAM_TIER, SCM_TIER, MemoryTierSpec
from .costs import TierCostModel
from .freq import FreqStats
from .policy import POLICIES, PolicyCache

__all__ = ["TieredStoreConfig", "TierStats", "TieredEmbeddingTable"]


@dataclass(frozen=True)
class TieredStoreConfig:
    """Sizing, policy and pricing of a two-tier embedding store.

    Hot-tier capacity is given either as a fraction of the table's rows
    (``hot_fraction``) or as a byte budget (``hot_bytes``, priced via the
    table's :meth:`~repro.core.embedding.EmbeddingTable.bytes_per_row` so
    quantized rows count at their true width).
    """

    hot_fraction: float | None = 0.05
    hot_bytes: float | None = None
    chunk_rows: int = 8
    policy: str = "freq"
    ema_decay: float = 0.999
    window: int = 4096
    hot_tier: MemoryTierSpec = DRAM_TIER
    cold_tier: MemoryTierSpec = SCM_TIER

    def __post_init__(self) -> None:
        if self.hot_bytes is None and self.hot_fraction is None:
            raise ValueError("one of hot_fraction / hot_bytes must be set")
        if self.hot_bytes is not None and self.hot_bytes < 0:
            raise ValueError(f"hot_bytes must be >= 0, got {self.hot_bytes}")
        if self.hot_bytes is None and not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {self.chunk_rows}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")

    def capacity_chunks(self, hash_size: int, bytes_per_row: float) -> int:
        """Whole chunks that fit in the hot tier for a given table."""
        if self.hot_bytes is not None:
            hot_rows = int(self.hot_bytes // bytes_per_row) if bytes_per_row else 0
        else:
            hot_rows = int(round(self.hot_fraction * hash_size))
        num_chunks = math.ceil(hash_size / self.chunk_rows)
        return min(num_chunks, hot_rows // self.chunk_rows)


@dataclass
class TierStats:
    """Simulated-cost accounting of one tiered table's access stream."""

    hot_hits: int = 0
    cold_misses: int = 0
    #: Chunk migrations into the hot tier (each priced as a read + write).
    promotions: int = 0
    #: Misses whose chunk failed frequency admission — served cold, no move.
    rejected: int = 0
    hot_time_s: float = 0.0
    cold_time_s: float = 0.0
    move_time_s: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hot_hits + self.cold_misses

    @property
    def hit_rate(self) -> float:
        return self.hot_hits / self.accesses if self.accesses else 0.0

    @property
    def total_time_s(self) -> float:
        return self.hot_time_s + self.cold_time_s + self.move_time_s

    @property
    def overhead_s(self) -> float:
        """Simulated time in excess of an all-hot (pure DRAM) run."""
        if not self.accesses:
            return 0.0
        hot_access_s = self.hot_time_s / self.hot_hits if self.hot_hits else 0.0
        if self.hot_hits:
            all_hot = self.accesses * hot_access_s
            return self.total_time_s - all_hot
        # Degenerate all-miss window: charge the full cold+move time.
        return self.cold_time_s + self.move_time_s

    def snapshot(self) -> "TierStats":
        return TierStats(
            hot_hits=self.hot_hits,
            cold_misses=self.cold_misses,
            promotions=self.promotions,
            rejected=self.rejected,
            hot_time_s=self.hot_time_s,
            cold_time_s=self.cold_time_s,
            move_time_s=self.move_time_s,
        )

    def delta(self, since: "TierStats") -> "TierStats":
        """Accounting accrued after ``since`` (a prior :meth:`snapshot`)."""
        return TierStats(
            hot_hits=self.hot_hits - since.hot_hits,
            cold_misses=self.cold_misses - since.cold_misses,
            promotions=self.promotions - since.promotions,
            rejected=self.rejected - since.rejected,
            hot_time_s=self.hot_time_s - since.hot_time_s,
            cold_time_s=self.cold_time_s - since.cold_time_s,
            move_time_s=self.move_time_s - since.move_time_s,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "hot_hits": self.hot_hits,
            "cold_misses": self.cold_misses,
            "promotions": self.promotions,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
            "hot_time_s": self.hot_time_s,
            "cold_time_s": self.cold_time_s,
            "move_time_s": self.move_time_s,
            "overhead_s": self.overhead_s,
        }


class TieredEmbeddingTable(EmbeddingTable):
    """A two-tier :class:`EmbeddingTable`: identical numerics, priced tiers.

    The weight array, rng consumption, forward/backward math and saved
    state are exactly the base class's — training with this table is
    bit-identical to the flat table at any ``hot_fraction`` (pinned by
    ``tests/test_tiering.py``).  On top, every prepared lookup stream is
    folded into per-row frequency stats and run through the chunk-granular
    hot-tier cache, charging simulated seconds per access and migration.
    """

    #: Duck-type marker so the Trainer can spot tiered tables without
    #: importing this module (avoids a core -> tiering import cycle).
    is_tiered = True

    def __init__(
        self,
        spec: TableSpec,
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        init_scale: float | None = None,
        dtype: np.dtype | type = np.float64,
        storage: np.ndarray | None = None,
        tiering: TieredStoreConfig | None = None,
    ) -> None:
        super().__init__(
            spec, rng, pooling=pooling, init_scale=init_scale, dtype=dtype,
            storage=storage,
        )
        self.tiering = tiering if tiering is not None else TieredStoreConfig()
        cfg = self.tiering
        self.chunk_rows = cfg.chunk_rows
        self.num_chunks = math.ceil(spec.hash_size / cfg.chunk_rows)
        self.capacity_chunks = cfg.capacity_chunks(spec.hash_size, self.bytes_per_row())
        #: Per-row access-frequency stats (EMA + window), published to the
        #: Trainer's metrics registry.
        self.freq = FreqStats(spec.hash_size, decay=cfg.ema_decay, window=cfg.window)
        # Chunk-granular stats drive admission/eviction scoring; kept
        # separate so row stats stay exact for observability.
        self._chunk_freq = FreqStats(
            self.num_chunks, decay=cfg.ema_decay, window=cfg.window
        )
        self.hot = PolicyCache(
            self.capacity_chunks, cfg.policy, scorer=self._chunk_freq.scores
        )
        self.cost_model = TierCostModel(hot=cfg.hot_tier, cold=cfg.cold_tier)
        self.stats = TierStats()

    @property
    def hot_capacity_rows(self) -> int:
        return self.capacity_chunks * self.chunk_rows

    def chunk_of(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) // self.chunk_rows

    def record_accesses(self, rows: np.ndarray) -> None:
        """Fold one prepared lookup stream into stats, cache and pricing.

        This is the whole tiering mechanism: frequency bookkeeping, the
        chunk-id pass through the hot-tier cache (hits stay hot, misses
        are served cold and considered for promotion), and the simulated
        cost of each outcome.  :meth:`observe_lookups` calls it on the
        training path; the tier sweep drives it directly.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if len(rows) == 0:
            return
        self.freq.record(rows)
        chunks = self.chunk_of(rows)
        self._chunk_freq.record(chunks)
        row_b = self.bytes_per_row()
        chunk_b = row_b * self.chunk_rows
        hot_s = self.cost_model.hot_access_s(row_b)
        cold_s = self.cost_model.cold_access_s(row_b)
        move_s = self.cost_model.chunk_move_s(chunk_b)
        stats = self.stats
        hot = self.hot
        # Chunk scores are frozen for the rest of this batch (the stats
        # update above was the only one), so score every touched chunk in
        # one vectorized pass and let the cache memoize its victim.
        hot.note_scores_changed()
        chunk_scores = dict(
            zip(chunks.tolist(), self._chunk_freq.scores(chunks).tolist())
        )
        for chunk in chunks.tolist():
            if hot.touch(chunk):
                stats.hot_hits += 1
                stats.hot_time_s += hot_s
            else:
                stats.cold_misses += 1
                stats.cold_time_s += cold_s
                inserted, _evicted = hot.insert(chunk, score=chunk_scores[chunk])
                if inserted:
                    stats.promotions += 1
                    stats.move_time_s += move_s
                else:
                    stats.rejected += 1

    def observe_lookups(
        self, prepared: list[RaggedIndices], *, training: bool
    ) -> TierStats | None:
        # Account on the *prepared* (truncated, bounds-checked) stream so
        # priced lookups match what the kernel actually gathers.  Accounting
        # happens at *plan* time: inline forwards plan right before they
        # gather, while the prefetch pipeline plans ahead on its prep
        # thread — the returned per-batch delta (the plan's ``tier_delta``)
        # lets the Trainer publish stats for the batch it is actually
        # stepping, not whatever the prep thread touched since.
        if not training:
            return None
        before = self.stats.snapshot()
        for p in prepared:
            self.record_accesses(p.values)
        return self.stats.delta(before)
