"""Embedding tables with the hashing trick, pooled multi-hot lookups and
sparse gradients.

This module implements the sparse half of the recommendation model
(paper §III-A.1/2): each sparse feature owns (or shares) an embedding table
of ``hash_size x dim`` rows; a training example activates ``n`` indices whose
rows are fetched and pooled (summed or averaged) into one d-dimensional
vector, optionally truncating ``n`` to bound outliers.

Gradients are kept *sparse*: a backward pass records only the touched rows,
because production tables have millions of rows (Figure 6 shows hash sizes
up to 20M) and a dense gradient would be both wrong in spirit and infeasible
in memory.

Hot paths (pooling, coalescing, truncation, bounds checks) are implemented
by the vectorized kernels in :mod:`repro.core.kernels`.  The collection is
*table-batched*: tables of one dim share one weight slab, and a batch is
planned once (:meth:`EmbeddingBagCollection.plan_batch`) — one gather and
one expand-and-coalesce per slab instead of one per table — while every
table keeps its per-table interface as views into the slab and the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import PoolingType, TableSpec

__all__ = [
    "RaggedIndices",
    "SparseGrad",
    "LookupPlan",
    "TablePlan",
    "BatchPlan",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "hash_raw_ids",
]

# Knuth's multiplicative constant; gives a cheap, deterministic, well-mixing
# hash for the hashing trick without pulling in an external dependency.
_HASH_MULTIPLIER = np.uint64(2654435761)
_HASH_SHIFT = np.uint64(16)


def hash_raw_ids(raw_ids: np.ndarray, hash_size: int) -> np.ndarray:
    """Map arbitrary non-negative integer ids into ``[0, hash_size)``.

    This is the hash function ``h_m: S_X -> {0..m-1}`` of paper §III-A.1.
    Deterministic, vectorized, and collision-prone by design for small
    ``hash_size`` (the accuracy/size trade-off the paper discusses).

    The output is range-safe by construction; wrap it in
    ``RaggedIndices(values, offsets, safe_bound=hash_size)`` to let the
    lookup skip its bounds re-scan.
    """
    if hash_size < 1:
        raise ValueError(f"hash_size must be >= 1, got {hash_size}")
    ids = np.asarray(raw_ids, dtype=np.uint64)
    mixed = (ids * _HASH_MULTIPLIER) ^ (ids >> _HASH_SHIFT)
    return (mixed % np.uint64(hash_size)).astype(np.int64)


@dataclass(frozen=True)
class RaggedIndices:
    """Multi-hot sparse input for one feature over a batch.

    ``values[offsets[i]:offsets[i+1]]`` are the activated indices of sample
    ``i`` — the standard jagged/CSR layout.

    ``safe_bound``, when set, asserts that every value is already known to
    lie in ``[0, safe_bound)`` — e.g. because the values came from
    :func:`hash_raw_ids` — which lets :class:`EmbeddingTable` skip its
    defensive bounds re-scan for tables with ``hash_size >= safe_bound``.
    """

    values: np.ndarray  # int64, shape (total_lookups,)
    offsets: np.ndarray  # int64, shape (batch+1,), offsets[0] == 0
    safe_bound: int | None = None  # values proven to be in [0, safe_bound)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if offsets[-1] != len(values):
            raise ValueError(
                f"offsets[-1]={offsets[-1]} must equal len(values)={len(values)}"
            )

    @classmethod
    def from_lists(
        cls,
        per_sample: list[np.ndarray | list[int]],
        safe_bound: int | None = None,
    ) -> "RaggedIndices":
        """Build from one index list per sample."""
        arrays = [np.asarray(a, dtype=np.int64) for a in per_sample]
        lengths = np.array([len(a) for a in arrays], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        values = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(values=values, offsets=offsets, safe_bound=safe_bound)

    @property
    def batch_size(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_lookups(self) -> int:
        return int(self.offsets[-1])

    def lengths(self) -> np.ndarray:
        """Number of activated indices per sample (the feature lengths of Fig 7)."""
        return np.diff(self.offsets)

    def sample(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def truncate(self, max_per_sample: int) -> "RaggedIndices":
        """Cap each sample at ``max_per_sample`` lookups (paper's truncation size).

        Vectorized (see :func:`repro.core.kernels.truncate_ragged`); the
        ``safe_bound`` certificate survives truncation since truncation only
        drops values.
        """
        values, offsets = kernels.truncate_ragged(
            self.values, self.offsets, max_per_sample
        )
        return RaggedIndices(values=values, offsets=offsets, safe_bound=self.safe_bound)


@dataclass
class SparseGrad:
    """Coalesced sparse gradient of one embedding table.

    ``rows`` are unique row indices; ``values[i]`` is the summed gradient for
    ``rows[i]``.  Sparse-aware optimizers (:mod:`repro.core.optim`) consume
    this directly, updating only the touched rows.
    """

    rows: np.ndarray  # int64, shape (k,)
    values: np.ndarray  # float, shape (k, dim)

    @classmethod
    def coalesce(cls, indices: np.ndarray, grads: np.ndarray) -> "SparseGrad":
        """Sum duplicate row contributions into one entry per unique row.

        Sort-based group reduction (:func:`repro.core.kernels.coalesce_rows`)
        — agrees with the historical ``np.unique`` + ``np.add.at``
        implementation to ~1 ULP and preserves the gradient dtype (float32
        tables produce float32 sparse grads).
        """
        rows, summed = kernels.coalesce_rows(indices, grads)
        return cls(rows=rows, values=summed)

    @property
    def nnz_rows(self) -> int:
        return len(self.rows)


def _shifted(
    parts: list[np.ndarray], base: np.ndarray, spans: np.ndarray
) -> np.ndarray:
    """``parts`` laid end to end (part ``k`` at ``spans[k]:spans[k+1]``),
    part ``k`` shifted by ``base[k]`` — written into one output array."""
    if len(parts) == 1 and not base[0]:
        return parts[0]
    out = np.empty(int(spans[-1]), dtype=np.int64)
    for part, shift, lo, hi in zip(parts, base.tolist(), spans[:-1], spans[1:]):
        np.add(part, shift, out=out[lo:hi])
    return out


@dataclass(frozen=True)
class LookupPlan:
    """Model-state-independent precompute of one fused pooled lookup.

    A plan covers an ordered list of feature *slots*: one feature of one
    table (:meth:`EmbeddingTable.plan_forward`) or every feature whose
    table lives in one weight slab (:meth:`EmbeddingBagCollection.
    plan_batch`).  Everything the forward and backward need that does not
    depend on the weights is here: the prepared (truncated,
    bounds-checked) index streams, one CSR layout over all slots, and the
    backward grouping.  A plan built on a prefetch thread and applied later
    gives bit-identical results to the inline path, because the inline
    path *is* plan + apply.

    The backward grouping is **one** :class:`~repro.core.kernels.
    CoalescePlan` keyed by ``(slot, row)``: slot ``k``'s ids are shifted by
    ``key_base[k]`` so that every slot owns a disjoint, increasing key
    range.  A stable sort by key is then the per-slot stable sort laid
    end to end, so slot ``k``'s groups — a contiguous run of the
    coalesced result — sum exactly what a per-feature coalesce would, in
    the same order.  Planned with ``training=False`` (inference) the
    grouping is skipped: ``grad``, ``slot_groups`` and ``rows`` are
    ``None``.
    """

    #: Prepared per-slot index streams (truncation + bounds applied).
    prepared: tuple[RaggedIndices, ...]
    #: Fused CSR layout: column ids are rows of the weight the plan is
    #: applied to (slot ids shifted by their table's first slab row).
    values: np.ndarray
    offsets: np.ndarray
    #: Per fused sample lookup counts (MEAN divisors / backward).
    lengths: np.ndarray
    #: Slot ``k`` owns fused samples ``bounds[k]:bounds[k+1]``.
    bounds: np.ndarray
    #: Backward grouping over ``(slot, row)`` keys.
    grad: kernels.CoalescePlan | None
    #: Slot ``k`` owns coalesced groups ``slot_groups[k]:slot_groups[k+1]``.
    slot_groups: np.ndarray | None
    #: Table-local row id of every coalesced group.
    rows: np.ndarray | None

    @classmethod
    def build(
        cls,
        prepared: list[RaggedIndices],
        row_base: np.ndarray,
        key_base: np.ndarray,
        *,
        training: bool = True,
    ) -> "LookupPlan":
        """Plan ``prepared`` (one stream per slot) against one weight.

        ``row_base[k]`` is the first weight row of slot ``k``'s table and
        ``key_base[k]`` the start of its backward key range (strictly
        increasing, each range as long as its table).
        """
        spans = np.cumsum([0] + [p.total_lookups for p in prepared])
        if len(prepared) == 1:
            offsets = prepared[0].offsets
        else:
            offsets = np.concatenate(
                [[0]] + [p.offsets[1:] + s for p, s in zip(prepared, spans)]
            )
        bounds = np.cumsum([0] + [p.batch_size for p in prepared])
        keys = _shifted([p.values for p in prepared], key_base, spans)
        values = (
            keys if np.array_equal(row_base, key_base)
            else _shifted([p.values for p in prepared], row_base, spans)
        )
        grad = slot_groups = rows = None
        if training:
            grad = kernels.coalesce_plan(keys)
            slot_groups = np.concatenate(
                [np.searchsorted(grad.rows, key_base), [len(grad.rows)]]
            )
            rows = _shifted(
                [grad.rows[lo:hi] for lo, hi in zip(slot_groups, slot_groups[1:])],
                -key_base, slot_groups,
            )
        return cls(
            prepared=tuple(prepared),
            values=values,
            offsets=offsets,
            lengths=np.diff(offsets),
            bounds=bounds,
            grad=grad,
            slot_groups=slot_groups,
            rows=rows,
        )

    def pool(self, weight: np.ndarray, pooling: PoolingType) -> list[np.ndarray]:
        """Pooled lookups of every slot (one gather dispatch); a list of
        ``(batch, dim)`` views into one result, in slot order."""
        pooled = kernels.gather_pool(weight, self.values, self.offsets, check=False)
        if pooling is PoolingType.MEAN:
            pooled /= np.maximum(self.lengths, 1).astype(pooled.dtype)[:, None]
        if len(self.prepared) == 1:
            return [pooled]
        return np.split(pooled, self.bounds[1:-1])

    def backward(
        self, grads: list[np.ndarray], weight: np.ndarray, pooling: PoolingType
    ) -> list[SparseGrad | None]:
        """Per-slot sparse gradients of ``weight`` from per-slot ``(batch,
        dim)`` output gradients, computed with one stacked
        expand-and-coalesce.

        Each slot's :class:`SparseGrad` is a zero-copy view of the one
        coalesced result; slots without lookups get ``None``.
        """
        if self.grad is None:
            raise RuntimeError("backward through a lookup planned for inference")
        if len(grads) != len(self.prepared):
            raise ValueError(f"{len(grads)} grads for {len(self.prepared)} slots")
        dtype, dim = weight.dtype, weight.shape[1]
        for p, g in zip(self.prepared, grads):
            if g.shape != (p.batch_size, dim):
                raise ValueError(f"grad shape {g.shape} != ({p.batch_size}, {dim})")
        if len(grads) == 1:
            stacked = np.asarray(grads[0], dtype=dtype)
        else:
            stacked = np.empty((self.bounds[-1], dim), dtype=dtype)
            for k, g in enumerate(grads):
                stacked[self.bounds[k] : self.bounds[k + 1]] = g
        if pooling is PoolingType.MEAN:
            stacked = stacked / np.maximum(self.lengths, 1).astype(dtype)[:, None]
        summed = kernels.expand_apply(self.grad, self.lengths, stacked)
        out: list[SparseGrad | None] = []
        for lo, hi in zip(self.slot_groups[:-1], self.slot_groups[1:]):
            out.append(
                SparseGrad(rows=self.rows[lo:hi], values=summed[lo:hi])
                if hi > lo else None
            )
        return out

    def slot_rows(self, k: int) -> np.ndarray:
        """Unique table rows slot ``k`` looked up (sorted ascending)."""
        if self.grad is None:
            raise RuntimeError("row plan of a lookup planned for inference")
        return self.rows[self.slot_groups[k] : self.slot_groups[k + 1]]


@dataclass(frozen=True)
class TablePlan:
    """One table's share of a batch's lookup plans.

    :meth:`EmbeddingTable.plan_forward` returns one over single-feature
    plans of the table's own; :meth:`EmbeddingBagCollection.plan_batch`
    returns one per table as a view into its slab's plan.  Either way it
    names the table's rows a batch will produce gradients for, and carries
    the table's per-batch tier accounting.
    """

    #: ``(lookup, slot)`` of each of this table's features, in feature order.
    slots: tuple[tuple[LookupPlan, int], ...]
    #: Per-batch tier accounting captured at plan time (tiered tables only;
    #: see :meth:`repro.tiering.store.TieredEmbeddingTable.observe_lookups`).
    tier_delta: object | None = None

    def touched_rows(self) -> np.ndarray:
        """Unique rows this batch's backward will produce gradients for.

        Matches the ``rows`` of :meth:`EmbeddingTable.pop_grad` exactly:
        features with no lookups contribute nothing (their backward is
        skipped), a single contributing feature passes its already-unique
        rows through, and multiple contributors coalesce to the sorted
        union.  Weight-independent, so the hybrid trainer can exchange the
        next batch's row plan while the current batch is still computing.
        """
        nonempty = [
            rows for rows in (lk.slot_rows(k) for lk, k in self.slots) if len(rows)
        ]
        if not nonempty:
            return np.empty(0, dtype=np.int64)
        if len(nonempty) == 1:
            return nonempty[0]
        return np.unique(np.concatenate(nonempty))


@dataclass(frozen=True)
class BatchPlan:
    """Every lookup plan of one batch (:meth:`EmbeddingBagCollection.
    plan_batch`)."""

    #: One :class:`LookupPlan` per weight slab some feature looks up.
    lookups: tuple[LookupPlan, ...]
    #: Table name -> its :class:`TablePlan` view into ``lookups``.
    tables: dict[str, TablePlan]


#: Values drawn per init chunk (a 512 KiB float64 temporary).
_INIT_CHUNK = 1 << 16


class EmbeddingTable:
    """One embedding lookup table with pooled multi-hot reads.

    The forward pass is the EmbeddingBag operation: gather ``n`` rows per
    sample, pool them (sum or mean), and return a ``(batch, dim)`` matrix.
    ``dtype`` selects the compute/storage precision (float64 default;
    float32 halves bandwidth — the paper's production precision, §VI).

    ``storage``, when given, is a ``(hash_size, dim)`` array of that dtype
    the table initializes in place and keeps as its ``weight`` — the
    collection passes row ranges of its weight slab.  Initialization
    consumes ``rng`` identically either way.
    """

    def __init__(
        self,
        spec: TableSpec,
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        init_scale: float | None = None,
        dtype: np.dtype | type = np.float64,
        storage: np.ndarray | None = None,
    ) -> None:
        self.spec = spec
        self.pooling = pooling
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(spec.dim)
        shape = (spec.hash_size, spec.dim)
        if storage is None:
            storage = np.empty(shape, dtype=dtype)
        elif storage.shape != shape or storage.dtype != np.dtype(dtype):
            raise ValueError(
                f"storage {storage.shape} {storage.dtype} does not fit table "
                f"{spec.name} {shape} {np.dtype(dtype)}"
            )
        # Row chunks draw the same stream as one (hash_size, dim) draw; the
        # float64 temporary stays small however large the table.
        step = max(1, _INIT_CHUNK // spec.dim)
        for lo in range(0, spec.hash_size, step):
            hi = min(lo + step, spec.hash_size)
            storage[lo:hi] = rng.uniform(-scale, scale, size=(hi - lo, spec.dim))
        self.weight = storage
        # A stack of single-feature forward plans: shared tables are looked
        # up once per feature, and backward pops them in reverse.
        self._saved: list[LookupPlan] = []
        self.sparse_grads: list[SparseGrad] = []

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def hash_size(self) -> int:
        return self.spec.hash_size

    @property
    def dtype(self) -> np.dtype:
        return self.weight.dtype

    def bytes_per_row(self) -> float:
        """Stored bytes per row at this table's actual precision.

        Tier-capacity planning (:mod:`repro.tiering`) sizes hot tiers in
        bytes; pricing rows at their true width (f32 vs f64, and int8/int4
        for :class:`~repro.core.quantization.QuantizedEmbeddingTable`)
        instead of assuming fp32 is what makes quantization and tiering
        compose — a 4-bit table fits ~8x more rows in the same hot tier.
        """
        return float(self.weight.dtype.itemsize * self.spec.dim)

    def _prepare(self, indices: RaggedIndices) -> RaggedIndices:
        """Apply truncation and validate bounds (single pass; skipped when
        the indices carry a sufficient ``safe_bound`` certificate)."""
        if self.spec.truncation is not None:
            indices = indices.truncate(self.spec.truncation)
        if indices.safe_bound is None or indices.safe_bound > self.hash_size:
            kernels.check_bounds(
                indices.values,
                self.hash_size,
                what=f"indices for table {self.spec.name}",
            )
        return indices

    def observe_lookups(
        self, prepared: list[RaggedIndices], *, training: bool
    ) -> object | None:
        """Plan-time hook over this table's prepared streams of one batch.

        Called once per table per planned batch, in table order, with the
        streams the kernel will gather.  The flat table keeps no stats;
        :class:`repro.tiering.store.TieredEmbeddingTable` prices the
        accesses and returns the batch's tier delta.
        """
        return None

    def forward(self, indices: RaggedIndices, *, training: bool = True) -> np.ndarray:
        """Pooled lookup; returns ``(batch, dim)``.

        Samples with zero activated indices produce a zero vector (a
        legitimate event for optional sparse features).
        """
        return self.forward_batched([indices], training=training)[0]

    def plan_forward(
        self, features: list[RaggedIndices], *, training: bool = True
    ) -> TablePlan:
        """Precompute everything about a lookup that the weights don't touch.

        Truncation, bounds validation, each feature's CSR layout and
        (``training=True`` only) its backward grouping are pure functions
        of the *indices* — this is the work the prefetch pipeline
        (:mod:`repro.pipeline`) moves off the critical path.  Each feature
        gets a single-slot :class:`LookupPlan`.  Inference plans skip the
        backward grouping (a stable sort per lookup stream).
        """
        # _prepare validates bounds (or accepts the safe_bound certificate),
        # so the pooled product may skip its own check.
        prepared = [self._prepare(ind) for ind in features]
        zero = np.zeros(1, dtype=np.int64)
        slots = tuple(
            (LookupPlan.build([p], zero, zero, training=training), 0)
            for p in prepared
        )
        return TablePlan(slots, self.observe_lookups(prepared, training=training))

    def forward_batched(
        self,
        features: list[RaggedIndices],
        *,
        training: bool = True,
        plan: TablePlan | None = None,
    ) -> list[np.ndarray]:
        """Pooled lookups for several features sharing this table.

        Saved forward contexts are pushed in feature order, so
        :meth:`backward` (called in reverse feature order) pops them
        correctly.

        ``plan`` supplies the index-side precompute from an earlier
        :meth:`plan_forward` of this table; without one, the plan is built
        inline — the two paths share every instruction that touches data.

        ``training=False`` (the inference fast path) skips pushing forward
        contexts entirely: nothing is saved, nothing needs discarding, and
        the ``_saved`` stack cannot grow across inference-only forwards.
        """
        if plan is None:
            plan = self.plan_forward(features, training=training)
        lookups = [lookup for lookup, _ in plan.slots]
        if training:
            if any(lookup.grad is None for lookup in lookups):
                raise ValueError(
                    "training forward needs a plan built with training=True"
                )
            self._saved.extend(lookups)
        return [lookup.pool(self.weight, self.pooling)[0] for lookup in lookups]

    def backward(self, grad_out: np.ndarray) -> None:
        """Scatter ``(batch, dim)`` output gradients back into touched rows."""
        if not self._saved:
            raise RuntimeError("backward called before forward")
        lookup = self._saved.pop()
        grad = lookup.backward([grad_out], self.weight, self.pooling)[0]
        if grad is not None:
            self.sparse_grads.append(grad)

    def zero_grad(self) -> None:
        self.sparse_grads.clear()

    def pop_grad(self) -> SparseGrad | None:
        """Coalesce and clear all accumulated sparse gradients."""
        if not self.sparse_grads:
            return None
        if len(self.sparse_grads) == 1:
            grad = self.sparse_grads[0]
        else:
            rows = np.concatenate([g.rows for g in self.sparse_grads])
            vals = np.concatenate([g.values for g in self.sparse_grads])
            grad = SparseGrad.coalesce(rows, vals)
        self.sparse_grads.clear()
        return grad


@dataclass
class _Slab:
    """Tables of one embedding dim stored as one weight array."""

    weight: np.ndarray
    #: ``(table name, first row)`` in storage (config) order.
    tables: list[tuple[str, int]]
    #: Feature slots in lookup order, their tables' first rows and their
    #: backward key bases.
    features: list[str]
    row_base: np.ndarray
    key_base: np.ndarray

    def __getstate__(self) -> dict:
        # Pickled without its weight: the tables' views carry the values and
        # EmbeddingBagCollection.__setstate__ rebuilds the slab from them.
        return {**self.__dict__, "weight": None}


def _slab_groups(specs: tuple[TableSpec, ...]) -> list[list[TableSpec]]:
    """Specs grouped by dim in first-appearance order (config order within)."""
    groups: dict[int, list[TableSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.dim, []).append(spec)
    return list(groups.values())


class EmbeddingBagCollection:
    """All embedding tables of a model, table-batched.

    **Storage.** Tables of one dim live in one weight slab, back to back
    in config order; each table's ``weight`` is a row-range view of it and
    its initialization writes straight into that view (rng consumed in
    config order, exactly as for standalone tables).  A collection of
    mixed dims gets one slab per dim.

    **One plan per batch.** :meth:`plan_batch` shifts every feature's ids
    by its table's first slab row and builds one :class:`LookupPlan` per
    slab: one CSR layout, so the forward is one
    :func:`~repro.core.kernels.gather_pool` per slab, and one
    ``(feature slot, row)``-keyed coalesce, so the backward is one
    :func:`~repro.core.kernels.expand_apply` per slab.  On a 120-table
    batch that replaces 120 CSR builds, stable sorts and expand dispatches
    (``docs/perf_notes.md``).

    **Per-table interfaces stay.** The backward hands each table its
    per-feature :class:`SparseGrad` slices (zero-copy views of the one
    coalesced result) in reverse feature order, so ``pop_grad`` merges a
    shared table's features exactly as the per-table path does, and
    optimizers, tier accounting and the hybrid trainer keep working per
    table.  Results are bit-identical to the per-table path.  The sparse
    optimizer stays per table too: one slab-wide Adagrad update measured
    slower (~12 ms vs ~10.5 ms on the 120-table benchmark batch).

    ``feature_to_table`` lets several semantically-similar sparse features
    share one physical table (paper §III-A.2); by default each feature owns
    its own table.

    ``table_factory`` swaps the table implementation — e.g.
    :class:`repro.tiering.store.TieredEmbeddingTable` for the two-tier
    store — and must accept the same ``(spec, rng, pooling=, dtype=,
    storage=)`` signature and consume rng identically (any drop-in
    subclass of :class:`EmbeddingTable` does).
    """

    def __init__(
        self,
        specs: tuple[TableSpec, ...],
        rng: np.random.Generator,
        pooling: PoolingType = PoolingType.SUM,
        feature_to_table: dict[str, str] | None = None,
        dtype: np.dtype | type = np.float64,
        table_factory=None,
    ) -> None:
        if feature_to_table is None:
            feature_to_table = {s.name: s.name for s in specs}
        table_names = {s.name for s in specs}
        unknown = set(feature_to_table.values()) - table_names
        if unknown:
            raise ValueError(f"feature_to_table references unknown tables: {unknown}")
        if table_factory is None:
            table_factory = EmbeddingTable
        self.specs = specs
        self.pooling = pooling
        self.feature_to_table = dict(feature_to_table)
        self.feature_names = list(feature_to_table.keys())
        # Features grouped by physical table, preserving feature order within
        # each group — the plan-time table order.
        by_table: dict[str, list[str]] = {}
        for feature in self.feature_names:
            by_table.setdefault(self.feature_to_table[feature], []).append(feature)
        self._table_groups = list(by_table.items())

        dtype = np.dtype(dtype)
        spec_of = {s.name: s for s in specs}
        self._slabs: list[_Slab] = []
        storage: dict[str, np.ndarray] = {}
        for group in _slab_groups(specs):
            starts = np.cumsum([0] + [s.hash_size for s in group])
            weight = np.empty((int(starts[-1]), group[0].dim), dtype=dtype)
            first_row = {s.name: int(r) for s, r in zip(group, starts)}
            for s in group:
                first = first_row[s.name]
                storage[s.name] = weight[first : first + s.hash_size]
            features = [
                f for t, fs in self._table_groups if t in first_row for f in fs
            ]
            sizes = [spec_of[feature_to_table[f]].hash_size for f in features]
            self._slabs.append(_Slab(
                weight=weight,
                tables=list(first_row.items()),
                features=features,
                row_base=np.array(
                    [first_row[feature_to_table[f]] for f in features], dtype=np.int64
                ),
                key_base=np.cumsum([0] + sizes[:-1]).astype(np.int64),
            ))
        self.tables: dict[str, EmbeddingTable] = {
            s.name: table_factory(
                s, rng, pooling=pooling, dtype=dtype, storage=storage[s.name]
            )
            for s in specs
        }
        for name, table in self.tables.items():
            if not np.shares_memory(table.weight, storage[name]):
                raise TypeError(
                    f"table_factory must keep storage= as table {name}'s weight"
                )
        # Slabs some feature looks up (a slab of unused tables plans nothing).
        self._lookup_slabs = [s for s in self._slabs if s.features]
        self._slot_of = {
            f: (i, k)
            for i, slab in enumerate(self._lookup_slabs)
            for k, f in enumerate(slab.features)
        }
        self._saved: list[BatchPlan] = []

    @staticmethod
    def storage_order(specs: tuple[TableSpec, ...]) -> list[str]:
        """Table names in slab storage order (slab after slab; config order
        within a slab) — the layout :meth:`adopt_storage` expects."""
        return [s.name for group in _slab_groups(specs) for s in group]

    def adopt_storage(self, buffer) -> None:
        """Rebind every slab, and each table's weight view, onto external
        memory (zero copy; values are *not* copied).

        ``buffer`` holds the slabs back to back — each table's rows in
        :meth:`storage_order`, C order, this collection's dtype.  The
        hybrid-parallel trainer (:mod:`repro.distributed.mp`) passes one
        ``multiprocessing.shared_memory`` segment, so every worker reads
        rows straight out of shared memory and a table's owner writes its
        sparse updates into it.
        """
        need = sum(slab.weight.nbytes for slab in self._slabs)
        if memoryview(buffer).nbytes < need:
            raise ValueError(
                f"adopted buffer holds {memoryview(buffer).nbytes} bytes, "
                f"slabs need {need}"
            )
        offset = 0
        for slab in self._slabs:
            weight = np.ndarray(
                slab.weight.shape, dtype=slab.weight.dtype, buffer=buffer, offset=offset
            )
            offset += weight.nbytes
            self._bind(slab, weight)

    def _bind(self, slab: _Slab, weight: np.ndarray) -> None:
        """Make ``weight`` the slab and each of its tables' weight a view."""
        slab.weight = weight
        for name, first in slab.tables:
            table = self.tables[name]
            table.weight = weight[first : first + table.hash_size]

    def __setstate__(self, state: dict) -> None:
        # Pickle and deepcopy copy every array on its own, so the tables'
        # weights arrive detached from any slab (which is pickled empty):
        # rebuild each slab from its tables and rebind them as views, or
        # forward would read one memory while the optimizer updates another.
        self.__dict__.update(state)
        for slab in self._slabs:
            parts = [self.tables[name].weight for name, _ in slab.tables]
            self._bind(slab, np.concatenate(parts))

    def plan_batch(
        self, batch: dict[str, RaggedIndices], *, training: bool = True
    ) -> BatchPlan:
        """Precompute one batch's lookup: one :class:`LookupPlan` per slab.

        Tables are prepared and observed (tier accounting) in table-group
        order, so a plan built ahead of time (on the prefetch thread)
        touches streams and stat-keeping subclass state in exactly the
        inline order.  ``training=False`` skips the backward grouping.
        """
        missing = set(self.feature_names) - set(batch.keys())
        if missing:
            raise KeyError(f"batch is missing sparse features: {sorted(missing)}")
        prepared: dict[str, RaggedIndices] = {}
        deltas: dict[str, object | None] = {}
        for table_name, features in self._table_groups:
            table = self.tables[table_name]
            streams = [table._prepare(batch[f]) for f in features]
            prepared.update(zip(features, streams))
            deltas[table_name] = table.observe_lookups(streams, training=training)
        lookups = tuple(
            LookupPlan.build(
                [prepared[f] for f in slab.features],
                slab.row_base,
                slab.key_base,
                training=training,
            )
            for slab in self._lookup_slabs
        )
        tables: dict[str, TablePlan] = {}
        for table_name, features in self._table_groups:
            slots = tuple(
                (lookups[i], k) for i, k in map(self._slot_of.__getitem__, features)
            )
            tables[table_name] = TablePlan(slots, deltas[table_name])
        return BatchPlan(lookups, tables)

    def forward(
        self,
        batch: dict[str, RaggedIndices],
        *,
        training: bool = True,
        plans: BatchPlan | None = None,
    ) -> dict[str, np.ndarray]:
        """Look up every feature; returns feature name -> (batch, dim).

        ``plans`` (from an earlier :meth:`plan_batch`) skips the index
        precompute — the pipelined path.
        """
        if plans is None:
            plans = self.plan_batch(batch, training=training)
        elif training and any(lk.grad is None for lk in plans.lookups):
            raise ValueError("training forward needs a plan built with training=True")
        out: dict[str, np.ndarray] = {}
        for slab, lookup in zip(self._lookup_slabs, plans.lookups):
            out.update(zip(slab.features, lookup.pool(slab.weight, self.pooling)))
        if training:
            self._saved.append(plans)
        return out

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        if not self._saved:
            raise RuntimeError("backward called before forward")
        plans = self._saved.pop()
        per_slot = [
            lookup.backward(
                [grads[f] for f in slab.features], slab.weight, self.pooling
            )
            for slab, lookup in zip(self._lookup_slabs, plans.lookups)
        ]
        # Reverse feature order: a shared table receives its features'
        # gradients in the order the per-table backward produced them, so
        # pop_grad merges them with the same association.
        for feature in reversed(self.feature_names):
            i, k = self._slot_of[feature]
            grad = per_slot[i][k]
            if grad is not None:
                self.tables[self.feature_to_table[feature]].sparse_grads.append(grad)

    def discard_forward_state(self) -> None:
        """Drop saved forward contexts whose backward will never run."""
        self._saved.clear()
        for table in self.tables.values():
            table._saved.clear()

    def zero_grad(self) -> None:
        for table in self.tables.values():
            table.zero_grad()

    @property
    def total_bytes(self) -> int:
        return sum(t.weight.nbytes for t in self.tables.values())
