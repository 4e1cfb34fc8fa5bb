"""Table-batched embeddings: bit-identical to the per-table path.

:class:`~repro.core.embedding.EmbeddingBagCollection` stores tables of one
dim in one weight slab and plans each batch once (one gather and one
expand-and-coalesce per slab).  These tests pin that this changes no bit
against the per-table path — each table gathered, and each feature
coalesced, on its own — across dtypes, pooling modes, truncation, empty
features, shared tables, mixed dims (two slabs), tiered tables, the
pipelined trainer and the hybrid-parallel trainer; that the per-table
views (``touched_rows``, ``pop_grad``) agree; and that inference builds
no backward plan.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import DLRM, Adagrad, Trainer, kernels
from repro.core.config import (
    InteractionType,
    MLPSpec,
    ModelConfig,
    PoolingType,
    TableSpec,
    uniform_tables,
)
from repro.core.embedding import (
    BatchPlan,
    EmbeddingBagCollection,
    EmbeddingTable,
    RaggedIndices,
)
from repro.data import SyntheticDataGenerator
from repro.distributed.mp import (
    HybridRunConfig,
    TableShards,
    run_hybrid,
    run_hybrid_serial,
)
from repro.tiering import TieredStoreConfig

# ---------------------------------------------------------------------------
# the per-table reference: the pre-batching algorithm, written out in kernels
# ---------------------------------------------------------------------------


def _prepare(spec: TableSpec, ind: RaggedIndices) -> RaggedIndices:
    if spec.truncation is not None:
        ind = ind.truncate(spec.truncation)
    kernels.check_bounds(ind.values, spec.hash_size)
    return ind


def reference_step(coll, batch, grads):
    """Per-table forward outputs and per-table popped grads, computed with
    one gather per table and one coalesce per feature, merged in reverse
    feature order like ``pop_grad``."""
    spec_of = {s.name: s for s in coll.specs}
    groups: dict[str, list[str]] = {}
    for f in coll.feature_names:
        groups.setdefault(coll.feature_to_table[f], []).append(f)
    outs, per_feature = {}, {}
    for table_name, features in groups.items():
        table = coll.tables[table_name]
        prepared = [_prepare(spec_of[table_name], batch[f]) for f in features]
        values = np.concatenate([p.values for p in prepared])
        shifts = np.cumsum([0] + [p.total_lookups for p in prepared])
        offsets = np.concatenate(
            [[0]] + [p.offsets[1:] + s for p, s in zip(prepared, shifts)]
        )
        pooled = kernels.gather_pool(table.weight, values, offsets)
        splits = np.split(pooled, np.cumsum([p.batch_size for p in prepared])[:-1])
        for f, p, out in zip(features, prepared, splits):
            if coll.pooling is PoolingType.MEAN:
                out = out / np.maximum(p.lengths(), 1).astype(out.dtype)[:, None]
            outs[f] = out
            per_feature[f] = p
    sparse: dict[str, list] = {name: [] for name in coll.tables}
    for f in reversed(coll.feature_names):
        table = coll.tables[coll.feature_to_table[f]]
        p = per_feature[f]
        if not len(p.values):
            continue
        g = np.asarray(grads[f], dtype=table.weight.dtype)
        if coll.pooling is PoolingType.MEAN:
            g = g / np.maximum(p.lengths(), 1).astype(g.dtype)[:, None]
        parts = sparse[table.spec.name]
        parts.append(kernels.expand_coalesce(p.values, p.lengths(), g))
    popped = {}
    for name, parts in sparse.items():
        if not parts:
            popped[name] = None
        elif len(parts) == 1:
            popped[name] = parts[0]
        else:
            popped[name] = kernels.coalesce_rows(
                np.concatenate([r for r, _ in parts]),
                np.concatenate([v for _, v in parts]),
            )
    return outs, popped


def _ragged(rng, batch, hash_size, mean, empty=False):
    lengths = np.zeros(batch, dtype=np.int64) if empty else rng.poisson(mean, batch)
    values = rng.integers(0, hash_size, int(lengths.sum()))
    return RaggedIndices(values, np.concatenate([[0], np.cumsum(lengths)]))


CASES = {
    "plain": dict(dims=(4, 4, 4), mapping=None, truncation=None),
    "truncation": dict(dims=(4, 4, 4), mapping=None, truncation=2),
    "shared": dict(
        dims=(4, 4),
        mapping={"a": "t0", "b": "t1", "c": "t0", "d": "t0", "e": "t1"},
        truncation=None,
    ),
    "mixed_dims": dict(dims=(4, 8, 4, 2, 8), mapping=None, truncation=None),
    "mixed_shared": dict(
        dims=(4, 8), mapping={"a": "t1", "b": "t0", "c": "t1"}, truncation=3
    ),
}


def _collection(case, dtype, pooling, seed=0):
    spec = CASES[case]
    specs = tuple(
        TableSpec(f"t{i}", hash_size=20 + 7 * i, dim=d, truncation=spec["truncation"])
        for i, d in enumerate(spec["dims"])
    )
    return EmbeddingBagCollection(
        specs, np.random.default_rng(seed), pooling=pooling,
        feature_to_table=spec["mapping"], dtype=dtype,
    )


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pooling", [PoolingType.SUM, PoolingType.MEAN])
def test_collection_matches_per_table_reference(case, dtype, pooling):
    coll = _collection(case, dtype, pooling)
    spec_of = {s.name: s for s in coll.specs}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        batch = {
            f: _ragged(
                rng, 9, spec_of[coll.feature_to_table[f]].hash_size, 2.5,
                empty=(seed == 1 and i == 1),  # a feature with no lookups
            )
            for i, f in enumerate(coll.feature_names)
        }
        out = coll.forward(batch)
        grads = {
            f: rng.normal(size=(9, spec_of[coll.feature_to_table[f]].dim))
            for f in coll.feature_names
        }
        plans = coll.plan_batch(batch)
        coll.backward(grads)
        ref_out, ref_grads = reference_step(coll, batch, grads)
        for f in coll.feature_names:
            assert out[f].dtype == np.dtype(dtype)
            assert np.array_equal(out[f], ref_out[f]), f
        for name, table in coll.tables.items():
            touched = plans.tables[name].touched_rows()
            got, want = table.pop_grad(), ref_grads[name]
            if want is None:
                assert got is None and len(touched) == 0
                continue
            assert np.array_equal(got.rows, want[0])
            assert np.array_equal(touched, got.rows)
            assert got.values.dtype == np.dtype(dtype)
            assert np.array_equal(got.values, want[1]), name


def test_tables_are_views_of_one_slab_per_dim():
    coll = _collection("mixed_dims", np.float64, PoolingType.SUM)
    bases = {}
    for table in coll.tables.values():
        assert table.weight.base is not None
        bases.setdefault(table.dim, set()).add(id(table.weight.base))
    assert {d: len(b) for d, b in bases.items()} == {2: 1, 4: 1, 8: 1}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_slab_init_draws_like_one_uniform_per_table(dtype):
    # tables initialize in row chunks, straight into their slab views; the
    # values must be those of one (hash_size, dim) draw per table in order
    specs = (
        TableSpec("a", hash_size=70_000, dim=1),
        TableSpec("b", hash_size=9_000, dim=16),
        TableSpec("c", hash_size=5, dim=3),
    )
    coll = EmbeddingBagCollection(specs, np.random.default_rng(5), dtype=dtype)
    rng = np.random.default_rng(5)
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.dim)
        want = rng.uniform(-scale, scale, size=(spec.hash_size, spec.dim))
        assert np.array_equal(coll.tables[spec.name].weight, want.astype(dtype))


def test_per_table_grads_are_views_of_one_coalesced_result():
    coll = _collection("plain", np.float64, PoolingType.SUM)
    rng = np.random.default_rng(0)
    batch = {f: _ragged(rng, 6, 20, 2.0) for f in coll.feature_names}
    coll.forward(batch)
    coll.backward({f: np.ones((6, 4)) for f in coll.feature_names})
    bases = {id(t.sparse_grads[0].values.base) for t in coll.tables.values()}
    assert len(bases) == 1


# ---------------------------------------------------------------------------
# tiered tables: same tier accounting as the per-table path
# ---------------------------------------------------------------------------


def test_tiered_collection_stats_match_per_table_plans():
    tiering = TieredStoreConfig(hot_fraction=0.1, chunk_rows=4)
    config = ModelConfig(
        name="tiered-batched",
        num_dense=4,
        tables=uniform_tables(3, 200, dim=4, mean_lookups=3.0, truncation=4),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((8,)),
        interaction=InteractionType.DOT,
    )
    model = DLRM(config, rng=0, tiering=tiering)
    twin = DLRM(config, rng=0, tiering=tiering)
    gen = SyntheticDataGenerator(config, rng=1, index_skew=1.1)
    for _ in range(5):
        batch = gen.batch(32)
        plans = model.embeddings.plan_batch(batch.sparse)
        for name, table in twin.embeddings.tables.items():
            plan = table.plan_forward([batch.sparse[name]])
            assert plan.tier_delta == plans.tables[name].tier_delta
    for name, table in model.embeddings.tables.items():
        assert table.stats == twin.embeddings.tables[name].stats


# ---------------------------------------------------------------------------
# whole-trainer paths against a per-table collection
# ---------------------------------------------------------------------------


class PerTableCollection(EmbeddingBagCollection):
    """The pre-batching collection: every table plans, gathers and
    coalesces on its own through the per-table interface."""

    def plan_batch(self, batch, *, training=True):
        return BatchPlan((), {
            name: self.tables[name].plan_forward(
                [batch[f] for f in features], training=training
            )
            for name, features in self._table_groups
        })

    def forward(self, batch, *, training=True, plans=None):
        out = {}
        for name, features in self._table_groups:
            pooled = self.tables[name].forward_batched(
                [batch[f] for f in features], training=training,
                plan=None if plans is None else plans.tables[name],
            )
            out.update(zip(features, pooled))
        return out

    def backward(self, grads):
        for f in reversed(self.feature_names):
            self.tables[self.feature_to_table[f]].backward(grads[f])


def _config(dtype, interaction=InteractionType.DOT, num_tables=3):
    return ModelConfig(
        name=f"batched-{dtype}",
        num_dense=5,
        tables=uniform_tables(num_tables, 40, dim=4, mean_lookups=2.0, truncation=3),
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((8,)),
        interaction=interaction,
        compute_dtype=dtype,
    )


def _adagrad(m):
    return Adagrad(
        m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("interaction", [InteractionType.DOT, InteractionType.CONCAT])
def test_pipelined_trainer_matches_per_table_trainer(dtype, interaction):
    config = _config(dtype, interaction)
    batched = DLRM(config, rng=0)
    per_table = DLRM(config, rng=0)
    per_table.embeddings.__class__ = PerTableCollection
    gen_a = SyntheticDataGenerator(config, rng=3)
    gen_b = SyntheticDataGenerator(config, rng=3)
    ra = Trainer(batched, _adagrad, pipeline=True).train(
        iter(lambda: gen_a.batch(16), None), max_steps=6
    )
    rb = Trainer(per_table, _adagrad).train(
        iter(lambda: gen_b.batch(16), None), max_steps=6
    )
    assert ra.loss_history == rb.loss_history
    for ta, tb in zip(batched.embedding_tables(), per_table.embedding_tables()):
        assert np.array_equal(ta.weight, tb.weight)
    for pa, pb in zip(batched.dense_parameters(), per_table.dense_parameters()):
        assert np.array_equal(pa.value, pb.value)


def _slab_views(coll):
    """Every table's weight is a view of one of the collection's slabs."""
    return all(
        any(np.shares_memory(t.weight, slab.weight) for slab in coll._slabs)
        for t in coll.tables.values()
    )


@pytest.mark.parametrize(
    "clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copied_model_trains_like_the_original(clone):
    # pickle and deepcopy copy each array on its own; the copy's tables must
    # come back as views of its slabs, or Adagrad would update memory that
    # forward never reads
    config = _config("float64")
    model = DLRM(config, rng=0)
    twin = clone(model)
    assert _slab_views(twin.embeddings)
    gen_a = SyntheticDataGenerator(config, rng=3)
    gen_b = SyntheticDataGenerator(config, rng=3)
    ra = Trainer(model, _adagrad).train(iter(lambda: gen_a.batch(16), None), max_steps=4)
    rb = Trainer(twin, _adagrad).train(iter(lambda: gen_b.batch(16), None), max_steps=4)
    assert ra.loss_history == rb.loss_history
    for ta, tb in zip(model.embedding_tables(), twin.embedding_tables()):
        assert np.array_equal(ta.weight, tb.weight)


def test_model_and_optimizer_pickled_mid_training_continue_identically():
    config = _config("float32")
    model = DLRM(config, rng=0)
    trainer = Trainer(model, _adagrad)
    gen = SyntheticDataGenerator(config, rng=3)
    batches = [gen.batch(16) for _ in range(4)]
    trainer.train_step(batches[0])
    model2, opt2 = pickle.loads(pickle.dumps((model, trainer.optimizer)))
    assert _slab_views(model2.embeddings)
    assert all(a is b for a, b in zip(opt2.tables, model2.embedding_tables()))
    trainer2 = Trainer(model2, lambda m: opt2)
    for batch in batches[1:]:
        assert trainer.train_step(batch) == trainer2.train_step(batch)
    for ta, tb in zip(model.embedding_tables(), model2.embedding_tables()):
        assert np.array_equal(ta.weight, tb.weight)


def test_table_factory_must_keep_its_storage():
    def detached(spec, rng, pooling, dtype, storage):
        return EmbeddingTable(spec, rng, pooling=pooling, dtype=dtype)

    specs = (TableSpec("a", hash_size=10, dim=4), TableSpec("b", hash_size=5, dim=4))
    with pytest.raises(TypeError, match="storage="):
        EmbeddingBagCollection(specs, np.random.default_rng(0), table_factory=detached)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_hybrid_slab_shards_bitwise_vs_serial(dtype):
    # one shared-memory weight segment, adopted whole as every worker's slab
    config = _config(dtype, InteractionType.CONCAT, num_tables=5)
    run = HybridRunConfig(workers=2, steps=3, batch_size=32, seed=5, pipeline=True)
    a, b = run_hybrid(config, run), run_hybrid_serial(config, run)
    assert a.losses == b.losses
    assert a.table_digests == b.table_digests
    assert a.state_digest() == b.state_digest()


def test_shards_are_two_segments_in_slab_layout():
    # mixed dims: three slabs back to back in one segment
    coll = _collection("mixed_dims", np.float64, PoolingType.SUM)
    order = EmbeddingBagCollection.storage_order(coll.specs)
    assert order == ["t0", "t2", "t1", "t4", "t3"]
    shards = TableShards.create({name: coll.tables[name].weight for name in order})
    try:
        assert len(shards.segment_names) == 2
        replica = _collection("mixed_dims", np.float64, PoolingType.SUM, seed=1)
        replica.adopt_storage(shards.buffer("weight"))
        for name in order:
            table = replica.tables[name]
            assert np.array_equal(table.weight, coll.tables[name].weight)
            assert np.shares_memory(table.weight, shards.view(name, "weight"))
        rng = np.random.default_rng(0)
        batch = {f: _ragged(rng, 5, 20, 2.0) for f in coll.feature_names}
        want = coll.forward(batch, training=False)
        got = replica.forward(batch, training=False)
        assert all(np.array_equal(got[f], want[f]) for f in want)
        del replica, table
    finally:
        shards.close()


# ---------------------------------------------------------------------------
# inference builds no backward plan
# ---------------------------------------------------------------------------


def test_predict_proba_builds_no_coalesce_plan(monkeypatch):
    config = _config("float32")
    model = DLRM(config, rng=0)
    batch = SyntheticDataGenerator(config, rng=0).batch(32)
    calls = []
    real = kernels.coalesce_plan

    def counting(indices):
        calls.append(len(indices))
        return real(indices)

    monkeypatch.setattr(kernels, "coalesce_plan", counting)
    model.predict_proba(batch)
    assert calls == []
    model.forward(batch)  # a training forward plans the backward (once)
    assert len(calls) == 1
    model._discard_forward_state()


def test_inference_plan_cannot_drive_a_training_forward():
    coll = _collection("plain", np.float64, PoolingType.SUM)
    rng = np.random.default_rng(0)
    batch = {f: _ragged(rng, 4, 20, 2.0) for f in coll.feature_names}
    plans = coll.plan_batch(batch, training=False)
    with pytest.raises(ValueError):
        coll.forward(batch, plans=plans)
    assert coll.forward(batch, training=False, plans=plans)
    with pytest.raises(RuntimeError):
        plans.tables["t0"].touched_rows()
