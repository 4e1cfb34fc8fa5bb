"""Property tests for the backend seam (hypothesis over the whole model).

Arbitrary architectures (dense width, table count/dim, MLP widths,
interaction type), batch sizes, compute dtypes and backends must produce
predictions and gradients through a full :class:`Trainer` step that match
the ``"numpy"`` reference — bit-identically for bit-identical backends,
within the declared tolerance otherwise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DLRM, Adagrad, InteractionType, MLPSpec, ModelConfig, SGD, Trainer, uniform_tables

from backend_cases import BACKEND_SPECS, assert_backend_matches, make_backend
from helpers import make_batch


@st.composite
def model_cases(draw):
    """(config, batch_size) spanning small but adversarial architectures."""
    dim = draw(st.integers(min_value=1, max_value=6))
    config = ModelConfig(
        name="prop",
        num_dense=draw(st.integers(min_value=1, max_value=8)),
        tables=uniform_tables(
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.sampled_from([16, 50])),
            dim=dim,
            mean_lookups=draw(st.sampled_from([1.0, 2.5])),
        ),
        # the bottom stack must end at the embedding dim for DOT
        bottom_mlp=MLPSpec((draw(st.integers(min_value=2, max_value=8)), dim)),
        top_mlp=MLPSpec((draw(st.integers(min_value=1, max_value=6)),)),
        interaction=draw(
            st.sampled_from([InteractionType.DOT, InteractionType.CONCAT])
        ),
        compute_dtype=draw(st.sampled_from(["float64", "float32"])),
    )
    return config, draw(st.integers(min_value=1, max_value=24))


def _tiny_dot_config(num_dense: int) -> ModelConfig:
    """The smallest DOT model: two 16-row dim-1 tables, f64.  Its
    interaction output is a few columns wide, the shape on which an
    F-ordered reference output took a different BLAS path than the fused
    backend's C-ordered buffer."""
    return ModelConfig(
        name="prop",
        num_dense=num_dense,
        tables=uniform_tables(2, 16, dim=1, mean_lookups=1.0),
        bottom_mlp=MLPSpec((2, 1)),
        top_mlp=MLPSpec((1,)),
        interaction=InteractionType.DOT,
        compute_dtype="float64",
    )


@settings(max_examples=12, deadline=None)
@given(
    case=model_cases(),
    spec=st.sampled_from(BACKEND_SPECS),
    optimizer=st.sampled_from(["adagrad", "sgd"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# A 1-ULP top-MLP weight-grad mismatch hypothesis once found (fused vs numpy).
@example(case=(_tiny_dot_config(1), 4), spec="fused", optimizer="adagrad", seed=0)
def test_trainer_step_matches_reference_for_any_architecture(
    case, spec, optimizer, seed
):
    config, batch_size = case
    be = make_backend(spec)
    batch = make_batch(config, batch_size, seed=seed)

    def run(backend):
        model = DLRM(config, rng=0, backend=backend)
        if optimizer == "adagrad":
            factory = lambda m: Adagrad(  # noqa: E731
                m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend
            )
        else:
            factory = lambda m: SGD(  # noqa: E731
                m.dense_parameters(), m.embedding_tables(),
                lr=0.05, momentum=0.9, backend=m.backend,
            )
        trainer = Trainer(model, factory)
        pre = model.predict_proba(batch)
        loss = trainer.train_step(batch)
        post = model.predict_proba(batch)
        return model, pre, loss, post

    model_b, pre_b, loss_b, post_b = run(be)
    model_n, pre_n, loss_n, post_n = run("numpy")

    assert_backend_matches(be, pre_b, pre_n, "pre-step predictions")
    if be.bit_identical:
        assert loss_b == loss_n
    else:
        # the float64 loss scalar inherits the model dtype's rounding
        rtol, atol = be.tolerance(np.dtype(config.compute_dtype))
        assert np.isclose(loss_b, loss_n, rtol=rtol, atol=atol)
    # gradients of the step (still held on the parameters until the next
    # zero_grad) and the updated state must agree
    for pb, pn in zip(model_b.dense_parameters(), model_n.dense_parameters()):
        assert_backend_matches(be, pb.grad, pn.grad, f"grad {pn.name}")
        assert_backend_matches(be, pb.value, pn.value, f"value {pn.name}")
    for tb, tn in zip(model_b.embedding_tables(), model_n.embedding_tables()):
        assert_backend_matches(be, tb.weight, tn.weight, "table weight")
    assert_backend_matches(be, post_b, post_n, "post-step predictions")


def test_tiny_dot_grads_match_reference_over_grid():
    """Dense grads of the fused backend equal the numpy reference on every
    batch size 1-24, batch seed 0-39 and dense width 1-3 of the tiny DOT
    model (2880 cases; before the reference DOT output was made
    C-ordered, 1790 of them differed by an ULP)."""
    from repro.core.loss import BCEWithLogitsLoss

    def grads(model, batch):
        loss = BCEWithLogitsLoss()
        model.zero_grad()
        loss.forward(model.forward(batch), batch.labels)
        model.backward(loss.backward())
        return [p.grad.copy() for p in model.dense_parameters()]

    mismatches = []
    for num_dense in (1, 2, 3):
        config = _tiny_dot_config(num_dense)
        fused = DLRM(config, rng=0, backend=make_backend("fused"))
        ref = DLRM(config, rng=0, backend="numpy")
        for batch_size in range(1, 25):
            for seed in range(40):
                batch = make_batch(config, batch_size, seed=seed)
                if not all(
                    np.array_equal(a, b)
                    for a, b in zip(grads(fused, batch), grads(ref, batch))
                ):
                    mismatches.append((num_dense, batch_size, seed))
    assert not mismatches, f"{len(mismatches)} cases differ, first {mismatches[:3]}"
