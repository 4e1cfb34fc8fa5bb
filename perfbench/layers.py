"""Per-layer breakdown of a DLRM step, measured from outside the program.

:class:`LayerTracer` replaces methods of the model's sub-objects (the MLP
stacks, the embedding collection and each table, the interaction, the loss
and the optimizer) with *instance-level* wrappers that open a span in a
``repro.obs.Tracer`` around each call.  Nothing under ``src/`` changes, and
removing the instance attributes restores the class methods.  A layer's
self time is its span's duration minus the time its child spans cover.

``PER_LAYER`` lists every per-layer metric with the end-to-end metric it
should move and where (the ``->`` column of the printed table).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import Tracer

#: Shares of ``--seconds`` in a traced single-process run.
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.35
INFER_SHARE = 0.2
FLAT_SHARE = 0.15
#: Steps written to the Chrome trace (all steps are kept in memory and
#: aggregated; the file is capped so it stays small).
CHROME_STEPS = 20

# (name, unit, better, layer, should move, should not move)
PER_LAYER = [
    ("embedding.fwd_ms", "ms", "lower", "core.embedding",
     "train_examples_per_s, step_ms_p50 on dot_many_tables", "mlp_wide"),
    ("embedding.bwd_ms", "ms", "lower", "core.embedding",
     "train_examples_per_s, step_ms_p50 on dot_many_tables", "mlp_wide"),
    ("embedding.plan_ms", "ms", "lower", "core.embedding",
     "train_examples_per_s, step_ms_p50 on dot_many_tables", "mlp_wide"),
    ("embedding.plan_calls", "count", "lower", "core.embedding",
     "exact count (one per table per step)", "every workload"),
    ("embedding.lookups", "count", "lower", "core.embedding",
     "input property; fixed by the seed", "every workload"),
    ("embedding.unique_rows", "count", "lower", "core.embedding",
     "input property; fixed by the seed", "every workload"),
    ("embedding.unique_ratio", "ratio", "lower", "core.embedding",
     "input property (base: embedding.lookups)", "every workload"),
    ("interaction.fwd_ms", "ms", "lower", "core.interaction",
     "train and infer examples/s on dot_many_tables", "mlp_wide (CONCAT)"),
    ("interaction.bwd_ms", "ms", "lower", "core.interaction",
     "train_examples_per_s on dot_many_tables", "mlp_wide (CONCAT)"),
    ("bottom_mlp.fwd_ms", "ms", "lower", "core.mlp",
     "train and infer examples/s on mlp_wide", "dot_many_tables"),
    ("bottom_mlp.bwd_ms", "ms", "lower", "core.mlp",
     "train_examples_per_s on mlp_wide", "dot_many_tables"),
    ("top_mlp.fwd_ms", "ms", "lower", "core.mlp",
     "train and infer examples/s on mlp_wide", "dot_many_tables"),
    ("top_mlp.bwd_ms", "ms", "lower", "core.mlp",
     "train_examples_per_s on mlp_wide", "dot_many_tables"),
    ("loss.ms", "ms", "lower", "core.loss",
     "train_examples_per_s on mlp_wide (B=1024)", "tiered_zipf"),
    ("optim.dense_ms", "ms", "lower", "core.optim",
     "train_examples_per_s on mlp_wide", "dot_many_tables"),
    ("optim.sparse_ms", "ms", "lower", "core.optim",
     "train_examples_per_s on dot_many_tables", "mlp_wide"),
    ("optim.sparse_tables", "count", "lower", "core.optim",
     "exact count (non-empty pop_grad per step)", "every workload"),
    ("infer.embedding_ms", "ms", "lower", "core.embedding",
     "infer_examples_per_s on dot_many_tables", "mlp_wide"),
    ("infer.interaction_ms", "ms", "lower", "core.interaction",
     "infer_examples_per_s on dot_many_tables", "mlp_wide"),
    ("infer.mlp_ms", "ms", "lower", "core.mlp",
     "infer_examples_per_s on mlp_wide", "dot_many_tables"),
    ("data.batch_ms", "ms", "lower", "data",
     "mp.prep_wait_ms and train_examples_per_s on hybrid_w2",
     "single-process workloads (generated before timing)"),
    ("tier.accounting_ms", "ms", "lower", "tiering",
     "train_examples_per_s, step_ms_p50 on tiered_zipf", "every flat workload"),
    ("tier.step_ratio_vs_flat", "ratio", "lower", "tiering",
     "train_examples_per_s, step_ms_p50 on tiered_zipf", "every flat workload"),
    ("tier.hit_rate", "ratio", "higher", "tiering",
     "must not move under a pure speed-up", "tiered_zipf"),
    ("tier.promotions", "count", "lower", "tiering",
     "must not move under a pure speed-up", "tiered_zipf"),
    ("tier.rejected", "count", "lower", "tiering",
     "must not move under a pure speed-up", "tiered_zipf"),
    ("tier.sim_overhead_ms", "ms", "lower", "tiering",
     "must not move under a pure speed-up", "tiered_zipf"),
    ("mp.forward_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.backward_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.loss_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.optimizer_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.sparse_exchange_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2 while compute covers it",
     "single-process workloads"),
    ("mp.dense_wait_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2 while compute covers it",
     "single-process workloads"),
    ("mp.barrier_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2 while compute covers it",
     "single-process workloads"),
    ("mp.prep_wait_ms", "ms", "lower", "pipeline",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.comm_busy_ms", "ms", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.overlap_fraction", "ratio", "higher", "pipeline",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.prep_stall_ms", "ms", "lower", "pipeline",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.compute_stall_ms", "ms", "lower", "pipeline",
     "train_examples_per_s on hybrid_w2", "single-process workloads"),
    ("mp.rank_skew", "ratio", "lower", "distributed.mp",
     "train_examples_per_s on hybrid_w2 (base: min rank compute)",
     "single-process workloads"),
    ("mp.dense_bytes", "B", "lower", "distributed.mp",
     "mp.dense_wait_ms on hybrid_w2", "single-process workloads"),
    ("trace.coverage", "ratio", "higher", "benchmark",
     "share of the traced step_ms_p50 that layer spans explain", "-"),
    ("trace.overhead_frac", "ratio", "lower", "benchmark",
     "traced over untraced step_ms_p50, minus 1", "-"),
]
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def empty_metrics() -> dict[str, float]:
    """Every per-layer metric at 0: the value of a layer a workload lacks."""
    return dict.fromkeys(UNITS, 0.0)


def with_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    return {name: (float(values[name]), UNITS[name]) for name in UNITS}


def tier_totals(model) -> dict[str, float]:
    """Tier accounting summed over a model's tiered tables (empty if flat)."""
    totals: dict[str, float] = defaultdict(float)
    for table in model.embedding_tables():
        if getattr(table, "is_tiered", False):
            s = table.stats
            totals["hot_hits"] += s.hot_hits
            totals["cold_misses"] += s.cold_misses
            totals["promotions"] += s.promotions
            totals["rejected"] += s.rejected
            totals["overhead_s"] += s.overhead_s
    return dict(totals)


class LayerTracer:
    """Times calls into one model's layers through instance-level wrappers."""

    def __init__(self, model, trainer) -> None:
        self.model = model
        self.trainer = trainer
        self.tracer = Tracer()
        self.step: int | str = -1
        self._installed: list[tuple[object, str]] = []
        self._plans: list = []
        self.lookups = 0
        self.unique_rows = 0
        self.sparse_tables = 0
        self._counting = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, obj, method: str, span: str, keep=None) -> None:
        inner = getattr(obj, method)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            with tracer.span(span, "layer", step=self.step):
                out = inner(*args, **kwargs)
            if keep is not None:
                keep(out)
            return out

        setattr(obj, method, wrapper)
        self._installed.append((obj, method))

    def _count_grad(self, table) -> None:
        inner = table.pop_grad

        def pop_grad():
            grad = inner()
            if grad is not None:
                self.sparse_tables += 1
            return grad

        table.pop_grad = pop_grad
        self._installed.append((table, "pop_grad"))

    def install(self) -> None:
        m, opt, loss = self.model, self.trainer.optimizer, self.trainer.loss
        for obj, name in ((m.bottom_mlp, "bottom_mlp"), (m.top_mlp, "top_mlp"),
                          (m.scorer, "top_mlp"), (m.interaction, "interaction"),
                          (m.embeddings, "embedding")):
            self._wrap(obj, "forward", f"{name}.fwd")
            self._wrap(obj, "backward", f"{name}.bwd")
        for table in m.embedding_tables():
            self._wrap(table, "plan_forward", "embedding.plan",
                       keep=self._plans.append)
            if getattr(table, "is_tiered", False):
                self._wrap(table, "record_accesses", "tier.accounting")
            self._count_grad(table)
        self._wrap(loss, "forward", "loss")
        self._wrap(loss, "backward", "loss")
        self._wrap(opt, "step", "optim.sparse")
        self._wrap(opt, "dense_step", "optim.dense")

    def uninstall(self) -> None:
        for obj, method in reversed(self._installed):
            delattr(obj, method)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def _root(self, name: str, step):
        self.step = step
        with self.tracer.span(name, "step", step=step):
            yield

    def train_step(self, i: int):
        """Context for train step ``i``: the root span of its layer spans."""
        self._counting = True
        return self._root("train_step", i)

    def infer(self, i: int):
        self._counting = False
        return self._root("infer", f"infer{i}")

    def digest(self) -> None:
        """Fold the last sample's lookup plans into the counts.

        Runs between samples, outside the timed interval, so computing the
        unique rows costs the traced step nothing.
        """
        if self._counting:
            for plan in self._plans:
                self.lookups += len(plan.all_values)
                self.unique_rows += len(plan.touched_rows())
        self._plans.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self):
        """Self seconds and calls per (root span, span name), and each root
        span's duration and the layer self time inside it."""
        spans = self.tracer.spans
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        total = defaultdict(float)
        calls = defaultdict(int)
        roots = defaultdict(list)
        covered = defaultdict(float)
        root_of: list[int] = []
        for i, s in enumerate(spans):
            if s.parent is None:
                root_of.append(i)
                roots[s.name].append(i)
                continue
            root = root_of[s.parent]
            root_of.append(root)
            key = spans[root].name, s.name
            own = s.duration - child[i]
            total[key] += own
            calls[key] += 1
            covered[root] += own
        steps = {
            name: [(spans[i].duration, covered[i]) for i in idx]
            for name, idx in roots.items()
        }
        return total, calls, steps

    def metrics(self, untraced, traced, infer, *, data_batch_ms: float,
                tier_prefix: dict, prefix_steps: int, flat_p50_ms: float | None):
        """Per-layer metrics from the traced windows, and the base of each
        ratio.

        Span times are scaled to reference host speed by their window's
        median scaled/raw sample ratio (see ``probe.py``).
        """
        total, calls, steps = self.self_times()
        n = len(steps["train_step"])
        n_inf = len(steps["infer"])
        untraced_p50_ms = statistics.median(untraced.scaled) * 1e3
        traced_p50_ms = statistics.median(traced.scaled) * 1e3
        f_train = statistics.median(traced.scaled) / statistics.median(traced.raw)
        f_infer = statistics.median(infer.scaled) / statistics.median(infer.raw)

        def ms(name, root="train_step"):
            if root == "infer":
                return total[root, name] / n_inf * 1e3 * f_infer
            return total[root, name] / n * 1e3 * f_train

        v = empty_metrics()
        for key in ("embedding.fwd", "embedding.bwd", "embedding.plan",
                    "interaction.fwd", "interaction.bwd", "bottom_mlp.fwd",
                    "bottom_mlp.bwd", "top_mlp.fwd", "top_mlp.bwd",
                    "optim.dense", "optim.sparse", "tier.accounting"):
            v[f"{key}_ms"] = ms(key)
        v["loss.ms"] = ms("loss")
        v["embedding.plan_calls"] = calls["train_step", "embedding.plan"] / n
        v["embedding.lookups"] = self.lookups / n
        v["embedding.unique_rows"] = self.unique_rows / n
        v["embedding.unique_ratio"] = self.unique_rows / max(self.lookups, 1)
        v["optim.sparse_tables"] = self.sparse_tables / n
        v["infer.embedding_ms"] = (ms("embedding.fwd", "infer")
                                   + ms("embedding.plan", "infer"))
        v["infer.interaction_ms"] = ms("interaction.fwd", "infer")
        v["infer.mlp_ms"] = ms("bottom_mlp.fwd", "infer") + ms("top_mlp.fwd", "infer")
        v["data.batch_ms"] = data_batch_ms
        if tier_prefix:
            accesses = tier_prefix["hot_hits"] + tier_prefix["cold_misses"]
            v["tier.hit_rate"] = tier_prefix["hot_hits"] / max(accesses, 1)
            v["tier.promotions"] = tier_prefix["promotions"] / prefix_steps
            v["tier.rejected"] = tier_prefix["rejected"] / prefix_steps
            v["tier.sim_overhead_ms"] = (
                tier_prefix["overhead_s"] / prefix_steps * 1e3
            )
        if flat_p50_ms:
            v["tier.step_ratio_vs_flat"] = untraced_p50_ms / flat_p50_ms
        v["trace.coverage"] = statistics.median(c / d for d, c in steps["train_step"])
        v["trace.overhead_frac"] = traced_p50_ms / untraced_p50_ms - 1
        covered_ms = statistics.median(c for _, c in steps["train_step"]) * 1e3
        raw_p50_ms = statistics.median(d for d, _ in steps["train_step"]) * 1e3
        bases = {
            "embedding.unique_ratio": f"{self.unique_rows / n:.0f} unique rows "
                                      f"/ {self.lookups / n:.0f} lookups per step",
            "trace.coverage": f"median per step of layer self time / step span; "
                              f"raw medians {covered_ms:.2f} ms / {raw_p50_ms:.2f} ms "
                              f"over {n} steps",
            "trace.overhead_frac": f"traced p50 {traced_p50_ms:.2f} ms / "
                                   f"untraced p50 {untraced_p50_ms:.2f} ms",
        }
        if tier_prefix:
            bases["tier.hit_rate"] = (
                f"{tier_prefix['hot_hits']:.0f} hits / {accesses:.0f} accesses "
                f"over the first {prefix_steps} steps"
            )
        if flat_p50_ms:
            bases["tier.step_ratio_vs_flat"] = (
                f"tiered p50 {untraced_p50_ms:.2f} ms / flat twin p50 "
                f"{flat_p50_ms:.2f} ms"
            )
        return with_units(v), bases

    def export_chrome(self, path) -> None:
        """Chrome trace of the first ``CHROME_STEPS`` train and infer steps.

        Each event carries its step id and parent span name in ``args``.
        """
        keep = set(range(CHROME_STEPS))
        events = self.tracer.to_chrome()["traceEvents"]
        first = {}
        for e in events:
            step = e["args"].get("step")
            kind = "infer" if isinstance(step, str) else "train"
            first.setdefault(kind, step)
        kept = []
        for e in events:
            step = e["args"]["step"]
            if isinstance(step, str):
                idx = int(step[5:]) - int(first["infer"][5:])
            else:
                idx = step - first["train"]
            if idx in keep:
                kept.append(e)
        with open(path, "w") as fh:
            json.dump({"traceEvents": kept, "displayTimeUnit": "ms"}, fh)


def hybrid_metrics(calls, factors, traced, model, *, data_batch_ms: float):
    """mp/pipeline per-layer metrics from the public ``HybridResult``s.

    Phase times are per step, max over ranks (``HybridResult.phase_s``),
    scaled to reference host speed by each call's probe ``factors``.
    ``traced`` flags the calls timed inside a benchmark span; the overhead
    compares their median mean step with the other calls'.
    """
    steps = sum(r.steps for r in calls)

    def per_step_ms(seconds_of) -> float:
        return sum(seconds_of(r) * f for r, f in zip(calls, factors)) / steps * 1e3

    v = empty_metrics()
    for phase in ("forward", "backward", "loss", "optimizer", "sparse_exchange",
                  "dense_wait", "barrier", "prep_wait"):
        v[f"mp.{phase}_ms"] = per_step_ms(lambda r: r.phase_s[phase])
    v["mp.comm_busy_ms"] = per_step_ms(lambda r: r.comm_s)
    v["mp.overlap_fraction"] = statistics.median(
        r.pipeline["overlap_fraction"] for r in calls
    )
    v["mp.prep_stall_ms"] = per_step_ms(lambda r: r.pipeline["prep_stall_s"])
    v["mp.compute_stall_ms"] = per_step_ms(lambda r: r.pipeline["compute_stall_s"])
    compute = ("forward", "loss", "backward", "optimizer")
    skews, coverage = [], []
    for r in calls:
        per_rank = [sum(p[ph] for ph in compute) for p in r.per_rank_phase_s]
        skews.append(max(per_rank) / min(per_rank))
        phases = max(sum(p.values()) for p in r.per_rank_phase_s)
        coverage.append(phases / r.steps / r.mean_step_s)
    v["mp.rank_skew"] = statistics.median(skews)
    v["mp.dense_bytes"] = sum(p.value.nbytes for p in model.dense_parameters())
    v["data.batch_ms"] = data_batch_ms
    v["trace.coverage"] = statistics.median(coverage)
    means = [r.mean_step_s * f for r, f in zip(calls, factors)]
    on = statistics.median(m for m, t in zip(means, traced) if t)
    off = statistics.median(m for m, t in zip(means, traced) if not t)
    v["trace.overhead_frac"] = on / off - 1
    bases = {
        "mp.overlap_fraction": "(prep busy - compute stall) / prep busy seconds, "
                               "median over calls",
        "mp.rank_skew": "max / min over ranks of forward+loss+backward+optimizer "
                        "seconds, median over calls",
        "trace.coverage": "largest per-rank sum of phase seconds / mean step, "
                          "median over calls",
        "trace.overhead_frac": f"traced calls {on * 1e3:.2f} ms / untraced "
                               f"{off * 1e3:.2f} ms mean step",
    }
    return with_units(v), bases


def format_table(metrics, bases=None) -> list[str]:
    """The per-layer table: value, unit, layer and predicted effect."""
    bases = bases or {}
    lines = [f"{'metric':26} {'value':>12} {'unit':6} {'layer':16} -> should move"
             f" | should not move"]
    for name, unit, _better, layer, moves, flat in PER_LAYER:
        value = metrics[name][0]
        lines.append(f"{name:26} {value:12.4f} {unit:6} {layer:16} -> {moves}"
                     f" | {flat}")
        if name in bases:
            lines.append(f"{'':26}   base: {bases[name]}")
    return lines
