"""The benchmark's workloads: model shapes, inputs, timed loops and output checks.

Every workload drives only the long-lived public surface of ``repro``:
``DLRM``, ``Trainer.train_step``, ``Adagrad``, ``SyntheticDataGenerator``,
``TieredStoreConfig`` and ``run_hybrid`` / ``run_hybrid_serial``, on the
config's default backend.  Inputs come from the seed alone.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core import DLRM, Adagrad, Trainer
from repro.core.config import InteractionType, MLPSpec, ModelConfig, TableSpec
from repro.data import SyntheticDataGenerator
from repro.distributed.mp import HybridRunConfig, run_hybrid, run_hybrid_serial
from repro.obs import Tracer
from repro.tiering import TieredStoreConfig

import layers
import probe

#: Distinct pre-generated batches a single-process run cycles through.
POOL_BATCHES = 16
#: Model/optimizer constructions per run (for about ``SETUP_SECONDS``);
#: ``setup_s`` is their median.
SETUP_SECONDS = 1.0
SETUP_MIN = 9
SETUP_MAX = 200
#: Untimed train steps before the timed window (also the tiered/flat
#: bit-identity prefix, so it is long enough to fill the hot tier).
WARMUP_STEPS = 8
WARMUP_INFER = 3
#: A timed window never stops before this many steps: the step latency
#: tail is reported as p90, which needs >= 10 samples beyond it.
MIN_STEPS = 100
#: Share of ``--seconds`` spent timing training (the rest times inference).
TRAIN_SHARE = 0.7
#: Steps per timed ``run_hybrid`` call, and calls that time its set-up.
HYBRID_STEPS = 20
HYBRID_SETUP_CALLS = 9
#: Host-speed probes before and after each ``run_hybrid`` call.
HYBRID_PROBES = 5
#: Steps of the short hybrid run checked against ``run_hybrid_serial``.
HYBRID_CHECK_STEPS = 4


def _config(name, num_dense, n_tables, hash_size, dim, mean_lookups, bottom,
            top, interaction) -> ModelConfig:
    tables = tuple(
        TableSpec(f"t{i}", hash_size=hash_size, dim=dim, mean_lookups=mean_lookups)
        for i in range(n_tables)
    )
    return ModelConfig(
        name=name, num_dense=num_dense, tables=tables,
        bottom_mlp=MLPSpec(bottom), top_mlp=MLPSpec(top),
        interaction=interaction, compute_dtype="float32",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    #: Global batch size.
    batch: int
    #: Zipf exponent of the row ids; 0 draws uniform ids.
    index_skew: float = 0.0
    tiering: TieredStoreConfig | None = None
    #: Worker processes of ``run_hybrid``; 0 runs the single-process trainer.
    workers: int = 0
    #: ``predict_proba`` calls per timed sample, so a sample is long next to
    #: the host-speed probe that follows it.
    infer_group: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # Production-M3 shape: 120 small tables and a DOT interaction, so
        # per-table Python work and the pairwise-dot gather dominate.
        Workload(
            "dot_many_tables",
            _config("dot_many_tables", 16, 120, 1000, 16, 1.0, (32, 16), (64,),
                    InteractionType.DOT),
            batch=512,
        ),
        # Production-M1/M2 shape: wide MLPs and a CONCAT interaction, GEMM-bound.
        Workload(
            "mlp_wide",
            _config("mlp_wide", 256, 8, 5000, 64, 2.0, (512, 256, 64),
                    (512, 512, 256), InteractionType.CONCAT),
            batch=1024,
        ),
        # Skewed ids through the tiered store: per-chunk cache accounting
        # and promotions compete with lookups on every step.
        Workload(
            "tiered_zipf",
            _config("tiered_zipf", 8, 4, 4000, 16, 8.0, (32, 16), (64,),
                    InteractionType.CONCAT),
            batch=256,
            index_skew=1.05,
            tiering=TieredStoreConfig(hot_fraction=0.05, chunk_rows=8, policy="freq"),
            infer_group=16,
        ),
        # Prep-heavy shape through the 2-process hybrid trainer with the
        # prefetch pipeline: allreduce, id-plan/value exchange, shm shards.
        Workload(
            "hybrid_w2",
            _config("hybrid_w2", 8, 12, 8000, 16, 24.0, (16, 8), (16,),
                    InteractionType.CONCAT),
            batch=512,
            index_skew=1.05,
            workers=2,
        ),
    )
}


@dataclass
class Result:
    """What one run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Human-readable lines printed above the result.
    notes: list[str] = field(default_factory=list)
    attempted: int = 0

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def percentile_ms(times: list[float], q: float) -> float:
    return float(np.percentile(times, q)) * 1e3


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus its largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent input and model-init streams derived from one seed."""
    data, model = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(data), np.random.default_rng(model)


def _adagrad(model: DLRM) -> Adagrad:
    return Adagrad(
        model.dense_parameters(), model.embedding_tables(), lr=0.01,
        backend=model.backend,
    )


def build(wl: Workload, seed: int, *, tiered: bool = True, backend=None):
    """Model + optimizer + trainer (what ``setup_s`` times)."""
    model = DLRM(
        wl.config, rng=_rngs(seed)[1], backend=backend,
        tiering=wl.tiering if tiered else None,
    )
    return model, Trainer(model, _adagrad)


def make_pool(wl: Workload, seed: int, n: int, batch: int):
    """``n`` batches from the seed, and the seconds each took to generate."""
    gen = SyntheticDataGenerator(wl.config, rng=_rngs(seed)[0],
                                 index_skew=wl.index_skew)
    pool, secs = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        pool.append(gen.batch(batch))
        secs.append(time.perf_counter() - t0)
    return pool, secs


@dataclass
class Window:
    """One timed window: per-sample seconds at reference host speed (see
    ``probe.py``), the same samples raw, and every call's result."""

    scaled: list[float]
    raw: list[float]
    outs: list
    #: Calls per sample.
    group: int = 1

    def per_s(self, batch: int) -> float:
        """Examples per second at the median sample (robust to stray stalls)."""
        return batch * self.group / statistics.median(self.scaled)

    def raw_per_s(self, batch: int) -> float:
        return batch * self.group / statistics.median(self.raw)


def timed_loop(op, pool, seconds: float, min_samples: int, *, start: int = 0,
               group: int = 1, around=None, after=None) -> Window:
    """Time ``op`` over the pool for ``seconds`` and at least ``min_samples``.

    A sample is ``group`` consecutive calls, followed by a host-speed probe;
    samples are scaled by the probes around them (``probe.scale_series``).
    ``around(i)`` optionally wraps each call in a context (the tracer's step
    span) inside the timed interval; ``after()`` runs outside it.
    """
    gc.collect()
    raw, probes, outs = [], [], []
    deadline = time.perf_counter() + seconds
    i = start
    while len(raw) < min_samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(group):
            batch = pool[i % len(pool)]
            if around is None:
                outs.append(op(batch))
            else:
                with around(i):
                    outs.append(op(batch))
            i += 1
        raw.append(time.perf_counter() - t0)
        probes.append(probe.probe())
        if after is not None:
            after()
    return Window(probe.scale_series(raw, probes), raw, outs, group)


def timed_build(wl: Workload, seed: int):
    """Build model + optimizer repeatedly for ``SETUP_SECONDS`` (at least
    ``SETUP_MIN`` times); returns the last build and the median set-up
    seconds, at reference host speed and raw."""
    raw, probes = [], []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(raw) < SETUP_MIN or (time.perf_counter() < deadline
                                   and len(raw) < SETUP_MAX):
        t0 = time.perf_counter()
        built = build(wl, seed)
        raw.append(time.perf_counter() - t0)
        probes.append(probe.probe())
    scaled = probe.scale_series(raw, probes)
    return built, statistics.median(scaled), statistics.median(raw)


def _finite(values) -> bool:
    return all(bool(np.all(np.isfinite(v))) for v in values)


# ---------------------------------------------------------------------------
# single-process workloads
# ---------------------------------------------------------------------------


def run_single(wl: Workload, seed: int, seconds: float, trace: bool,
               out_dir) -> Result:
    res = Result()
    pool, gen_s = make_pool(wl, seed, POOL_BATCHES, wl.batch)
    (model, trainer), setup_s, setup_raw = timed_build(wl, seed)

    prefix_losses = [trainer.train_step(pool[i % len(pool)])
                     for i in range(WARMUP_STEPS)]
    for i in range(WARMUP_INFER):
        model.predict_proba(pool[i])
    tier_prefix = layers.tier_totals(model)
    res.attempted += WARMUP_STEPS + WARMUP_INFER

    if trace:
        # An untraced window, then traced train and infer windows: the
        # difference between the two train windows is the tracing overhead.
        lt = layers.LayerTracer(model, trainer)
        untraced = timed_loop(trainer.train_step, pool,
                              seconds * layers.UNTRACED_SHARE, 30,
                              start=WARMUP_STEPS)
        with lt.installed():
            traced = timed_loop(
                trainer.train_step, pool, seconds * layers.TRACED_SHARE, 30,
                start=WARMUP_STEPS + len(untraced.raw), around=lt.train_step,
                after=lt.digest,
            )
            infer = timed_loop(
                model.predict_proba, pool, seconds * layers.INFER_SHARE, 30,
                group=wl.infer_group, around=lt.infer, after=lt.digest,
            )
        train = Window(untraced.scaled + traced.scaled, untraced.raw + traced.raw,
                       untraced.outs + traced.outs)
    else:
        train = timed_loop(trainer.train_step, pool, seconds * TRAIN_SHARE,
                           MIN_STEPS, start=WARMUP_STEPS)
        infer = timed_loop(model.predict_proba, pool,
                           seconds * (1 - TRAIN_SHARE), MIN_STEPS,
                           group=wl.infer_group)
    res.attempted += len(train.outs) + len(infer.outs)
    rss = peak_rss_mb()

    res.check("losses finite", _finite(prefix_losses + train.outs))
    res.check("probabilities finite", _finite(infer.outs))
    if wl.tiering is not None:
        _check_tiered_prefix(res, wl, seed, pool, prefix_losses)
    else:
        _check_numpy_twin(res, wl, seed, model, pool[0])

    res.notes.append(
        f"timed: {len(train.raw)} train steps, {len(infer.outs)} infer batches "
        f"of {wl.batch}; step percentiles over {len(train.raw)} samples"
    )
    res.notes.append(
        f"raw (not host-normalized): train {train.raw_per_s(wl.batch):.1f}/s, "
        f"infer {infer.raw_per_s(wl.batch):.1f}/s, step p50 "
        f"{percentile_ms(train.raw, 50):.3f} ms, setup {setup_raw:.4f} s"
    )
    if not trace:
        res.metrics = {
            "train_examples_per_s": (train.per_s(wl.batch), "1/s"),
            "infer_examples_per_s": (infer.per_s(wl.batch), "1/s"),
            "step_ms_p50": (percentile_ms(train.scaled, 50), "ms"),
            "step_ms_p90": (percentile_ms(train.scaled, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return res

    flat_p50 = None
    if wl.tiering is not None:
        _, flat_trainer = build(wl, seed, tiered=False)
        for i in range(WARMUP_STEPS):
            flat_trainer.train_step(pool[i % len(pool)])
        flat = timed_loop(flat_trainer.train_step, pool,
                          seconds * layers.FLAT_SHARE, 30, start=WARMUP_STEPS)
        flat_p50 = percentile_ms(flat.scaled, 50)
    res.metrics, bases = lt.metrics(
        untraced, traced, infer,
        data_batch_ms=statistics.median(gen_s) * 1e3,
        tier_prefix=tier_prefix,
        prefix_steps=WARMUP_STEPS,
        flat_p50_ms=flat_p50,
    )
    res.notes += layers.format_table(res.metrics, bases)
    lt.export_chrome(out_dir / f"trace-{wl.name}-s{seed}.json")
    return res


def _check_numpy_twin(res: Result, wl: Workload, seed: int, model, batch) -> None:
    """The trained model's predictions equal a ``numpy``-backend twin's."""
    twin, _ = build(wl, seed, backend="numpy")
    twin.set_dense_state(model.get_dense_state())
    for mine, theirs in zip(model.embedding_tables(), twin.embedding_tables()):
        theirs.weight[...] = mine.weight
    got = model.predict_proba(batch)
    want = twin.predict_proba(batch)
    same = got.dtype == want.dtype and np.array_equal(got, want)
    res.check(
        "predict_proba bit-identical to numpy backend", same,
        "" if same else f"max abs diff {np.max(np.abs(got - want)):.3g}",
    )


def _check_tiered_prefix(res: Result, wl: Workload, seed: int, pool,
                         losses: list[float]) -> None:
    """The tiered model's warm-up losses equal a flat twin's, bit for bit."""
    _, flat = build(wl, seed, tiered=False)
    want = [flat.train_step(pool[i % len(pool)]) for i in range(len(losses))]
    same = losses == want
    res.check(
        f"tiered losses bit-identical to flat on {len(losses)} steps", same,
        "" if same else f"first mismatch at step "
        f"{next(i for i, (a, b) in enumerate(zip(losses, want)) if a != b)}",
    )


# ---------------------------------------------------------------------------
# multi-process workload
# ---------------------------------------------------------------------------


def _hybrid_run(wl: Workload, seed: int, steps: int) -> HybridRunConfig:
    return HybridRunConfig(
        workers=wl.workers, steps=steps, batch_size=wl.batch, seed=seed,
        reduction="ordered", warmup_steps=0, pipeline=True,
    )


def _timed_hybrid(wl: Workload, seed: int, steps: int):
    """One ``run_hybrid`` call, its wall seconds, and the host-speed factor:
    reference probe time over the median of the probes around the call (the
    parent idles while the workers run, so it probes only in between)."""
    probes = [probe.probe() for _ in range(HYBRID_PROBES)]
    t0 = time.perf_counter()
    r = run_hybrid(wl.config, _hybrid_run(wl, seed, steps))
    wall = time.perf_counter() - t0
    probes += [probe.probe() for _ in range(HYBRID_PROBES)]
    return r, wall, probe.REFERENCE_S / statistics.median(probes)


def run_hybrid_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                        out_dir) -> Result:
    res = Result()
    # Set-up: shm shards, replica builds, the fork and teardown — the wall
    # time of a one-step run minus its step.
    setup, setup_raw = [], []
    for _ in range(HYBRID_SETUP_CALLS):
        r, wall, factor = _timed_hybrid(wl, seed, 1)
        setup_raw.append(wall - r.step_time_s)
        setup.append(setup_raw[-1] * factor)
        res.attempted += r.steps

    # Traced runs alternate untraced calls with calls inside a benchmark span.
    calls, factors, traced = [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds * TRAIN_SHARE
    while len(calls) < 6 or time.perf_counter() < deadline:
        on = trace and len(calls) % 2 == 1
        with tracer.span("run_hybrid", "step", step=len(calls)) if on else nullcontext():
            r, _, factor = _timed_hybrid(wl, seed, HYBRID_STEPS)
        calls.append(r)
        factors.append(factor)
        traced.append(on)
        res.attempted += r.steps
    rss = peak_rss_mb(children=True)

    # run_hybrid has no inference path: time single-process predict_proba
    # on the same model shape and global batch.
    _, gen_s = make_pool(wl, seed, 4, wl.batch // wl.workers)
    pool, _ = make_pool(wl, seed, 8, wl.batch)
    model = DLRM(wl.config, rng=_rngs(seed)[1])
    for b in pool[:WARMUP_INFER]:
        model.predict_proba(b)
    infer = timed_loop(model.predict_proba, pool, seconds * (1 - TRAIN_SHARE),
                       MIN_STEPS, group=wl.infer_group)
    res.attempted += WARMUP_INFER + len(infer.outs)

    res.check("losses finite", _finite([r.losses for r in calls]))
    res.check("probabilities finite", _finite(infer.outs))
    run = _hybrid_run(wl, seed, HYBRID_CHECK_STEPS)
    got = run_hybrid(wl.config, run).state_digest()
    want = run_hybrid_serial(wl.config, run).state_digest()
    res.check(f"state_digest equals run_hybrid_serial on {run.steps} steps",
              got == want, "" if got == want else f"{got[:12]} != {want[:12]}")

    means = [r.mean_step_s * f for r, f in zip(calls, factors)]
    raw_means = [r.mean_step_s for r in calls]
    res.notes.append(
        f"timed: {len(calls)} run_hybrid calls x {HYBRID_STEPS} steps, "
        f"{len(infer.outs)} infer batches; step percentiles are over the "
        f"{len(calls)} per-call mean step times (HybridResult exposes no "
        f"per-step times)"
    )
    res.notes.append(
        f"raw (not host-normalized): train "
        f"{wl.batch / statistics.median(raw_means):.1f}/s, infer "
        f"{infer.raw_per_s(wl.batch):.1f}/s, step p50 "
        f"{percentile_ms(raw_means, 50):.3f} ms, setup "
        f"{statistics.median(setup_raw):.4f} s"
    )
    if not trace:
        res.metrics = {
            "train_examples_per_s": (wl.batch / statistics.median(means), "1/s"),
            "infer_examples_per_s": (infer.per_s(wl.batch), "1/s"),
            "step_ms_p50": (percentile_ms(means, 50), "ms"),
            "step_ms_p90": (percentile_ms(means, 90), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return res

    res.metrics, bases = layers.hybrid_metrics(
        calls, factors, traced, model,
        data_batch_ms=statistics.median(gen_s) * 1e3,
    )
    res.notes += layers.format_table(res.metrics, bases)
    tracer.export_chrome(str(out_dir / f"trace-{wl.name}-s{seed}.json"))
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir) -> Result:
    wl = WORKLOADS[name]
    runner = run_hybrid_workload if wl.workers else run_single
    return runner(wl, seed, seconds, trace, out_dir)
