"""``xmap_fit`` — the paper's offline job, cold, end to end.

Each round makes a fresh trace (so no memoised store or mean survives
from the previous fit), fits ``NXMapRecommender(mode="item")`` on the
cold-start training split, freezes, saves and reloads the model, and
scores the reloaded model on the hidden ratings. The Extender's
meta-path enumeration is nearly all of the fit and runs in no other
workload: an Extender gain must show here and move nothing elsewhere.
"""

from __future__ import annotations

import math
import time

from repro.cf.item_knn import ItemKNNRecommender
from repro.core.alterego import AlterEgoGenerator
from repro.core.baseliner import Baseliner
from repro.core.extender import Extender, count_heterogeneous_pairs
from repro.core.layers import LayerPartition
from repro.core.pipeline import NXMapRecommender, XMapConfig
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import RatingTable
from repro.data.splits import cold_start_split
from repro.data.synthetic import amazon_like
from repro.evaluation.metrics import mae
from repro.serving.snapshot import ModelSnapshot

from bench import inputs, stats
from bench.common import Context, Result, self_peak_rss_mb

MIN_FITS = 3


def _instrument(tracer) -> None:
    for owner, attr, name in (
        (RatingTable, "__init__", "data.ratings.table_build"),
        (MatrixRatingStore, "__init__", "data.matrix.store_build"),
        (NXMapRecommender, "fit", "core.pipeline.fit"),
        (Baseliner, "compute", "core.baseliner.compute"),
        (LayerPartition, "from_graph", "core.layers.partition"),
        (Extender, "extend", "core.extender.extend"),
        (AlterEgoGenerator, "alterego_table", "core.alterego.table"),
        (ItemKNNRecommender, "__init__", "cf.item_knn.build"),
        (MatrixRatingStore, "neighbor_index", "cf.item_knn.build"),
        (ModelSnapshot, "from_pipeline", "serving.snapshot.freeze"),
        (ModelSnapshot, "save", "serving.snapshot.save"),
        (ModelSnapshot, "load", "serving.snapshot.load"),
    ):
        tracer.instrument(owner, attr, name)


def run(ctx: Context) -> Result:
    result = Result()
    tracer = ctx.tracer
    if tracer is not None:
        _instrument(tracer)

    setups: list[float] = []
    fits: list[float] = []
    maes: list[float] = []
    n_train = n_hidden = 0
    snapshot_bytes = 0
    pipeline = None
    timed = 0.0
    round_no = 0
    try:
        while len(fits) < MIN_FITS or timed < ctx.seconds:
            started = time.perf_counter()
            with ctx.span("data.synthetic.generate"):
                data = amazon_like(inputs.trace_s_config(ctx.seed))
            split = cold_start_split(data, seed=ctx.seed)
            setups.append(time.perf_counter() - started)
            n_train = len(split.train.source.ratings) + len(split.train.target.ratings)
            n_hidden = split.n_hidden

            result.attempted += 1
            started = time.perf_counter()
            try:
                pipeline = NXMapRecommender(XMapConfig(mode="item")).fit(split.train)
                fits.append(time.perf_counter() - started)
                directory = ctx.tmp / f"model-{round_no}"
                pipeline.snapshot().save(directory)
                loaded = ModelSnapshot.load(directory)
                recommender = loaded.recommender()
                pairs = split.hidden_pairs()
                maes.append(mae(
                    [recommender.predict(user, item) for user, item, _ in pairs],
                    [truth for _, _, truth in pairs]))
                snapshot_bytes = sum(
                    f.stat().st_size for f in directory.iterdir() if f.is_file())
            except Exception as exc:  # a failed fit is a failed operation
                result.failed += 1
                result.info.setdefault("errors", []).append(repr(exc))
            timed += time.perf_counter() - started
            round_no += 1
            if result.failed >= MIN_FITS:
                break
    finally:
        if tracer is not None:
            tracer.restore()

    result.info["trace_s"] = {"train_ratings": n_train, "hidden_ratings": n_hidden}
    result.gate("fits completed", len(fits) >= MIN_FITS and not result.failed,
                f"{len(fits)} fits, {result.failed} failed")
    if not fits:
        result.finish()
        return result
    result.gate("mae finite", all(math.isfinite(m) for m in maes), repr(maes))
    result.gate("mae identical across fits", len(set(maes)) == 1, repr(maes))

    fit_s = stats.median(fits)
    result.put("setup_s", stats.median(setups), len(setups))
    result.put_latency(fits)
    result.put("goodput_per_s", n_train / fit_s, len(fits))
    result.put("peak_rss_mb", self_peak_rss_mb())
    result.put("fit_s", fit_s, len(fits))
    result.put("mae", maes[0], n_hidden)

    if tracer is not None and pipeline is not None:
        n = len(fits)
        for metric, span in (
            ("data.synthetic.generate_s", "data.synthetic.generate"),
            ("data.ratings.table_build_s", "data.ratings.table_build"),
            ("data.matrix.store_build_s", "data.matrix.store_build"),
            ("core.baseliner.compute_s", "core.baseliner.compute"),
            ("core.layers.partition_s", "core.layers.partition"),
            ("core.extender.extend_s", "core.extender.extend"),
            ("core.alterego.table_s", "core.alterego.table"),
            ("cf.item_knn.build_s", "cf.item_knn.build"),
            ("serving.snapshot.freeze_s", "serving.snapshot.freeze"),
            ("serving.snapshot.save_s", "serving.snapshot.save"),
            ("serving.snapshot.load_s", "serving.snapshot.load"),
        ):
            result.put(metric, tracer.total(span) / n, n)
        fit_spans = tracer.named("core.pipeline.fit")
        result.put("core.pipeline.fit_coverage",
                   stats.median([tracer.child_coverage(s) for s in fit_spans]),
                   len(fit_spans))
        result.put("data.ratings_in", n_train)
        result.put("core.baseliner.edges", pipeline.baseline.n_edges)
        result.put("core.extender.hetero_pairs",
                   count_heterogeneous_pairs(pipeline.xsim_map))
        result.put("core.alterego.ratings_out", len(pipeline.augmented_target))
        result.put("serving.snapshot.bytes", snapshot_bytes)
    result.finish()
    return result
