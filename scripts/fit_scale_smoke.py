"""Fit-at-scale smoke: one offline fit at ten times the bench's ratings.

    python scripts/fit_scale_smoke.py [--seed 7]

Fits ``NXMapRecommender(mode="item")`` once on a two-domain trace of
the ``trace_l`` shape (~105k ratings; ``bench/`` fits only the ~10k
``trace_s``), so a fit stage that grows faster than the trace is seen
at a size where it would dominate. Prints the per-stage wall seconds
and the rating-table view counters from the ``obs`` registry — to be
read, never asserted: this box cannot hold a time. What it asserts is
correctness at that size:

* the fit leaves the augmented table's dict views unbuilt (no ``Rating``
  object per mapped rating), and
* the augmented rows of a 50-user sample, read from the table's
  columns, ``==`` the per-rating fold (``alterego_profile``) under the
  real-ratings-win rule of footnote 6, and
* at the default seed, the fit's X-Sim map, replacement sets, augmented
  rows and item mapping hash to the ``trace_l`` digests committed in
  ``tests/golden/fit.json`` (``scripts/golden.py``; skipped with a note
  on a NumPy other than the one they were taken on).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import golden  # noqa: E402  (scripts/golden.py, beside this file)

N_SAMPLE_USERS = 50


def main(argv: list[str] | None = None) -> int:
    from repro.core.pipeline import NXMapRecommender, XMapConfig
    from repro.data.synthetic import amazon_like
    from repro.obs import get_registry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    data = amazon_like(replace(golden.SHAPES["trace_l"].config(), seed=args.seed))
    source, target = data.source.ratings, data.target.ratings
    print(f"trace: {len(source)} source + {len(target)} target ratings")

    started = time.perf_counter()
    pipeline = NXMapRecommender(XMapConfig(mode="item")).fit(data)
    print(f"fit: {time.perf_counter() - started:.2f} s")
    telemetry = get_registry().snapshot()
    for name in ("extender_stage_seconds", "alterego_stage_seconds"):
        for labels, cell in sorted(telemetry[name]["samples"].items()):
            print(f"{name}{labels}: {cell['sum']:.3f} s")
    for name in ("rating_table_views_built_total",
                 "rating_table_view_build_seconds_total"):
        print(f"{name}: {get_registry().counter(name).value}")

    augmented = pipeline.augmented_target
    failures = []
    if get_registry().counter("rating_table_views_built_total").value != 0:
        failures.append("fit built a rating table's dict views")

    users = random.Random(args.seed).sample(sorted(source.users), N_SAMPLE_USERS)
    sample = set(users)
    got = {(r.user, r.item): (r.value, r.timestep)
           for r in augmented.columns().ratings() if r.user in sample}
    want = {(r.user, r.item): (r.value, r.timestep)
            for user in users for r in target.user_profile(user).values()}
    for user in users:
        for r in pipeline.generator.alterego_profile(user, source.user_profile(user)):
            want.setdefault((user, r.item), (target.clip(r.value), r.timestep))
    if got != want:
        wrong = sorted(key for key in got.keys() | want.keys()
                       if got.get(key) != want.get(key))
        failures.append(f"{len(wrong)} augmented rows differ from the "
                        f"per-rating fold, first {wrong[0]}")
    print(f"augmented table: {len(augmented)} ratings, "
          f"{len(got)} rows of {len(users)} users compared")

    committed = golden.load()
    if args.seed != golden.SEED:
        print(f"golden digests: skipped (taken at seed {golden.SEED})")
    elif committed["numpy"] != golden.numpy_version():
        print(f"golden digests: skipped (taken on NumPy {committed['numpy']}, "
              f"this is {golden.numpy_version()})")
    else:
        wrong = golden.mismatches(golden.digests(golden.dump(pipeline, [])),
                                  committed["shapes"]["trace_l"])
        if wrong:
            failures.append(f"trace_l golden digests differ in {', '.join(wrong)}")
        print(f"golden digests: {len(golden.PARTS) - len(wrong)} of "
              f"{len(golden.PARTS)} parts match")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
