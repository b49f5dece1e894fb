"""Serving smoke: build → snapshot → serve from a *fresh process* → diff.

Driver mode (what CI's serving-smoke job runs)::

    python scripts/serving_smoke.py <trace_dir> [snapshot_dir] [--keep]

The snapshot directory defaults to a fresh temp dir; it is removed at
exit (even on failure) unless ``--keep`` is passed — CI passes an
explicit directory **with** ``--keep`` because a later step serves
from it, while repeated local runs leave nothing behind.

fits the deterministic item-mode pipeline on the trace in-process,
saves a :class:`~repro.serving.snapshot.ModelSnapshot`, computes
reference predictions and Top-N lists from the in-memory pipeline, then
re-invokes this script in a **fresh interpreter** to serve the same
probes from the loaded snapshot, and diffs:
every prediction must agree within 1e-9 (they are bit-identical in
practice) and every Top-N list must match item for item.

Serve mode (the fresh process)::

    python scripts/serving_smoke.py --serve <snapshot_dir> <probes.json> <out.json>

loads the snapshot cold — no trace, no pipeline — and answers the
probes through a :class:`~repro.serving.service.RecommendationService`
(Top-N via the batched path, so the vectorized pass is exercised
end-to-end in the restarted server), and before writing its answers
asserts that the batched pass over the memory-mapped arrays ``==`` the
per-request path for every probe. The probes are the first
``N_PROBE_USERS`` source users plus the two a prefix can miss: the user
with the longest profile in the served store (the only kind the
per-row rank cap can bite on) and one id that is not in the trace.
"""

from __future__ import annotations

import argparse
import atexit
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TOLERANCE = 1e-9
N_PROBE_USERS = 25
N_PROBE_ITEMS = 25
TOP_N = 5
UNKNOWN_USER = "not-in-the-trace"


def diff_serving(reference_predict: dict, reference_topn: dict,
                 served_predict: dict, served_topn: dict,
                 tolerance: float = TOLERANCE) -> tuple[float, bool]:
    """Diff served responses against references (shared with the
    crash-recovery smoke in ``crash_smoke.py``).

    *reference_topn* maps user → [(item, score), ...];
    *served_topn* may hold lists instead of tuples (JSON round trip).
    Returns ``(worst_abs_prediction_delta, topn_ok)`` where ``topn_ok``
    requires identical item lists and scores within *tolerance*.
    """
    worst = 0.0
    for key, want in reference_predict.items():
        worst = max(worst, abs(served_predict[key] - want))
    topn_ok = all(
        [tuple(pair) for pair in served_topn[user]]
        == [(item, score) for item, score in reference]
        or (
            [item for item, _ in served_topn[user]]
            == [item for item, _ in reference]
            and all(abs(got[1] - want[1]) <= tolerance
                    for got, want in zip(served_topn[user], reference))
        )
        for user, reference in reference_topn.items())
    return worst, topn_ok


def _serve(snapshot_dir: str, probes_path: str, out_path: str) -> int:
    from repro.serving.service import RecommendationService
    from repro.serving.snapshot import ModelSnapshot

    probes = json.loads(Path(probes_path).read_text(encoding="utf-8"))
    snapshot = ModelSnapshot.load(snapshot_dir)
    service = RecommendationService(snapshot)
    users = probes["users"]
    responses = service.recommend_batch(users, n=probes["top_n"])
    reference = snapshot.recommender()
    for user, response in zip(users, responses):
        if response != reference.recommend(user, probes["top_n"]):
            print(f"serving-smoke: batched != per-request for {user!r} "
                  f"on the loaded snapshot", file=sys.stderr)
            return 1
    out = {
        "predict": {
            f"{user}\t{item}": service.predict(user, item)
            for user in users for item in probes["items"]},
        "topn": {user: response for user, response in zip(users, responses)},
    }
    Path(out_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


def _drive(trace_dir: str, snapshot_dir: str) -> int:
    from repro.core.pipeline import NXMapRecommender, XMapConfig
    from repro.data.loaders import read_cross_domain

    data = read_cross_domain(trace_dir, "movies", "books")
    pipeline = NXMapRecommender(XMapConfig(mode="item", cf_k=10)).fit(data)
    snapshot = pipeline.snapshot()
    snapshot.save(snapshot_dir, overwrite=True)

    store = snapshot.store
    longest = max(range(len(store.users)),
                  key=lambda u: int(store.user_ptr[u + 1]) - int(store.user_ptr[u]))
    users = sorted(data.source.users)[:N_PROBE_USERS]
    users += [user for user in (store.users[longest], UNKNOWN_USER)
              if user not in users]
    items = sorted(data.target.ratings.items)[:N_PROBE_ITEMS]
    probes = {"users": users, "items": items, "top_n": TOP_N}
    probes_path = Path(snapshot_dir) / "smoke_probes.json"
    probes_path.write_text(json.dumps(probes), encoding="utf-8")

    reference_predict = {
        f"{user}\t{item}": pipeline.predict(user, item)
        for user in users for item in items}
    reference_topn = {user: pipeline.recommend(user, n=TOP_N) for user in users}

    out_path = Path(snapshot_dir) / "smoke_served.json"
    subprocess.run(
        [sys.executable, __file__, "--serve", snapshot_dir,
         str(probes_path), str(out_path)],
        check=True)
    served = json.loads(out_path.read_text(encoding="utf-8"))
    worst, topn_ok = diff_serving(
        reference_predict, reference_topn,
        served["predict"], served["topn"])
    ok = worst <= TOLERANCE and topn_ok
    print(f"serving-smoke: max|Δpredict|={worst:.3e} "
          f"topn={'ok' if topn_ok else 'MISMATCH'} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[1] == "--serve":
        return _serve(argv[2], argv[3], argv[4])
    parser = argparse.ArgumentParser(
        description="serving smoke: build, snapshot, re-serve from a "
                    "fresh process, diff")
    parser.add_argument("trace_dir", help="trace directory to fit on")
    parser.add_argument("snapshot_dir", nargs="?", default=None,
                        help="snapshot directory (default: fresh temp "
                             "dir, removed at exit)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the snapshot directory (CI passes "
                             "this when a later step serves from it)")
    args = parser.parse_args(argv[1:])
    snapshot_dir = (args.snapshot_dir or tempfile.mkdtemp(prefix="serving-smoke-"))
    if not args.keep:
        atexit.register(shutil.rmtree, snapshot_dir, ignore_errors=True)
    return _drive(args.trace_dir, snapshot_dir)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
