"""Crash smoke: ``kill -9`` a durable writer mid-stream → recover → diff.

Driver mode (what CI's crash-recovery job runs)::

    python scripts/crash_smoke.py [work_dir] [seed] [--keep]

The work directory defaults to a fresh temp dir; it is removed at exit
(even on failure) unless ``--keep`` is passed — CI passes an explicit
directory **with** ``--keep`` because a later step inspects the killed
store, while repeated local runs leave nothing behind.

generates a deterministic rating plan (a base table plus a stream of
append batches), then spawns a **writer subprocess** that builds a
:class:`~repro.durability.manager.DurableSweep` on a fresh store
directory and applies the batches one by one — group commit of 1, fsync
on, checkpoint every 7 batches — and ``SIGKILL``\\ s it at a randomized
moment (possibly mid-append, mid-fsync, or mid-checkpoint; the seed is
printed so any run reproduces). A fresh **check subprocess** then runs
:meth:`~repro.durability.manager.DurableSweep.recover` on the killed
store, rebuilds the *never-crashed* reference (a plain
:class:`~repro.engine.sharded_sweep.IncrementalSweep` fed exactly the
batches the log made durable) and diffs at the serving level with the
shared :func:`serving_smoke.diff_serving` helper: every prediction must
agree within 1e-9 and every Top-N list item for item.

Writer mode / check mode (the subprocesses)::

    python scripts/crash_smoke.py --writer <store_dir> <plan.json>
    python scripts/crash_smoke.py --check  <store_dir> <plan.json>

The WAL-first discipline is what makes the check exact: with group
commit 1 every batch is durable before any in-memory state moves, so
the recovered ``applied_seq`` names precisely the plan prefix the
reference must replay.
"""

from __future__ import annotations

import argparse
import atexit
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from serving_smoke import TOLERANCE, diff_serving  # noqa: E402

N_BASE = 80
N_BATCHES = 40
BATCH_SIZE = 3
CF_K = 10
CHECKPOINT_EVERY = 7
TOP_N = 5
N_PROBE_USERS = 15
N_PROBE_ITEMS = 15
WRITER_DELAY = 0.05  # seconds between batches — the kill window


def _plan(seed: int) -> dict:
    """Base ratings plus append batches (new users / items included)."""
    rng = random.Random(seed)
    pairs: set[tuple[str, str]] = set()

    def fresh_pair(n_users: int, n_items: int) -> tuple[str, str]:
        while True:
            pair = (f"u{rng.randrange(n_users)}", f"i{rng.randrange(n_items)}")
            if pair not in pairs:
                pairs.add(pair)
                return pair

    timestep = 0
    base = []
    for _ in range(N_BASE):
        user, item = fresh_pair(20, 20)
        base.append([user, item, float(rng.choice([1, 2, 3, 4, 5])), timestep])
        timestep += 1
    batches = []
    for _ in range(N_BATCHES):
        batch = []
        for _ in range(BATCH_SIZE):
            user, item = fresh_pair(26, 26)
            batch.append([user, item, float(rng.choice([1, 2, 3, 4, 5])), timestep])
            timestep += 1
        batches.append(batch)
    return {"base": base, "batches": batches}


def _writer(store_dir: str, plan_path: str) -> int:
    from repro.data.ratings import Rating, RatingTable
    from repro.durability.manager import CheckpointPolicy, DurableSweep

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    base = RatingTable([Rating(*record) for record in plan["base"]])
    durable = DurableSweep(
        store_dir, base, cf_k=CF_K,
        policy=CheckpointPolicy(max_batches=CHECKPOINT_EVERY),
        group_commit=1, fsync=True)
    for batch in plan["batches"]:
        durable.update([Rating(*record) for record in batch])
        time.sleep(WRITER_DELAY)
    durable.close()
    return 0


def _check(store_dir: str, plan_path: str) -> int:
    from repro.data.ratings import Rating, RatingTable
    from repro.durability.manager import CHECKPOINT_FILE, DurableSweep
    from repro.engine.sharded_sweep import IncrementalSweep
    from repro.serving.service import RecommendationService
    from repro.serving.snapshot import ModelSnapshot

    if not (Path(store_dir) / CHECKPOINT_FILE).exists():
        # Killed before the first checkpoint pointer landed: the store
        # never existed, so nothing was acknowledged and there is
        # nothing to recover. (The driver's delay floor makes this
        # rare; it is not a failure of the durability contract.)
        print(f"crash-smoke: {store_dir} died before its first "
              f"checkpoint — nothing durable to recover (ok)")
        return 0

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    durable = DurableSweep.recover(store_dir)
    report = durable.last_recovery
    applied = durable.applied_seq
    if not 0 <= applied <= len(plan["batches"]):
        print(f"crash-smoke: recovered applied_seq={applied} is outside "
              f"the plan (0..{len(plan['batches'])}) -> FAIL")
        return 1

    reference = IncrementalSweep(
        RatingTable([Rating(*record) for record in plan["base"]]))
    for batch in plan["batches"][:applied]:
        reference.update([Rating(*record) for record in batch])

    recovered_service = RecommendationService(ModelSnapshot.from_sweep(
        durable, cf_k=CF_K, positive_only=True))
    reference_service = RecommendationService(ModelSnapshot.from_sweep(
        reference, cf_k=CF_K, positive_only=True))
    users = sorted(reference.store.user_index)[:N_PROBE_USERS]
    items = sorted(reference.store.item_index)[:N_PROBE_ITEMS]
    reference_predict = {
        f"{user}\t{item}": reference_service.predict(user, item)
        for user in users for item in items}
    reference_topn = {user: reference_service.recommend(user, n=TOP_N)
                      for user in users}
    served_predict = {
        f"{user}\t{item}": recovered_service.predict(user, item)
        for user in users for item in items}
    served_topn = {user: recovered_service.recommend(user, n=TOP_N) for user in users}
    worst, topn_ok = diff_serving(reference_predict, reference_topn,
                                  served_predict, served_topn)
    ok = worst <= TOLERANCE and topn_ok
    repairs = "; ".join(report.log_repairs) or "none"
    print(f"crash-smoke: applied={applied}/{len(plan['batches'])} "
          f"replayed={report.replayed_batches} repairs=[{repairs}] "
          f"max|Δpredict|={worst:.3e} "
          f"topn={'ok' if topn_ok else 'MISMATCH'} "
          f"-> {'PASS' if ok else 'FAIL'}")
    durable.close()
    return 0 if ok else 1


def _drive(work_dir: str, seed: int | None) -> int:
    if seed is None:
        seed = random.randrange(1 << 30)
    rng = random.Random(seed)
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(_plan(seed)), encoding="utf-8")
    print(f"crash-smoke: seed={seed} "
          f"({N_BATCHES} batches x {BATCH_SIZE} ratings)")

    store = work / "store"
    writer = subprocess.Popen(
        [sys.executable, __file__, "--writer", str(store), str(plan_path)])
    # The floor clears store creation; the ceiling lands past the
    # stream's end often enough to also cover the clean-exit case.
    delay = rng.uniform(0.5, 1.0 + N_BATCHES * WRITER_DELAY)
    time.sleep(delay)
    if writer.poll() is None:
        writer.kill()  # SIGKILL: no atexit, no flush, no goodbye
        writer.wait()
        outcome = f"killed after {delay:.2f}s"
    else:
        outcome = f"finished before the {delay:.2f}s kill"
    print(f"crash-smoke: writer {outcome}")
    check = subprocess.run(
        [sys.executable, __file__, "--check", str(store), str(plan_path)])
    return 0 if check.returncode == 0 else 1


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "--writer":
        return _writer(argv[2], argv[3])
    if len(argv) == 4 and argv[1] == "--check":
        return _check(argv[2], argv[3])
    parser = argparse.ArgumentParser(
        description="crash smoke: SIGKILL a durable writer mid-stream, "
                    "recover, diff served predictions")
    parser.add_argument("work_dir", nargs="?", default=None,
                        help="working directory (default: fresh temp "
                             "dir, removed at exit)")
    parser.add_argument("seed", nargs="?", type=int, default=None,
                        help="plan/kill-timing seed (printed by every "
                             "run for reproduction)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the working directory (CI passes "
                             "this when a later step inspects the "
                             "killed store)")
    args = parser.parse_args(argv[1:])
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="crash-smoke-")
    if not args.keep:
        atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    return _drive(work_dir, args.seed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
