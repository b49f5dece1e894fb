"""The publisher process of the serve workloads.

Owns the durable registry and the snapshot catalogue the gateway fleet
watches: it makes the large trace from the seed, builds the sweep,
publishes version 1, and reports ``ready``. With ``--period`` it then
waits for ``go`` on stdin and applies ``--batches`` ``heavy`` rating
batches, one per period — stamping each with ``time.monotonic()``
(``CLOCK_MONOTONIC``, shared with the load generator) at the moment
``registry.update`` starts — then waits for ``stop`` (or for stdin to
close). Every event is one JSON line on stdout.

It runs as its own process because the real system does: publishes
compete with reads for the machine, not for the reader's interpreter
lock.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench import inputs  # noqa: E402


#: the first batch waits this long after ``go`` so the load is running.
FIRST_BATCH_AFTER_S = 0.5


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def wait_for(line: str, timeout: float | None) -> bool:
    """True when stdin delivered *line* (or closed) within *timeout*."""
    ready, _, _ = select.select([sys.stdin], [], [], timeout)
    if not ready:
        return False
    got = sys.stdin.readline()
    return got == "" or got.strip() == line


def main(argv: list[str] | None = None) -> int:
    from repro.data.synthetic import amazon_like
    from repro.durability.manager import CheckpointPolicy, DurableSweep
    from repro.serving.watch import SnapshotCatalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True,
                        help="holds store/ (durable) and catalog/ (watched)")
    parser.add_argument("--period", type=float, default=0.0,
                        help="seconds between batches; 0 publishes v1 and exits")
    parser.add_argument("--batches", type=int, default=2,
                        help="batches to apply after go")
    args = parser.parse_args(argv)
    root = Path(args.dir)

    started = time.perf_counter()
    data = amazon_like(inputs.trace_l_config(args.seed))
    table = data.merged()
    plan = inputs.BatchPlan(table, args.seed)
    generated = time.perf_counter()
    durable = DurableSweep(root / "store", table,
                           policy=CheckpointPolicy(max_log_bytes=None,
                                                   max_batches=None))
    registry = durable.registry()
    # every version stays on disk: the correctness gate replays sampled
    # responses against the exact version that served them.
    catalog = SnapshotCatalog(root / "catalog", keep_last=None)
    catalog.attach(registry)
    built = time.perf_counter()
    try:
        emit("ready", version=registry.current_version(),
             generate_s=generated - started, build_s=built - generated,
             ratings=len(table), users=len(table.users), items=len(table.items))
        if args.period > 0 and wait_for("go", None):
            origin = time.monotonic()
            for k in range(args.batches):
                due = origin + FIRST_BATCH_AFTER_S + k * args.period
                if wait_for("stop", max(0.0, due - time.monotonic())):
                    break
                batch = plan.batch("heavy")
                t_start = time.monotonic()
                version, update = registry.update(batch)
                emit("batch", k=k, version=version, t_start=t_start,
                     t_end=time.monotonic(),
                     sweep_s=update.total_seconds,
                     affected_rows=update.n_affected_rows,
                     delta_pairs=update.delta_pairs)
            wait_for("stop", None)
    finally:
        catalog.detach()
        durable.close()
    emit("done", peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
