"""Command-line interface — the terminal analogue of the paper's
x-map.work deployment.

Subcommands::

    python -m repro.cli generate  --out traces/       # synthetic trace
    python -m repro.cli stats     --data traces/      # dataset overview
    python -m repro.cli evaluate  --data traces/ --system nx-ub
    python -m repro.cli recommend --data traces/ --user o00002 -n 10
    python -m repro.cli snapshot save --data traces/ --out model/
    python -m repro.cli snapshot info --snapshot model/
    python -m repro.cli serve --snapshot model/ --user o00002 --user o00005
    python -m repro.cli recommend --snapshot model/ --user o00002
    python -m repro.cli log-info --store store/
    python -m repro.cli recover  --store store/ --user o00002
    python -m repro.cli serve-http --watch model/ --workers 2 --port 8080
    python -m repro.cli bench-gateway --watch model/ --workers 2

``generate`` writes a seeded Amazon-style two-domain trace as CSVs (the
same format :mod:`repro.data.loaders` reads, so real dumps drop in);
``evaluate`` runs the cold-start protocol and prints MAE/RMSE;
``recommend`` fits the chosen pipeline and prints Top-N target items for
one user — the "what you might like to read after watching…" query.

The ``snapshot`` / ``serve`` commands split offline from online the way
a production deployment does: ``snapshot save`` fits the deterministic
item-mode pipeline once and freezes it to a directory
(:class:`~repro.serving.snapshot.ModelSnapshot`); ``serve`` — and
``recommend --snapshot`` — answer requests from the loaded artifact
through a :class:`~repro.serving.service.RecommendationService`,
without re-running any offline phase.

The ``log-info`` / ``recover`` commands are the operator's view of a
durable store directory (:class:`~repro.durability.manager.DurableSweep`):
``log-info`` diagnoses the write-ahead log segment by segment without
modifying anything; ``recover`` runs the real crash-recovery path —
checkpoint snapshot + log-tail replay, torn tails repaired — prints the
recovery report, and can serve Top-N from the recovered model.

``serve-http`` is the networked deployment: an asyncio HTTP gateway
(:class:`~repro.gateway.server.GatewayServer`) over N worker processes
that each memmap the snapshot source named by ``--watch`` (a single
snapshot directory, a :class:`~repro.serving.watch.SnapshotCatalog`,
or a durable store) and follow new versions as they are published.
``bench-gateway`` starts the same topology against an ephemeral port
and drives it with the load generator (serial baseline, closed-loop
capacity, Poisson open-loop tail latency), printing a JSON report.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.errors import ReproError

# The model library (and NumPy under it) is imported inside the
# commands that use it: ``serve-http`` runs the gateway, which loads
# neither.

#: system name → (pipeline class name in repro.core.pipeline, mode)
_SYSTEMS = {
    "nx-ib": ("NXMapRecommender", "item"),
    "nx-ub": ("NXMapRecommender", "user"),
    "nx-mf": ("NXMapRecommender", "mf"),
    "x-ib": ("XMapRecommender", "item"),
    "x-ub": ("XMapRecommender", "user"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="X-Map heterogeneous recommender CLI")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic two-domain trace as CSVs")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--users", type=int, default=None,
                          help="users per domain (default: library default)")

    stats = commands.add_parser("stats", help="summarise a stored trace")
    stats.add_argument("--data", required=True, help="trace directory")

    evaluate = commands.add_parser(
        "evaluate", help="cold-start MAE of one system on a stored trace")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--system", choices=[*_SYSTEMS, "item-average"],
                          default="nx-ub")
    evaluate.add_argument("--k", type=int, default=50)
    evaluate.add_argument("--seed", type=int, default=0)

    recommend = commands.add_parser(
        "recommend", help="Top-N target-domain items for one user")
    recommend.add_argument("--data", default=None,
                           help="trace directory (optional with "
                                "--snapshot: titles come from it)")
    recommend.add_argument("--snapshot", default=None,
                           help="serve from a saved model snapshot "
                                "instead of rebuilding the pipeline")
    recommend.add_argument("--user", required=True)
    # None defaults so --snapshot can reject explicit pipeline flags
    # (the snapshot's system/k/seed are baked in at save time).
    recommend.add_argument("--system", choices=list(_SYSTEMS),
                           default=None, help="pipeline system "
                           "(default nx-ub; not valid with --snapshot)")
    recommend.add_argument("-n", type=int, default=10)
    recommend.add_argument("--k", type=int, default=None,
                           help="neighborhood size (default 50; not "
                                "valid with --snapshot)")
    recommend.add_argument("--seed", type=int, default=None)

    snapshot = commands.add_parser(
        "snapshot", help="save / inspect serving model snapshots")
    snapshot_actions = snapshot.add_subparsers(dest="action", required=True)
    save = snapshot_actions.add_parser(
        "save", help="fit the deterministic item-mode pipeline on a "
                     "trace and freeze it to a snapshot directory")
    save.add_argument("--data", required=True, help="trace directory")
    save.add_argument("--out", required=True, help="snapshot directory")
    save.add_argument("--k", type=int, default=50,
                      help="Eq-4 neighborhood size served with")
    save.add_argument("--seed", type=int, default=0)
    save.add_argument("--force", action="store_true",
                      help="overwrite an existing snapshot in --out "
                           "(unsafe while any process serves from it)")
    info = snapshot_actions.add_parser("info", help="summarise a snapshot directory")
    info.add_argument("--snapshot", required=True)

    serve = commands.add_parser(
        "serve", help="batched Top-N for several users from a snapshot")
    serve.add_argument("--snapshot", required=True)
    serve.add_argument("--user", action="append", required=True,
                       dest="users", metavar="USER",
                       help="user to serve (repeatable)")
    serve.add_argument("--data", default=None,
                       help="trace directory for item titles (optional)")
    serve.add_argument("-n", type=int, default=10)

    log_info = commands.add_parser(
        "log-info", help="diagnose a durable store's write-ahead log")
    log_info.add_argument("--store", required=True,
                          help="durable store directory (or its wal/ "
                               "subdirectory directly)")

    recover = commands.add_parser(
        "recover", help="rebuild a durable store after a crash and "
                        "report what was replayed")
    recover.add_argument("--store", required=True, help="durable store directory")
    recover.add_argument("--user", action="append", default=None,
                         dest="users", metavar="USER",
                         help="also serve Top-N for this user from the "
                              "recovered model (repeatable)")
    recover.add_argument("-n", type=int, default=10)

    serve_http = commands.add_parser(
        "serve-http", help="asyncio HTTP gateway over a multi-process "
                           "worker fleet watching a snapshot source")
    _add_fleet_arguments(serve_http)
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8080,
                            help="listen port (0 for ephemeral)")

    bench_gateway = commands.add_parser(
        "bench-gateway", help="start a gateway fleet on an ephemeral "
                              "port and measure it under load")
    _add_fleet_arguments(bench_gateway)
    bench_gateway.add_argument("-n", type=int, default=10,
                               help="Top-N size per request")
    bench_gateway.add_argument("--serial-requests", type=int, default=200,
                               help="requests in the un-batched "
                                    "single-client baseline")
    bench_gateway.add_argument("--concurrency", type=int, default=16,
                               help="closed-loop client count")
    bench_gateway.add_argument("--requests-per-client", type=int, default=50)
    bench_gateway.add_argument("--rate", type=float, default=100.0,
                               help="Poisson open-loop arrival rate "
                                    "(qps; 0 disables the open loop)")
    bench_gateway.add_argument("--duration", type=float, default=5.0,
                               help="Poisson open-loop duration (s)")
    return parser


def _add_fleet_arguments(parser) -> None:
    """The knobs shared by every command that starts a worker fleet."""
    parser.add_argument("--watch", required=True,
                        help="snapshot source directory every worker "
                             "watches (snapshot, catalog, or durable "
                             "store)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=32,
                        help="most single-user requests one coalesced "
                             "frame may carry (a request leaves at once "
                             "while a worker is idle; frames only fill "
                             "while every worker is busy)")
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        help="idle watcher poll period inside workers")
    parser.add_argument("--response-cache-size", type=int, default=1024,
                        help="per-worker Top-N response cache entries "
                             "(0 disables)")
    parser.add_argument("--call-timeout", type=float, default=30.0,
                        help="per-request deadline budget (s): the whole "
                             "retry loop for one request runs against it")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts when a worker dies or "
                             "answers a retryable error")
    parser.add_argument("--hedge-delay", type=float, default=None,
                        help="duplicate a slow in-flight read to an idle "
                             "sibling after this many seconds (first "
                             "answer wins; default: hedging off)")
    parser.add_argument("--allow-stale", action="store_true",
                        help="degraded mode: when no worker can satisfy "
                             "the version floor within the deadline, "
                             "serve the freshest available version "
                             "tagged 'stale: true' instead of failing")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="concurrent data requests admitted before "
                             "new arrivals queue")
    parser.add_argument("--max-queue", type=int, default=128,
                        help="arrivals allowed to wait for a slot; "
                             "beyond this the gateway sheds with 429")


def _load(directory: str):
    from repro.data.loaders import read_cross_domain

    return read_cross_domain(directory, "movies", "books")


def _make_pipeline(system: str, k: int, seed: int):
    from repro.core import pipeline

    class_name, mode = _SYSTEMS[system]
    config = pipeline.XMapConfig(mode=mode, cf_k=k, seed=seed)
    return getattr(pipeline, class_name)(config)


def _title_lookup(data_dir: str | None):
    """Item id → display title, from the trace when one is given."""
    if data_dir is None:
        return lambda item: item
    data = _load(data_dir)
    titles = {**data.source.item_titles, **data.target.item_titles}
    return lambda item: titles.get(item, item)


def _cmd_generate(args) -> int:
    from repro.data.loaders import write_cross_domain
    from repro.data.stats import summarize_cross_domain
    from repro.data.synthetic import SyntheticConfig, amazon_like

    config = SyntheticConfig(seed=args.seed)
    if args.users is not None:
        overlap = min(config.n_overlap, args.users)
        config = replace(config, n_users_source=args.users,
                         n_users_target=args.users, n_overlap=overlap)
    data = amazon_like(config)
    write_cross_domain(data, args.out)
    print(f"wrote {data.source.name}/{data.target.name} trace to {args.out}")
    print(summarize_cross_domain(data).describe())
    return 0


def _cmd_stats(args) -> int:
    from repro.data.stats import summarize_cross_domain

    print(summarize_cross_domain(_load(args.data)).describe())
    return 0


def _cmd_evaluate(args) -> int:
    from repro.cf.item_average import ItemAverageRecommender
    from repro.data.splits import cold_start_split
    from repro.evaluation.harness import evaluate as evaluate_system

    data = _load(args.data)
    split = cold_start_split(data, seed=args.seed)
    if args.system == "item-average":
        recommender = ItemAverageRecommender(split.train.target.ratings)
    else:
        recommender = _make_pipeline(args.system, args.k, args.seed).fit(
            split.train, users=split.test_users)
    result = evaluate_system(args.system, recommender, split)
    print(result.describe())
    return 0


def _cmd_recommend(args) -> int:
    if args.snapshot is not None:
        if args.system is not None or args.k is not None \
                or args.seed is not None:
            print("error: --system/--k/--seed are baked into a snapshot "
                  "at save time and cannot be overridden when serving "
                  "from one", file=sys.stderr)
            return 2
        return _recommend_from_snapshot(args)
    if args.data is None:
        print("error: recommend needs --data (or --snapshot)", file=sys.stderr)
        return 2
    system = args.system or "nx-ub"
    k = 50 if args.k is None else args.k
    seed = 0 if args.seed is None else args.seed
    data = _load(args.data)
    if args.user not in data.source.users:
        print(f"unknown user {args.user!r} (no source-domain ratings)", file=sys.stderr)
        return 2
    recommender = _make_pipeline(system, k, seed).fit(data, users=[args.user])
    print(f"{system} recommendations for {args.user}:")
    for item, score in recommender.recommend(args.user, n=args.n):
        print(f"  {data.target.title_of(item)}  (predicted {score:.2f})")
    return 0


def _recommend_from_snapshot(args) -> int:
    from repro.serving.service import RecommendationService
    from repro.serving.snapshot import ModelSnapshot

    snapshot = ModelSnapshot.load(args.snapshot)
    if args.user not in snapshot.store.user_index:
        print(f"unknown user {args.user!r} (not in the snapshot's "
              f"serving table)", file=sys.stderr)
        return 2
    title_of = _title_lookup(args.data)
    service = RecommendationService(snapshot)
    print(f"snapshot v{snapshot.version} recommendations for {args.user}:")
    for item, score in service.recommend(args.user, n=args.n):
        print(f"  {title_of(item)}  (predicted {score:.2f})")
    return 0


def _cmd_snapshot(args) -> int:
    from repro.serving.snapshot import ModelSnapshot

    if args.action == "save":
        data = _load(args.data)
        pipeline = _make_pipeline("nx-ib", args.k, args.seed).fit(data)
        snapshot = pipeline.snapshot()
        path = snapshot.save(args.out, overwrite=args.force)
        print(f"saved model snapshot to {path}")
        print(f"  users={snapshot.n_users} items={snapshot.n_items} "
              f"ratings={snapshot.n_ratings} k={snapshot.cf_k} "
              f"index_entries={snapshot.index.n_entries} "
              f"mapping={len(snapshot.item_mapping())}")
        return 0
    snapshot = ModelSnapshot.load(args.snapshot)
    print(f"model snapshot at {args.snapshot}")
    print(f"  version={snapshot.version}")
    print(f"  users={snapshot.n_users} items={snapshot.n_items} "
          f"ratings={snapshot.n_ratings}")
    print(f"  serving: k={snapshot.cf_k} "
          f"positive_only={snapshot.positive_only} "
          f"scale=[{snapshot.scale[0]:g}, {snapshot.scale[1]:g}]")
    print(f"  index: entries={snapshot.index.n_entries}")
    print(f"  alterego sources="
          f"{len(snapshot.alterego) if snapshot.alterego else 0}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving.service import RecommendationService
    from repro.serving.snapshot import ModelSnapshot

    snapshot = ModelSnapshot.load(args.snapshot)
    unknown = [user for user in args.users if user not in snapshot.store.user_index]
    if unknown:
        print(f"unknown users {unknown!r} (not in the snapshot's "
              f"serving table)", file=sys.stderr)
        return 2
    title_of = _title_lookup(args.data)
    service = RecommendationService(snapshot)
    responses = service.recommend_batch(args.users, n=args.n)
    print(f"snapshot v{snapshot.version}: batched top-{args.n} for "
          f"{len(args.users)} users")
    for user, response in zip(args.users, responses):
        print(f"{user}:")
        for item, score in response:
            print(f"  {title_of(item)}  (predicted {score:.2f})")
    return 0


def _cmd_log_info(args) -> int:
    from pathlib import Path

    from repro.durability.log import RatingLog

    store = Path(args.store)
    wal_dir = store / "wal" if (store / "wal").is_dir() else store
    if not wal_dir.is_dir():
        print(f"error: {store} has no write-ahead log directory", file=sys.stderr)
        return 2
    log = RatingLog(wal_dir, readonly=True)
    try:
        info = log.info()
    finally:
        log.close()
    print(f"write-ahead log at {info.directory}")
    print(f"  last_seq={info.last_seq} durable_seq={info.durable_seq} "
          f"records={info.n_records} bytes={info.total_bytes}")
    for segment in info.segments:
        status = f"TORN: {segment.defect}" if segment.torn else "ok"
        print(f"  {segment.path.name}: seq {segment.first_seq}.."
              f"{segment.last_seq} records={segment.n_records} "
              f"bytes={segment.size_bytes} "
              f"(valid {segment.valid_bytes})  [{status}]")
    if not info.segments:
        print("  (no segments)")
    return 0


def _cmd_recover(args) -> int:
    from repro.durability.manager import DurableSweep
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import RecommendationService

    durable = DurableSweep.recover(args.store)
    try:
        report = durable.last_recovery
        print(f"recovered durable store at {args.store}")
        print(f"  checkpoint seq={report.checkpoint_seq} "
              f"snapshot={report.snapshot_path.name}")
        print(f"  replayed {report.replayed_batches} batches "
              f"({report.replayed_ratings} ratings) past the watermark "
              f"in {report.seconds:.3f}s")
        for repair in report.log_repairs:
            print(f"  log repair: {repair}")
        print(f"  store: users={durable.store.n_users} "
              f"items={durable.store.n_items} "
              f"ratings={durable.store.n_ratings} "
              f"applied_seq={durable.applied_seq}")
        if args.users:
            registry = ModelRegistry(sweep=durable, cf_k=durable.cf_k,
                                     positive_only=durable.positive_only)
            snapshot = registry.current()
            unknown = [user for user in args.users
                       if user not in snapshot.store.user_index]
            if unknown:
                print(f"unknown users {unknown!r} (not in the recovered "
                      f"serving table)", file=sys.stderr)
                return 2
            service = RecommendationService(snapshot)
            for user, response in zip(
                    args.users,
                    service.recommend_batch(args.users, n=args.n)):
                print(f"{user}:")
                for item, score in response:
                    print(f"  {item}  (predicted {score:.2f})")
    finally:
        durable.close()
    return 0


def _make_pool_and_server(args, port: int = 0, host: str = "127.0.0.1"):
    """A (pool, server) pair from the shared fleet arguments — workers
    are not yet spawned, the port not yet bound."""
    from repro.gateway import GatewayServer, WorkerPool

    pool = WorkerPool(
        args.watch, n_workers=args.workers,
        call_timeout=args.call_timeout,
        retries=args.retries,
        poll_interval=args.poll_interval,
        response_cache_size=args.response_cache_size,
        hedge_delay=args.hedge_delay,
        allow_stale=args.allow_stale)
    server = GatewayServer(pool, host=host, port=port,
                           max_batch=args.max_batch,
                           max_inflight=args.max_inflight,
                           max_queue=args.max_queue)
    return pool, server


def _cmd_serve_http(args) -> int:
    import asyncio
    import logging
    import signal

    from repro.obs import log_enabled

    # Operator-facing: with REPRO_OBS_LOG set, the structured span/event
    # JSON lines (logger ``repro.obs``) and gateway warnings must reach
    # stderr — without a handler Python's lastResort only shows
    # WARNING+, which would silently eat the telemetry the knob asks
    # for. No-op if the embedding app configured logging already.
    if log_enabled() and not logging.getLogger("repro").handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logging.getLogger("repro").addHandler(handler)
        logging.getLogger("repro").setLevel(logging.INFO)

    async def run() -> None:
        pool, server = _make_pool_and_server(args, port=args.port, host=args.host)
        await pool.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loops
        try:
            await server.start()
            print(f"gateway listening on http://{args.host}:"
                  f"{server.port} ({args.workers} workers, model "
                  f"v{pool.fleet_version}, watching {args.watch})",
                  flush=True)
            # SIGTERM/SIGINT → graceful drain: stop accepting, finish
            # in-flight requests, reap every worker, then exit 0.
            await stop.wait()
            print("gateway draining...", flush=True)
        finally:
            await server.drain()
        print("gateway stopped", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("gateway stopped")
    return 0


def _cmd_bench_gateway(args) -> int:
    import asyncio
    import json

    from repro.gateway import loadgen
    from repro.serving.watch import RegistryWatcher

    watcher = RegistryWatcher(args.watch)
    if watcher.poll() is None:
        print(f"error: no loadable model under {args.watch}", file=sys.stderr)
        return 2
    users = list(watcher.registry.current().store.users)
    if not users:
        print("error: the model serves no users", file=sys.stderr)
        return 2

    async def run() -> dict:
        pool, server = _make_pool_and_server(args)
        await pool.start()
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            levels = {}
            levels["serial"] = await loop.run_in_executor(
                None, lambda: loadgen.run_serial_baseline(
                    server.host, server.port, users, args.n,
                    args.serial_requests))
            levels["closed"] = await loop.run_in_executor(
                None, lambda: loadgen.run_closed_loop(
                    server.host, server.port, users, args.n,
                    args.concurrency, args.requests_per_client))
            if args.rate > 0:
                levels["poisson"] = await loop.run_in_executor(
                    None, lambda: loadgen.run_open_loop(
                        server.host, server.port, users, args.n,
                        args.rate, args.duration))
            return {"workers": args.workers,
                    "model_version": pool.fleet_version,
                    "pool": pool.stats(), "levels": levels}
        finally:
            await server.close()
            await pool.close()

    report = asyncio.run(run())
    print(json.dumps(report, indent=2))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "evaluate": _cmd_evaluate,
    "recommend": _cmd_recommend,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
    "log-info": _cmd_log_info,
    "recover": _cmd_recover,
    "serve-http": _cmd_serve_http,
    "bench-gateway": _cmd_bench_gateway,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
