"""Chaos macrobenchmark: what faults and overload cost, measured.

Five legs per size against the same published catalog, each on a
fresh 2-worker fleet:

* **clean** — closed-loop goodput and tail with nothing injected: the
  baseline every other leg is priced against.
* **faulted** — the same stream under a seeded fault plan (sprinkled
  retryable errors, delayed reply frames with an occasional 0.4 s
  stall, one mid-request SIGKILL). The supervisor's retry/restart
  machinery absorbs all of it; the leg prices that absorption. The
  acceptance bar: **goodput ≥ 70 % of clean, net of the plan's own
  injected sleep**. A worker asleep in a delay rule is the plan's
  cost, not the machinery's, and a work-conserving coalescer leaves no
  idle time to hide it in — so the seconds the delay rules slept, read
  from the fleet's merged ``faults_injected_delay_seconds_total`` and
  spread over the workers, come off the leg's wall clock before the
  ratio is taken. (A SIGKILLed worker takes its unreported seconds
  with it: the measured sleep is a lower bound and the net ratio errs
  low.) The raw ratio is printed and recorded beside it.
* **faulted + hedge** — identical plan, hedged reads on
  (``hedge_delay=0.1``). A closed loop saturates the fleet, so a
  stalled frame often finds no idle sibling and the hedge count stays
  small — it is reported, not asserted (the hedge *firing* is pinned
  by unit tests and the chaos smoke; this leg prices carrying the
  feature under load).
* **overload, bounded** — an open-loop Poisson stream at ~2.5× the
  measured clean capacity into a tight admission window
  (``max_inflight=4, max_queue=4``): most arrivals shed instantly
  with 429, the admitted ones stay fast.
* **overload, unbounded** — the same stream into an effectively
  unbounded queue. Nothing is shed; everything waits; the
  coordinated-omission-free tail shows the latency collapse the
  bounded leg's 429s bought their way out of. The acceptance bar:
  the bounded leg sheds (> 0) and its served p99 stays **below** the
  unbounded leg's.

Errors are asserted zero on every leg — shed is not an error, a
fault retried into a correct answer is not an error; chaos costs
throughput and latency here, never answers.

Results go to ``benchmarks/results/chaos_{backend}.txt`` and
``BENCH_chaos.json`` (full-size runs only; CI's bench-smoke leg runs
the smallest size for harness correctness).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

from conftest import record_json, write_result
from test_similarity_bench import SIZES, _random_ratings, selected_sizes

from repro.data.ratings import RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.faults import FaultPlan, FaultRule
from repro.gateway import GatewayServer, WorkerPool
from repro.gateway.loadgen import run_closed_loop, run_open_loop
from repro.obs.metrics import merge_snapshots
from repro.serving.registry import ModelRegistry
from repro.serving.watch import SnapshotCatalog

TOP_N = 10
CF_K = 50
N_WORKERS = 2
N_REQUEST_USERS = 200
GOODPUT_FLOOR = 0.70

KNOBS = {
    "concurrency": 12,
    "requests_per_client": 200,
    "overload_duration_s": 3.0,
}


def _chaos_sizes():
    """This bench runs the ends of the size ladder — the middle adds
    wall clock without changing any conclusion."""
    return [size for size in selected_sizes() if size[0] in ("small", "large")]


def _fault_plan() -> FaultPlan:
    # Rates are per worker FRAME, and the batcher coalesces ~5-10 HTTP
    # requests into one frame — a worker sees only tens of frames per
    # leg, so the rates below are set against that count, not against
    # the HTTP request count.
    return FaultPlan(seed=7, rules=[
        # ~1.5% of request frames answer a retryable injected error
        # (failing the whole batch into a retry).
        FaultRule("gateway.worker.request", "error", probability=0.015),
        # ~3% of reply frames are 50ms late; ~0.6% stall 0.4s — the
        # tail the hedged leg tries to cut. Every percent here is
        # ~0.4s of worker occupancy per 250 frames on a 2-worker
        # fleet: the plan stays visible (a handful of stalls per leg)
        # without burying the goodput floor in injected sleep.
        FaultRule("gateway.worker.send", "delay", delay_s=0.05, probability=0.03),
        FaultRule("gateway.worker.send", "delay", delay_s=0.4, probability=0.006),
        # One initial worker dies once mid-request; its replacement is
        # clean (counters are per-process, so an ungated kill would
        # recur every ~20 frames forever, and killing both workers
        # prices respawn — roughly fixed wall clock — twice against a
        # stream only a few seconds long).
        FaultRule("gateway.worker.request", "kill", after=20, times=1, max_spawn_seq=1),
    ])


async def _run_leg(source: Path, users: list[str],
                   *, worker_env: dict | None = None,
                   hedge_delay: float | None = None,
                   server_kwargs: dict | None = None,
                   closed: dict | None = None,
                   open_loop: dict | None = None) -> dict:
    """One fleet, one load discipline, one report."""
    pool = WorkerPool(
        source, n_workers=N_WORKERS,
        poll_interval=0.1, response_cache_size=0,
        call_timeout=15.0, backoff_base=0.05, backoff_cap=0.5,
        hedge_delay=hedge_delay, worker_env=worker_env or {})
    await pool.start()
    server = GatewayServer(pool, **(server_kwargs or {}))
    await server.start()
    loop = asyncio.get_running_loop()
    try:
        if closed is not None:
            report = await loop.run_in_executor(
                None, lambda: run_closed_loop(
                    server.host, server.port, users, TOP_N,
                    closed["concurrency"], closed["requests_per_client"]))
        else:
            report = await loop.run_in_executor(
                None, lambda: run_open_loop(
                    server.host, server.port, users, TOP_N,
                    rate_qps=open_loop["rate"],
                    duration_s=open_loop["duration"],
                    max_workers=48, seed=11))
        report["pool"] = pool.stats()
        report["server_shed"] = server.n_shed
        slept = merge_snapshots(*await pool.collect_metrics()).get(
            "faults_injected_delay_seconds_total", {"samples": {}})
        report["injected_sleep_s"] = sum(slept["samples"].values())
    finally:
        await server.close()
        await pool.close()
    return report


def _net_qps(report: dict) -> float:
    """Goodput over the leg's wall clock less the injected sleep, which
    the workers served side by side."""
    busy_s = report["elapsed_s"] - report["injected_sleep_s"] / N_WORKERS
    return report["n_requests"] / busy_s if busy_s > 0 else 0.0


async def _bench_one_size(source: Path, users: list[str], knobs: dict) -> dict:
    closed = {"concurrency": knobs["concurrency"],
              "requests_per_client": knobs["requests_per_client"]}
    plan_env = _fault_plan().to_env()

    clean = await _run_leg(source, users, closed=closed)
    faulted = await _run_leg(source, users, closed=closed, worker_env=plan_env)
    hedged = await _run_leg(source, users, closed=closed,
                            worker_env=plan_env, hedge_delay=0.1)

    # The unbounded leg *queues* its way through the burst — its whole
    # point is the latency collapse — so the per-request budget must
    # comfortably exceed the worst queueing delay (while staying under
    # the load generator's 30s socket timeout) or the tail turns into
    # 503s and the errors==0 bar trips flakily.
    overload_rate = max(20.0, 2.5 * clean["qps"])
    duration = knobs["overload_duration_s"]
    bounded = await _run_leg(
        source, users,
        server_kwargs={"max_inflight": 4, "max_queue": 4, "request_timeout": 25.0},
        open_loop={"rate": overload_rate, "duration": duration})
    unbounded = await _run_leg(
        source, users,
        server_kwargs={"max_inflight": 4, "max_queue": 1_000_000,
                       "request_timeout": 25.0},
        open_loop={"rate": overload_rate, "duration": duration})
    return {"clean": clean, "faulted": faulted, "hedged": hedged,
            "overload_bounded": bounded,
            "overload_unbounded": unbounded,
            "overload_rate_qps": overload_rate}


def test_chaos_goodput_and_overload_shedding():
    backend = "numpy"
    lines = [f"{'size':<8} {'leg':<18} {'qps':>8} {'of-clean':>8} "
             f"{'sleep_s':>7} {'net':>5} "
             f"{'p99ms':>8} {'shed':>6} {'errors':>6} {'restarts':>8} "
             f"{'hedged':>6}"]
    payload_sizes = []
    reports_by_size = {}
    for name, n_users, n_items, per_user in _chaos_sizes():
        table = RatingTable(_random_ratings(n_users, n_items, per_user, seed=7))
        sweep = IncrementalSweep(table)
        registry = ModelRegistry(sweep=sweep, cf_k=CF_K)
        users = sorted(table.users)[:N_REQUEST_USERS]

        work = Path(tempfile.mkdtemp(prefix="chaos-bench-"))
        catalog = SnapshotCatalog(work / "catalog")
        catalog.attach(registry)
        try:
            report = asyncio.run(_bench_one_size(work / "catalog", users, KNOBS))
        finally:
            catalog.detach()
            shutil.rmtree(work, ignore_errors=True)
        reports_by_size[name] = report

        clean_qps = report["clean"]["qps"]
        for leg in ("clean", "faulted", "hedged", "overload_bounded",
                    "overload_unbounded"):
            r = report[leg]
            assert r["errors"] == 0, (name, leg, r["errors"])
            lines.append(
                f"{name:<8} {leg:<18} {r['qps']:>8.1f} "
                f"{r['qps'] / clean_qps if clean_qps else 0:>7.0%} "
                f"{r['injected_sleep_s']:>7.2f} "
                f"{_net_qps(r) / clean_qps if clean_qps else 0:>5.0%} "
                f"{r['latency_ms']['p99']:>8.1f} {r['shed']:>6} "
                f"{r['errors']:>6} {r['pool']['n_restarts']:>8} "
                f"{r['pool']['n_hedged']:>6}")
        payload_sizes.append({
            "name": name,
            "n_users": n_users,
            "n_items": n_items,
            "n_ratings": n_users * per_user,
            "top_n": TOP_N,
            "n_workers": N_WORKERS,
            "goodput_vs_clean": {
                "faulted": round(report["faulted"]["qps"] / clean_qps, 3)
                if clean_qps else 0.0,
                "hedged": round(report["hedged"]["qps"] / clean_qps, 3)
                if clean_qps else 0.0,
            },
            "goodput_net_of_injected_sleep_vs_clean": {
                leg: round(_net_qps(report[leg]) / clean_qps, 3)
                if clean_qps else 0.0
                for leg in ("faulted", "hedged")
            },
            "overload_rate_qps": round(report["overload_rate_qps"], 1),
            "legs": {leg: report[leg] for leg in
                     ("clean", "faulted", "hedged", "overload_bounded",
                      "overload_unbounded")},
        })

    rendered = "\n".join(
        [f"chaos bench: {N_WORKERS} workers, Top-{TOP_N} over HTTP "
         f"(backend: {backend}, k={CF_K}); faulted legs under plan "
         f"seed 7, overload legs at ~2.5x clean capacity", ""]
        + lines) + "\n"
    if selected_sizes() == SIZES:
        write_result(f"chaos_{backend}.txt", rendered)
        record_json("chaos", backend, {
            "k": CF_K,
            "n_workers": N_WORKERS,
            "top_n": TOP_N,
            "goodput_floor": GOODPUT_FLOOR,
            "sizes": payload_sizes,
        })
    print()
    print(rendered)

    # The acceptance bars only mean something at full scale —
    # size-filtered smoke runs check the harness.
    if "large" in reports_by_size:
        report = reports_by_size["large"]
        clean_qps = report["clean"]["qps"]
        for leg in ("faulted", "hedged"):
            ratio = _net_qps(report[leg]) / clean_qps
            assert ratio >= GOODPUT_FLOOR, (
                f"{leg} goodput net of {report[leg]['injected_sleep_s']:.2f}s "
                f"injected sleep is {ratio:.0%} of clean "
                f"(raw {report[leg]['qps'] / clean_qps:.0%}), below the "
                f"{GOODPUT_FLOOR:.0%} floor")
        bounded = report["overload_bounded"]
        unbounded = report["overload_unbounded"]
        assert bounded["shed"] > 0, "the bounded leg shed nothing"
        assert bounded["latency_ms"]["p99"] < unbounded["latency_ms"]["p99"], (
            f"bounded admission p99 {bounded['latency_ms']['p99']:.1f}ms "
            f"not below the unbounded queue's "
            f"{unbounded['latency_ms']['p99']:.1f}ms — shedding bought "
            f"nothing")
