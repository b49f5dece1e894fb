"""The one benchmark command.

One workload, one run (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload serve_cold --seed 7 --seconds 12 --trace 0

prints human-readable metric lines and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

The whole set (every workload untraced, then traced, each in a fresh
child process, with the tracing overhead between the two)::

    python3 bench/run.py --seed 7 [--repeat N] [--out results.json]
    python3 bench/run.py --seed 7 --check-repeat

See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench import common, spec  # noqa: E402
from bench.tracing import Tracer  # noqa: E402

#: end-to-end metric whose traced/untraced ratio is the tracing
#: overhead, per workload.
HEADLINE = {
    "xmap_fit": "fit_s",
    "sweep_ingest": "ingest_p50_ms",
    "serve_cold": "latency_p50_ms",
    "serve_hot_publish": "latency_p50_ms",
}


def _workload_module(name: str):
    module = "serve" if name.startswith("serve_") else name
    return importlib.import_module(f"bench.workloads.{module}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process and return its full record."""
    stamp = common.environment_stamp(seed)
    tmp = common.make_tmp(name)
    tracer = Tracer() if traced else None
    ctx = common.Context(name, seed, seconds, tracer, tmp)
    started = time.perf_counter()
    try:
        result = _workload_module(name).run(ctx)
    finally:
        common.remove_tmp(tmp)
    stamp["loadavg_after"] = list(os.getloadavg())
    units = spec.by_name()
    return {
        "workload": name,
        "trace": int(traced),
        "stamp": stamp,
        "wall_s": time.perf_counter() - started,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "gates": result.gates,
        "info": result.info,
        "metrics": {
            metric: {"value": value, "unit": units[metric].unit,
                     "n": result.samples[metric]}
            for metric, value in result.metrics.items()
        },
        "spans": tracer.dump() if tracer is not None else None,
    }


def result_line(record: dict) -> dict:
    """The contract line: every declared metric of the mode, by name.
    A per-layer metric a workload never exercises reads 0 — the layer
    did no work there, which is the bypass prediction made visible."""
    if record["trace"]:
        wanted, default = spec.traced_line_metrics(), 0.0
    else:
        wanted, default = spec.END_TO_END, None
    metrics = {}
    for metric in wanted:
        got = record["metrics"].get(metric.name)
        if got is None and default is None:
            raise common.BenchError(
                f"{record['workload']} produced no {metric.name}")
        metrics[metric.name] = {
            "value": got["value"] if got is not None else default,
            "unit": metric.unit,
        }
    return {
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    bounds = spec.by_name()
    print(f"== {record['workload']} (trace {record['trace']}, seed "
          f"{record['stamp']['seed']}, {record['wall_s']:.1f}s wall) ==")
    for name, got in record["metrics"].items():
        bound = bounds[name].bound
        suffix = f"  bound {bound:g}" if bound is not None else ""
        print(f"  {name:<40} {got['value']:>14.6g} {got['unit']:<6} "
              f"n={got['n']}{suffix}")
    print(f"  attempted={record['attempted']} failed={record['failed']}")
    for gate in record["gates"]:
        mark = "ok  " if gate["ok"] else "FAIL"
        print(f"  [{mark}] {gate['gate']}: {gate['detail']}")


# -- the whole set, each run in a fresh child ---------------------------


def run_child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tmp = common.make_tmp("suite")
    out = tmp / "record.json"
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
            "--out", str(out)]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=common.child_env(),
                              capture_output=True, text=True, timeout=600,
                              check=False)
        if done.returncode != 0 or not out.exists():
            raise common.BenchError(
                f"{name} (trace {int(traced)}) exited {done.returncode}:\n"
                f"{done.stderr[-2000:]}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        common.remove_tmp(tmp)


def run_set(seed: int, seconds: float, workloads: list[str],
            traced_too: bool = True) -> list[dict]:
    records = []
    for name in workloads:
        untraced = run_child(name, seed, seconds, traced=False)
        print_record(untraced)
        records.append(untraced)
        if not traced_too:
            continue
        traced = run_child(name, seed, seconds, traced=True)
        headline = HEADLINE[name]
        ratio = (traced["metrics"][headline]["value"]
                 / untraced["metrics"][headline]["value"])
        traced["metrics"]["trace.overhead_ratio"] = {
            "value": ratio, "unit": "ratio", "n": 1}
        print_record(traced)
        records.append(traced)
    return records


def end_to_end_values(records: list[dict]) -> dict[tuple[str, str], float]:
    """(workload, metric) → value over the untraced records of one set."""
    names = {m.name for m in spec.END_TO_END + spec.WORKLOAD_METRICS}
    return {
        (record["workload"], metric): got["value"]
        for record in records if not record["trace"]
        for metric, got in record["metrics"].items() if metric in names
    }


def worse_by(metric: spec.Metric, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (absolute for ratio metrics whose bound the issue states in
    absolute terms)."""
    delta = second - first if metric.better == "lower" else first - second
    if metric.unit == "ratio" or first == 0:
        return delta
    return delta / abs(first)


def check_repeat(seed: int, seconds: float, workloads: list[str],
                 repeat: int = 1) -> bool:
    """Two sides of *repeat* complete sets each of the same commit,
    interleaved and in opposite workload order; the two sides' medians
    must agree within each metric's own bound."""
    sides: tuple[dict, dict] = ({}, {})
    for _ in range(repeat):
        for side, order in zip(sides, (workloads, workloads[::-1])):
            values = end_to_end_values(
                run_set(seed, seconds, order, traced_too=False))
            for key, value in values.items():
                side.setdefault(key, []).append(value)
    first, second = ({key: statistics.median(values)
                      for key, values in side.items()} for side in sides)
    metrics = spec.by_name()
    ok = True
    for key in sorted(first):
        workload, name = key
        metric = metrics[name]
        drift = max(worse_by(metric, first[key], second[key]),
                    worse_by(metric, second[key], first[key]))
        if metric.bound is None:
            verdict = "demoted, no bound"
        elif drift <= metric.bound:
            verdict = f"bound {metric.bound:g} ok"
        else:
            verdict = f"bound {metric.bound:g} FAIL"
            ok = False
        print(f"repeat {workload:<18} {name:<24} {first[key]:>12.6g} "
              f"{second[key]:>12.6g} drift {drift:.4f} {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", default=None,
                        help="also write the full record(s) as JSON here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole-set mode: run the set this many times "
                             "(per side with --check-repeat)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the whole set twice and fail if any "
                             "end-to-end median moves by more than its bound")
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced
    # a terminated run still unwinds through the ``finally`` blocks
    # that stop its gateway, workers and writer.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.refuse_foreign_env()
        common.require_program()
        if args.workload is not None and not args.check_repeat:
            record = run_workload(args.workload, args.seed, args.seconds, traced)
            print_record(record)
            if args.out:
                Path(args.out).write_text(json.dumps(record), encoding="utf-8")
            line = result_line(record)
            print(json.dumps(line))
            return 0
        workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
        if args.check_repeat:
            return 0 if check_repeat(args.seed, args.seconds, workloads,
                                     args.repeat) else 1
        runs = []
        for _ in range(args.repeat):
            runs.extend(run_set(args.seed, args.seconds, workloads))
        if args.out:
            Path(args.out).write_text(
                json.dumps({"runs": runs}), encoding="utf-8")
        return 0 if all(run["correct"] for run in runs) else 1
    except common.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
