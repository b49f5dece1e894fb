"""Process-local metrics with a deterministic snapshot/merge API.

Three metric kinds, deliberately minimal:

* **counter** — a monotone count (``inc``). For bridging an
  externally-maintained monotone count (``LRUCache.hits``,
  ``RegistryWatcher.n_loads``) a counter also accepts ``set``, which
  only ever moves the value up.
* **gauge** — a point-in-time value (``set`` / ``add``): fleet
  version, per-worker lag, inflight occupancy.
* **histogram** — fixed exponential buckets chosen **at registration**
  (Prometheus ``le`` semantics: bucket *i* counts observations
  ``<= bounds[i]``, plus one overflow bucket). Fixed bounds are what
  make fleet-wide aggregation exact: merging two histograms with
  identical bounds is element-wise addition, no re-binning, no
  approximation.

Concurrency model, matching where each registry lives:

* the **gateway** registry is touched only from the asyncio event loop
  — a single writer, so plain attribute updates need no lock;
* a **worker** registry is touched only by the worker's strictly
  serial frame loop — plain ints again;
* cross-process aggregation happens on *snapshots* (plain dicts riding
  in health frames), never on live registries.

Snapshots are deterministic: metric names and label keys are emitted
in sorted order, label keys are canonical JSON arrays, and the same
sequence of updates always produces the identical dict — which makes
merge results reproducible and snapshot equality a meaningful test
assertion.

Merge semantics (:func:`merge_snapshots`): counters and histogram
cells **sum** (each process counted disjoint events); gauges take the
**max** (the fleet-wide value of "highest version seen" — the only
gauge semantics that survive aggregation without per-source labels).
Metrics sharing a name must agree on kind, label names, and histogram
bounds; anything else is a programming error and raises.
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "BATCH_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STAGE_BUCKETS",
    "get_registry",
    "merge_snapshots",
    "observe_stage_seconds",
    "render_prometheus",
]

#: default latency buckets: 0.5 ms doubling up to ~8 s. Requests are
#: network round trips over multi-ms scoring passes, so sub-0.5 ms
#: resolution would spend buckets where no mass lives.
LATENCY_BUCKETS = tuple(0.0005 * (2.0**i) for i in range(15))

#: coalescer batch-size buckets: powers of two up to the default
#: ``max_batch`` envelope.
BATCH_BUCKETS = tuple(float(2**i) for i in range(9))

#: offline stages (sweep, incremental update, extender) span
#: microseconds on tiny fixtures to minutes on full builds: 1 ms
#: doubling to ~9 minutes.
STAGE_BUCKETS = tuple(0.001 * (2.0**i) for i in range(20))


def _label_key(values: tuple[str, ...]) -> str:
    """Canonical sample key: a JSON array of the label values."""
    return json.dumps(list(values), separators=(",", ":"))


class _BoundCounter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def set(self, value: int | float) -> None:
        """Monotone export bridge: adopt an externally-maintained
        count, never moving backwards."""
        if value > self.value:
            self.value = value


class _BoundGauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value

    def add(self, amount: int | float) -> None:
        self.value += amount


class _BoundHistogram:
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _Metric:
    """One named metric family: children keyed by label values."""

    kind = ""

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(str(label) for label in label_names)
        self._children: dict[tuple[str, ...], object] = {}
        self._default = None if self.label_names else self.labels()

    def _new_child(self) -> object:
        raise NotImplementedError

    def labels(self, *values: object):
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} has labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} is labelled ({self.label_names}); "
                f"use .labels(...)"
            )
        return self._default


class Counter(_Metric):
    kind = "counter"

    def _new_child(self) -> _BoundCounter:
        return _BoundCounter()

    def inc(self, amount: int | float = 1) -> None:
        self._require_default().inc(amount)

    def set(self, value: int | float) -> None:
        self._require_default().set(value)

    @property
    def value(self) -> int | float:
        """Total across all children (== the single cell's value for an
        unlabelled counter)."""
        return sum(child.value for child in self._children.values())


class Gauge(_Metric):
    kind = "gauge"

    def _new_child(self) -> _BoundGauge:
        return _BoundGauge()

    def set(self, value: int | float) -> None:
        self._require_default().set(value)

    def add(self, amount: int | float) -> None:
        self._require_default().add(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: bucket bounds must be non-empty, strictly "
                f"ascending, got {buckets!r}"
            )
        self.bounds = bounds
        super().__init__(name, help, label_names)

    def _new_child(self) -> _BoundHistogram:
        return _BoundHistogram(self.bounds)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)


class MetricsRegistry:
    """A process-local collection of named metrics.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: asking for
    an existing name returns the existing metric (kind, labels, and
    bounds must match), so layers can register at use sites without
    coordinating ownership.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter(name, help, tuple(labels)))

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge(name, help, tuple(labels)))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, tuple(labels), buckets=buckets))

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if (
            type(existing) is not type(metric)
            or existing.label_names != metric.label_names
            or getattr(existing, "bounds", None) != getattr(metric, "bounds", None)
        ):
            raise ValueError(
                f"metric {metric.name!r} re-registered with a different "
                f"kind, labels, or buckets"
            )
        return existing

    def snapshot(self) -> dict:
        """A deterministic, JSON-serialisable copy of every metric:
        sorted names, sorted canonical label keys, plain values."""
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples: dict[str, object] = {}
            for key in sorted(metric._children):
                child = metric._children[key]
                if metric.kind == "histogram":
                    samples[_label_key(key)] = {
                        "buckets": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    samples[_label_key(key)] = child.value
            entry: dict[str, object] = {
                "kind": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "samples": samples,
            }
            if metric.kind == "histogram":
                entry["bounds"] = list(metric.bounds)
            out[name] = entry
        return out


def _copy_entry(entry: dict) -> dict:
    out = {
        "kind": entry["kind"],
        "help": entry["help"],
        "label_names": list(entry["label_names"]),
        "samples": {},
    }
    if "bounds" in entry:
        out["bounds"] = list(entry["bounds"])
    for key, sample in entry["samples"].items():
        out["samples"][key] = (
            {
                "buckets": list(sample["buckets"]),
                "sum": sample["sum"],
                "count": sample["count"],
            }
            if entry["kind"] == "histogram"
            else sample
        )
    return out


def merge_snapshots(*snapshots: dict) -> dict:
    """Aggregate registry snapshots: counters and histogram cells sum,
    gauges take the max. Same-named metrics must agree on kind, label
    names, and bounds."""
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for name in sorted(snap):
            entry = snap[name]
            base = merged.get(name)
            if base is None:
                merged[name] = _copy_entry(entry)
                continue
            if (
                base["kind"] != entry["kind"]
                or base["label_names"] != list(entry["label_names"])
                or base.get("bounds") != (
                    list(entry["bounds"]) if "bounds" in entry else None
                )
            ):
                raise ValueError(
                    f"cannot merge metric {name!r}: conflicting kind, "
                    f"labels, or buckets across snapshots"
                )
            for key, sample in entry["samples"].items():
                mine = base["samples"].get(key)
                if mine is None:
                    base["samples"][key] = (
                        {
                            "buckets": list(sample["buckets"]),
                            "sum": sample["sum"],
                            "count": sample["count"],
                        }
                        if entry["kind"] == "histogram"
                        else sample
                    )
                elif entry["kind"] == "counter":
                    base["samples"][key] = mine + sample
                elif entry["kind"] == "gauge":
                    base["samples"][key] = max(mine, sample)
                else:
                    mine["buckets"] = [
                        a + b for a, b in zip(mine["buckets"], sample["buckets"])
                    ]
                    mine["sum"] += sample["sum"]
                    mine["count"] += sample["count"]
    return {name: merged[name] for name in sorted(merged)}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: list[str], values: list[str], extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: object) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def render_prometheus(snapshot: dict) -> str:
    """The Prometheus text exposition (version 0.0.4) of a snapshot
    (or of a :func:`merge_snapshots` result)."""
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        label_names = list(entry["label_names"])
        for key in sorted(entry["samples"]):
            values = json.loads(key)
            sample = entry["samples"][key]
            if entry["kind"] != "histogram":
                lines.append(
                    f"{name}{_format_labels(label_names, values)} "
                    f"{_format_value(sample)}"
                )
                continue
            cumulative = 0
            for bound, count in zip(entry["bounds"], sample["buckets"]):
                cumulative += count
                le = _format_labels(label_names, values, f'le="{bound!r}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
            inf = _format_labels(label_names, values, 'le="+Inf"')
            lines.append(f"{name}_bucket{inf} {sample['count']}")
            plain = _format_labels(label_names, values)
            lines.append(f"{name}_sum{plain} {_format_value(sample['sum'])}")
            lines.append(f"{name}_count{plain} {sample['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


#: the process-global registry: workers (a fresh interpreter per
#: process) and the non-serving layers (sweep, WAL, faults) record
#: here; the gateway and pool keep per-instance registries so tests
#: running many fleets in one interpreter stay isolated.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _GLOBAL


def observe_stage_seconds(prefix: str, stages: dict[str, float]) -> None:
    """Record per-stage wall timings of one offline job run into the
    process-global registry as ``<prefix>_stage_seconds{stage=...}``,
    so every sweep/update/extend shows up on ``/metrics`` without the
    offline layers knowing anything about serving."""
    histogram = get_registry().histogram(
        f"{prefix}_stage_seconds",
        f"wall seconds per {prefix} stage",
        labels=("stage",),
        buckets=STAGE_BUCKETS,
    )
    for stage, seconds in stages.items():
        histogram.labels(stage).observe(seconds)
