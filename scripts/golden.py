"""Golden digests of the offline fit's and the write path's outputs.

    python scripts/golden.py [--update] [--shape small|trace_s|trace_l ...]
    python scripts/golden.py --write-path [--update] [--shape small|trace_l ...]
    python scripts/golden.py --private [--update] [--shape small|trace_s ...]

Fits ``NXMapRecommender(mode="item")`` at each shape (seed 7) and
hashes a canonical dump of what the fit produces: the X-Sim map (keys
and order), the replacement sets, the augmented table's rows,
``item_mapping`` and the MAE over the hidden ratings. A dump is one
JSON entry per line (dicts as sorted ``[key, value]`` entries, floats
as ``float.hex``); a digest is ``blake2b`` of those lines. Without
``--update`` it compares against ``tests/golden/fit.json`` and exits 1
on a difference; ``--update`` rewrites that file and the small shape's
whole dump (``tests/golden/small.json``), which lets another NumPy
version compare values within a tolerance instead of bits.

``small`` and ``trace_s`` fit the cold-start training split and score
its hidden ratings (``trace_s`` is ``bench/``'s ``xmap_fit`` trace, so
its MAE is that workload's); ``trace_l`` fits the whole trace, as
``scripts/fit_scale_smoke.py`` does, and has no MAE.

``--write-path`` drives a ``DurableSweep`` over the whole trace of each
shape (default ``small`` and ``trace_l``) through a fixed sequence of
:data:`WRITE_BATCHES` rating batches — the ``onboard, onboard, heavy``
cycle of :class:`BatchPlan` — with a checkpoint every
:data:`WRITE_CHECKPOINT_EVERY` batches. After each batch it hashes the
accumulation, the index and the update census; at the end, the store
directory (WAL segments, ``CHECKPOINT.json``, the checkpoint snapshot)
and the state recovered from it. Arrays are hashed as their dtype and
raw bytes. The digests live in ``tests/golden/write_path.json``.

``--private`` fits X-Map's two private pipelines, ``XMapRecommender``
in item and in user mode (X-Map-ib and X-Map-ub, ε 0.3, ε′ 0.8, seed
7), on the cold-start training split of each shape (default ``small``
and ``trace_s``) and records every hidden pair's prediction as
``float.hex``, in the split's order, plus the MAE, in
``tests/golden/private.json``. The values themselves are stored, not a
hash, so a mismatch names the pairs that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

GOLDEN = ROOT / "tests" / "golden" / "fit.json"
SMALL_DUMP = ROOT / "tests" / "golden" / "small.json"
WRITE_GOLDEN = ROOT / "tests" / "golden" / "write_path.json"
PRIVATE_GOLDEN = ROOT / "tests" / "golden" / "private.json"
SEED = 7
PARTS = ("xsim_map", "replacements", "augmented", "item_mapping", "mae")
#: Per-batch parts of the write path, then its end-of-run parts.
BATCH_PARTS = ("accumulation", "index", "census")
FINAL_PARTS = ("directory", "recovered")
WRITE_SHAPES = ("small", "trace_l")
WRITE_BATCHES = 9
WRITE_CHECKPOINT_EVERY = 6
PRIVATE_SHAPES = ("small", "trace_s")
#: X-Map variant → pipeline mode, at the budgets (ε, ε′) of §6.3's ib.
PRIVATE_VARIANTS = {"X-Map-ib": "item", "X-Map-ub": "user"}
PRIVATE_BUDGETS = (0.3, 0.8)


@dataclass(frozen=True)
class Shape:
    scale: float
    ratings_per_user: int
    split: bool

    def config(self):
        from repro.data.synthetic import SyntheticConfig, scaled

        return replace(
            scaled(SyntheticConfig(ratings_per_user=self.ratings_per_user),
                   self.scale), seed=SEED)


SHAPES = {
    "small": Shape(0.12, 12, split=True),
    "trace_s": Shape(1, 15, split=True),
    "trace_l": Shape(5, 30, split=False),
}


def numpy_version() -> str:
    import numpy

    return ".".join(numpy.__version__.split(".")[:2])


def training(shape: str):
    """``(training data, hidden (user, item, truth) triples)`` at
    *shape*: the cold-start split, or the whole trace and no triples."""
    from repro.data.splits import cold_start_split
    from repro.data.synthetic import amazon_like

    data = amazon_like(SHAPES[shape].config())
    if not SHAPES[shape].split:
        return data, []
    split = cold_start_split(data, seed=SEED)
    return split.train, split.hidden_pairs()


def fit(shape: str):
    """``(pipeline, hidden (user, item, truth) triples)`` at *shape*."""
    from repro.core.pipeline import NXMapRecommender, XMapConfig

    data, hidden = training(shape)
    return NXMapRecommender(XMapConfig(mode="item")).fit(data), hidden


def dump(pipeline, hidden) -> dict[str, Iterator]:
    """The canonical dump of a fitted pipeline, part by part, as
    iterators of JSON-ready entries."""
    from repro.evaluation.metrics import mae

    xsim_map, generator = pipeline.xsim_map, pipeline.generator

    def rows():
        for source in xsim_map:
            yield [source, [[t, v.hex()] for t, v in xsim_map[source].items()]]

    def replacements():
        for source in sorted(xsim_map):
            yield [source, [[t, w.hex()]
                            for t, w in generator.replacements_for(source)]]

    def augmented():
        columns = pipeline.augmented_target.columns()
        users, items = columns.users, columns.items
        for u, i, v, t in zip(columns.user_codes.tolist(),
                              columns.item_codes.tolist(),
                              columns.values.tolist(),
                              columns.timesteps.tolist()):
            yield [users[u], items[i], v.hex(), t]

    def errors():
        if hidden:
            yield mae([pipeline.predict(u, i) for u, i, _ in hidden],
                      [truth for _, _, truth in hidden]).hex()

    return {
        "xsim_map": rows(),
        "replacements": replacements(),
        "augmented": augmented(),
        "item_mapping": ([s, t] for s, t in sorted(pipeline.item_mapping().items())),
        "mae": errors(),
    }


def _line(entry) -> bytes:
    return json.dumps(entry, separators=(",", ":")).encode() + b"\n"


def digests(parts: dict[str, Iterator], keep: dict | None = None) -> dict[str, str]:
    """``blake2b`` per part of a :func:`dump`; with *keep*, each part's
    entries are also collected there."""
    out = {}
    for name in PARTS:
        hasher = hashlib.blake2b(digest_size=16)
        for entry in parts[name]:
            hasher.update(_line(entry))
            if keep is not None:
                keep.setdefault(name, []).append(entry)
        out[name] = hasher.hexdigest()
    return out


def shape_digests(shape: str, keep: dict | None = None) -> dict[str, str]:
    return digests(dump(*fit(shape)), keep)


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [name for name in PARTS if got.get(name) != want.get(name)]


def _is_hex_float(value) -> bool:
    return isinstance(value, str) and value.lstrip("-").startswith("0x")


def close(got, want, tolerance: float = 1e-9) -> bool:
    """*got* equals *want* entry for entry, hex floats within
    *tolerance* of each other."""
    if _is_hex_float(got) and _is_hex_float(want):
        return abs(float.fromhex(got) - float.fromhex(want)) <= tolerance
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            close(a, b, tolerance) for a, b in zip(got, want))
    return got == want


class BatchPlan:
    """The ingest batches of ``bench/inputs.py``'s ``BatchPlan``, kept
    here so the digests do not move with the benchmark: ``onboard`` is
    a new user rating eight items spread over the popularity tail,
    ``heavy`` eight head users each (re-)rating one head item."""

    BATCH_SIZE = 8
    HEAD_USERS = 64
    HEAD_ITEMS = 50
    ONBOARD_SKIP_HEAD_SHARE = 0.10
    SHAPE_CYCLE = ("onboard", "onboard", "heavy")

    def __init__(self, table, seed: int) -> None:
        self._rng = random.Random(seed)
        by_size = sorted(table.users, key=lambda u: (-len(table.user_profile(u)), u))
        by_popularity = sorted(table.items,
                               key=lambda i: (-len(table.item_profile(i)), i))
        self.head_users = by_size[:self.HEAD_USERS]
        self.head_items = by_popularity[:self.HEAD_ITEMS]
        self.tail_items = by_popularity[int(len(by_popularity)
                                            * self.ONBOARD_SKIP_HEAD_SHARE):]
        self._made = {"onboard": 0, "heavy": 0}
        self._timestep = 1_000_000

    def shape_of(self, k: int) -> str:
        return self.SHAPE_CYCLE[k % len(self.SHAPE_CYCLE)]

    def batch(self, shape: str):
        from repro.data.ratings import Rating

        k = self._made[shape]
        self._made[shape] += 1
        self._timestep += 1
        size = self.BATCH_SIZE
        if shape == "onboard":
            stride = len(self.tail_items) // size
            pairs = [(f"n{k:06d}",
                      self.tail_items[(j * stride + k * 13) % len(self.tail_items)])
                     for j in range(size)]
        else:
            pairs = [(self.head_users[(k * size + j) % len(self.head_users)],
                      self.head_items[(k * 5 + j * 3) % len(self.head_items)])
                     for j in range(size)]
        return [Rating(user, item, float(self._rng.randint(1, 5)), self._timestep)
                for user, item in pairs]


def _hash(lines=(), arrays=()) -> str:
    """``blake2b`` of JSON *lines*, then of each array's dtype and bytes."""
    hasher = hashlib.blake2b(digest_size=16)
    for entry in lines:
        hasher.update(_line(entry))
    for array in arrays:
        hasher.update(_line(str(array.dtype)))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def state_digests(sweep) -> dict[str, str]:
    """The accumulation's and the index's digests of an
    ``IncrementalSweep``."""
    acc, index = sweep.accumulation, sweep.index
    return {
        "accumulation": _hash(arrays=(acc.keys, acc.sums, acc.counts)),
        "index": _hash([list(index.items)],
                       (index.ptr, index.neighbor_ids, index.weights)),
    }


def census_digest(stats) -> str:
    return _hash([list(stats.affected_items),
                  [list(edge) for edge in stats.edges_added],
                  [list(edge) for edge in stats.edges_removed],
                  stats.delta_pairs, stats.n_changed_entries])


def directory_digest(directory: Path) -> str:
    """``blake2b`` over every file under *directory*: its relative path,
    then its bytes, in sorted path order."""
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        hasher.update(path.relative_to(directory).as_posix().encode() + b"\n")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def write_path_digests(shape: str) -> dict:
    """Drive a ``DurableSweep`` through the fixed batch sequence at
    *shape* and return ``{"batches": [per-batch digests], "directory":
    …, "recovered": …}``."""
    from repro.data.synthetic import amazon_like
    from repro.durability.manager import CheckpointPolicy, DurableSweep

    table = amazon_like(SHAPES[shape].config()).merged()
    plan = BatchPlan(table, SEED)
    batches = []
    with tempfile.TemporaryDirectory(prefix="golden-write-") as tmp:
        store = Path(tmp) / "store"
        with DurableSweep(store, table, policy=CheckpointPolicy(
                max_log_bytes=None, max_batches=WRITE_CHECKPOINT_EVERY)) as durable:
            for k in range(WRITE_BATCHES):
                stats = durable.update(plan.batch(plan.shape_of(k)))
                batches.append({**state_digests(durable.sweep),
                                "census": census_digest(stats)})
        directory = directory_digest(store)
        with DurableSweep.recover(store) as recovered:
            state = state_digests(recovered.sweep)
    return {"batches": batches, "directory": directory,
            "recovered": _hash([state["accumulation"], state["index"]])}


def write_path_mismatches(got: dict, want: dict) -> list[str]:
    """The parts of *got* that differ from *want*, named by batch."""
    wrong = [f"batch {k} {name}"
             for k, (a, b) in enumerate(zip(got["batches"], want["batches"]))
             for name in BATCH_PARTS if a.get(name) != b.get(name)]
    if len(got["batches"]) != len(want["batches"]):
        wrong.append("batch count")
    return wrong + [name for name in FINAL_PARTS if got.get(name) != want.get(name)]


def load_write_path() -> dict:
    return json.loads(WRITE_GOLDEN.read_text(encoding="utf-8"))


def private_predictions(shape: str) -> dict:
    """Each private variant's prediction per hidden pair at *shape*, as
    ``float.hex``, and its MAE: ``{variant: {"predictions", "mae"}}``."""
    from repro.core.pipeline import XMapConfig, XMapRecommender
    from repro.evaluation.metrics import mae

    data, hidden = training(shape)
    epsilon, epsilon_prime = PRIVATE_BUDGETS
    out = {}
    for variant, mode in PRIVATE_VARIANTS.items():
        pipeline = XMapRecommender(XMapConfig(
            mode=mode, epsilon=epsilon, epsilon_prime=epsilon_prime,
            seed=SEED)).fit(data)
        predicted = [pipeline.predict(user, item) for user, item, _ in hidden]
        out[variant] = {
            "predictions": [value.hex() for value in predicted],
            "mae": mae(predicted, [truth for _, _, truth in hidden]).hex()}
    return out


def private_mismatches(got: dict, want: dict) -> list[str]:
    """The parts of *got* that differ from *want*: per variant, how
    many predictions moved and the first of them, then the MAE."""
    wrong = []
    for variant in PRIVATE_VARIANTS:
        a, b = got[variant], want[variant]
        moved = [k for k, (x, y) in enumerate(zip(a["predictions"], b["predictions"]))
                 if x != y]
        if moved or len(a["predictions"]) != len(b["predictions"]):
            wrong.append(f"{variant} predictions ({len(moved)} of "
                         f"{len(b['predictions'])} moved, first at {moved[:1]})")
        if a["mae"] != b["mae"]:
            wrong.append(f"{variant} mae")
    return wrong


def load_private() -> dict:
    return json.loads(PRIVATE_GOLDEN.read_text(encoding="utf-8"))


def digest_file_main(label: str, path: Path, shapes: list[str], compute,
                     mismatches, update: bool) -> int:
    """Rewrite (*update*) or check the per-shape entries of the digest
    file at *path*: ``compute(shape)`` makes an entry, ``mismatches(got,
    want)`` names what differs."""
    if update:
        golden = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
                  else {"shapes": {}})
        golden["numpy"] = numpy_version()
        for shape in shapes:
            golden["shapes"][shape] = compute(shape)
            print(f"{label} {shape}: updated")
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return 0
    golden = json.loads(path.read_text(encoding="utf-8"))
    if golden["numpy"] != numpy_version():
        print(f"note: digests were taken on NumPy {golden['numpy']}, "
              f"this is {numpy_version()}")
    failed = False
    for shape in shapes:
        wrong = mismatches(compute(shape), golden["shapes"][shape])
        failed |= bool(wrong)
        print(f"{label} {shape}: "
              f"{'differs in ' + ', '.join(wrong) if wrong else 'OK'}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digests and small dump")
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="shapes to run (default: all fit shapes, small "
                             "and trace_l with --write-path, small and "
                             "trace_s with --private)")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--write-path", action="store_true",
                      help="digest the durable write path, not the fit")
    kind.add_argument("--private", action="store_true",
                      help="record X-Map's private predictions, not the fit")
    args = parser.parse_args(argv)
    if args.write_path:
        return digest_file_main("write path", WRITE_GOLDEN,
                                args.shape or list(WRITE_SHAPES), write_path_digests,
                                write_path_mismatches, args.update)
    if args.private:
        if not all(SHAPES[shape].split for shape in args.shape or ()):
            parser.error("--private needs a shape with hidden ratings: "
                         + ", ".join(PRIVATE_SHAPES))
        return digest_file_main("private", PRIVATE_GOLDEN,
                                args.shape or list(PRIVATE_SHAPES), private_predictions,
                                private_mismatches, args.update)
    shapes = args.shape or list(SHAPES)

    if args.update:
        golden = load() if GOLDEN.exists() else {"shapes": {}}
        golden["numpy"] = numpy_version()
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        for shape in shapes:
            keep: dict | None = {} if shape == "small" else None
            golden["shapes"][shape] = shape_digests(shape, keep)
            if keep is not None:
                SMALL_DUMP.write_text(
                    json.dumps(keep, separators=(",", ":")) + "\n", encoding="utf-8")
            print(f"{shape}: updated")
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        return 0

    golden = load()
    if golden["numpy"] != numpy_version():
        print(f"note: digests were taken on NumPy {golden['numpy']}, "
              f"this is {numpy_version()}")
    failed = False
    for shape in shapes:
        wrong = mismatches(shape_digests(shape), golden["shapes"][shape])
        failed |= bool(wrong)
        print(f"{shape}: {'differs in ' + ', '.join(wrong) if wrong else 'OK'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
