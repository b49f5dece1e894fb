"""Golden digests of the offline fit's outputs.

    python scripts/golden.py [--update] [--shape small|trace_s|trace_l ...]

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

GOLDEN = ROOT / "tests" / "golden" / "fit.json"
SMALL_DUMP = ROOT / "tests" / "golden" / "small.json"
SEED = 7
PARTS = ("xsim_map", "replacements", "augmented", "item_mapping", "mae")


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


def fit(shape: str):
    """``(pipeline, hidden (user, item, truth) triples)`` at *shape*."""
    from repro.core.pipeline import NXMapRecommender, XMapConfig
    from repro.data.splits import cold_start_split
    from repro.data.synthetic import amazon_like

    data = amazon_like(SHAPES[shape].config())
    hidden: list[tuple[str, str, float]] = []
    if SHAPES[shape].split:
        split = cold_start_split(data, seed=SEED)
        data, hidden = split.train, split.hidden_pairs()
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digests and small dump")
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="shapes to fit (default: all)")
    args = parser.parse_args(argv)
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
