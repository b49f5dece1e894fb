"""The offline fit's, the durable write path's and the private
predictions' outputs against the committed golden digests
(``scripts/golden.py``; ``--update`` rewrites them)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = sys.modules["golden"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

COMMITTED = golden.load()
SAME_NUMPY = COMMITTED["numpy"] == golden.numpy_version()
WRITE_PATH = golden.load_write_path()
PRIVATE = golden.load_private()


def test_small_shape_matches_committed_dump_within_tolerance():
    kept: dict = {}
    got = golden.shape_digests("small", kept)
    want = json.loads(golden.SMALL_DUMP.read_text(encoding="utf-8"))
    assert set(kept) == set(want)
    for name in golden.PARTS:
        assert golden.close(kept[name], want[name]), name
    if SAME_NUMPY:
        assert golden.mismatches(got, COMMITTED["shapes"]["small"]) == []


@pytest.mark.skipif(not SAME_NUMPY, reason="digests pin the NumPy they were taken on")
def test_trace_s_digests_unchanged():
    got = golden.shape_digests("trace_s")
    assert golden.mismatches(got, COMMITTED["shapes"]["trace_s"]) == []


def test_close_compares_hex_floats_within_tolerance_and_the_rest_exactly():
    assert golden.close([["a", (0.5).hex()]], [["a", (0.5 + 1e-12).hex()]])
    assert not golden.close([["a", (0.5).hex()]], [["a", (0.5 + 1e-6).hex()]])
    assert not golden.close([["a", (0.5).hex()]], [["b", (0.5).hex()]])
    assert not golden.close([["a"]], [["a"], ["b"]])


@pytest.mark.skipif(WRITE_PATH["numpy"] != golden.numpy_version(),
                    reason="digests pin the NumPy they were taken on")
def test_small_write_path_digests_unchanged():
    got = golden.write_path_digests("small")
    assert golden.write_path_mismatches(got, WRITE_PATH["shapes"]["small"]) == []


def test_write_path_mismatches_name_the_batch_and_part():
    want = WRITE_PATH["shapes"]["small"]
    got = {**want, "batches": [dict(b) for b in want["batches"]], "recovered": "x"}
    got["batches"][2]["index"] = "x"
    assert golden.write_path_mismatches(got, want) == ["batch 2 index", "recovered"]


@pytest.mark.skipif(PRIVATE["numpy"] != golden.numpy_version(),
                    reason="predictions pin the NumPy they were taken on")
def test_small_private_predictions_unchanged():
    got = golden.private_predictions("small")
    assert golden.private_mismatches(got, PRIVATE["shapes"]["small"]) == []


def test_private_mismatches_name_the_variant_and_the_moved_pairs():
    want = PRIVATE["shapes"]["small"]
    got = {variant: dict(entry) for variant, entry in want.items()}
    ub = got["X-Map-ub"]
    ub["predictions"] = [*ub["predictions"][:3], (9.0).hex(), *ub["predictions"][4:]]
    ub["mae"] = (9.0).hex()
    assert golden.private_mismatches(got, want) == [
        f"X-Map-ub predictions (1 of {len(ub['predictions'])} moved, first at [3])",
        "X-Map-ub mae"]
