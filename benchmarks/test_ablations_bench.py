"""Benchmark: the design-choice ablation study (not a paper artifact)."""

from conftest import record

from repro.evaluation.experiments import ablations


def test_ablations(benchmark):
    """Measure each ablated variant at full experiment scale."""
    result = benchmark.pedantic(ablations.run, rounds=1, iterations=1)
    record(result)
    assert result.rows
