"""Experiment registry and command-line entry point.

Usage::

    python -m repro.evaluation.experiments.registry            # list ids
    python -m repro.evaluation.experiments.registry fig8       # run one
    python -m repro.evaluation.experiments.registry all --quick

Each id maps to the ``run`` function of the module that regenerates the
corresponding paper table/figure (``python -m
repro.evaluation.experiments.registry`` lists them).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from repro.evaluation.experiments import (
    ablations,
    fig1b_similarity_counts,
    fig5_temporal,
    fig6_7_privacy,
    fig8_topk,
    fig9_overlap,
    fig10_sparsity,
    fig11_scalability,
    table2_genres,
    table3_homogeneous,
)
from repro.evaluation.reporting import ExperimentResult

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1b": fig1b_similarity_counts.run,
    "fig5": fig5_temporal.run,
    "fig6": functools.partial(fig6_7_privacy.run, mode="item"),
    "fig7": functools.partial(fig6_7_privacy.run, mode="user"),
    "fig8": fig8_topk.run,
    "fig9": fig9_overlap.run,
    "fig10": fig10_sparsity.run,
    "table2": table2_genres.run,
    "table3": table3_homogeneous.run,
    "fig11": fig11_scalability.run,
    "ablations": ablations.run,
}


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id (raises KeyError for unknown ids)."""
    return EXPERIMENTS[experiment_id](quick=quick)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "experiment", nargs="?",
        help=f"one of {', '.join(EXPERIMENTS)} or 'all' (omit to list)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast run")
    args = parser.parse_args(argv)
    if args.experiment is None:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    targets = (list(EXPERIMENTS) if args.experiment == "all" else [args.experiment])
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    for experiment_id in targets:
        print(run_experiment(experiment_id, quick=args.quick).render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
