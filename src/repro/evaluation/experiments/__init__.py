"""One module per paper artifact (the registry below is the index).

Every module exposes ``run(quick=False, seed=0) -> ExperimentResult``;
``quick=True`` shrinks sweeps for CI-speed runs. The registry
(:mod:`repro.evaluation.experiments.registry`) maps experiment ids to
these functions and provides the command-line entry point.
"""
