"""End-to-end + per-layer benchmark of the X-Map reproduction.

``python3 bench/run.py --help`` is the one command; ``bench/README.md``
explains the workloads, the metrics and how they are predicted to
interact. Nothing here is imported by ``src/repro`` — the benchmark
observes the program strictly from outside.
"""
