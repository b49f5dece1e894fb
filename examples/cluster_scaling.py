"""Watching X-Map scale on the simulated cluster (Figure 11's machinery).

Fits X-Map once, turns the fit into per-stage work counts, and costs
that stage list (and MLlib-ALS's) on simulated clusters of growing
size. Prints each X-Map stage's makespan on 5 and 20 machines, then
both speedup curves. Useful for understanding *why* the two jobs scale
differently: every X-Map stage is per-user or per-item work that
spreads over more tasks, while ALS alternates small solves with factor
broadcasts that grow with the cluster.

Run with::

    python examples/cluster_scaling.py
"""

from __future__ import annotations

from repro.data.synthetic import amazon_like
from repro.engine.cluster import (
    ClusterSpec,
    broadcast_seconds,
    job_makespan,
    speedup_curve,
    stage_makespan,
    task_seconds,
)
from repro.evaluation.experiments.fig11_scalability import als_stages, xmap_stages


def main() -> None:
    data = amazon_like()
    jobs = {"X-Map": xmap_stages(data), "ALS": als_stages(data.merged(), n_iterations=8)}

    stages, broadcasts = jobs["X-Map"]
    small, large = ClusterSpec(n_machines=5), ClusterSpec(n_machines=20)
    print(f"{'X-Map stage':<12} {'keys':>6} {'records out':>12} "
          f"{'5 machines':>11} {'20 machines':>12}")
    for stage in stages:
        print(f"{stage.name:<12} {len(stage.work):>6} {int(stage.out.sum()):>12} "
              f"{stage_makespan(task_seconds(stage, small), small):>10.3f}s "
              f"{stage_makespan(task_seconds(stage, large), large):>11.3f}s")
    print(f"{'broadcasts':<12} {'':>6} {sum(broadcasts):>12} "
          f"{broadcast_seconds(broadcasts, small):>10.3f}s "
          f"{broadcast_seconds(broadcasts, large):>11.3f}s\n")

    machines = (5, 10, 15, 20)
    curves = {
        name: speedup_curve({count: job_makespan(stages, broadcasts, ClusterSpec(count))
                             for count in machines})
        for name, (stages, broadcasts) in jobs.items()}
    print(f"{'machines':>8}  {'X-Map speedup':>14}  {'ALS speedup':>12}")
    for count in machines:
        print(f"{count:>8}  {curves['X-Map'][count]:>14.2f}  {curves['ALS'][count]:>12.2f}")
    print("\nX-Map approaches linear speedup; ALS flattens as its factor"
          "\nbroadcasts grow with the cluster — the Figure 11 contrast.")


if __name__ == "__main__":
    main()
