"""A miniature Spark: partitioned dataflow with a simulated cluster.

The paper implements X-Map on Apache Spark [38] and reports near-linear
speedup on up to 20 machines (Figure 11). We cannot ship a cluster, so
this package provides a substitute:

* an RDD-style API — :class:`~repro.engine.dataset_api.DistCollection`
  with ``map`` / ``flat_map`` / ``filter`` / ``reduce_by_key`` /
  ``group_by_key`` / ``join`` — over hash-partitioned in-memory data,
  whose lineage is cut into **stages** at shuffle boundaries, with
  narrow transformations fused into single tasks exactly as Spark
  pipelines them (:mod:`repro.engine.dataset_api`),
* a **simulated cluster**: every task really executes (single process,
  results are exact), while a cost model charges per-record compute,
  shuffle I/O and task overhead, and a greedy scheduler lays the tasks
  onto N simulated machines to produce a makespan
  (:mod:`repro.engine.cluster`, :mod:`repro.engine.scheduler`),
* the X-Map and ALS pipelines expressed in this API
  (:mod:`repro.engine.xmap_job`, :mod:`repro.engine.als_job`) — the two
  jobs Figure 11 compares.

Speedup shape is a property of the job DAG (X-Map's per-item extension
is embarrassingly parallel; ALS alternates global barriers with factor
broadcasts that grow with the cluster), so measuring it on the simulated
timeline reproduces the figure's qualitative result.

The library's own Baseliner sweep is not a dataflow job: it runs in
process over the interned rating store
(:mod:`repro.engine.sharded_sweep`).
"""

from repro.engine.cluster import ClusterSpec, CostModel
from repro.engine.dataset_api import DataflowContext, DistCollection
from repro.engine.metrics import ExecutionReport, StageReport, speedup_curve

__all__ = [
    "ClusterSpec",
    "CostModel",
    "DataflowContext",
    "DistCollection",
    "ExecutionReport",
    "StageReport",
    "speedup_curve",
]
