"""Execution engines: the in-process Baseliner sweep and Fig. 11's
simulated cluster.

* :mod:`repro.engine.sharded_sweep` — the Baseliner's Eq-6 sweep over
  the interned rating store, and the incremental sweep that appends
  rating batches to it.
* :mod:`repro.engine.cluster` — the paper runs X-Map on Spark and
  reports near-linear speedup on up to 20 machines (Figure 11). We
  cannot ship a cluster, so that module costs a job's stages, counted
  once from the real fit, on simulated clusters of any size.
"""
