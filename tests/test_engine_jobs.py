"""Fig. 11's stage lists: counted from the real fit, costed by the cluster."""

import numpy as np
import pytest

from repro.core.alterego import AlterEgoGenerator
from repro.core.extender import count_heterogeneous_pairs
from repro.data.dataset import CrossDomainDataset
from repro.data.ratings import Rating, RatingTable
from repro.engine.cluster import ClusterSpec, broadcast_seconds, job_makespan
from repro.evaluation.experiments.fig11_scalability import (
    MAX_PROFILE_SIZE,
    als_stages,
    fit_xsim_map,
    xmap_stages,
)


@pytest.fixture(scope="module")
def trace(small_trace):
    """The small trace plus one source user whose only item nobody else
    rated: that item has no X-Sim row, so its AlterEgo is empty."""
    source = small_trace.source
    lonely = Rating("u-lonely", "m-lonely", 4.0, 0)
    return CrossDomainDataset(
        source.with_ratings(RatingTable([*source.ratings, lonely])),
        small_trace.target)


@pytest.fixture(scope="module")
def xmap_job(trace):
    stages, broadcasts = xmap_stages(trace)
    return {stage.name: stage for stage in stages}, broadcasts


@pytest.fixture(scope="module")
def xsim_map(trace):
    return fit_xsim_map(trace, trace.merged())


class TestXMapJob:
    def test_xsim_pairs_match_library_extender(self, trace, xmap_job, xsim_map):
        """The extend stage writes exactly the fit's X-Sim pairs, one key
        per source item."""
        extend = xmap_job[0]["extend"]
        assert extend.out.sum() == count_heterogeneous_pairs(xsim_map) > 0
        assert len(extend.out) == len(trace.source.items)
        assert np.count_nonzero(extend.out) == len(xsim_map.sources)

    def test_produces_xsim_pairs_and_alteregos(self, trace, xmap_job, xsim_map):
        """The alterego stage writes one record per source user whose
        AlterEgo (the Generator's, profile by profile) is non-empty."""
        stages, _ = xmap_job
        generator = AlterEgoGenerator(xsim_map)
        source = trace.source.ratings
        non_empty = sum(
            bool(generator.alterego_profile(user, source.user_profile(user)))
            for user in source.users)
        assert 0 < stages["alterego"].out.sum() == non_empty < len(source.users)
        assert len(stages["alterego"].out) == len(source.users)

    def test_baseliner_records_are_the_pair_shuffle(self, trace, xmap_job):
        stages, _ = xmap_job
        store = trace.merged().matrix()
        capped = np.minimum(np.diff(store.user_ptr), MAX_PROFILE_SIZE)
        emitted = stages["baseliner"].out.sum()
        assert emitted == (capped * (capped + 1) // 2).sum()
        assert stages["pair sums"].moved.sum() == emitted
        assert stages["user means"].moved.sum() == store.n_ratings

    def test_more_machines_not_slower_at_scale(self, xmap_job):
        stages, broadcasts = xmap_job
        stages = list(stages.values())
        slow = job_makespan(stages, broadcasts, ClusterSpec(n_machines=2))
        fast = job_makespan(stages, broadcasts, ClusterSpec(n_machines=8))
        assert 0 < fast < slow


class TestALSJob:
    def test_broadcast_cost_grows_with_cluster(self, small_trace):
        stages, broadcasts = als_stages(small_trace.target.ratings, n_iterations=2)
        store = small_trace.target.ratings.matrix()
        assert broadcasts == [len(store.items), len(store.users)] * 2
        assert (broadcast_seconds(broadcasts, ClusterSpec(n_machines=16))
                > broadcast_seconds(broadcasts, ClusterSpec(n_machines=2)))
        # Two rating shuffles, then a user and an item solve per iteration.
        assert [stage.name for stage in stages] == [
            "ratings by user", "ratings by item",
            "solve users", "solve items", "solve users", "solve items"]
        assert stages[2].work.sum() == stages[3].work.sum() == store.n_ratings
