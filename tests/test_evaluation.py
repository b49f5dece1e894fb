"""Unit tests for the evaluation harness, metrics and reporting."""

import pytest

from repro.cf.item_average import ItemAverageRecommender
from repro.evaluation.harness import evaluate
from repro.evaluation.metrics import mae, precision_at_n, rmse
from repro.evaluation.reporting import ExperimentResult, format_table
from repro.evaluation.experiments.common import XMapLab
from repro.evaluation.systems import (
    TUNED_PRIVACY,
    make_item_average,
    make_knn_sd,
    make_linked_knn,
    make_remote_user,
)
from repro.errors import EvaluationError


class TestMetrics:
    def test_mae_hand_computed(self):
        assert mae([3.0, 4.0], [4.0, 4.0]) == pytest.approx(0.5)

    def test_mae_zero_for_perfect(self):
        assert mae([1.0, 5.0], [1.0, 5.0]) == 0.0

    def test_mae_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mae([], [])

    def test_mae_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            mae([1.0], [1.0, 2.0])

    def test_rmse_penalises_outliers_more(self):
        even = [3.0, 3.0]
        truths = [4.0, 2.0]
        spiky = [5.0, 3.0]
        truths2 = [4.0, 2.0]
        assert rmse(spiky, truths2) >= rmse(even, truths)

    def test_rmse_geq_mae(self):
        predictions = [1.0, 4.0, 2.5]
        truths = [2.0, 2.0, 2.5]
        assert rmse(predictions, truths) >= mae(predictions, truths)

    def test_precision_at_n(self):
        assert precision_at_n(["a", "b", "c"], {"a", "c"}, n=2) == 0.5
        assert precision_at_n([], {"a"}, n=3) == 0.0
        with pytest.raises(EvaluationError):
            precision_at_n(["a"], {"a"}, n=0)


class TestHarness:
    def test_evaluate_item_average(self, small_split):
        rec = ItemAverageRecommender(small_split.train.target.ratings)
        result = evaluate("ItemAverage", rec, small_split)
        assert result.n_predictions == small_split.n_hidden
        assert 0.0 < result.mae < 4.0
        assert result.rmse >= result.mae
        assert "ItemAverage" in result.describe()


class TestSystemFactories:
    def test_simple_factories(self, small_split):
        for factory in (make_item_average, make_remote_user,
                        make_linked_knn, make_knn_sd):
            recommender = factory(small_split)
            user, item, _ = small_split.hidden_pairs()[0]
            assert 1.0 <= recommender.predict(user, item) <= 5.0

    # The X-Map variants share one offline fit: the experiments' lab
    # is their factory.
    def test_nxmap_factory(self, small_split):
        recommender = XMapLab(small_split, prune_k=6).nx_recommender(k=10)
        user, item, _ = small_split.hidden_pairs()[0]
        assert 1.0 <= recommender.predict(user, item) <= 5.0

    def test_xmap_factory_uses_tuned_defaults(self, small_split):
        # §6.3's tuned (ε, ε′) per mode.
        assert TUNED_PRIVACY == {"item": (0.3, 0.8), "user": (0.6, 0.3)}
        lab = XMapLab(small_split, prune_k=6)
        recommender = lab.x_recommender(*TUNED_PRIVACY["user"], mode="user", k=10)
        assert recommender.epsilon_prime == 0.3
        assert recommender.table is lab.private_table(0.6)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 0.51234}, {"name": "bb", "value": 2.0}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "0.5123" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_missing_cells(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "a" in text and "b" in text

    def test_experiment_result_render(self):
        result = ExperimentResult(
            experiment_id="figX", title="demo",
            rows=[{"k": 1}], columns=["k"], notes=["hello"])
        rendered = result.render()
        assert "figX" in rendered
        assert "note: hello" in rendered
