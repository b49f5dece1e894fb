"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.data.ratings import Rating, RatingTable
from repro.durability.manager import CheckpointPolicy, DurableSweep


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace")
    code = main(["generate", "--out", str(directory), "--seed", "3", "--users", "120"])
    assert code == 0
    return directory


class TestGenerateAndStats:
    def test_generate_writes_both_domains(self, trace_dir):
        assert (trace_dir / "movies" / "ratings.csv").exists()
        assert (trace_dir / "books" / "ratings.csv").exists()

    def test_stats_reads_back(self, trace_dir, capsys):
        assert main(["stats", "--data", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "overlapping users" in out

    def test_generate_deterministic(self, trace_dir, tmp_path):
        other = tmp_path / "again"
        main(["generate", "--out", str(other), "--seed", "3", "--users", "120"])
        first = (trace_dir / "movies" / "ratings.csv").read_text()
        second = (other / "movies" / "ratings.csv").read_text()
        assert first == second


class TestEvaluate:
    def test_item_average(self, trace_dir, capsys):
        assert main(["evaluate", "--data", str(trace_dir),
                     "--system", "item-average"]) == 0
        assert "MAE=" in capsys.readouterr().out

    def test_nx_ub(self, trace_dir, capsys):
        assert main(["evaluate", "--data", str(trace_dir),
                     "--system", "nx-ub", "--k", "10"]) == 0
        assert "nx-ub" in capsys.readouterr().out


class TestRecommend:
    def test_known_user(self, trace_dir, capsys):
        assert main(["recommend", "--data", str(trace_dir),
                     "--user", "o00000", "--system", "nx-ib",
                     "--k", "10", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "recommendations for o00000" in out

    def test_unknown_user_exit_code(self, trace_dir, capsys):
        assert main(["recommend", "--data", str(trace_dir), "--user", "nobody"]) == 2
        assert "unknown user" in capsys.readouterr().err

    def test_needs_data_or_snapshot(self, capsys):
        assert main(["recommend", "--user", "o00000"]) == 2
        assert "--data" in capsys.readouterr().err


@pytest.fixture(scope="module")
def snapshot_dir(trace_dir, tmp_path_factory):
    directory = tmp_path_factory.mktemp("model")
    code = main(["snapshot", "save", "--data", str(trace_dir),
                 "--out", str(directory), "--k", "10"])
    assert code == 0
    return directory


class TestSnapshotServing:
    def test_save_writes_manifest(self, snapshot_dir):
        assert (snapshot_dir / "MANIFEST.json").exists()
        assert (snapshot_dir / "index_weights.bin").exists()

    def test_info(self, snapshot_dir, capsys):
        assert main(["snapshot", "info", "--snapshot", str(snapshot_dir)]) == 0
        out = capsys.readouterr().out
        assert "serving: k=10" in out
        assert "index: entries=" in out

    def test_recommend_from_snapshot_matches_rebuild(
            self, trace_dir, snapshot_dir, capsys):
        # The snapshot was fitted for every source user, so serving any
        # of them needs no pipeline rebuild.
        assert main(["recommend", "--snapshot", str(snapshot_dir),
                     "--user", "o00000", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "recommendations for o00000" in out
        assert out.count("predicted") == 3

    def test_recommend_from_snapshot_unknown_user(self, snapshot_dir, capsys):
        assert main(["recommend", "--snapshot", str(snapshot_dir),
                     "--user", "nobody"]) == 2
        assert "unknown user" in capsys.readouterr().err

    def test_recommend_from_snapshot_rejects_pipeline_flags(self, snapshot_dir, capsys):
        # The snapshot's system/k/seed are frozen at save time; an
        # explicit override must fail loudly, not be silently ignored.
        assert main(["recommend", "--snapshot", str(snapshot_dir),
                     "--user", "o00000", "--system", "nx-ub"]) == 2
        assert "baked into a snapshot" in capsys.readouterr().err
        assert main(["recommend", "--snapshot", str(snapshot_dir),
                     "--user", "o00000", "--k", "20"]) == 2

    def test_serve_batch(self, trace_dir, snapshot_dir, capsys):
        assert main(["serve", "--snapshot", str(snapshot_dir),
                     "--user", "o00000", "--user", "o00001",
                     "--data", str(trace_dir), "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "batched top-2 for 2 users" in out
        assert "o00001:" in out

    def test_serve_unknown_user(self, snapshot_dir, capsys):
        assert main(["serve", "--snapshot", str(snapshot_dir), "--user", "nobody"]) == 2
        assert "unknown users" in capsys.readouterr().err


@pytest.fixture(scope="module")
def durable_store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("durable") / "store"
    table = RatingTable([
        Rating(f"u{k // 4}", f"i{k % 4}", float(1 + k % 5), timestep=k)
        for k in range(20)])
    durable = DurableSweep(directory, table, cf_k=5,
                           policy=CheckpointPolicy(max_batches=2))
    for round_ in range(3):
        durable.update([Rating(f"u{5 + round_}", f"i{7 + round_}",
                               3.0, timestep=100 + round_)])
    durable.close()
    return directory


class TestDurabilityCommands:
    def test_log_info(self, durable_store_dir, capsys):
        assert main(["log-info", "--store", str(durable_store_dir)]) == 0
        out = capsys.readouterr().out
        assert "write-ahead log at" in out
        assert "last_seq=3" in out
        assert "segment-" in out

    def test_log_info_on_wal_directory_directly(self, durable_store_dir, capsys):
        assert main(["log-info", "--store", str(durable_store_dir / "wal")]) == 0
        assert "write-ahead log at" in capsys.readouterr().out

    def test_log_info_missing_directory(self, tmp_path, capsys):
        assert main(["log-info", "--store", str(tmp_path / "nope")]) == 2
        assert "no write-ahead log" in capsys.readouterr().err

    def test_recover_reports_and_serves(self, durable_store_dir, capsys):
        assert main(["recover", "--store", str(durable_store_dir),
                     "--user", "u0", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovered durable store" in out
        assert "replayed" in out
        assert "u0:" in out
        assert out.count("predicted") == 2

    def test_recover_unknown_user(self, durable_store_dir, capsys):
        assert main(["recover", "--store", str(durable_store_dir),
                     "--user", "nobody"]) == 2
        assert "unknown users" in capsys.readouterr().err

    def test_recover_not_a_store(self, tmp_path, capsys):
        assert main(["recover", "--store", str(tmp_path)]) == 1
        assert "not a durable store" in capsys.readouterr().err


class TestBenchGateway:
    @pytest.mark.slow
    def test_bench_gateway_reports_levels(self, snapshot_dir, capsys):
        code = main(["bench-gateway", "--watch", str(snapshot_dir),
                     "--workers", "1", "--serial-requests", "10",
                     "--concurrency", "4", "--requests-per-client", "5",
                     "--rate", "0", "-n", "3"])
        assert code == 0
        report_out = capsys.readouterr().out
        import json as _json
        report = _json.loads(report_out)
        assert report["model_version"] == 1
        assert set(report["levels"]) == {"serial", "closed"}
        for level in report["levels"].values():
            assert level["errors"] == 0
            assert level["versions"] == [1]
            assert level["latency_ms"]["p999"] >= level["latency_ms"]["p50"]

    def test_bench_gateway_needs_a_model(self, tmp_path, capsys):
        assert main(["bench-gateway", "--watch", str(tmp_path)]) == 2
        assert "no loadable model" in capsys.readouterr().err
