"""End-to-end tests for the ``store``/``compress``/``serve`` CLI subcommands."""

import pytest

from repro.cli import main
from repro.compression import CompressedSceneStore, load_store
from repro.serving import SceneStore

#: Small-scene arguments shared by every CLI invocation to keep tests fast.
SMALL = [
    "--scenes", "3", "--gaussians", "80", "--width", "32", "--height", "24",
    "--cameras", "2",
]


class TestStoreCommand:
    def test_build_prints_summary(self, capsys):
        assert main(["store", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "scene-0" in out and "scene-2" in out
        assert "total: 3 scenes" in out

    def test_build_save_and_inspect_roundtrip(self, tmp_path, capsys):
        archive = tmp_path / "fleet.npz"
        assert main(["store", *SMALL, "--output", str(archive)]) == 0
        assert archive.exists()
        store = SceneStore.load(archive)
        assert len(store) == 3 and store.num_cameras == 6
        capsys.readouterr()

        assert main(["store", "--info", str(archive)]) == 0
        out = capsys.readouterr().out
        assert f"archive: {archive}" in out
        assert "total: 3 scenes" in out


class TestCompressCommand:
    def test_build_prints_levels_and_ratio(self, capsys):
        assert main(["compress", *SMALL, "--codec", "fp16"]) == 0
        out = capsys.readouterr().out
        assert "Levels (Gaussians)" in out
        assert "cloud compression" in out and "4.0x" in out

    def test_compress_archive_roundtrip(self, tmp_path, capsys):
        plain = tmp_path / "fleet.npz"
        compressed = tmp_path / "fleet-q.npz"
        assert main(["store", *SMALL, "--output", str(plain)]) == 0
        capsys.readouterr()
        assert main([
            "compress", "--store", str(plain), "--codec", "int8",
            "--levels", "2", "--keep", "0.5", "--output", str(compressed),
        ]) == 0
        out = capsys.readouterr().out
        assert "compressed store written to" in out
        store = CompressedSceneStore.load(compressed)
        assert store.codec == "int8"
        assert store.num_levels(0) == 2
        assert len(store) == 3

        assert main(["compress", "--info", str(compressed)]) == 0
        out = capsys.readouterr().out
        assert "int8" in out and "total: 3 scenes" in out

    def test_quality_report(self, capsys):
        assert main(["compress", *SMALL, "--codec", "fp64", "--quality"]) == 0
        out = capsys.readouterr().out
        assert "Min PSNR (dB)" in out
        assert "inf" in out  # the lossless tier's level 0 is exact


class TestServeCommand:
    def test_single_worker_serve(self, capsys):
        assert main(["serve", *SMALL, "--requests", "12", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "served 12 requests" in out
        assert "traffic=uniform, seed=4" in out
        assert "workers=1" in out
        assert "p95" in out and "frame cache" in out
        assert "shard" not in out

    def test_serve_from_archive(self, tmp_path, capsys):
        archive = tmp_path / "fleet.npz"
        assert main(["store", *SMALL, "--output", str(archive)]) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--store", str(archive), "--requests", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 8 requests" in out
        assert "over 3 scenes" in out

    @pytest.mark.parametrize("traffic", ["zipf", "hotspot"])
    def test_sharded_serve_with_skewed_traffic(self, capsys, traffic):
        assert main([
            "serve", *SMALL, "--requests", "15", "--workers", "2",
            "--traffic", traffic, "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert f"traffic={traffic}" in out
        assert "workers=2" in out
        assert "served 15 requests" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert "fleet critical path" in out
        assert "utilization" in out

    def test_seed_replays_the_same_trace(self, capsys):
        # Deterministic replay: the same seed routes the same requests to
        # the same shards; a different seed routes differently (with a
        # zipf-skewed 40-request stream the per-shard split is stable).
        args = ["serve", *SMALL, "--requests", "40", "--workers", "2",
                "--traffic", "zipf"]

        def shard_lines(seed):
            assert main([*args, "--seed", str(seed)]) == 0
            out = capsys.readouterr().out
            return [
                line.split("busy")[0]  # drop timing, keep routing counts
                for line in out.splitlines() if "shard" in line
            ]

        assert shard_lines(7) == shard_lines(7)
        assert shard_lines(7) != shard_lines(8)

    def test_naive_and_hardware_with_workers(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "10", "--workers", "2",
            "--naive", "--hardware",
        ]) == 0
        out = capsys.readouterr().out
        assert "naive per-request loop" in out
        assert "hardware model:" in out

    def test_workers_must_be_positive(self, capsys):
        assert main(["serve", *SMALL, "--workers", "0"]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_serve_with_lod(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "10", "--lod",
            "--codec", "fp16", "--lod-levels", "3", "--lod-keep", "0.6",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 10 requests" in out
        assert "detail levels served (footprint policy):" in out
        assert "store compression" in out and "fp16" in out

    def test_serve_lod_from_compressed_archive_with_hardware(
        self, tmp_path, capsys
    ):
        archive = tmp_path / "q.npz"
        assert main([
            "compress", *SMALL, "--codec", "fp16", "--output", str(archive),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--store", str(archive), "--requests", "8", "--lod",
            "--hardware",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 8 requests" in out
        assert "detail levels served" in out
        assert "hardware model:" in out

    def test_serve_lod_sharded(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "12", "--lod", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard 0:" in out and "detail levels served" in out


class TestServeChaosFlags:
    def test_replicate_hot_and_kill_at(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "24", "--workers", "2",
            "--traffic", "hotspot", "--seed", "1",
            "--replicate-hot", "2", "--kill-at", "10:1",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 24 requests" in out
        assert "fault accounting:" in out
        assert "killed [1]" in out
        assert "kill on shard 1" in out
        # dispatched = completed + requeued is printed straight from the
        # report, whose counters reconcile by construction.
        assert "dispatched = 24 completed" in out

    def test_replicate_hot_without_kills(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "30", "--workers", "2",
            "--traffic", "hotspot", "--seed", "1", "--replicate-hot", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 30 requests" in out
        assert "killed" not in out

    def test_rebalance_flag_is_not_accepted(self, capsys):
        # Shard scene sets are fixed at spawn; there is no live rebalancer.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", *SMALL, "--requests", "6", "--workers", "2",
                "--rebalance",
            ])
        assert exit_info.value.code == 2
        assert "--rebalance" in capsys.readouterr().err

    def test_chaos_flags_need_workers(self, capsys):
        for flags in (["--replicate-hot", "2"], ["--kill-at", "5:0"]):
            assert main(["serve", *SMALL, "--requests", "6", *flags]) == 2
            err = capsys.readouterr().err
            assert "need --workers > 1" in err

    def test_kill_at_rejects_bad_specs(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "6", "--workers", "2",
            "--kill-at", "oops",
        ]) == 2
        assert "expected POS:WORKER" in capsys.readouterr().err
        assert main([
            "serve", *SMALL, "--requests", "6", "--workers", "2",
            "--kill-at", "3:9",
        ]) == 2
        assert "only 2" in capsys.readouterr().err

    def test_kill_at_is_incompatible_with_async(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "6", "--workers", "2",
            "--async", "--kill-at", "3:1",
        ]) == 2
        assert "--async" in capsys.readouterr().err


class TestServeAsyncGateway:
    def test_async_serve_reports_gateway_counters(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "14", "--traffic", "hotspot",
            "--seed", "3", "--async", "--queue-depth", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "async gateway" in out
        assert "gateway: 14/14 requests completed" in out
        assert "coalesce rate" in out
        assert "queue depth p50" in out
        assert "policy block" in out
        assert "served 14 requests" in out

    def test_async_overload_policy_sheds(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "20", "--traffic", "uniform",
            "--async", "--queue-depth", "1", "--overload-policy",
            "shed-oldest",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy shed-oldest" in out
        assert " shed, " in out

    def test_async_seed_replay_is_deterministic(self, capsys):
        # `serve --seed --async` replays the exact stream: the gateway's
        # coalesce accounting (a pure function of the stream under a burst)
        # comes out identical run over run.
        args = ["serve", *SMALL, "--requests", "30", "--traffic", "hotspot",
                "--async", "--seed", "9"]

        def gateway_line():
            assert main(args) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith("gateway:")
            ]

        assert gateway_line() == gateway_line()

    def test_async_with_workers_and_hardware(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "10", "--workers", "2",
            "--async", "--hardware",
        ]) == 0
        out = capsys.readouterr().out
        assert "gateway: 10/10 requests completed" in out
        assert "hardware model:" in out
        # The per-shard breakdown belongs to the direct fleet serve only.
        assert "shard 0:" not in out


class TestLintCommand:
    """Exit-code contract of ``repro lint``: 0 clean, 1 findings, 2 error."""

    FIXTURES = "tests/fixtures/analysis"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro/analysis"]) == 0
        out = capsys.readouterr().out
        assert "repro lint: clean" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", f"{self.FIXTURES}/bad_determinism.py"]) == 1
        out = capsys.readouterr().out
        assert "determinism:" in out
        assert "finding(s)" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "does/not/exist.py"]) == 2

    def test_unknown_rule_exits_two(self, capsys):
        assert main([
            "lint", "src/repro/analysis", "--rules", "bogus-rule",
        ]) == 2

    def test_json_format(self, capsys):
        import json

        assert main([
            "lint", f"{self.FIXTURES}/bad_repr.py", "--format", "json",
        ]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["summary"]["clean"] is False
        assert all(
            entry["rule"] == "repr-hygiene" for entry in report["findings"]
        )

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "determinism", "async-blocking", "async-state", "repr-hygiene",
        ):
            assert f"{rule_id}:" in out
        assert "cache-key" not in out

    def test_rule_subset_runs_only_that_rule(self, capsys):
        assert main([
            "lint", f"{self.FIXTURES}/bad_determinism.py",
            "--rules", "repr-hygiene",
        ]) == 0

    def test_baseline_grandfathers_findings(self, tmp_path, capsys):
        from repro.analysis import Baseline, lint_paths

        bad = f"{self.FIXTURES}/bad_determinism.py"
        findings, _ = lint_paths([bad])
        baseline = tmp_path / "baseline.json"
        Baseline(
            fingerprints={finding.fingerprint for finding in findings}
        ).save(baseline)
        assert main(["lint", bad, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out


class TestStorageFlags:
    """CLI surface of the storage tiers: store --shared/--paged, serve --storage."""

    def test_store_reports_capacity_and_payload(self, capsys):
        assert main(["store", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "KiB allocated for" in out and "KiB payload" in out

    def test_store_paged_write_and_inspect(self, tmp_path, capsys):
        archive = tmp_path / "paged-store"
        assert main([
            "store", *SMALL, "--paged", "--output", str(archive),
        ]) == 0
        out = capsys.readouterr().out
        assert "paged store written to" in out
        assert (archive / "manifest.json").exists()

        assert main([
            "store", "--info", str(archive), "--memory-budget", "65536",
        ]) == 0
        out = capsys.readouterr().out
        assert "paged tier:" in out and "budget 64.0 KiB" in out
        assert "total: 3 scenes" in out

    def test_store_from_archive_source(self, tmp_path, capsys):
        flat = tmp_path / "flat.npz"
        assert main(["store", *SMALL, "--output", str(flat)]) == 0
        capsys.readouterr()
        paged = tmp_path / "paged"
        assert main([
            "store", "--from", str(flat), "--paged", "--output", str(paged),
        ]) == 0
        out = capsys.readouterr().out
        assert f"source: {flat}" in out
        assert "paged store written to" in out
        loaded = load_store(paged)
        assert len(loaded) == 3

    def test_store_shared_reports_segment(self, capsys):
        assert main(["store", *SMALL, "--shared"]) == 0
        out = capsys.readouterr().out
        assert "shared segment: repro-shm-" in out
        assert "unlinked on exit" in out

    def test_serve_with_paged_storage_and_tiny_budget(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "12", "--storage", "paged",
            "--memory-budget", "32768",
        ]) == 0
        out = capsys.readouterr().out
        assert "storage=paged" in out
        assert "served 12 requests" in out
        assert "paged tier:" in out

    def test_serve_with_shared_storage_and_workers(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "12", "--workers", "2",
            "--storage", "shared",
        ]) == 0
        out = capsys.readouterr().out
        assert "storage=shared" in out
        assert "served 12 requests" in out

    def test_serve_shared_rejects_lod(self, capsys):
        assert main([
            "serve", *SMALL, "--requests", "4", "--lod",
            "--storage", "shared",
        ]) == 2
        err = capsys.readouterr().err
        assert "paged" in err
