"""CLI tests (``python -m repro``)."""

import pytest

from repro.__main__ import main
from repro.workloads import PAPER_ORDER


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("bfs", "matrixmul", "cufft"):
            assert name in out


class TestRun:
    def test_run_with_dmr(self, capsys):
        assert main(["run", "scan", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "coverage" in out

    def test_run_baseline(self, capsys):
        assert main(["run", "scan", "--scale", "0.25", "--no-dmr"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "coverage" not in out

    def test_run_mapping_and_replayq_flags(self, capsys):
        assert main([
            "run", "scan", "--scale", "0.25",
            "--mapping", "inorder", "--replayq", "0",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_prints_the_engine_mix(self, capsys):
        """Two identical runs in one process: the second replays the
        first's recorded control flow, and says so."""
        for _ in range(2):
            assert main(["run", "nqueen", "--scale", "0.25"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("engine issues")]
        assert len(lines) == 2
        assert "replayed=0" not in lines[1]
        assert "vector=0 scalar=0" in lines[1]

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "doom"])


class TestFigure:
    def test_figure5(self, capsys, tmp_path):
        assert main(["figure", "fig5", "--scale", "0.25",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2


class TestFigureCacheAndJobs:
    def test_no_cache_runs_without_disk(self, capsys, tmp_path):
        assert main(["figure", "fig5", "--scale", "0.25", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        assert "cache:" in captured.err
        assert "disk-" not in captured.err  # persistent layer disabled
        assert not list(tmp_path.glob("*.pkl"))

    def test_jobs_flag_matches_serial_output(self, capsys, tmp_path):
        assert main(["figure", "fig5", "--scale", "0.25", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["figure", "fig5", "--scale", "0.25", "--no-cache",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_warm_cache_second_invocation(self, capsys, tmp_path):
        """Acceptance: a warm cache means zero new simulations and a
        table identical to the cold run's."""
        args = ["figure", "fig9b", "--scale", "0.25",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "simulations=0" not in cold.err

        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "simulations=0" in warm.err
        # baseline + four ReplayQ sizes per workload, all from disk
        expected_hits = 5 * len(PAPER_ORDER)
        assert f"disk-hits={expected_hits}" in warm.err


class TestTrace:
    def test_writes_loadable_chrome_trace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "scan", "--scale", "0.25",
                     "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "trace events" in captured.out
        assert str(out_path) in captured.err

        trace = json.loads(out_path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert {"M", "X"} <= phases
        assert trace["otherData"]["workload"] == "scan"
        assert trace["otherData"]["dropped_events"] == 0

    def test_matmul_alias_resolves(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "matmul", "--scale", "0.25",
                     "--out", str(out_path)]) == 0
        import json

        trace = json.loads(out_path.read_text(encoding="utf-8"))
        assert trace["otherData"]["workload"] == "matrixmul"

    def test_event_cap_reported(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "scan", "--scale", "0.25",
                     "--max-events", "10", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "cap 10" in out
        assert "dropped 0" not in out


class TestMetrics:
    def test_single_workload_snapshot(self, capsys):
        assert main(["metrics", "scan", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "Counters: scan" in out
        assert "dmr_pair_intra" in out
        assert "warp_occupancy" in out
        assert "replayq_depth" in out

    def test_no_dmr_drops_pairing_counters(self, capsys):
        assert main(["metrics", "scan", "--scale", "0.25",
                     "--no-dmr"]) == 0
        out = capsys.readouterr().out
        assert "dmr_pair_intra" not in out
        assert "warp_occupancy" in out


class TestFigure9bStalls:
    def test_stall_attribution_table(self, capsys):
        assert main(["figure", "fig9b-stalls", "--scale", "0.25",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        for cause in ("raw", "replay", "bank", "flush"):
            assert cause in out
        assert "inf" in out  # the unbounded-queue column


class TestInject:
    def test_stuck_at_injection(self, capsys):
        assert main([
            "inject", "scan", "--scale", "0.25", "--lane", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "StuckAtFault" in out
        assert "recovery plan" in out

    def test_transient_injection(self, capsys):
        assert main([
            "inject", "scan", "--scale", "0.25", "--lane", "3",
            "--transient-cycle", "40",
        ]) == 0
        assert "TransientFault" in capsys.readouterr().out
