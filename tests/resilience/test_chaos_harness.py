"""Chaos acceptance: faulted campaigns converge byte-identically.

These drive :func:`run_campaign_chaos` end to end — the same scenario
``python -m repro chaos`` runs, scaled down for test time.
"""

from repro.resilience.chaos import (
    ChaosPlan,
    claim_event,
    run_campaign_chaos,
)


class TestChaosPlan:
    def test_events_claimed_exactly_once(self, tmp_path):
        plan = ChaosPlan(tmp_path, kills=1, raises=2)
        assert plan.pending() == 3
        kinds = [claim_event(str(tmp_path)) for _ in range(5)]
        assert sorted(k for k in kinds if k) == ["kill", "raise", "raise"]
        assert plan.pending() == 0 and plan.fired() == 3


class TestAcceptanceScenarios:
    def test_kill_plus_corrupt_campaign_converges(self):
        report = run_campaign_chaos(
            "scan", samples=40, parallel=2, kills=1, corrupt=1, seed=1)
        assert report.matched, "chaotic campaign diverged from serial"
        assert report.classifications == 40
        assert report.events_pending == 0
        assert report.events_fired == 1
        assert report.counters["fanout_worker_deaths"] >= 1
        assert report.counters["cache_corrupt_entries"] == 1
        assert report.counters["cache_quarantined"] == 1
        assert len(report.corrupted_entries) == 1

    def test_raise_plus_bitflip_campaign_converges(self):
        report = run_campaign_chaos(
            "scan", samples=25, parallel=2, kills=0, raises=1,
            corrupt=1, corrupt_mode="bitflip", seed=2)
        assert report.matched
        assert report.counters["fanout_retries"] >= 1
        assert report.counters["cache_corrupt_entries"] == 1

    def test_sleep_past_deadline_campaign_converges(self):
        report = run_campaign_chaos(
            "scan", samples=20, parallel=2, kills=0, corrupt=0,
            sleeps=1, task_deadline=1.0, seed=3)
        assert report.matched
        assert report.events_pending == 0
        assert report.counters["fanout_timeouts"] == 1

    def test_report_payload_round_trips(self):
        report = run_campaign_chaos(
            "scan", samples=10, parallel=2, kills=0, raises=1,
            corrupt=0, seed=4)
        payload = report.to_payload()
        assert payload["matched"] is True
        assert payload["classifications"] == 10
        assert "fanout_retries" in payload["counters"]
        assert "counters" in payload["snapshot"]
