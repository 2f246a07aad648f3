"""Acceptance tests for the resilience-matrix experiment."""

import pytest

from repro.analysis.report import render_resilience_table, resilience_counters
from repro.experiments import resilience_matrix as rm
from repro.server.forwarder import ForwarderStats
from repro.server.resolver import ResolverStats


class TestHardenedBeatsVanilla:
    """The ISSUE's acceptance gate: under a total authoritative outage
    plus an NX flood, the hardened resolver retains strictly more benign
    goodput than the vanilla one (asserted with a tolerance margin)."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            cell: rm.MATRIX.run_cell(cell, scale=0.1, seed=42)
            for cell in ("vanilla", "hardened")
        }

    def test_fault_window_goodput(self, cells):
        vanilla, hardened = cells["vanilla"], cells["hardened"]
        assert hardened.fault_goodput > vanilla.fault_goodput * 1.25
        assert hardened.fault_availability > vanilla.fault_availability

    def test_overall_availability(self, cells):
        assert cells["hardened"].availability > cells["vanilla"].availability

    def test_resilience_mechanisms_actually_fired(self, cells):
        counters = cells["hardened"].resilience_counters
        assert counters["stale_fastpath_responses"] > 0
        assert counters["breaker_opens"] > 0
        assert counters["shed_requests"] > 0
        assert counters["deadline_exhausted"] > 0
        # ...and none of them fired in the vanilla cell (stale/shed/
        # deadline machinery does not exist there).
        vanilla = cells["vanilla"].resilience_counters
        assert vanilla["stale_fastpath_responses"] == 0
        assert vanilla["shed_requests"] == 0
        assert vanilla["deadline_exhausted"] == 0

    def test_vanilla_cell_matches_seed_resolver(self, cells):
        """The vanilla cell must really be the seed resolver: legacy
        hold-downs engaged, no adaptive machinery configured."""
        stats = cells["vanilla"].result.resolver_stats[0]
        assert stats.server_backoffs > 0
        assert stats.breaker_half_opens == 0  # legacy has no probe stage


class TestDeterminism:
    def test_double_run_digest_identical(self):
        first = rm.cell_digest("hardened", scale=0.05, seed=7)
        second = rm.cell_digest("hardened", scale=0.05, seed=7)
        assert first == second

    def test_seed_changes_digest(self):
        a = rm.cell_digest("hardened", scale=0.05, seed=7)
        b = rm.cell_digest("hardened", scale=0.05, seed=8)
        assert a != b


class TestReportHelpers:
    def test_counters_extracted_from_resolver_stats(self):
        stats = ResolverStats()
        stats.shed_requests = 3
        stats.breaker_opens = 2
        counters = resilience_counters(stats)
        assert counters["shed_requests"] == 3
        assert counters["breaker_opens"] == 2
        assert "stale_fastpath_responses" in counters

    def test_table_unions_mixed_stats_blocks(self):
        resolver, forwarder = ResolverStats(), ForwarderStats()
        resolver.shed_requests = 5
        forwarder.stale_responses = 1
        table = render_resilience_table(
            {"resolver": resolver, "forwarder": forwarder}
        )
        assert "shed_requests" in table
        assert "stale_responses" in table
        # ForwarderStats has no shedding counter: rendered as a dash.
        assert "-" in table.splitlines()[-1]


class TestPlumbing:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            rm.MATRIX.scenario_config("bogus", scale=0.1, seed=1)

    def test_clients_scale_with_timeline(self):
        specs = {s.name: s for s in rm.matrix_clients(time_scale=0.5)}
        assert specs["attacker"].start == pytest.approx(rm.ATTACK_START * 0.5)
        assert specs["heavy"].stop == pytest.approx(30.0)
        assert specs["heavy"].rate == 600.0  # rates stay at paper values

    def test_report_renders(self):
        runs = {
            cell: rm.MATRIX.run_cell(cell, scale=0.05, seed=3)
            for cell in rm.CELLS
        }
        report = rm.MATRIX.render(runs, scale=0.05, seed=3)
        assert "Resilience matrix" in report
        for cell in rm.CELLS:
            assert cell in report
