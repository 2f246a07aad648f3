"""Chaos-resilience experiment tests.

Covers the three acceptance properties: determinism of a full chaos run,
DCC-on benign service dominating DCC-off under the identical fault
schedule, and a DCC-protected resolver losing its monitor/conviction
state on crash and demonstrably re-convicting the attacker afterwards.
"""

import pytest

from repro.dcc.monitor import AnomalyKind, ClientVerdict, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.experiments.chaos_resilience import MATRIX
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.netsim.faults import NodeOutage
from repro.workloads.schedule import ClientSpec

SCALE = 0.1


class TestChaosExperiment:
    def test_run_is_deterministic(self):
        a = MATRIX.run_cell("dcc", scale=SCALE, seed=7)
        b = MATRIX.run_cell("dcc", scale=SCALE, seed=7)
        assert a.metrics() == b.metrics()
        assert a.goodput_series == b.goodput_series
        assert a.timeline == b.timeline

    def test_fault_schedule_executes(self):
        run = MATRIX.run_cell("vanilla", scale=SCALE, seed=42)
        assert run.fault_stats.crashes == 1
        assert run.fault_stats.recoveries == 1
        assert run.fault_stats.degraded_messages > 0
        assert "crash" in run.timeline and "recover" in run.timeline

    def test_goodput_dips_during_fault(self):
        run = MATRIX.run_cell("vanilla", scale=SCALE, seed=42)
        assert run.fault_goodput < run.baseline_goodput

    def test_dcc_dominates_vanilla_under_identical_faults(self):
        runs = MATRIX.run(scale=0.15, seed=42)
        dcc, vanilla = runs["dcc"], runs["vanilla"]
        # Both cells saw the exact same fault schedule...
        assert dcc.timeline == vanilla.timeline
        # ...and DCC kept benign clients better served throughout.
        assert dcc.fault_goodput >= vanilla.fault_goodput
        assert dcc.availability >= vanilla.availability

    def test_report_renders(self):
        runs = MATRIX.run(scale=SCALE, seed=42)
        report = MATRIX.render(runs, scale=SCALE, seed=42)
        assert "recovery" in report
        assert "avail(fault)" in report


class TestReconvictionAfterCrash:
    def test_resolver_crash_loses_convictions_and_redetects(self):
        # Fast monitor so conviction happens well before the crash.
        config = ScenarioConfig(
            seed=11,
            duration=12.0,
            channel_capacity=500.0,
            use_dcc=True,
            monitor=MonitorConfig(
                window=0.25,
                alarm_threshold=3,
                suspicion_period=60.0,
                nxdomain_ratio_threshold=0.2,
            ),
            # Long policy: without the crash it would outlive the run, so
            # any post-crash re-conviction is the fresh monitor's doing.
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(
                    PolicyKind.RATE_LIMIT, duration=30.0, rate=50.0
                )
            },
        )
        scenario = AttackScenario(config)
        scenario.add_clients(
            [
                ClientSpec("benign", 0.0, 12.0, 100.0, "WC"),
                ClientSpec("attacker", 1.0, 12.0, 400.0, "NX", is_attacker=True),
            ]
        )
        shim = scenario.shims[0]
        resolver = scenario.resolvers[0]
        attacker_addr = scenario._client_addr["attacker"]

        # Crash the DCC-protected resolver mid-attack for one second.
        scenario.injector.add_node_outage(
            NodeOutage(address=resolver.address, at=6.0, duration=1.0)
        )

        snapshots = {}

        def snapshot(tag):
            snapshots[tag] = {
                "monitor": shim.monitor,
                "verdict": shim.monitor.verdict(attacker_addr),
            }

        scenario.sim.schedule_at(5.9, snapshot, "pre_crash")
        for client in scenario.clients.values():
            client.start()
        scenario.sim.run(until=12.0)
        snapshot("end")

        # Convicted before the crash...
        assert snapshots["pre_crash"]["verdict"] == ClientVerdict.CONVICTED
        # ...the crash replaced the monitor wholesale (state loss)...
        assert shim.stats.host_crashes == 1
        assert snapshots["end"]["monitor"] is not snapshots["pre_crash"]["monitor"]
        # ...and the fresh monitor re-detected the ongoing abuse.
        assert snapshots["end"]["verdict"] == ClientVerdict.CONVICTED

    def test_operator_capacities_survive_crash(self):
        config = ScenarioConfig(
            seed=3, duration=4.0, channel_capacity=800.0, use_dcc=True
        )
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("benign", 0.0, 4.0, 50.0, "WC")])
        shim = scenario.shims[0]
        resolver = scenario.resolvers[0]
        target = scenario.target_ans_addrs[0]

        scenario.injector.add_node_outage(
            NodeOutage(address=resolver.address, at=1.0, duration=0.5)
        )
        for client in scenario.clients.values():
            client.start()
        scenario.sim.run(until=4.0)

        # Config-file state (operator-pinned channel capacity) was
        # re-applied on restart; learned capacities were dropped.
        assert shim.stats.host_crashes == 1
        bucket = shim.scheduler.channel_bucket(target)
        assert bucket.rate == pytest.approx(800.0)
        assert shim.learned_capacities == {}
