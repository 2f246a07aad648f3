"""Resilience matrix: vanilla vs hardened resolver under outage + flood.

The tentpole question for the resilience layer (``server/health.py`` +
``server/overload.py``): when the *entire* authoritative backend of a
popular zone goes dark mid-NXDOMAIN-flood, how much benign service does
each resolver configuration retain?  The scenario combines the two
stressors the layer was built for:

- an **authoritative outage**: every target nameserver crashes for a
  window in the middle of the run (``netsim.faults.NodeOutage``), so
  fresh resolution of the benign names is impossible;
- an **NXDOMAIN flood**: the Table 2 NX abuser runs throughout,
  pressuring the resolver front end and the inter-server channel.

Benign clients query a bounded name pool ("WC_POOL"), the realistic
popular-names regime where caches -- and RFC 8767 serve-stale -- help.

The matrix cells:

- ``vanilla`` -- the seed resolver exactly: fixed 0.8 s timeout, EWMA
  SRTT, blind hold-down, unbounded pending table, no stale answers;
- ``hardened`` -- adaptive RTO (RFC 6298) + three-state circuit
  breakers + watermark admission control + per-request deadlines +
  serve-stale (pre-resolution fast path while breakers are open);
- ``hardened+dcc`` -- the hardened resolver with the DCC shim on top,
  so admission control sheds *suspected* clients first (the monitor
  convicts the NX abuser) instead of shedding blindly.

Reported per cell: the :mod:`repro.experiments.fault_matrix` metrics --
benign availability (overall and inside the fault window), benign
goodput before/during/after the outage, attacker goodput during the
outage, recovery time, and the resilience counters (breaker
transitions, stale answers, sheds, deadline expiries).

CLI: ``python -m repro resilience [--scale S] [--seed N] [--out F]``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import AttackScenario
from repro.experiments.fault_matrix import CellRun, FaultMatrix
from repro.netsim.faults import FaultSpec, NodeOutage
from repro.netsim.trace import MessageTrace
from repro.server.health import HealthConfig
from repro.server.overload import OverloadConfig, ShedPolicy
from repro.server.resolver import ResolverConfig
from repro.workloads.schedule import ClientSpec

CELLS = ("vanilla", "hardened", "hardened+dcc")

#: outage window in unscaled (paper-timeline) seconds
OUTAGE_START = 25.0
OUTAGE_END = 40.0
#: the NX flood starts here; the pre-fault goodput window starts later
#: to skip the attack-onset transient
ATTACK_START = 5.0
BASELINE_FROM = 10.0


def hardened_resolver_config() -> ResolverConfig:
    """The hardened cell: every mechanism of the resilience layer on.

    Time constants are *unscaled*: they are tied to RTTs and client
    patience (2 s request timeout), which the experiment drivers never
    scale -- only the fault schedule and run length compress.
    """
    return ResolverConfig(
        serve_stale_window=30.0,
        health=HealthConfig(
            mode="adaptive",
            base_timeout=0.8,
            failure_threshold=3,
            rto_min=0.1,
            # No point arming timers past the clients' own 2 s patience.
            rto_max=2.0,
            backoff_base=0.5,
            backoff_cap=3.0,
        ),
        overload=OverloadConfig(
            # Low enough that the outage's onset transient (before the
            # breakers trip) actually engages shedding.
            high_watermark=256,
            low_watermark=128,
            shed_policy=ShedPolicy.SERVFAIL,
            serve_stale=True,
            request_deadline=1.8,
        ),
    )


def matrix_clients(time_scale: float = 1.0) -> List[ClientSpec]:
    """Table 2 rates; benign clients span the whole run and draw from a
    bounded name pool so their names are cacheable (and stale-servable)."""
    specs = [
        ClientSpec("heavy", 0.0, 60.0, 600.0, "WC_POOL"),
        ClientSpec("medium", 0.0, 60.0, 350.0, "WC_POOL"),
        ClientSpec("light", 0.0, 60.0, 150.0, "WC_POOL"),
        ClientSpec("attacker", ATTACK_START, 60.0, 1100.0, "NX", is_attacker=True),
    ]
    return [spec.scaled(time_scale) for spec in specs]


def cell_overrides(cell: str) -> Dict[str, object]:
    return {
        "use_dcc": cell == "hardened+dcc",
        "resolver_config": None if cell == "vanilla" else hardened_resolver_config(),
    }


def outage_faults(scenario: AttackScenario, scale: float) -> List[FaultSpec]:
    """Total authoritative outage: *every* target server goes dark, so
    during the window there is no fresh path to the benign names."""
    start = OUTAGE_START * scale
    window = (OUTAGE_END - OUTAGE_START) * scale
    return [
        NodeOutage(address=addr, at=start, duration=window)
        for addr in scenario.target_ans_addrs
    ]


def verdict(runs: Dict[str, CellRun]) -> Tuple[bool, str]:
    hardened, vanilla = runs["hardened"], runs["vanilla"]
    holds = hardened.fault_goodput > vanilla.fault_goodput
    text = (
        "hardened retains benign service through the outage "
        "(stale answers + breakers + shedding)"
        if holds
        else "WARNING: hardened did not beat vanilla during the outage"
    )
    return holds, (
        f"{text}: {round(hardened.fault_goodput)} vs "
        f"{round(vanilla.fault_goodput)} benign QPS while every "
        "authoritative server was down."
    )


MATRIX = FaultMatrix(
    experiment="resilience",
    title="Resilience matrix: total authoritative outage + NX flood",
    fault_note="every target nameserver dark, NX flood throughout",
    cells=CELLS,
    configure=cell_overrides,
    clients=matrix_clients,
    faults=outage_faults,
    fault_window=(OUTAGE_START, OUTAGE_END),
    baseline_from=BASELINE_FROM,
    verdict=verdict,
)

#: one cell, built and fault-scheduled but not yet run
build_cell = MATRIX.build


def cell_digest(cell: str, scale: float = 0.05, seed: int = 42) -> str:
    """SHA-256 over one cell's full delivered-message trace.

    The acceptance gate for the experiment: two fresh runs with the
    same seed must hash identically (the selfcheck property extended to
    the resilience layer's code surface -- breaker jitter, stale paths,
    shedding decisions all feed the trace).
    """
    scenario = build_cell(cell, scale, seed)
    trace = MessageTrace(scenario.net, max_records=1_000_000)
    return trace.digest(scenario.run().events_processed)
