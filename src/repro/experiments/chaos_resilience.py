"""Chaos resilience: DCC operating *through* infrastructure faults.

The paper's evaluation (Figures 8/9) assumes the resolution
infrastructure stays healthy while adversarial congestion rages.  This
experiment drops that assumption: mid-attack, the primary target
authoritative server crashes and the path to its surviving replica
degrades (a loss/latency ramp), then everything heals.  The fault
schedule is run twice -- vanilla resolver vs DCC-enabled resolver --
under an identical virtual-time fault plan (the metrics are those of
:mod:`repro.experiments.fault_matrix`).

The interesting question is whether DCC helps or hurts when capacity
halves under it: fair queuing should keep dividing the *remaining*
capacity evenly instead of letting the attacker starve benign clients
harder, so DCC-on benign goodput should dominate DCC-off throughout.

Unlike Table 2, every benign client runs for the whole measurement
window so the pre/during/post goodput windows are directly comparable.
The attacker is the NX abuser at paper rate.

CLI: ``python -m repro chaos-matrix [--scale S] [--seed N] [--out F]``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import AttackScenario
from repro.experiments.fault_matrix import CellRun, FaultMatrix
from repro.netsim.faults import FaultSpec, LinkDegradation, NodeOutage
from repro.workloads.schedule import ClientSpec

#: the benign client names (both fault matrices use Table 2's three)
BENIGN_CLIENTS = ("heavy", "medium", "light")

#: fault window in unscaled (paper-timeline) seconds: the primary target
#: nameserver is down for the first CRASH_FRACTION of it, and the links
#: from the resolvers to the surviving replicas carry an added
#: loss/latency impairment that ramps up over the first RAMP_FRACTION
FAULT_START = 25.0
FAULT_END = 45.0
CRASH_FRACTION = 0.75
LOSS = 0.35
LATENCY = 0.020
RAMP_FRACTION = 0.25


def chaos_clients(time_scale: float = 1.0) -> List[ClientSpec]:
    """Table 2 rates, but benign clients span the whole run so goodput
    windows before/during/after the fault are comparable."""
    specs = [
        ClientSpec("heavy", 0.0, 60.0, 600.0, "WC"),
        ClientSpec("medium", 0.0, 60.0, 350.0, "WC"),
        ClientSpec("light", 0.0, 60.0, 150.0, "WC"),
        ClientSpec("attacker", 10.0, 60.0, 1100.0, "NX", is_attacker=True),
    ]
    return [spec.scaled(time_scale) for spec in specs]


def chaos_faults(scenario: AttackScenario, scale: float) -> List[FaultSpec]:
    start, end = FAULT_START * scale, FAULT_END * scale
    window = end - start
    primary, *replicas = scenario.target_ans_addrs
    return [
        NodeOutage(address=primary, at=start, duration=window * CRASH_FRACTION),
        LinkDegradation(
            src=[r.address for r in scenario.resolvers],
            dst=replicas,
            start=start,
            end=end,
            loss=LOSS,
            latency=LATENCY * scale,
            ramp=window * RAMP_FRACTION,
        ),
    ]


def verdict(runs: Dict[str, CellRun]) -> Tuple[bool, str]:
    dcc, vanilla = runs["dcc"], runs["vanilla"]
    holds = dcc.fault_goodput >= vanilla.fault_goodput
    text = (
        "DCC sustains benign goodput through the fault"
        if holds
        else "WARNING: DCC underperformed vanilla during the fault"
    )
    return holds, (
        f"{text}: {round(dcc.fault_goodput)} vs {round(vanilla.fault_goodput)} "
        "QPS while capacity was degraded."
    )


MATRIX = FaultMatrix(
    experiment="chaos",
    title="Chaos resilience: primary-ANS crash + loss ramp during an NX attack",
    fault_note="primary target nameserver crashed, loss/latency ramp to its replica",
    cells=("vanilla", "dcc"),
    configure=lambda cell: {"use_dcc": cell == "dcc"},
    clients=chaos_clients,
    faults=chaos_faults,
    fault_window=(FAULT_START, FAULT_END),
    # the attack starts at 10 s; [15 s, fault) skips its onset transient
    baseline_from=15.0,
    verdict=verdict,
)
