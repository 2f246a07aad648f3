"""One runner for defense-cell x fault-schedule grids.

The paper evaluates DCC as a grid of attack x defense cells (Table 2,
Figure 8).  The fault-tolerance experiments add a third axis: an
infrastructure fault schedule replayed, in virtual time, identically
in every cell.  A :class:`FaultMatrix` is the declarative part -- the
clients, the cells, the fault list, the baseline window and the verdict
-- and this module owns everything else: building each cell, running
it, deriving the per-cell metrics, rendering the report and the CLI
entry point.  ``chaos_resilience`` (``repro chaos-matrix``) and
``resilience_matrix`` (``repro resilience``) each define one matrix.

Reported per cell:

- **availability** -- fraction of benign requests answered successfully,
  overall and during the fault window;
- **benign goodput** -- summed effective QPS of the benign clients,
  averaged over the pre-fault / fault / post-fault windows, plus the
  attacker's goodput during the fault;
- **recovery time** -- seconds from the fault clearing until smoothed
  benign goodput regains 95% of its pre-fault baseline;
- the resilience-layer counters of the first resolver.

Every cell runs the Table 2 timeline (60 s, compressed by ``scale``;
rates stay at paper values) against two target nameservers behind a
1000 QPS channel, with the paper's monitor and policy templates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.provenance import provenance_header, write_output
from repro.analysis.report import (
    render_resilience_table,
    render_table,
    resilience_counters,
    sparkline,
)
from repro.experiments.common import AttackScenario, ScenarioConfig, ScenarioResult
from repro.experiments.fig8_resilience import (
    paper_monitor_config,
    paper_policy_templates,
)
from repro.netsim.faults import FaultSpec, FaultStats, schedule_to_dicts
from repro.workloads.schedule import ClientSpec

#: unscaled run length (the Table 2 timeline)
DURATION = 60.0

#: goodput must regain this fraction of the pre-fault baseline to count
#: as recovered
RECOVERY_THRESHOLD = 0.95

#: the CellRun fields that CellRun.metrics() reports
HEADLINE_METRICS = (
    "availability", "fault_availability", "baseline_goodput", "fault_goodput",
    "post_goodput", "attacker_fault_goodput", "recovery_time",
)


@dataclass
class CellRun:
    """One matrix cell plus its derived metrics."""

    cell: str
    config: ScenarioConfig
    faults: List[FaultSpec]
    result: ScenarioResult
    availability: float
    fault_availability: float
    baseline_goodput: float
    fault_goodput: float
    post_goodput: float
    attacker_fault_goodput: float
    recovery_time: Optional[float]
    goodput_series: List[float]
    attacker_series: List[float]
    resilience_counters: Dict[str, int]
    fault_stats: FaultStats
    timeline: str

    def metrics(self) -> Dict[str, object]:
        """The headline numbers (used by the determinism tests)."""
        out: Dict[str, object] = {name: getattr(self, name) for name in HEADLINE_METRICS}
        out.update(crashes=self.fault_stats.crashes, recoveries=self.fault_stats.recoveries)
        out.update(self.resilience_counters)
        return out


@dataclass(frozen=True)
class FaultMatrix:
    """A grid of resolver configurations under one fault schedule."""

    #: provenance name of the recorded output
    experiment: str
    #: report heading (scale and seed are appended)
    title: str
    #: what the fault window holds, for the report
    fault_note: str
    cells: Tuple[str, ...]
    #: cell -> ScenarioConfig overrides (called afresh for every build)
    configure: Callable[[str], Dict[str, object]]
    #: time_scale -> the client population
    clients: Callable[[float], List[ClientSpec]]
    #: (built scenario, scale) -> the fault list, in scaled seconds
    faults: Callable[[AttackScenario, float], List[FaultSpec]]
    #: unscaled [start, end) of the fault window
    fault_window: Tuple[float, float]
    #: unscaled start of the pre-fault baseline window (after the
    #: attack-onset transient)
    baseline_from: float
    #: runs -> (holds, one-line verdict)
    verdict: Callable[[Dict[str, CellRun]], Tuple[bool, str]]

    def scenario_config(self, cell: str, scale: float, seed: int) -> ScenarioConfig:
        if cell not in self.cells:
            raise ValueError(f"unknown matrix cell {cell!r} (want one of {self.cells})")
        return ScenarioConfig(
            seed=seed,
            duration=DURATION * scale,
            channel_capacity=1000.0,
            monitor=paper_monitor_config(time_scale=scale),
            policy_templates=paper_policy_templates(time_scale=scale),
            target_ans_count=2,
            **self.configure(cell),  # type: ignore[arg-type]
        )

    def build(self, cell: str, scale: float, seed: int) -> AttackScenario:
        """One cell, built and fault-scheduled but not yet run."""
        return self._build(cell, scale, seed)[0]

    def _build(
        self, cell: str, scale: float, seed: int
    ) -> Tuple[AttackScenario, List[FaultSpec]]:
        scenario = AttackScenario(self.scenario_config(cell, scale, seed))
        scenario.add_clients(self.clients(scale))
        faults = self.faults(scenario, scale)
        for fault in faults:
            scenario.injector.add(fault)
        return scenario, faults

    def run_cell(self, cell: str, scale: float = 1.0, seed: int = 42) -> CellRun:
        scenario, faults = self._build(cell, scale, seed)
        result = scenario.run()
        specs = self.clients(scale)
        benign = [spec.name for spec in specs if not spec.is_attacker]
        attacker = next(spec.name for spec in specs if spec.is_attacker)
        bucket = 1.0 * scale
        fault_start, fault_end = (t * scale for t in self.fault_window)
        duration = result.duration
        goodput = [
            sum(values) for values in zip(*(
                result.clients[name].effective_qps_series(duration, bucket=bucket)
                for name in benign
            ))
        ]
        baseline = _mean_over(goodput, bucket, self.baseline_from * scale, fault_start)
        attack = result.clients[attacker].effective_qps_series(duration, bucket=bucket)
        return CellRun(
            cell=cell,
            config=scenario.config,
            faults=faults,
            result=result,
            availability=_availability(result, benign, 0.0, duration),
            fault_availability=_availability(result, benign, fault_start, fault_end),
            baseline_goodput=baseline,
            fault_goodput=_mean_over(goodput, bucket, fault_start, fault_end),
            post_goodput=_mean_over(goodput, bucket, fault_end, duration),
            attacker_fault_goodput=_mean_over(attack, bucket, fault_start, fault_end),
            recovery_time=recovery_time(goodput, bucket, fault_end, baseline),
            goodput_series=goodput,
            attacker_series=attack,
            resilience_counters=resilience_counters(result.resolver_stats[0]),
            fault_stats=scenario.injector.stats,
            timeline=scenario.injector.render_timeline(),
        )

    def run(self, scale: float = 1.0, seed: int = 42) -> Dict[str, CellRun]:
        """Every cell under the identical fault schedule and client load."""
        return {cell: self.run_cell(cell, scale=scale, seed=seed) for cell in self.cells}

    def render(self, runs: Dict[str, CellRun], scale: float, seed: int) -> str:
        start, end = (t * scale for t in self.fault_window)
        lines = [
            f"=== {self.title} (scale={scale}, seed={seed}) ===",
            f"\nfault window [{start:.2f}s, {end:.2f}s): {self.fault_note}; "
            "schedule (identical in every cell):",
            next(iter(runs.values())).timeline,
        ]
        rows = [
            [
                cell,
                f"{run.availability:.3f}",
                f"{run.fault_availability:.3f}",
                round(run.baseline_goodput),
                round(run.fault_goodput),
                round(run.post_goodput),
                round(run.attacker_fault_goodput),
                f"{run.recovery_time:.1f}s" if run.recovery_time is not None else "never",
            ]
            for cell, run in runs.items()
        ]
        lines.append("\nbenign availability and goodput (summed effective QPS):")
        lines.append(render_table(
            ["cell", "avail(all)", "avail(fault)", "goodput pre", "fault", "post",
             "atk(fault)", "recovery"],
            rows,
        ))
        lines.append("\nresilience-layer counters (first resolver):")
        lines.append(render_resilience_table(
            {cell: run.result.resolver_stats[0] for cell, run in runs.items()}
        ))
        lines.append("\nper-second goodput (the fault window is the dip):")
        width = max(len(cell) for cell in runs)
        for cell, run in runs.items():
            lines.append(f"  {cell:>{width}s} benign   |{sparkline(run.goodput_series)}|")
            lines.append(f"  {cell:>{width}s} attacker |{sparkline(run.attacker_series)}|")
        lines.append("\n" + self.verdict(runs)[1])
        return "\n".join(lines)

    def main(self, scale: float = 0.25, seed: int = 42, out: Optional[str] = None) -> int:
        """Run, print (and optionally write) the report; 0 iff the verdict holds."""
        if scale <= 0:
            raise SystemExit(f"--scale must be positive, got {scale}")
        runs = self.run(scale=scale, seed=seed)
        config = {
            "cells": {cell: asdict(run.config) for cell, run in runs.items()},
            "faults": schedule_to_dicts(next(iter(runs.values())).faults),
        }
        header = provenance_header(self.experiment, seed=seed, scale=scale, config=config)
        report = header + "\n" + self.render(runs, scale=scale, seed=seed)
        print(report)
        if out:
            write_output(out, report + "\n")
            print(f"\n[written to {out}]")
        return 0 if self.verdict(runs)[0] else 1


def _mean_over(series: List[float], bucket: float, lo: float, hi: float) -> float:
    lo_i, hi_i = int(lo / bucket), min(int(hi / bucket), len(series))
    window = series[lo_i:hi_i]
    return sum(window) / max(1, len(window))


def recovery_time(
    series: List[float], bucket: float, fault_end: float, baseline: float
) -> Optional[float]:
    """Seconds from ``fault_end`` until goodput, smoothed over three
    buckets, regains RECOVERY_THRESHOLD of ``baseline``; None if it
    never does."""
    if baseline <= 0:
        return 0.0
    for i in range(len(series)):
        window = series[max(0, i - 1): i + 2]
        at = i * bucket
        if at >= fault_end and sum(window) / len(window) >= RECOVERY_THRESHOLD * baseline:
            return at - fault_end
    return None


def _availability(
    result: ScenarioResult, benign: Sequence[str], lo: float, hi: float
) -> float:
    outcomes = [
        record.success
        for name in benign
        for record in result.clients[name].records
        if lo <= record.sent_at < hi
    ]
    return sum(outcomes) / len(outcomes) if outcomes else 0.0
