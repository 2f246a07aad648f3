"""The benchmark's four workloads: build, run, check and digest.

Each workload is driven from one process and one thread through the
repository's public builders.  One *iteration* builds the scenario from
its seed (timed as set-up), runs it (timed as the run), then inspects
the finished objects: it computes the behaviour digest, the simulated
outcome, the layer counters the program keeps itself, and the output
checks.  Nothing here changes what the program does.  The live workload
runs ``repro live``'s own session; it swaps in a client subclass that
notes real send and verdict times and a DCC-shim subclass that notes
convictions.

Operations: one benign client query.  An operation fails when the
program loses it -- no verdict at the end of the run (simulators,
live), or offered demand the fluid ledger cannot account for
(``scale-hybrid-1m``).  Benign queries that time out or are refused
under attack are the measured outcome, not failures: they are reported
as ``outcome.benign_unanswered_ratio``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dcc.shim import DccShim
from repro.experiments import live_smoke, resilience_matrix
from repro.experiments.chaos_resilience import BENIGN_CLIENTS
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.experiments.scale import ScaleConfig, ScaleScenario
from repro.transport.engine import EngineClient
from repro.workloads.schedule import table2_clients

SUCCESS_RCODES = ("NOERROR", "NXDOMAIN")


@dataclass
class Outcome:
    """What one finished iteration produced."""

    #: behaviour digest; every iteration of one seed must agree on it
    digest: str
    #: every client query issued (the cpu_us_per_query denominator)
    queries: int
    #: benign operations attempted, and those the program lost
    attempted: int
    failed: int
    #: failed output checks (empty = correct)
    problems: List[str]
    #: simulated outcome: benign latency, attacker share, unanswered ratio
    outcome: Dict[str, float]
    #: counters the program keeps itself (server, dcc, fluid, transport)
    layers: Dict[str, float]
    #: facts the output checks read (kept so tests can tamper with them)
    facts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Sample:
    setup_s: float
    run_s: float
    cpu_s: float
    outcome: Optional[Outcome]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _server_layers(resolvers) -> Dict[str, float]:
    requests = sum(r.stats.requests_received for r in resolvers)
    hits = sum(r.stats.cache_hit_responses + r.stats.stale_responses for r in resolvers)
    sent = sum(r.stats.queries_sent for r in resolvers)
    return {
        "server.requests": requests,
        "server.cache_hit_ratio": _ratio(hits, requests),
        "server.upstream_per_request": _ratio(sent, requests),
        "server.retry_ratio": _ratio(sum(r.stats.query_retries for r in resolvers), sent),
        "server.timeouts": sum(r.stats.query_timeouts for r in resolvers),
        "server.shed": sum(r.stats.shed_requests for r in resolvers),
        "server.servfail": sum(r.stats.servfail_responses for r in resolvers),
    }


def _dcc_layers(shims) -> Dict[str, float]:
    fails = 0
    for shim in shims:
        stats = shim.scheduler.stats
        fails += stats.fail_overspeed + stats.fail_congested + stats.fail_overflow
    return {
        "dcc.enqueue_failures": fails,
        "dcc.policed": sum(shim.stats.queries_policed for shim in shims),
    }


def watch_convictions(monitor) -> Dict[str, float]:
    """Note each client's first conviction time, as evaluate() returns it.

    Wraps the one monitor instance (evaluate runs once per monitoring
    window), so it costs nothing measurable and changes no behaviour.
    """
    first: Dict[str, float] = {}
    evaluate = monitor.evaluate

    def watched(now: float):
        events = evaluate(now)
        for event in events:
            if event.convicted:
                first.setdefault(event.client, now)
        return events

    monitor.evaluate = watched
    return first


def _fold(hasher, *parts: object) -> None:
    hasher.update(("|".join(str(p) for p in parts) + "\n").encode("utf-8"))


def _record_outcome(clients: Dict[str, object], benign: List[str], extra_served: float = 0.0):
    """Latency, attacker share and unanswered ratio from RequestRecords,
    plus the benign request count, the benign requests without a verdict
    and all requests without a verdict.

    ``extra_served`` adds benign answers that have no record (the fluid
    mass of the hybrid workload) to the attacker-share denominator.
    """
    latencies: List[float] = []
    benign_total = benign_ok = attacker_ok = lost = unaccounted = 0
    for name, client in clients.items():
        is_benign = name in benign
        for rec in client.records:
            if rec.completed_at is None and not rec.timed_out:
                unaccounted += 1
                lost += is_benign
            if is_benign:
                benign_total += 1
            if not rec.success:
                continue
            if is_benign:
                benign_ok += 1
                latencies.append((rec.completed_at - rec.sent_at) * 1000.0)
            else:
                attacker_ok += 1
    outcome = {
        "outcome.sim_latency_p50_ms": percentile(latencies, 0.50),
        "outcome.sim_latency_p99_ms": percentile(latencies, 0.99),
        "outcome.attacker_goodput_share": _ratio(
            attacker_ok, attacker_ok + benign_ok + extra_served
        ),
        "outcome.benign_unanswered_ratio": 1.0 - _ratio(benign_ok, benign_total),
    }
    return outcome, benign_total, lost, unaccounted


def _scenario_digest(scenario: AttackScenario, events: int) -> str:
    """Hash of every client request's fate plus the program's counters.

    Cheap enough to compute after every run, and needs no message trace
    (which would add its own cost to the timed run).
    """
    hasher = hashlib.sha256()
    for name in sorted(scenario.clients):
        for rec in scenario.clients[name].records:
            _fold(hasher, name, f"{rec.sent_at:.9f}", rec.question, rec.resolver,
                  rec.attempts, rec.completed_at, rec.rcode, rec.timed_out)
    _fold(hasher, "events", events)
    for resolver in scenario.resolvers:
        _fold(hasher, json.dumps(asdict(resolver.stats), sort_keys=True))
    for shim in scenario.shims:
        _fold(hasher, json.dumps(asdict(shim.stats), sort_keys=True, default=str))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload: build from a seed, run, inspect."""

    name = ""
    #: size knob per profile: "bench" for measurement, "tiny" for tests
    sizes: Dict[str, object] = {}

    @staticmethod
    def check(facts: Dict[str, object]) -> List[str]:
        """The output check: what is wrong with an iteration's facts."""
        raise NotImplementedError

    def build(self, seed: int, size):
        raise NotImplementedError

    def execute(self, built):
        raise NotImplementedError

    def inspect(self, built, raw) -> Outcome:
        raise NotImplementedError

    def iterate(self, seed: int, size, run: bool = True, during=None) -> Sample:
        """Build (timed as set-up) and, with ``run``, run and inspect.

        ``during`` is a context manager entered around the timed run
        only (the traced run's sampler and counter reset).
        """
        gc.collect()
        start = time.perf_counter()
        built = self.build(seed, size)
        setup = time.perf_counter() - start
        if not run:
            return Sample(setup, 0.0, 0.0, None)
        gc.collect()
        with during or contextlib.nullcontext():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            raw = self.execute(built)
            run_s, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return Sample(setup, run_s, cpu, self.inspect(built, raw))


class _ScenarioWorkload(Workload):
    """Shared inspection for the two AttackScenario workloads."""

    def execute(self, built: AttackScenario):
        return built.run()

    def _common(self, scenario: AttackScenario, result) -> Outcome:
        outcome, attempted, lost, unaccounted = _record_outcome(
            scenario.clients, list(BENIGN_CLIENTS)
        )
        layers = _server_layers(scenario.resolvers)
        layers.update(_dcc_layers(scenario.shims))
        return Outcome(
            digest=_scenario_digest(scenario, result.events_processed),
            queries=sum(len(c.records) for c in scenario.clients.values()),
            attempted=attempted,
            failed=lost,
            problems=[],
            outcome=outcome,
            layers=layers,
            facts={"unaccounted": unaccounted},
        )


class Fig8NxDcc(_ScenarioWorkload):
    name = "fig8-nx-dcc"
    sizes = {"bench": 0.1, "tiny": 0.02}

    @staticmethod
    def check(facts: Dict[str, object]) -> List[str]:
        problems = []
        if facts["unaccounted"]:
            problems.append(f"{facts['unaccounted']} client requests without a verdict")
        if not facts["attacker_convicted"]:
            problems.append("the NX attacker was never convicted")
        if facts["invariant_error"]:
            problems.append(f"MopiFq.check_invariants failed: {facts['invariant_error']}")
        return problems

    def build(self, seed: int, size: float) -> AttackScenario:
        config = ScenarioConfig(
            seed=seed,
            duration=60.0 * size,
            channel_capacity=1000.0,
            use_dcc=True,
            monitor=paper_monitor_config(time_scale=size),
            policy_templates=paper_policy_templates(time_scale=size),
            max_poq_depth=100,
            max_round=75,
            ff_instances=200,
        )
        scenario = AttackScenario(config)
        scenario.add_clients(table2_clients("nxdomain", time_scale=size))
        scenario.convictions = watch_convictions(scenario.shims[0].monitor)
        return scenario

    def inspect(self, scenario: AttackScenario, result) -> Outcome:
        out = self._common(scenario, result)
        convicted_at = scenario.convictions.get(scenario.clients["attacker"].address)
        out.layers["dcc.conviction_s"] = convicted_at or 0.0
        out.facts["attacker_convicted"] = convicted_at is not None
        out.facts["invariant_error"] = ""
        for shim in scenario.shims:
            try:
                shim.scheduler.check_invariants()
            except AssertionError as exc:
                out.facts["invariant_error"] = str(exc) or "assertion failed"
        out.problems = self.check(out.facts)
        return out


class OutagePoolHardened(_ScenarioWorkload):
    name = "outage-pool-hardened"
    sizes = {"bench": 0.15, "tiny": 0.1}

    @staticmethod
    def check(facts: Dict[str, object]) -> List[str]:
        problems = []
        if facts["unaccounted"]:
            problems.append(f"{facts['unaccounted']} client requests without a verdict")
        if not facts["breaker_opens"]:
            problems.append("no circuit breaker opened during the outage")
        if not facts["stale_responses"]:
            problems.append("no stale answers were served")
        if not facts["answered_in_outage"]:
            problems.append("no benign answer while every nameserver was down")
        return problems

    def build(self, seed: int, size: float) -> AttackScenario:
        return resilience_matrix.build_cell("hardened", size, seed)

    def inspect(self, scenario: AttackScenario, result) -> Outcome:
        out = self._common(scenario, result)
        stats = scenario.resolvers[0].stats
        scale = scenario.config.duration / 60.0
        start = resilience_matrix.OUTAGE_START * scale
        end = resilience_matrix.OUTAGE_END * scale
        # Positive answers carry a 1 s TTL: a benign success sent more
        # than 1 s into the outage can only be a stale answer.
        answered = sum(
            1 for name in BENIGN_CLIENTS for rec in scenario.clients[name].records
            if start + 1.0 <= rec.sent_at < end and rec.success
        )
        out.facts.update(
            breaker_opens=stats.breaker_opens,
            stale_responses=stats.stale_responses,
            answered_in_outage=answered,
        )
        out.problems = self.check(out.facts)
        return out


class ScaleHybrid(Workload):
    name = "scale-hybrid-1m"
    #: (benign clients, virtual seconds of scenario time)
    sizes = {"bench": (1_000_000, 8.0), "tiny": (10_000, 4.0)}

    @staticmethod
    def check(facts: Dict[str, object]) -> List[str]:
        problems = []
        if not abs(facts["ledger_residual"]) < 1e-6:
            problems.append(f"fluid ledger residual {facts['ledger_residual']!r} >= 1e-6")
        if not facts["attacker_convicted"]:
            problems.append("the NX attacker was never convicted")
        return problems

    def build(self, seed: int, size) -> ScaleScenario:
        clients, duration = size
        built = ScaleScenario(ScaleConfig(seed=seed, clients=clients, duration=duration), "hybrid")
        built.convictions = watch_convictions(built.shim.monitor)
        return built

    def execute(self, built: ScaleScenario):
        return built.run()

    def inspect(self, built: ScaleScenario, result) -> Outcome:
        packet = dict(built.scenario.clients)
        for client in built.materializer.all_clients:
            packet[client.address] = client
        benign = [name for name in packet if name != "attacker"]
        outcome, _, lost, _ = _record_outcome(packet, benign, extra_served=result.fluid_served)
        ledger = result.ledger
        offered = ledger["offered"]
        outcome["outcome.benign_unanswered_ratio"] = _ratio(
            ledger["timeouts"] + ledger["backlog"], offered
        )
        attacker = built.scenario.clients["attacker"].address
        layers = _server_layers(built.scenario.resolvers)
        layers.update(_dcc_layers(built.scenario.shims))
        layers.update({
            "fluid.promotions": result.promotions,
            "fluid.demotions": result.demotions,
            "fluid.ledger_residual": ledger["residual"],
            "dcc.conviction_s": built.convictions.get(attacker, 0.0),
        })
        facts = {
            "ledger_residual": ledger["residual"],
            "attacker_convicted": attacker in built.convictions,
        }
        return Outcome(
            digest=result.digest,
            queries=sum(len(c.records) for c in packet.values()),
            attempted=round(offered),
            failed=round(abs(ledger["residual"])) + lost,
            problems=self.check(facts),
            outcome=outcome,
            layers=layers,
            facts=facts,
        )


class LiveSession:
    """One ``repro live`` session, driven through ``live_smoke.run_live``.

    While the session is entered, ``live_smoke`` builds its clients and
    DCC shim from the two subclasses below, which note themselves here.
    The first client's ``start()`` ends set-up: it enters ``during`` and
    starts the run's clocks.  With ``run`` false the clients have no
    queries to send, so the session closes right after set-up.
    """

    current: Optional["LiveSession"] = None

    def __init__(self, run: bool, during) -> None:
        self.run = run
        self.during = during
        self.clients: Dict[str, "TimedEngineClient"] = {}
        self.shim: Optional["NotedDccShim"] = None
        #: (perf_counter, process_time) when the first client started
        self.started: Optional[Tuple[float, float]] = None
        self._stack = contextlib.ExitStack()

    def begin(self) -> None:
        if self.started is None:
            self._stack.enter_context(self.during or contextlib.nullcontext())
            self.started = (time.perf_counter(), time.process_time())

    def __enter__(self) -> "LiveSession":
        LiveSession.current = self
        live_smoke.EngineClient, live_smoke.DccShim = TimedEngineClient, NotedDccShim
        return self

    def __exit__(self, *exc) -> None:
        live_smoke.EngineClient, live_smoke.DccShim = EngineClient, DccShim
        LiveSession.current = None
        self._stack.close()


class TimedEngineClient(EngineClient):
    """An EngineClient that also notes, in real seconds, how late each
    query was sent and when its verdict came, both against the query's
    nominal due time on the open-loop schedule."""

    def __init__(self, *args, **kwargs) -> None:
        session = LiveSession.current
        if not session.run:
            kwargs["total"] = 0
        super().__init__(*args, **kwargs)
        self.send_lag: List[float] = []
        self.latency: List[float] = []
        session.clients[self.address] = self

    def start(self) -> None:
        LiveSession.current.begin()
        super().start()

    def _fire(self) -> None:
        if self.up and self.sent < self._total:
            self.send_lag.append(self.sim.now - (self._epoch + self._cursor))
        super()._fire()

    def _on_outcome(self, outcome, nominal: float = 0.0) -> None:
        self.latency.append(self.sim.now - (self._epoch + nominal))
        super()._on_outcome(outcome, nominal)


class NotedDccShim(DccShim):
    """A DccShim that notes itself and its attacker convictions."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.convictions = watch_convictions(self.monitor)
        LiveSession.current.shim = self


class LiveUdp(Workload):
    name = "live-udp"
    #: send-phase seconds per session
    sizes = {"bench": 3.0, "tiny": 0.5}
    rate = 150.0
    #: resolver->target channel cap, above the offered 300 QPS
    channel_capacity = 1000.0

    @staticmethod
    def check(facts: Dict[str, object]) -> List[str]:
        problems = list(facts["failures"])
        if facts["decode_errors"]:
            problems.append(f"{facts['decode_errors']} wire decode errors")
        if not facts["benign_answered"]:
            problems.append("no benign query was answered")
        return problems

    def iterate(self, seed: int, size, run: bool = True, during=None) -> Sample:
        """Set-up is everything before the first client starts; the run
        is the rest of the session, drain and teardown included."""
        cfg = live_smoke.LiveConfig(
            seed=seed, duration=size, benign_rate=self.rate, attack_rate=self.rate,
            channel_capacity=self.channel_capacity,
        )
        gc.collect()
        with LiveSession(run, during) as session:
            start = time.perf_counter()
            report = live_smoke.run_live(cfg)
            wall, cpu = time.perf_counter(), time.process_time()
        wall0, cpu0 = session.started
        if not run:
            return Sample(wall0 - start, 0.0, 0.0, None)
        return Sample(wall0 - start, wall - wall0, cpu - cpu0, self._inspect(report, session))

    def _inspect(self, report: live_smoke.LiveReport, session: LiveSession) -> Outcome:
        benign = session.clients[live_smoke.BENIGN_ADDR]
        attack = session.clients[live_smoke.ATTACK_ADDR]
        shim = session.shim
        fabric = benign.network.stats
        engines = [benign.engine.stats, attack.engine.stats]
        benign_ok = sum(benign.rcodes.get(code, 0) for code in SUCCESS_RCODES)
        attack_ok = sum(attack.rcodes.get(code, 0) for code in SUCCESS_RCODES)
        latencies = [s * 1000.0 for s in benign.latency + attack.latency]
        send_lag = [s * 1000.0 for s in benign.send_lag + attack.send_lag]
        layers = _server_layers([shim.resolver])
        layers.update(_dcc_layers([shim]))
        layers.update({
            "dcc.conviction_s": shim.convictions.get(attack.address, 0.0),
            "transport.retransmits": sum(e.retransmits for e in engines),
            "transport.shed": sum(e.shed for e in engines) + fabric.shed_backpressure,
            "transport.decode_errors": fabric.decode_errors,
            "transport.latency_p50_ms": percentile(latencies, 0.50),
            "transport.latency_p99_ms": percentile(latencies, 0.99),
            "transport.send_lag_p99_ms": percentile(send_lag, 0.99),
        })
        facts = {
            "failures": report.failures(),
            "decode_errors": fabric.decode_errors,
            "benign_answered": report.counts["benign_answered"],
        }
        return Outcome(
            # the live run's determinism anchor is its counts line
            digest=report.deterministic_line(),
            queries=benign.sent + attack.sent,
            attempted=benign.sent,
            failed=benign.sent - sum(benign.verdicts.values()),
            problems=self.check(facts),
            outcome={
                "outcome.sim_latency_p50_ms": 0.0,
                "outcome.sim_latency_p99_ms": 0.0,
                "outcome.attacker_goodput_share": _ratio(attack_ok, attack_ok + benign_ok),
                "outcome.benign_unanswered_ratio": 1.0 - _ratio(benign_ok, benign.sent),
            },
            layers=layers,
            facts=facts,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig8NxDcc(), OutagePoolHardened(), ScaleHybrid(), LiveUdp())
}

