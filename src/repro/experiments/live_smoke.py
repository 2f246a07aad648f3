"""``repro live``: the benign+NX-flood scenario over real UDP sockets.

This is the socket-backend twin of the Table 2 NX-flood setup and the
proof obligation of the transport tentpole: the *same* resolver, DCC
shim, MOPI-FQ, policing, and health modules that produce every virtual
figure are attached to :class:`repro.transport.udp.UdpFabric` and
exercised over real localhost datagrams, with the chaos proxy
interposed on the resolver<->authoritative channel (the paper's RA
channel, Section 2.3).

Topology::

    benign EngineClient ──┐                         ┌─> root auth
    attack EngineClient ──┴─> resolver (+DCC shim) ─┤
                                                    └─> [chaos proxy] ─> target auth

Determinism contract (acceptance criterion): wall-clock jitter may move
*when* things happen, but every count printed on the
``deterministic-counts:`` line is a pure function of the seed --
workloads are count-based with seeded gaps, chaos fates are keyed on
(seed, direction, qname, occurrence) rather than packet order, client
engines are configured so their RTO can never race the resolver's
answer, and the resolver's retry ladder finishes far inside the client
deadline.  Attack-side *answer* composition is timing-sensitive
(conviction windows run on real time) and deliberately excluded.

The run fails (non-zero exit) on: any in-flight-table liveness
violation (a query past deadline+grace with no verdict -- a silent
hang), any event-loop callback exception, any TCP-path error, goodput
below ``--min-goodput``, or a ``deterministic-counts`` mismatch against
``--check-against``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.provenance import provenance_header, write_output
from repro.dcc.mopifq import MopiFqConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.dnscore.name import Name
from repro.server.authoritative import AuthoritativeServer
from repro.server.health import HealthConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.transport.chaosproxy import ChaosProxy, ChaosSpec
from repro.transport.engine import EngineClient, EngineConfig
from repro.transport.udp import UdpBackend
from repro.workloads.zonegen import build_root_zone, build_target_zone

TARGET_ORIGIN = "target-domain."
ROOT_ADDR = "10.0.0.1"
TARGET_ANS_ADDR = "10.0.3.1"
RESOLVER_ADDR = "10.0.1.1"
BENIGN_ADDR = "10.0.9.1"
ATTACK_ADDR = "10.0.9.66"

DESCRIPTION = "benign+NX-flood smoke over real UDP sockets"

#: extra real time allowed after the send phase for tails to drain
#: (client deadline + liveness grace)
DRAIN_GRACE = 1.0


@dataclass
class LiveConfig:
    seed: int = 1
    duration: float = 2.0
    benign_rate: float = 25.0
    attack_rate: float = 150.0
    loss: float = 0.0
    duplicate: float = 0.0
    delay_prob: float = 0.0
    delay_min: float = 0.005
    delay_max: float = 0.030
    #: MOPI-FQ capacity of the resolver->target channel (qps)
    channel_capacity: float = 300.0
    #: client engines give up on a query after this long
    client_deadline: float = 4.0
    min_goodput: Optional[float] = None


@dataclass
class LiveReport:
    config: LiveConfig
    counts: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    liveness: List[str] = field(default_factory=list)
    loop_errors: List[str] = field(default_factory=list)

    def deterministic_line(self) -> str:
        parts = [f"{key}={self.counts[key]}" for key in sorted(self.counts)]
        return "deterministic-counts: " + " ".join(parts)

    @property
    def goodput(self) -> float:
        sent = self.counts.get("benign_sent", 0)
        return self.counts.get("benign_noerror", 0) / sent if sent else 0.0

    def failures(self) -> List[str]:
        problems = list(self.liveness)
        problems.extend(f"event-loop error: {err}" for err in self.loop_errors)
        floor = self.config.min_goodput
        if floor is not None and self.goodput < floor:
            problems.append(
                f"benign goodput {self.goodput:.3f} below required {floor:.3f}"
            )
        return problems


def _benign_name(i: int) -> Name:
    # unique cache-missing names under the wildcard subtree
    return Name.from_text(f"q{i:05d}.wc.{TARGET_ORIGIN}")


def attack_name(i: int) -> Name:
    # the NX flood: unique non-existent names (paper Table 2 "NX")
    return Name.from_text(f"x{i:05d}.nx.{TARGET_ORIGIN}")


def _resolver_config() -> ResolverConfig:
    # adaptive mode = the RFC 6298 estimator + Karn's rule over real RTT
    # samples; breaker off so goodput under injected loss is a pure
    # per-query retry ladder (three attempts, RTO-backed-off)
    return ResolverConfig(
        qname_minimization=False,
        max_retries=2,
        health=HealthConfig(
            mode="adaptive", base_timeout=0.3, rto_min=0.1, rto_max=2.0,
            failure_threshold=0,
        ),
    )


@dataclass
class Cast:
    """The Figure-5 topology, ready to attach to either backend."""

    root: AuthoritativeServer
    target: AuthoritativeServer
    resolver: RecursiveResolver
    shim: DccShim
    clients: List[EngineClient]

    @property
    def nodes(self) -> List[Any]:
        return [self.root, self.target, self.resolver, *self.clients]

    def liveness(self) -> List[str]:
        """Every issued query must have reached a verdict by now."""
        problems: List[str] = []
        for client in self.clients:
            if client.engine is not None:
                problems.extend(
                    f"{client.address}: {item}"
                    for item in client.engine.liveness_violations(grace=DRAIN_GRACE)
                )
            if not client.finished:
                problems.append(
                    f"{client.address}: {client.sent} sent but only "
                    f"{sum(client.verdicts.values())} verdicts at harvest"
                )
        return problems

    async def drive(self, clock: Any, hard_stop: float) -> None:
        """Start every client; return once all finish or at ``hard_stop``."""
        for client in self.clients:
            client.start()
        while clock.now < hard_stop:
            await asyncio.sleep(0.05)
            if all(client.finished for client in self.clients):
                break


def build_cast(
    resolver_config: ResolverConfig,
    channel_capacity: float,
    client_deadline: float,
    duration: float,
    clients: Sequence[Tuple[str, Callable[[int], Name], float]],
) -> Cast:
    """Root + target authoritative (answer and negative TTL 1 s), the
    resolver behind a DCC shim capping the resolver->target channel, and
    one open-loop client per ``(address, namer, rate)`` sending
    ``rate * duration`` queries.  Clients and shim are built through this
    module's ``EngineClient`` and ``DccShim`` globals, so a caller can
    substitute instrumented subclasses."""
    root_zone = build_root_zone({TARGET_ORIGIN: ("ns1.target-domain.", TARGET_ANS_ADDR)})
    target_zone = build_target_zone(TARGET_ORIGIN, "ns1", TARGET_ANS_ADDR)
    root = AuthoritativeServer(ROOT_ADDR, zones=[root_zone])
    target = AuthoritativeServer(
        TARGET_ANS_ADDR, zones=[target_zone], udp_payload_limit=1232
    )
    resolver = RecursiveResolver(RESOLVER_ADDR, resolver_config)
    resolver.add_root_hint("a.root-servers.net.", ROOT_ADDR)
    shim = DccShim(
        resolver,
        DccConfig(scheduler=MopiFqConfig(default_channel_rate=channel_capacity * 10)),
    )
    shim.set_channel_capacity(
        TARGET_ANS_ADDR, channel_capacity, max(1.0, channel_capacity * 0.1)
    )
    # rto_min above the resolver's worst-case answer latency: client
    # verdicts then depend only on *whether* the resolver answers (a
    # seeded-fault function), never on wall-clock answer timing
    engine_config = EngineConfig(
        retries=1,
        deadline=client_deadline,
        inflight_capacity=512,
        health=HealthConfig(
            mode="adaptive", base_timeout=3.0, rto_min=3.0, rto_max=3.5,
            failure_threshold=0,
        ),
    )
    engine_clients = [
        EngineClient(
            address, RESOLVER_ADDR, namer,
            rate=rate, total=max(1, int(rate * duration)), config=engine_config,
        )
        for address, namer, rate in clients
    ]
    return Cast(root, target, resolver, shim, engine_clients)


@contextlib.asynccontextmanager
async def udp_session(
    cast: Cast, seed: int, loop_errors: List[str]
) -> AsyncIterator[UdpBackend]:
    """``cast`` attached to a started UDP backend; event-loop callback
    errors are appended to ``loop_errors``."""
    backend = UdpBackend(seed=seed)
    for node in cast.nodes:
        backend.attach(node)
    await backend.start()
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, ctx: loop_errors.append(
            str(ctx.get("exception") or ctx.get("message"))
        )
    )
    try:
        yield backend
    finally:
        await backend.aclose()


async def _run_async(cfg: LiveConfig) -> LiveReport:
    report = LiveReport(config=cfg)
    cast = build_cast(
        _resolver_config(), cfg.channel_capacity, cfg.client_deadline, cfg.duration,
        [(BENIGN_ADDR, _benign_name, cfg.benign_rate),
         (ATTACK_ADDR, attack_name, cfg.attack_rate)],
    )
    benign, attack = cast.clients
    async with udp_session(cast, cfg.seed, report.loop_errors) as backend:
        spec = ChaosSpec(
            drop=cfg.loss,
            duplicate=cfg.duplicate,
            delay_prob=cfg.delay_prob,
            delay_min=cfg.delay_min,
            delay_max=cfg.delay_max,
        )
        # always interpose (a zero-probability spec is a pure relay) so the
        # lossless and chaos runs traverse identical topologies
        proxy = ChaosProxy(
            backend.fabric, backend.clock, RESOLVER_ADDR, TARGET_ANS_ADDR, spec, cfg.seed
        )
        await proxy.start()
        await cast.drive(backend.clock, cfg.duration + cfg.client_deadline + DRAIN_GRACE)

        report.liveness = cast.liveness()
        report.liveness.extend(f"tcp error: {err}" for err in backend.fabric.tcp_errors)
        report.counts = {
            "benign_sent": benign.sent,
            "benign_answered": benign.verdicts.get("answered", 0),
            "benign_noerror": benign.rcodes.get("NOERROR", 0),
            "benign_servfail": benign.rcodes.get("SERVFAIL", 0),
            "benign_timeout": benign.verdicts.get("timeout", 0),
            "benign_shed": benign.verdicts.get("shed", 0),
            "attack_sent": attack.sent,
        }
        fabric_stats = backend.fabric.stats
        report.info = {
            "virtual_elapsed": round(backend.clock.now, 3),
            "attack_answered": attack.verdicts.get("answered", 0),
            "attack_timeout": attack.verdicts.get("timeout", 0),
            "datagrams_sent": fabric_stats.messages_sent,
            "datagrams_delivered": fabric_stats.messages_delivered,
            "decode_errors": fabric_stats.decode_errors,
            "tcp_queries": fabric_stats.tcp_queries,
            "chaos_received": proxy.stats.received,
            "chaos_dropped": proxy.stats.dropped,
            "chaos_duplicated": proxy.stats.duplicated,
            "chaos_delayed": proxy.stats.delayed,
            "resolver_queries_sent": cast.resolver.stats.queries_sent,
            "resolver_retries": cast.resolver.stats.query_retries,
            "resolver_karn_rejections": cast.resolver.stats.karn_rejections,
            "dcc_intercepted": cast.shim.stats.queries_intercepted,
            "dcc_policed": cast.shim.stats.queries_policed,
            "auth_queries": cast.target.stats.queries_received,
            "auth_nxdomain": cast.target.stats.nxdomain_sent,
        }
        proxy.close()
    return report


def run_live(cfg: LiveConfig) -> LiveReport:
    return asyncio.run(_run_async(cfg))


def render_report(report: LiveReport) -> str:
    cfg = report.config
    lines = [
        provenance_header(
            "live_smoke",
            seed=cfg.seed,
            config=cfg,
            extra={"backend": "udp", "loss": cfg.loss},
        ),
        "=== live smoke: benign + NX flood over real UDP sockets ===",
        "",
        report.deterministic_line(),
        "",
        f"benign goodput: {report.goodput:.3f} "
        f"({report.counts.get('benign_noerror', 0)}/{report.counts.get('benign_sent', 0)} NOERROR)",
        "",
    ]
    lines.extend(render_details(
        report.info, report.failures(), "liveness: ok (no silent hangs, no loop errors)"
    ))
    return "\n".join(lines)


def render_details(info: Dict[str, Any], problems: List[str], ok_line: str) -> List[str]:
    """The timing-sensitive run details, then the failures or ``ok_line``."""
    lines = ["run details (informational, timing-sensitive):"]
    lines.extend(f"  {key} = {info[key]}" for key in sorted(info))
    lines.append("")
    if problems:
        lines.append("FAILURES:")
        lines.extend(f"  - {item}" for item in problems)
    else:
        lines.append(ok_line)
    return lines


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="send-phase length in seconds (query counts scale with it)")
    parser.add_argument("--loss", type=float, default=0.0,
                        help="chaos-proxy drop probability on the resolver<->auth channel")
    parser.add_argument("--duplicate", type=float, default=0.0)
    parser.add_argument("--delay-prob", type=float, default=0.0)
    parser.add_argument("--min-goodput", type=float, default=None,
                        help="fail unless benign NOERROR/sent >= this fraction")
    parser.add_argument("--out", default=os.path.join("results", "live_smoke.txt"))
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="fail unless FILE's deterministic-counts line matches this run")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro live", description=DESCRIPTION)
    add_arguments(parser)
    return run_args(parser.parse_args(argv))


def run_args(args: argparse.Namespace) -> int:
    cfg = LiveConfig(
        seed=args.seed,
        duration=args.duration,
        loss=args.loss,
        duplicate=args.duplicate,
        delay_prob=args.delay_prob,
        min_goodput=args.min_goodput,
    )
    report = run_live(cfg)
    rendered = render_report(report)
    print(rendered)

    status = 0
    if report.failures():
        status = 1
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as fh:
            expected = next((line.strip() for line in fh
                             if line.startswith("deterministic-counts:")), None)
        actual = report.deterministic_line()
        if expected != actual:
            print("\ndeterminism check FAILED against "
                  f"{args.check_against}:\n  expected: {expected}\n  actual:   {actual}")
            status = 1
        else:
            print(f"\ndeterminism check ok against {args.check_against}")
    if args.out:
        write_output(args.out, rendered + "\n")
        print(f"[written to {args.out}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
