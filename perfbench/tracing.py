"""The traced run's instruments, applied from outside the program.

- :class:`Sampler`: a ``signal.setitimer`` CPU-time stack sampler.  Each
  sample charges its innermost frame's layer (self share) and every
  layer on the stack (inclusive share).  Time in C functions is charged
  to the Python frame that called them.  Unlike cProfile it adds no
  per-call cost, so tiny hot functions are not inflated.
- :class:`Tracer`: wraps the public entry points of each layer, patched
  where each name is looked up, and records call counts, busy time and
  parent-linked spans.  Spans stay in memory until :meth:`Tracer.
  chrome_trace` builds one Chrome trace-event document at the end.
"""

from __future__ import annotations

import functools
import itertools
import os
import signal
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.dcc.monitor import AnomalyMonitor
from repro.dcc.mopifq import MopiFq
from repro.dnscore import wire
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.experiments.common import SwitchingPattern
from repro.fluid.bridge import FluidBridge
from repro.netsim.link import Network
from repro.netsim.sim import Event, Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver
from repro.transport import chaosproxy, udp
from repro.workloads import patterns, realistic

from perfbench.workloads import percentile

#: the src/repro layers the benchmark attributes cost to
LAYERS = ("dnscore", "netsim", "server", "dcc", "util", "workloads", "fluid", "transport")
#: pseudo-layers: Python's stdlib plus third-party code (numpy), and the
#: rest of repro (experiments, analysis, ...) plus the benchmark itself
SHARE_LAYERS = LAYERS + ("stdlib", "other")

#: the sampler's period, in seconds of process CPU time
SAMPLE_INTERVAL = 0.001
#: spans kept in memory; later ones are counted as dropped
MAX_SPANS = 50_000

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_DIR):
        head = path[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return head if head in LAYERS else "other"
    if path.startswith(_BENCH_DIR):
        return "other"
    return "stdlib"


class Sampler:
    """CPU-time stack sampler; use as a context manager around a run."""

    def __init__(self) -> None:
        self.samples = 0
        self.self_counts: Dict[str, int] = dict.fromkeys(SHARE_LAYERS, 0)
        self.inclusive_counts: Dict[str, int] = dict.fromkeys(SHARE_LAYERS, 0)
        self._layer_cache: Dict[str, str] = {}
        self._previous = None

    def _layer(self, code) -> str:
        layer = self._layer_cache.get(code.co_filename)
        if layer is None:
            layer = self._layer_cache[code.co_filename] = layer_of(code.co_filename)
        return layer

    def _on_signal(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_counts[self._layer(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            seen.add(self._layer(frame.f_code))
            frame = frame.f_back
        for layer in seen:
            self.inclusive_counts[layer] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, float]:
        total = max(1, self.samples)
        out = {f"{layer}.self_share": self.self_counts[layer] / total for layer in SHARE_LAYERS}
        out.update(
            {f"{layer}.inclusive_share": self.inclusive_counts[layer] / total for layer in LAYERS}
        )
        return out


class Tracer:
    """Counts, busy time and spans at layer boundaries."""

    def __init__(self) -> None:
        #: key -> [calls, busy nanoseconds]
        self.stats: Dict[str, List[int]] = {}
        #: key -> [number of its calls now active]
        self._depths: Dict[str, List[int]] = {}
        #: (span id, parent id, key, start ns, end ns)
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.spans_dropped = 0
        self.simulators: List[Simulator] = []
        self.queue_waits: List[float] = []
        self.empty_dequeues = 0
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []
        self._events_before: Dict[int, int] = {}

    # -- installation -------------------------------------------------
    def wrap(self, owner, attr: str, key: str, span: bool = True,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a counting wrapper.

        A call made while the same key is already active (a pattern
        delegating to an inner pattern, wrapped under the same key) is
        passed through uncounted, so each key counts outermost calls only.
        """
        fn = vars(owner)[attr]
        stat = self.stats.setdefault(key, [0, 0])
        depth = self._depths.setdefault(key, [0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            if span:
                sid = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] = 0
                stat[0] += 1
                stat[1] += end - start
                if span:
                    stack.pop()
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, parent, key, start, end))
                    else:
                        tracer.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        self.wrap(Simulator, "__init__", "netsim.simulator", span=False,
                  after=lambda args, _: self.simulators.append(args[0]))
        # schedule() and call_soon() both end in schedule_at(), so this
        # counts every scheduling call exactly once
        self.wrap(Simulator, "schedule_at", "netsim.schedule", span=False)
        self.wrap(Event, "cancel", "netsim.cancel", span=False)
        self.wrap(Network, "send", "netsim.send")
        self.wrap(Name, "__init__", "dnscore.name", span=False)
        self.wrap(Message, "__init__", "dnscore.message", span=False)
        self.wrap(Message, "wire_length", "dnscore.wire_length", span=False)
        # the codec is imported by name: patch every module that looks it up
        for module in (wire, udp):
            self.wrap(module, "encode_message", "dnscore.encode")
        for module in (wire, udp, chaosproxy):
            self.wrap(module, "decode_message", "dnscore.decode")
        self.wrap(RecursiveResolver, "receive", "server.receive")
        self.wrap(AuthoritativeServer, "answer", "server.answer")
        self.wrap(MopiFq, "enqueue", "dcc.enqueue")
        self.wrap(MopiFq, "dequeue", "dcc.dequeue", after=self._on_dequeue)
        self.wrap(AnomalyMonitor, "evaluate", "dcc.evaluate")
        pattern_classes = [SwitchingPattern]
        for module in (patterns, realistic):
            pattern_classes.extend(
                cls for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, patterns.QueryPattern)
                and cls.__module__ == module.__name__
            )
        for cls in pattern_classes:
            if "next_question" in vars(cls):
                self.wrap(cls, "next_question", "workloads.next_question")
        self.wrap(FluidBridge, "advance", "fluid.advance")
        self.wrap(udp.UdpFabric, "send", "transport.send")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _on_dequeue(self, args, item) -> None:
        if item is None:
            self.empty_dequeues += 1
        else:
            self.queue_waits.append(args[1] - item.arr_time)

    def reset(self) -> None:
        """Forget what set-up did; simulators built so far are kept."""
        for stat in self.stats.values():
            stat[0] = stat[1] = 0
        self.spans.clear()
        self.spans_dropped = 0
        self.queue_waits.clear()
        self.empty_dequeues = 0
        self._events_before = {id(sim): sim.events_processed for sim in self.simulators}

    def __enter__(self) -> "Tracer":
        self.reset()
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- readings -----------------------------------------------------
    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(key, (0, 0))[0] for key in keys)

    def mean_us(self, *keys: str) -> float:
        calls = self.calls(*keys)
        busy = sum(self.stats.get(key, (0, 0))[1] for key in keys)
        return busy / calls / 1000.0 if calls else 0.0

    def events(self) -> int:
        before = self._events_before
        return sum(sim.events_processed - before.get(id(sim), 0) for sim in self.simulators)

    def chrome_trace(self) -> Dict[str, object]:
        """One Chrome trace-event document; every span is an ``X`` event
        on one track, ordered by start, with its parent span in args."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "perfbench"}}
        ]
        if not self.spans:
            return {"traceEvents": events}
        base = min(span[3] for span in self.spans)
        last = -1.0
        for sid, parent, key, start, end in sorted(self.spans, key=lambda s: (s[3], s[0])):
            ts = (start - base) / 1000.0
            if ts <= last:  # equal clock readings: keep the track strictly ordered
                ts = last + 0.001
            last = ts
            events.append({
                "name": key, "cat": key.split(".", 1)[0], "ph": "X", "pid": 1, "tid": 1,
                "ts": ts, "dur": max(0.0, (end - start) / 1000.0),
                "args": {"id": sid, "parent": parent},
            })
        return {"traceEvents": events}


#: every per-layer metric of the traced run, with its unit
PER_LAYER_UNITS: Dict[str, str] = {
    "netsim.events": "count",
    "netsim.us_per_event": "us",
    "netsim.scheduled": "count",
    "netsim.cancel_ratio": "ratio",
    "netsim.sends": "count",
    "netsim.send_us": "us",
    "dnscore.names": "count",
    "dnscore.name_us": "us",
    "dnscore.messages": "count",
    "dnscore.wire_length_calls": "1/send",
    "dnscore.encodes": "count",
    "dnscore.decodes": "count",
    "dnscore.codec_us": "us",
    "server.requests": "count",
    "server.cache_hit_ratio": "ratio",
    "server.upstream_per_request": "ratio",
    "server.retry_ratio": "ratio",
    "server.timeouts": "count",
    "server.shed": "count",
    "server.servfail": "count",
    "server.receive_us": "us",
    "server.answer_us": "us",
    "dcc.enqueues": "count",
    "dcc.dequeues": "count",
    "dcc.sched_us": "us",
    "dcc.accept_ratio": "ratio",
    "dcc.empty_dequeue_ratio": "ratio",
    "dcc.queue_wait_p50_ms": "ms",
    "dcc.queue_wait_p99_ms": "ms",
    "dcc.evaluate_us": "us",
    "dcc.policed": "count",
    "dcc.conviction_s": "s",
    "workloads.client_queries": "count",
    "workloads.next_question_us": "us",
    "fluid.ticks": "count",
    "fluid.advance_us": "us",
    "fluid.promotions": "count",
    "fluid.demotions": "count",
    "fluid.ledger_residual": "count",
    "transport.datagrams": "count",
    "transport.send_us": "us",
    "transport.retransmits": "count",
    "transport.shed": "count",
    "transport.decode_errors": "count",
    "transport.latency_p50_ms": "ms",
    "transport.latency_p99_ms": "ms",
    "transport.send_lag_p99_ms": "ms",
    "outcome.sim_latency_p50_ms": "ms",
    "outcome.sim_latency_p99_ms": "ms",
    "outcome.attacker_goodput_share": "ratio",
    "outcome.benign_unanswered_ratio": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    **{f"{layer}.inclusive_share": "ratio" for layer in LAYERS},
    "trace_overhead": "ratio",
}


def layer_metrics(tracer: Tracer, sampler: Sampler, plain, wrapped) -> Dict[str, float]:
    """Per-layer metrics from the wrapped run (counts, busy time), the
    sampled run (shares) and the plain run (time per event)."""
    out = wrapped.outcome
    layers = out.layers
    calls, mean_us = tracer.calls, tracer.mean_us

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = tracer.events()
    scheduled = calls("netsim.schedule")
    enqueues, dequeues = calls("dcc.enqueue"), calls("dcc.dequeue")
    waits_ms = [w * 1000.0 for w in tracer.queue_waits]
    metrics = {
        "netsim.events": events,
        "netsim.us_per_event": ratio(plain.run_s * 1e6, events),
        "netsim.scheduled": scheduled,
        "netsim.cancel_ratio": ratio(calls("netsim.cancel"), scheduled),
        "netsim.sends": calls("netsim.send"),
        "netsim.send_us": mean_us("netsim.send"),
        "dnscore.names": calls("dnscore.name"),
        "dnscore.name_us": mean_us("dnscore.name"),
        "dnscore.messages": calls("dnscore.message"),
        "dnscore.wire_length_calls": ratio(calls("dnscore.wire_length"), calls("netsim.send")),
        "dnscore.encodes": calls("dnscore.encode"),
        "dnscore.decodes": calls("dnscore.decode"),
        "dnscore.codec_us": mean_us("dnscore.encode", "dnscore.decode"),
        "server.receive_us": mean_us("server.receive"),
        "server.answer_us": mean_us("server.answer"),
        "dcc.enqueues": enqueues,
        "dcc.dequeues": dequeues,
        "dcc.sched_us": mean_us("dcc.enqueue", "dcc.dequeue"),
        "dcc.accept_ratio": 1.0 - ratio(layers.get("dcc.enqueue_failures", 0), enqueues)
        if enqueues else 0.0,
        "dcc.empty_dequeue_ratio": ratio(tracer.empty_dequeues, dequeues),
        "dcc.queue_wait_p50_ms": percentile(waits_ms, 0.50),
        "dcc.queue_wait_p99_ms": percentile(waits_ms, 0.99),
        "dcc.evaluate_us": mean_us("dcc.evaluate"),
        "workloads.client_queries": out.queries,
        "workloads.next_question_us": mean_us("workloads.next_question"),
        "fluid.ticks": calls("fluid.advance"),
        "fluid.advance_us": mean_us("fluid.advance"),
        "transport.datagrams": calls("transport.send"),
        "transport.send_us": mean_us("transport.send"),
        "trace_overhead": ratio(wrapped.run_s, plain.run_s),
    }
    for name in PER_LAYER_UNITS:
        if name not in metrics and name in layers:
            metrics[name] = layers[name]
    metrics.update(out.outcome)
    metrics.update(sampler.shares())
    # counters a workload does not have read zero (the bypass checks)
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER_UNITS}


#: workloads that run on the discrete-event simulator
SIMULATOR_WORKLOADS = ("fig8-nx-dcc", "outage-pool-hardened", "scale-hybrid-1m")


def bypass_problems(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Each workload must exercise the layers it claims and bypass the
    ones it claims to bypass."""
    expect = {  # metric -> must it be non-zero?
        "dcc.enqueues": workload != "outage-pool-hardened",
        "dcc.dequeues": workload != "outage-pool-hardened",
        "netsim.events": workload != "live-udp",
        "fluid.ticks": workload == "scale-hybrid-1m",
        "dnscore.encodes": workload == "live-udp",
        "dnscore.decodes": workload == "live-udp",
        "transport.datagrams": workload == "live-udp",
    }
    if workload == "outage-pool-hardened":
        expect["dcc.evaluate_us"] = False
    problems = []
    for name, nonzero in expect.items():
        if bool(metrics[name]) != nonzero:
            state = "zero" if nonzero else f"{metrics[name]:g}"
            problems.append(f"{name} is {state} on {workload}")
    return problems


def render_shares(metrics: Dict[str, float]) -> str:
    """The per-layer self/inclusive share table."""
    lines = ["layer       self  inclusive"]
    for layer in SHARE_LAYERS:
        inclusive = metrics.get(f"{layer}.inclusive_share")
        lines.append(
            f"{layer:<10s} {metrics[f'{layer}.self_share']:5.1%}  "
            + (f"{inclusive:5.1%}" if inclusive is not None else "    -")
        )
    return "\n".join(lines)
