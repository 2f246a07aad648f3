"""``repro bench``: the performance baseline file (ROADMAP item 2).

Times the three hot paths future PRs are most likely to regress and
writes ``BENCH_<shortrev>.json`` so successive revisions accumulate
comparable baselines:

- **MOPI-FQ enqueue/dequeue** ops/sec (the per-query control-path cost
  the paper's Figure 10 bounds);
- **event-loop throughput**: virtual-time simulator events/sec;
- **fig10 quick wall time**: an end-to-end experiment as a macro probe.

Numbers are wall-clock and machine-dependent by nature -- the file
records them alongside the git revision precisely so comparisons happen
between runs on the *same* machine (CI keeps them as artifacts, not
assertions).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import time
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.netsim.sim import Simulator


def short_rev() -> str:
    """The repo's short git revision, or "unknown" outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def bench_mopifq(ops: int = 50_000) -> Dict[str, float]:
    """Steady-state enqueue/dequeue churn across a realistic ID spread.

    Per-origin queues are depth-bounded (paper Section 5), so a single
    fill-then-drain pass would mostly time *rejections*; alternating
    small fill and full drain batches keeps every operation on the
    accept path.
    """
    scheduler = MopiFq(MopiFqConfig(default_channel_rate=1e9))
    clients = [f"10.0.9.{i}" for i in range(32)]
    servers = [f"10.0.3.{i}" for i in range(4)]
    batch = 256
    now = 0.0
    enqueued = drained = 0
    enqueue_elapsed = dequeue_elapsed = 0.0
    i = 0
    while enqueued + drained < ops:
        start = time.perf_counter()
        for _ in range(batch):
            scheduler.enqueue(clients[i % 32], servers[i % 4], i, now)
            i += 1
            now += 1e-6
        enqueue_elapsed += time.perf_counter() - start
        enqueued += batch
        start = time.perf_counter()
        while scheduler.dequeue(now) is not None:
            drained += 1
            now += 1e-6
        dequeue_elapsed += time.perf_counter() - start
    return {
        "enqueue_ops_per_sec": round(enqueued / max(enqueue_elapsed, 1e-9), 1),
        "dequeue_ops_per_sec": round(drained / max(dequeue_elapsed, 1e-9), 1),
        "ops": enqueued,
        "drained": drained,
    }


def _tick(sim: Simulator, remaining: int) -> None:
    if remaining > 0:
        sim.schedule(1e-6, _tick, sim, remaining - 1)


def bench_event_loop(events: int = 200_000, fanout: int = 8) -> Dict[str, float]:
    """Self-rescheduling event chains through the virtual-time heap."""
    sim = Simulator(seed=7)
    per_chain = events // fanout
    for chain in range(fanout):
        sim.schedule(1e-6 * (chain + 1), _tick, sim, per_chain - 1)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "events_per_sec": round(sim.events_processed / max(elapsed, 1e-9), 1),
        "events": sim.events_processed,
    }


def bench_fluid_tick(ticks: int = 2_000, clients: int = 1_000_000) -> Dict[str, float]:
    """Fluid-core tick rate at the million-client population.

    Drives ``FluidBridge.advance`` standalone (no event loop) over the
    scale experiment's fig8-shaped cohort mix against a private token
    bucket, reporting ticks/sec and simulated client-updates/sec --
    the number that must stay far above real time for ``repro scale``
    to hold its wall-clock budget.  Reports ``skipped=1`` when numpy is
    unavailable.
    """
    from repro.fluid import HAVE_NUMPY

    if not HAVE_NUMPY:
        return {"skipped": 1.0}

    from repro.fluid import FluidBridge, build_cohorts
    from repro.util.tokenbucket import TokenBucket
    from repro.workloads.cohorts import scale_cohort_specs

    sim = Simulator(seed=11)
    bridge = FluidBridge(sim, tick=0.1)
    specs = scale_cohort_specs(clients, duration=1e9, zone="bench.", destination="sink")
    bridge.add_channel("sink", TokenBucket(rate=20_000.0, burst=2_000.0))
    for cohort in build_cohorts(specs, seed=11):
        bridge.add_cohort(cohort)
    bridge.start()
    now = 0.0
    start = time.perf_counter()
    for _ in range(ticks):
        now += bridge.tick
        bridge.advance(now)
    elapsed = time.perf_counter() - start
    population = bridge.client_count()
    return {
        "ticks_per_sec": round(ticks / max(elapsed, 1e-9), 1),
        "client_updates_per_sec": round(ticks * population / max(elapsed, 1e-9), 1),
        "ticks": float(ticks),
        "clients": float(population),
    }


def bench_fig10_quick() -> Dict[str, float]:
    """Wall time of the quick Figure 10 run (stdout swallowed)."""
    from repro.experiments import fig10_overhead

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        fig10_overhead.main(quick=True)
    return {"wall_seconds": round(time.perf_counter() - start, 3)}


def run_bench(mopifq_ops: int = 50_000, events: int = 200_000) -> Dict[str, Any]:
    return {
        "rev": short_rev(),
        "repro": __version__,
        "unix_time": int(time.time()),
        "benchmarks": {
            "mopifq": bench_mopifq(mopifq_ops),
            "event_loop": bench_event_loop(events),
            "fluid_tick": bench_fluid_tick(),
            "fig10_quick": bench_fig10_quick(),
        },
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ops", type=int, default=50_000,
                        help="MOPI-FQ operations to time")
    parser.add_argument("--events", type=int, default=200_000,
                        help="simulator events to time")
    parser.add_argument("--out-dir", default="results")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description="write the perf baseline BENCH_<shortrev>.json"
    )
    add_arguments(parser)
    return run_args(parser.parse_args(argv))


def run_args(args: argparse.Namespace) -> int:

    payload = run_bench(mopifq_ops=args.ops, events=args.events)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"BENCH_{payload['rev']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, numbers in sorted(payload["benchmarks"].items()):
        rendered = " ".join(f"{k}={v}" for k, v in sorted(numbers.items()))
        print(f"{name}: {rendered}")
    print(f"[written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
