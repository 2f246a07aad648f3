#!/usr/bin/env python3
"""The repository's benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig8-nx-dcc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

``--trace 0`` measures the end-to-end metrics: it repeats the workload
(built from ``--seed``, run, checked) until ``--seconds`` have passed and
reports medians.  ``--trace 1`` makes the traced run instead: one plain
run, one under the stack sampler and one with the layer wrappers, all of
the same seed, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, ``record: {...}``, carries the host fingerprint, the digest and the
simulated outcome.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-up samples per run (extra builds when fewer runs fit the time)
MIN_SETUPS = 10
WORKLOAD_NAMES = ("fig8-nx-dcc", "outage-pool-hardened", "scale-hybrid-1m", "live-udp")
UNITS = {"setup_s": "s", "run_s": "s", "cpu_us_per_query": "us", "peak_rss_mb": "MB"}


def _load():
    """Import the program from this checkout's src/ (and nowhere else)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro found outside this checkout: {repro.__file__}")
    from perfbench import tracing, workloads

    return tracing, workloads


def _git_rev() -> str:
    """HEAD's commit from .git in the checkout, read as files; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, which identifies the code
    where there is no git metadata."""
    hasher = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def host_fingerprint(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": _git_rev(),
        "src_digest": source_digest(),
        "seed": seed,
    }


def measure(wl, seed: int, seconds: float):
    """Untraced runs for about ``seconds``, plus set-up-only builds."""
    size = wl.sizes["bench"]
    # the warm-up run is checked like the others but not timed
    warmup = wl.iterate(seed, size)
    setups = [warmup.setup_s]
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(wl.iterate(seed, size))
        elapsed = time.perf_counter() - start
        # stop before a run that would, at the pace so far, end late
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    setups.extend(s.setup_s for s in samples)
    while len(setups) < MIN_SETUPS:
        setups.append(wl.iterate(seed, size, run=False).setup_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s.run_s for s in samples),
        "cpu_us_per_query": statistics.median(
            s.cpu_s / s.outcome.queries * 1e6 for s in samples
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [warmup] + samples, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def traced(wl, seed: int, tracing, trace_path: Path, profile: str = "bench"):
    """Plain, sampled and wrapped runs of one seed; per-layer metrics."""
    size = wl.sizes[profile]
    plain = wl.iterate(seed, size)
    sampler = tracing.Sampler()
    sampled = wl.iterate(seed, size, during=sampler)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = wl.iterate(seed, size, during=tracer)
    finally:
        tracer.uninstall()
    samples = [plain, sampled, wrapped]
    metrics = tracing.layer_metrics(tracer, sampler, plain, wrapped)
    problems = tracing.bypass_problems(wl.name, metrics)

    from repro.obs.export import validate_chrome_trace

    doc = tracer.chrome_trace()
    problems.extend(f"chrome trace: {p}" for p in validate_chrome_trace(doc)[:5])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"trace: {len(tracer.spans)} spans ({tracer.spans_dropped} over the cap) "
          f"written to {trace_path}")
    print(tracing.render_shares(metrics))
    units = tracing.PER_LAYER_UNITS
    return samples, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, problems


def run_one(args) -> int:
    try:
        tracing, workloads = _load()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    problems = []
    if args.trace:
        trace_path = ROOT / "perfbench" / "out" / f"trace-{wl.name}-s{args.seed}.json"
        samples, metrics, problems = traced(wl, args.seed, tracing, trace_path)
    else:
        samples, metrics = measure(wl, args.seed, args.seconds)
    outcomes = [s.outcome for s in samples]
    for out in outcomes:
        problems.extend(out.problems)
    digests = sorted({out.digest for out in outcomes})
    if len(digests) != 1:
        problems.append(f"runs of seed {args.seed} disagree on the digest: {digests}")

    print(f"workload {wl.name} seed {args.seed}: {len(samples)} runs")
    print(f"digest: {outcomes[0].digest}")
    for name, value in sorted(outcomes[0].outcome.items()):
        print(f"outcome {name} = {value:.6g}")
    if not args.trace:
        for name, metric in metrics.items():
            print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print("check: ok" if not problems else "check: FAILED")
    for problem in problems[:20]:
        print(f"  - {problem}")
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": len(samples),
        "host": host_fingerprint(args.seed),
        "digest": outcomes[0].digest,
        "outcome": outcomes[0].outcome,
        "problems": problems,
        "metrics": metrics,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(out.attempted for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
