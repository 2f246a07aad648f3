"""Command-line entry point: ``python -m repro <command>``.

Dispatches to the experiment drivers so the whole evaluation can be
regenerated without writing Python:

    python -m repro fig2 --scale 0.1
    python -m repro fig4 --scale 0.15
    python -m repro fig8 --scale 0.25
    python -m repro fig9 --scale 0.25
    python -m repro fig10 --quick
    python -m repro fig11 --quick
    python -m repro table1
    python -m repro chaos --backend sim   # fault-schedule replay + recovery SLOs
    python -m repro chaos --backend live --slo  # same schedule over real sockets
    python -m repro chaos-matrix --scale 0.25   # sim-only DCC on/off comparison
    python -m repro resilience --scale 0.25  # vanilla vs hardened resolver
    python -m repro selfcheck            # determinism proof (SimSan on)
    python -m repro obs --scale 0.15     # observed run, exports traces
    python -m repro fuzz --seed 42 --iterations 25  # scenario fuzzing
    python -m repro lint                 # reprolint over src/ tests/ tools/
    python -m repro live --duration 2 --seed 1  # real-socket smoke (UDP backend)
    python -m repro bench                # perf baseline BENCH_<shortrev>.json
    python -m repro scale --clients 1000000  # hybrid fluid/packet core
    python -m repro all --scale 0.1      # everything, quick settings
"""

from __future__ import annotations

import argparse
import importlib
import sys
from types import ModuleType
from typing import List, Optional

from repro.experiments import bench, chaos_unified, live_smoke, scale


def _experiment(name: str) -> ModuleType:
    """Import an experiment driver only when its subcommand runs."""
    return importlib.import_module(f"repro.experiments.{name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures "
        "(DNS Congestion Control in Adversarial Settings, SOSP 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="rate limits of 45 open resolvers")
    fig2.add_argument("--scale", type=float, default=0.1,
                      help="probe rate/duration scale (1.0 = paper rates)")
    fig2.add_argument("--resolvers", type=int, default=None,
                      help="limit the population (default: all 45)")
    fig2.set_defaults(run=lambda a: _experiment("fig2_ratelimits").main(
        scale=a.scale, resolver_count=a.resolvers))

    fig4 = sub.add_parser("fig4", help="attack validation sweeps (setups a-d)")
    fig4.add_argument("--scale", type=float, default=0.15,
                      help="timeline compression (1.0 = 50-second runs)")
    fig4.add_argument("--quick", action="store_true", help="thin the sweeps")
    fig4.set_defaults(run=lambda a: _experiment("fig4_attacks").main(
        time_scale=a.scale, quick=a.quick))

    for name, module, help_text in (
        ("fig8", "fig8_resilience", "DCC vs vanilla (Table 2 scenarios)"),
        ("fig9", "fig9_signaling", "signaling on/off on a forwarder chain"),
    ):
        figure = sub.add_parser(name, help=help_text)
        figure.add_argument("--scale", type=float, default=0.25)
        figure.add_argument("--seed", type=int, default=42)
        figure.set_defaults(run=lambda a, m=module: _experiment(m).main(scale=a.scale, seed=a.seed))

    fig10 = sub.add_parser("fig10", help="overhead vs tracked entities")
    fig10.add_argument("--quick", action="store_true")
    fig10.add_argument("--ops", type=int, default=50_000)
    fig10.add_argument("--seed", type=int, default=11)
    fig10.set_defaults(run=lambda a: _experiment("fig10_overhead").main(
        ops=a.ops, quick=a.quick, seed=a.seed))

    fig11 = sub.add_parser("fig11", help="added processing delay CDFs")
    fig11.add_argument("--quick", action="store_true")
    fig11.set_defaults(run=lambda a: _experiment("fig11_delay").main(quick=a.quick))

    table1 = sub.add_parser("table1", help="DCC state vs resolver state")
    table1.set_defaults(run=lambda a: _experiment("table1_state").main())
    ablations = sub.add_parser(
        "ablations", help="design-choice ablations (schedulers, depth)"
    )
    ablations.add_argument("--seed", type=int, default=1)
    ablations.set_defaults(run=lambda a: _experiment("ablations").main(seed=a.seed))

    selfcheck = sub.add_parser(
        "selfcheck",
        help="prove determinism: run a DCC scenario twice under the "
        "SimSan sanitizer and diff event-trace hashes",
    )
    selfcheck.add_argument("--seed", type=int, default=42)
    selfcheck.add_argument("--scale", type=float, default=0.05,
                           help="timeline compression (1.0 = 60-second runs)")
    selfcheck.add_argument("--runs", type=int, default=2)
    selfcheck.add_argument("--out", type=str, default=None,
                           help="also write the report to this file")
    selfcheck.set_defaults(run=lambda a: _experiment("selfcheck").main(
        seed=a.seed, scale=a.scale, runs=a.runs, out=a.out))

    obs = sub.add_parser(
        "obs",
        help="run one observed fig4-style scenario and export "
        "metrics.jsonl + a Perfetto-loadable Chrome trace",
    )
    obs.add_argument("--scale", type=float, default=0.15,
                     help="timeline compression (1.0 = 50-second runs)")
    obs.add_argument("--seed", type=int, default=42)
    obs.add_argument("--out-dir", type=str, default="results/obs",
                     help="directory for metrics.jsonl and trace.json")
    obs.add_argument("--top", type=int, default=10,
                     help="heavy-hitter table depth")
    obs.set_defaults(run=lambda a: _experiment("obs_demo").main(
        scale=a.scale, seed=a.seed, out_dir=a.out_dir, top=a.top))

    chaos = sub.add_parser(
        "chaos",
        help="replay one fault schedule on the sim or live backend and "
        "audit recovery SLOs (see docs/CHAOS.md)",
        description=chaos_unified.DESCRIPTION,
    )
    chaos_unified.add_arguments(chaos)
    chaos.set_defaults(run=chaos_unified.run_args)

    for name, module, help_text in (
        ("chaos-matrix", "chaos_resilience",
         "sim-only resilience comparison under infrastructure faults "
         "(DCC on/off); `repro chaos` replays schedules on either backend"),
        ("resilience", "resilience_matrix",
         "resilience matrix: vanilla vs hardened resolver under a "
         "total authoritative outage + NX flood"),
    ):
        matrix = sub.add_parser(name, help=help_text)
        matrix.add_argument("--scale", type=float, default=0.25)
        matrix.add_argument("--seed", type=int, default=42)
        matrix.add_argument("--out", type=str, default=None,
                            help="also write the report to this file")
        matrix.set_defaults(run=lambda a, m=module: _experiment(m).MATRIX.main(
            scale=a.scale, seed=a.seed, out=a.out))

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based scenario fuzzing with invariant oracles "
        "(deterministic: same seed -> same verdict log and digest)",
    )
    fuzz.add_argument("--seed", type=int, default=42, help="master seed")
    fuzz.add_argument("--iterations", type=int, default=25,
                      help="scenario draws to run")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      help="stop after this many wall-clock seconds "
                      "(may end before --iterations)")
    fuzz.add_argument("--log", type=str, default=None,
                      help="write the JSONL verdict log to this file")
    fuzz.add_argument("--corpus-dir", type=str, default="results/fuzz-corpus",
                      help="directory for shrunk counterexamples "
                      "(curate into tests/regressions/ by hand)")
    fuzz.add_argument("--shrink-budget", type=int, default=150,
                      help="max scenario re-runs per minimisation")
    fuzz.add_argument("--inject-bug", type=str, default=None,
                      choices=["dangling-glueless"],
                      help="re-introduce a known-fixed defect "
                      "(fuzzer self-test / corpus regeneration)")
    fuzz.add_argument("--replay", type=str, default=None, metavar="FILE",
                      help="re-run one counterexample file and exit")
    fuzz.add_argument("--replay-with-bug", action="store_true",
                      help="honor the file's recorded bug injection on replay")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress the live verdict-log tail")
    fuzz.set_defaults(run=_cmd_fuzz)

    live = sub.add_parser(
        "live",
        help="benign+NX-flood smoke over real asyncio UDP sockets "
        "(transport backend + chaos proxy); writes results/live_smoke.txt",
        description=live_smoke.DESCRIPTION,
    )
    live_smoke.add_arguments(live)
    live.set_defaults(run=live_smoke.run_args)

    bench_cmd = sub.add_parser(
        "bench",
        help="time MOPI-FQ, the event loop, and fig10-quick; "
        "writes BENCH_<shortrev>.json (perf baseline trajectory)",
    )
    bench.add_arguments(bench_cmd)
    bench_cmd.set_defaults(run=bench.run_args)

    scale_cmd = sub.add_parser(
        "scale",
        help="million-client hybrid fluid/packet scenario with double-run "
        "digests per mode and a hybrid-vs-packet verdict gate",
        description=scale.DESCRIPTION,
    )
    scale.add_arguments(scale_cmd)
    scale_cmd.set_defaults(run=scale.run_args)

    # no options of its own: everything after `lint` is forwarded to
    # tools.reprolint, --help included
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the reprolint static analyzer (rules R1-R9); defaults "
        "to src/ tests/ tools/ against the checked-in ratchet",
    )

    everything = sub.add_parser("all", help="run every experiment (quick settings)")
    everything.add_argument("--scale", type=float, default=0.1)
    everything.set_defaults(run=_cmd_all)
    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.fuzz import corpus as fuzz_corpus
    from repro.fuzz.engine import fuzz as run_fuzz

    if args.replay is not None:
        scenario, _, violations = fuzz_corpus.replay(
            args.replay, honor_injection=args.replay_with_bug
        )
        print(f"replayed {scenario.scenario_id}: {scenario.describe()}")
        if violations:
            for violation in violations:
                print(f"  VIOLATION [{violation.oracle}] {violation.detail}")
            return 1
        print("  ok: all oracles pass")
        return 0

    def on_line(line: str) -> None:
        if not args.quiet:
            print(line)

    report = run_fuzz(
        master_seed=args.seed,
        iterations=args.iterations,
        inject_bug=args.inject_bug,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus_dir,
        clock=time.monotonic if args.time_budget is not None else None,
        time_budget=args.time_budget,
        on_line=on_line,
    )
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.log_lines) + "\n")
    print(
        f"fuzz: {report.iterations_run} iteration(s), "
        f"{len(report.counterexamples)} counterexample(s), "
        f"stopped by {report.stopped_by}, digest {report.digest}"
    )
    for ce in report.counterexamples:
        oracles = ",".join(sorted({v.oracle for v in ce.violations}))
        where = ce.path or ce.scenario.scenario_id
        print(f"  {where}: [{oracles}] size {ce.original_size} -> {ce.scenario.size()}")
    return 0 if report.ok else 1


def _cmd_lint(lint_args: List[str]) -> int:
    """Shell into tools.reprolint from the installed-package entry point.

    The linter lives in ``tools/`` (it lints the repo, it is not part of
    the library), so this resolves the repo root relative to the
    ``repro`` package and fails loudly outside a source checkout.
    """
    import os

    import repro

    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    if not os.path.isdir(os.path.join(repo_root, "tools", "reprolint")):
        print("repro lint: tools/reprolint not found; "
              "run from a source checkout", file=sys.stderr)
        return 2
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tools.reprolint.__main__ import main as lint_main

    argv = list(lint_args)
    if not argv:
        argv = ["--ratchet"]  # bare `repro lint` behaves like the CI gate
    if not any(not token.startswith("-") for token in argv):
        argv = [os.path.join(repo_root, p) for p in ("src", "tests", "tools")] + argv
    return lint_main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        return _cmd_lint(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.run(args) or 0


def _cmd_all(args: argparse.Namespace) -> None:
    quick = str(args.scale)
    for argv in (
        ["fig2", "--scale", quick, "--resolvers", "10"],
        ["fig4", "--scale", quick, "--quick"],
        ["fig8", "--scale", quick],
        ["fig9", "--scale", quick],
        ["fig10", "--quick"],
        ["fig11", "--quick"],
        ["table1"],
        ["chaos-matrix", "--scale", str(max(args.scale, 0.15))],
        ["resilience", "--scale", str(max(args.scale, 0.1))],
    ):
        main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
