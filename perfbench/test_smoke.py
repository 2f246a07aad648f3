"""Tiny-size smoke tests of the benchmark: workloads, output checks, trace.

Run from the root of a checkout (not part of the tier-1 suite, whose
test path is ``tests/``)::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: one fact per workload that, when broken, its output check must catch
TAMPER = {
    "fig8-nx-dcc": {"attacker_convicted": False},
    "outage-pool-hardened": {"stale_responses": 0},
    "scale-hybrid-1m": {"ledger_residual": 1e-3},
    "live-udp": {"decode_errors": 1},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_runs_pass_their_checks_and_repeat(name):
    wl = WORKLOADS[name]
    first = wl.iterate(3, wl.sizes["tiny"]).outcome
    second = wl.iterate(3, wl.sizes["tiny"]).outcome
    assert first.problems == []
    assert first.digest == second.digest
    assert first.attempted > 0 and first.failed == 0
    assert wl.check(first.facts) == []
    broken = dict(first.facts, **TAMPER[name])
    assert wl.check(broken), f"{name}: tampered facts passed the check"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_holds_its_bypasses(name, tmp_path, capsys):
    wl = WORKLOADS[name]
    samples, metrics, problems = run.traced(
        wl, 3, tracing, tmp_path / "trace.json", profile="tiny"
    )
    assert problems == []
    assert len({s.outcome.digest for s in samples}) == 1
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert len(doc["traceEvents"]) > 1
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in tracing.SHARE_LAYERS)
    assert shares == pytest.approx(1.0)


def test_nested_calls_under_one_key_count_once():
    # the heavy fig8 client's SwitchingPattern delegates to inner
    # patterns; each client query must still count one next_question
    wl = WORKLOADS["fig8-nx-dcc"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = wl.iterate(3, wl.sizes["tiny"], during=tracer).outcome
    finally:
        tracer.uninstall()
    assert out.queries > 0
    assert tracer.calls("workloads.next_question") == out.queries


def test_bypass_check_catches_a_layer_that_ran():
    metrics = dict.fromkeys(tracing.PER_LAYER_UNITS, 1.0)
    problems = tracing.bypass_problems("outage-pool-hardened", metrics)
    assert "dcc.enqueues is 1 on outage-pool-hardened" in problems
    assert "fluid.ticks is 1 on outage-pool-hardened" in problems


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
