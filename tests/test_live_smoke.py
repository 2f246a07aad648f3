"""``repro live`` end to end over real localhost sockets.

A short send phase keeps the double run to a few seconds; the counts
line is the run's determinism anchor, so two same-seed runs must agree
on it exactly while both stay free of hangs and loop errors.
"""

from repro.experiments.live_smoke import LiveConfig, run_live


def test_same_seed_runs_agree_and_stay_live():
    first, second = (run_live(LiveConfig(seed=3, duration=0.5)) for _ in range(2))
    assert first.failures() == []
    assert second.failures() == []
    assert first.counts["benign_sent"] > 0
    assert first.deterministic_line() == second.deterministic_line()
