"""CLI dispatcher tests (fast paths only)."""

import pytest

from repro.cli import main


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "DCC total" in out


def test_fig2_small(capsys):
    assert main(["fig2", "--scale", "0.05", "--resolvers", "2"]) == 0
    out = capsys.readouterr().out
    assert "IRL WC" in out
    assert "Uncertain" in out


def test_fig11_quick(capsys):
    assert main(["fig11", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "p99" in out


def test_fig10_quick_small_ops(capsys):
    assert main(["fig10", "--quick", "--ops", "2000"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10(a)" in out and "Figure 10(b)" in out


def test_ablations(capsys):
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "MOPI-FQ" in out
    assert "MMF deviation" in out
    assert "head-of-line" in out


def test_resilience_small(capsys, tmp_path):
    # both fault matrices go through the same runner and report layout
    for command, title, verdict in (
        ("resilience", "Resilience matrix", "hardened retains benign service"),
        ("chaos-matrix", "Chaos resilience", "DCC sustains benign goodput"),
    ):
        out_file = tmp_path / f"{command}.txt"
        assert main([command, "--scale", "0.05", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert title in out
        assert verdict in out
        assert title in out_file.read_text()


def test_lint_subcommand_forwards_to_reprolint(capsys, tmp_path):
    bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(bad), "--no-cache", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "R1" in out

    good = tmp_path / "src" / "repro" / "netsim" / "good.py"
    good.write_text("def f(rng):\n    return rng.random()\n")
    assert main(["lint", str(good), "--no-cache", "--no-baseline"]) == 0


def test_lint_subcommand_propagates_path_errors(tmp_path):
    assert main(["lint", str(tmp_path / "missing"), "--no-cache"]) == 2


SUBCOMMANDS = (
    "fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "table1", "ablations",
    "selfcheck", "obs", "chaos", "chaos-matrix", "resilience", "fuzz", "lint",
    "live", "bench", "scale", "all",
)


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    listed = {
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("    ") and not line.startswith("     ")
    }
    assert listed == set(SUBCOMMANDS)


def test_unknown_option_rejected():
    with pytest.raises(SystemExit):
        main(["table1", "--bogus"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])
