"""Smoke tests for the `python -m repro` command line."""

import pytest

from repro.__main__ import COMMANDS, main


def test_describe_runs(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "xeon-8160-2s" in out
    assert "94.4M parameters" in out.replace(" ", "").replace("->", " -> ") or "94.4" in out


def test_all_paper_commands_registered():
    for cmd in ("table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "granularity", "memory", "describe", "serve-bench"):
        assert cmd in COMMANDS


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_memory_command_runs(capsys):
    # the fastest experiment command end-to-end (~10 s simulated machine)
    assert main(["memory"]) == 0
    out = capsys.readouterr().out
    assert "barrier-free" in out and "with barriers" in out


def test_serve_bench_emits_json_report(capsys, tmp_path):
    import json

    out_file = tmp_path / "report.json"
    # tiny model + short window so the command stays test-suite fast
    assert main([
        "serve-bench", "--arrival-rate", "50", "--duration", "0.3",
        "--executor", "sim", "--max-batch-size", "8", "--hidden", "16",
        "--layers", "2", "--input-size", "8", "--seq-min", "8",
        "--seq-max", "24", "--bucket-width", "8", "--mbs", "1",
        "--output", str(out_file),
    ]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(out_file.read_text())
    assert printed == on_disk
    results = printed["results"]
    for key in ("p50", "p95", "p99"):
        assert key in results["latency_s"]
    assert results["throughput_rps"] > 0
    assert "mean_size" in results["batches"]
    assert "shed" in results["requests"]
    assert printed["config"]["workers"] == 48  # the paper's machine by default


def test_analyze_command_emits_valid_bench_json(capsys, tmp_path):
    import json

    from repro.harness.ledger import check_report, load_report

    out_file = tmp_path / "analysis.json"
    assert main([
        "analyze", "--hidden", "5", "--layers", "2", "--input-size", "6",
        "--seq-len", "4", "--batch", "4", "--mbs", "2",
        "--output", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "graphlint" in out and "serialization debt" in out
    report = load_report(str(out_file))
    assert check_report(report) == []  # envelope + schema + bars
    assert report["bench"] == "graph_analysis"
    results = report["results"]
    assert results["graphlint"]["ok"] is True
    assert results["graphlint"]["findings"] == []
    assert results["parallelism"]["findings"] == []
    assert results["parallelism"]["metrics"]["serialization_debt"] == 1.0
    assert json.loads(out_file.read_text()) == report


_TINY = ["--hidden", "5", "--layers", "2", "--input-size", "6",
         "--seq-len", "8", "--batch", "4", "--mbs", "2"]
_WAVEFRONT = ["--wavefront-tile", "4"]  # on its own: no --fusion value switches tiling on


def _task_count(capsys, argv):
    """Tasks in the graph the command checked, from its summary line."""
    import re

    assert main(argv) == 0
    return int(re.search(r"OK: (\d+) tasks", capsys.readouterr().out).group(1))


def test_analyze_command_builds_the_graph_the_fusion_flags_name(capsys, tmp_path):
    from repro.harness.ledger import load_report

    out_file = tmp_path / "analysis.json"
    tiled = _task_count(capsys, ["analyze", *_TINY, *_WAVEFRONT, "--output", str(out_file)])
    assert tiled < _task_count(capsys, ["analyze", *_TINY])  # 2 tiles per chain, not 8 steps
    config = load_report(str(out_file))["config"]
    assert (config["fusion"], config["wavefront_tile"]) == ("gates", 4)


def test_racecheck_command_builds_the_graph_the_structural_flags_name(capsys):
    steps = _task_count(capsys, ["racecheck", *_TINY])
    # 8 steps in tiles of 4: each of the 2 layers x 2 directions x 2 chunks x
    # (forward, backward) chains shrinks from 8 cell tasks to 2
    assert steps - _task_count(capsys, ["racecheck", *_TINY, *_WAVEFRONT]) == 16 * (8 - 2)
    # per-layer barriers add barrier tasks; B-Seq adds the per-chunk serial regions
    barriered = ["racecheck", *_TINY, "--barriers", "--serialize-chunks"]
    assert _task_count(capsys, barriered) > steps


def test_analyze_command_lint_only(capsys):
    assert main(["analyze", "--skip-graph", "--lint", "src/repro"]) == 0
    assert "clean" in capsys.readouterr().out


def test_analyze_command_fails_on_lint_findings(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(b=[]):\n    pass\n")
    assert main(["analyze", "--skip-graph", "--lint", str(bad)]) == 1
    assert "mutable-default" in capsys.readouterr().out


def test_obs_report_emits_valid_bench_json(capsys, tmp_path):
    from repro.harness.ledger import load_report, make_report, write_report
    from repro.obs.report import run_obs_report

    out_file = tmp_path / "obs.json"
    # overhead=False: the comparison half is deterministic (simulated
    # machine); the wall-time A/B half is covered by `make smoke-obs` and
    # the committed baseline gate.
    point = run_obs_report(
        "locality", "fifo", n_cores=8, seq_len=8, batch=4, mbs=2,
        overhead=False,
    )
    write_report(
        str(out_file),
        make_report("obs_overhead", point["config"], point["results"]),
    )
    report = load_report(str(out_file))
    assert report["bench"] == "obs_overhead"
    policies = report["results"]["comparison"]["policies"]
    assert set(policies) == {"locality", "fifo"}
    n_tasks = report["results"]["comparison"]["graph"]["n_tasks"]
    for block in policies.values():
        assert block["counters"]["pops"] == n_tasks


def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys):
    for argv in (
        ["describe", "--full", "--mbs", "7", "--executor", "threaded", "--slo", "3",
         "--fuzz-seeds", "9"],
        ["table3", "--full"],
        ["fig4", "--cores", "8"],
        ["bench", "fleet", "--executor", "sim"],
        ["racecheck", "--arrival-rate", "50"],
        ["analyze", "--mutations", "3"],
        ["serve-bench", "--seq-len", "8"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def _documented_command_lines():
    """Every concrete `python -m repro ...` command of the Makefile and the
    docs (templates with placeholders or alternatives, and a bare `bench
    --check` naming the mode, are skipped)."""
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    files = [root / "Makefile", root / "README.md", root / "EXPERIMENTS.md",
             root / ".claude/skills/verify/SKILL.md", *sorted((root / "docs").glob("*.md"))]
    for path in files:
        for line in path.read_text().replace("\\\n", " ").splitlines():
            for tail in line.split("-m repro ")[1:]:
                tail = tail.split("`")[0].split("python")[0]
                if any(mark in tail for mark in "<[{|…") or "..." in tail:
                    continue
                argv = shlex.split(tail, comments=True)
                stops = [i for i, tok in enumerate(argv) if tok[0] in ">&;" or tok == "2>&1"]
                argv = argv[:stops[0]] if stops else argv
                if argv[-1] != "--check":
                    yield f"{path.name}: {tail.strip()}", argv


def test_every_documented_command_line_still_parses():
    from repro.__main__ import build_parser

    lines = list(_documented_command_lines())
    assert len(lines) >= 40
    for origin, argv in lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{origin} no longer parses")
