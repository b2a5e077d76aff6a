"""The bench ledger: one bar table, one evaluator, one runner.

Deterministic: every report here is a committed baseline, a freshly
written certificate, or a fake suite — no wall-clock number is asserted.
"""

import copy
import glob
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.verify import assemble_certificate
from repro.harness import ledger
from repro.harness.ledger import SUITES, Bar, Suite, check_report, load_report
from repro.harness.paper import format_results

ROOT = Path(__file__).resolve().parents[2]
BASELINES = sorted(glob.glob(str(ROOT / ledger.BASELINE_DIR / "BENCH_*.json")))
ROWS = [(name, bar) for name, suite in SUITES.items() for bar in suite.bars]


def _baseline(suite: str) -> dict:
    return load_report(str(ROOT / ledger.baseline_path(suite)))


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    """`verify` has no committed record either: the full-matrix certificate
    takes ~8 s, so write it with the real CLI."""
    path = tmp_path_factory.mktemp("ledger") / "verify.json"
    assert main(["analyze", "--skip-graph", "--verify",
                 "--verify-output", str(path)]) == 0
    return load_report(str(path))


@pytest.fixture
def sample(verify_report):
    """A passing report of the named suite, free to mutate."""
    return lambda suite: copy.deepcopy(
        verify_report if suite == "verify" else _baseline(suite)
    )


def _terms(bar: Bar):
    for side in (bar.lhs, bar.rhs):
        for term in side if isinstance(side, tuple) else (side,):
            if isinstance(term, str):
                yield term[:-2] if term.endswith(".*") else term


def _force(results: dict, bar: Bar, hold: bool) -> None:
    """Rewrite the row's first lhs path so its comparison is ``hold``."""
    first = bar.lhs[0] if isinstance(bar.lhs, tuple) else bar.lhs
    if first.endswith(".*"):
        assert bar.op == "==" and not hold
        ledger.lookup(results, first[:-2])["mutant"] = 1
        return
    rhs = ledger._value(results, bar.rhs)
    if isinstance(rhs, bool):
        wanted = rhs if hold else not rhs
    elif isinstance(rhs, list):
        wanted = [] if hold else [{"rule": "mutant"}]
    else:
        rest = ledger._value(results, bar.lhs) - ledger.lookup(results, first)
        step = {">=": (0, -1), ">": (1, 0), "<=": (0, 1), "<": (-1, 0),
                "==": (0, 1)}[bar.op][0 if hold else 1]
        bound = rhs * bar.slack if bar.slack != 1.0 else rhs
        wanted = bound + step - rest
    *parents, leaf = first.split(".")
    holder = ledger.lookup(results, ".".join(parents)) if parents else results
    holder[leaf] = wanted


def _failed(errors, bar: Bar) -> bool:
    return any(f"bar {bar.label} failed" in err for err in errors)


# -- the committed records ---------------------------------------------------------

def test_there_are_five_baselines():
    # every suite but the certificate, which a CLI run writes in seconds
    assert len(BASELINES) == len(SUITES) - 1 == 5


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: Path(p).stem)
def test_every_committed_baseline_passes(path):
    assert check_report(load_report(path), path) == []


def test_verify_report_from_the_cli_passes(verify_report):
    assert (verify_report["bench"], verify_report["scope"]) == ("verify", "record")
    assert check_report(verify_report) == []


def test_experiments_md_quotes_the_committed_record():
    """Every section block of EXPERIMENTS.md is the record through the
    suite's formatter, and every `` `path` = number `` is the record's."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    results = _baseline("paper")["results"]
    for name, section in results.items():
        assert format_results({name: section}) in text, name
    quoted = re.findall(r"`([a-z0-9_.]+)` = (-?\d+(?:\.\d+)?)", text)
    assert len(quoted) >= 60
    for path, shown in quoted:
        decimals = len(shown.partition(".")[2])
        assert f"{ledger.lookup(results, path):.{decimals}f}" == shown, path


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_bar_reads_schema_checked_paths(name):
    """A schema-valid report can never make a bar unevaluable."""
    suite = SUITES[name]
    checked = {path for path, _ in suite.schema}
    for bar in suite.bars:
        for term in _terms(bar):
            assert term in checked, f"{name}: {bar.label} reads unchecked {term}"
        assert set(bar.scopes) <= set(ledger.SCOPES) and bar.scopes
    assert not any(b.multicore for b in suite.bars) or "host_cores" in checked


# -- the bar mutation kill ---------------------------------------------------------

@pytest.mark.parametrize(
    "name,bar", ROWS, ids=[f"{name}:{bar.label}" for name, bar in ROWS]
)
def test_bar_mutation_kill(name, bar, sample):
    """Violating just one row fails the report and the message names the
    row — so no bar can silently stop gating."""
    report = sample(name)
    results = report["results"]
    if "record" not in bar.scopes:
        report["scope"] = bar.scopes[0]
    if bar.multicore:
        # a single-core record would waive the row: make it a passing
        # two-core record first
        results["host_cores"] = 2
        for other in SUITES[name].bars:
            if other.multicore:
                _force(results, other, hold=True)
    assert check_report(report) == []
    _force(results, bar, hold=False)
    errors = check_report(report, "mutant")
    assert _failed(errors, bar), errors
    assert all(err.startswith("mutant: ") for err in errors)


def test_mutation_kill_covers_every_row():
    assert len(ROWS) == sum(len(s.bars) for s in SUITES.values()) >= 180
    labels = [(name, bar.label, bar.scopes) for name, bar in ROWS]
    assert len(set(labels)) == len(labels), "two rows share a label"


#: one edit to a clean certificate -> the bar that must name it
_CERT_DEFECTS = {
    "n_certified == n_families":
        lambda c: c["families"][3].update(ok=False),
    "n_size_isomorphic == n_families":
        lambda c: c["families"][4].update(size_isomorphism=False),
    "min_pairs_proved > 0":
        lambda c: c["families"][5]["instances"][1].update(pairs_proved=0),
    "min_plan_edges_checked > 0":
        lambda c: c["families"][6]["instances"][0].update(plan_edges_checked=0),
    "mutations.widen_write.detected == True":
        lambda c: c["mutations"]["widen_write"].update(detected=False),
    "mutations.drop_edge.exact_pair == True":
        lambda c: c["mutations"]["drop_edge"].update(pair=["fwd.cell[0]L0f.t0"]),
    "cross_validation.samples == n_instances":
        lambda c: c["cross_validation"].update(samples=1),
    "mutations.undeclare.exact_pair == True":
        lambda c: c["mutations"]["undeclare"].update(pair=["fwd[0]L0s0", ""]),
    "cross_validation.max_findings == 0":
        lambda c: c["cross_validation"]["entries"][2].update(findings=1),
    "cross_validation.min_observed_tasks > 0":
        lambda c: c["cross_validation"]["entries"][0].update(observed_tasks=0),
}


@pytest.mark.parametrize("label", _CERT_DEFECTS)
def test_a_defective_certificate_fails_the_bar_that_names_it(label, sample):
    report = sample("verify")
    cert = report["results"]
    _CERT_DEFECTS[label](cert)
    report["results"] = assemble_certificate(
        cert["families"], cert["mutations"], cert["cross_validation"])
    errors = check_report(report, "cert")
    assert any(f"bar {label} failed" in err for err in errors), errors


# -- waiver and scope --------------------------------------------------------------

def test_single_core_record_waives_speedup_bars_with_a_notice():
    report = _baseline("fusion")
    report["results"]["threaded"]["train_speedup_median"]["proj"] = 1.0  # under 1.7
    report["results"]["host_cores"] = 1
    notices: list = []
    assert check_report(report, "fusion", notices) == []
    assert len(notices) == 1 and "NOTICE" in notices[0] and "1-core" in notices[0]

    report["results"]["host_cores"] = 2  # same numbers, the bar now applies
    notices = []
    (error,) = check_report(report, "fusion", notices)
    assert notices == []
    assert "threaded.train_speedup_median.proj >= 1.7 failed" in error


def test_scope_is_read_from_the_report():
    report = _baseline("obs_overhead")
    assert "scope" not in report
    report["results"]["overhead"]["overhead_ratio"] = 1.05
    errors = check_report(report)  # absent scope = record bounds
    assert len(errors) == 1 and "<= 1.02" in errors[0]
    report["scope"] = "record"
    assert check_report(report) == errors
    report["scope"] = "smoke"  # tenancy slack: <= 1.10
    assert check_report(report) == []
    report["scope"] = "nightly"
    (error,) = check_report(report)
    assert "scope 'nightly'" in error


# -- reports at the boundary -------------------------------------------------------

def _write(tmp_path, payload) -> str:
    path = tmp_path / "report.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _schema_errors(capsys, path: str):
    assert main(["bench", "--check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return [ln for ln in captured.err.splitlines() if ln.startswith("SCHEMA ERROR: ")]


def test_unreadable_file_is_one_schema_error(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    (line,) = _schema_errors(capsys, path)
    assert path in line


@pytest.mark.parametrize("payload", ["{not json", "[1, 2]", '"text"'])
def test_non_object_json_is_one_schema_error(capsys, tmp_path, payload):
    path = _write(tmp_path, payload)
    (line,) = _schema_errors(capsys, path)
    assert path in line


def test_unknown_bench_name_is_one_schema_error(capsys, tmp_path):
    report = _baseline("fleet")
    report["bench"] = "threaded_real"
    (line,) = _schema_errors(capsys, _write(tmp_path, report))
    assert "unknown bench 'threaded_real'" in line


def test_envelope_is_validated_once_for_every_suite(capsys, tmp_path):
    report = _baseline("fusion")
    report["schema_version"] = 2
    (line,) = _schema_errors(capsys, _write(tmp_path, report))
    assert "schema_version 2" in line
    del report["config"]
    (line,) = _schema_errors(capsys, _write(tmp_path, report))
    assert "missing key 'config'" in line


def test_missing_key_names_the_dotted_path(capsys, tmp_path):
    report = _baseline("fusion")
    del report["results"]["sim"]["tiled"]["cp_ratio"]
    (line,) = _schema_errors(capsys, _write(tmp_path, report))
    assert "missing key 'sim.tiled.cp_ratio'" in line


def test_bool_is_not_a_number(capsys, tmp_path):
    report = _baseline("obs_overhead")
    report["results"]["overhead"]["overhead_ratio"] = True
    (line,) = _schema_errors(capsys, _write(tmp_path, report))
    assert "'overhead.overhead_ratio' has type bool" in line


def test_usage_errors_exit_2(capsys):
    assert main(["bench"]) == 2
    assert main(["bench", "no_such_suite"]) == 2
    assert main(["bench", "verify"]) == 2  # written by analyze --verify-output
    assert main(["bench", "fleet", "--check", "x.json"]) == 2
    assert "usage: bench" in capsys.readouterr().err
    for argv in (["bench", "--check"], ["describe", "--record"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# -- the runner, through a fake two-row suite --------------------------------------

def _fake_measure(value: float) -> dict:
    return {"config": {"value": value}, "results": {"x": value}}


@pytest.fixture
def fake_suite(monkeypatch):
    suite = Suite(
        measure=_fake_measure,
        smoke={"value": 2.0},
        record={"value": 3.0},
        schema=[("x", (int, float))],
        bars=[Bar("x", ">=", 1.0), Bar("x", "<", 2.5, scopes=("record",))],
    )  # smoke passes both applicable rows; the record size breaks the second
    monkeypatch.setitem(SUITES, "fake", suite)
    return suite


def test_bench_writes_what_it_prints_and_check_agrees(capsys, tmp_path, fake_suite):
    out_file = tmp_path / "fake.json"
    assert main(["bench", "fake", "--output", str(out_file)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(out_file.read_text())
    assert printed == {
        "bench": "fake", "schema_version": 1, "scope": "smoke",
        "config": {"value": 2.0}, "results": {"x": 2.0},
    }
    assert main(["bench", "--check", str(out_file)]) == 0
    assert "fake report OK (smoke bars)" in capsys.readouterr().out


def test_bench_exits_1_on_any_failed_row(capsys, tmp_path, fake_suite):
    out_file = tmp_path / "fake_record.json"
    assert main(["bench", "fake", "--record", "--output", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["scope"] == "record"
    assert "bar x < 2.5 failed (observed 3.0 vs 2.5)" in captured.err
    assert main(["bench", "--check", str(out_file)]) == 1
    assert "bar x < 2.5 failed" in capsys.readouterr().err
