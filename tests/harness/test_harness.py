"""Smoke/shape tests for the experiment harness (small configurations)."""

import json

import pytest

from repro.__main__ import main
from repro.harness.paper import SECTIONS, GRIDS, format_results, run_paper_suite
from repro.harness.simtime import simulated_batch_time
from repro.harness.tables import HEADERS, make_spec, run_row
from repro.harness import figures
from repro.models.spec import BRNNSpec


def small_blstm(layers=2):
    return BRNNSpec(
        cell="lstm", input_size=32, hidden_size=32, num_layers=layers,
        merge_mode="sum", head="many_to_one", num_classes=11,
    )


def test_simulated_batch_time_basic():
    t = simulated_batch_time(small_blstm(), 10, 16, mbs=2, n_cores=8)
    assert t.seconds > 0
    assert t.n_tasks == len(t.trace.records)


def test_simulated_batch_time_mbs_speeds_up_on_many_cores():
    # hidden large enough that cell tasks dominate runtime overhead
    spec = BRNNSpec(
        cell="lstm", input_size=64, hidden_size=128, num_layers=4,
        merge_mode="sum", head="many_to_one", num_classes=11,
    )
    t1 = simulated_batch_time(spec, 20, 64, mbs=1, n_cores=16).seconds
    t4 = simulated_batch_time(spec, 20, 64, mbs=4, n_cores=16).seconds
    assert t4 < t1


def test_simulated_batch_time_training_flag():
    spec = small_blstm()
    t_train = simulated_batch_time(spec, 10, 16, training=True).seconds
    t_infer = simulated_batch_time(spec, 10, 16, training=False).seconds
    assert t_infer < t_train


def test_bseq_slower_than_bpar_on_many_cores():
    spec = small_blstm(layers=4)
    bpar = simulated_batch_time(spec, 20, 32, mbs=4, n_cores=16).seconds
    bseq = simulated_batch_time(spec, 20, 32, mbs=4, n_cores=16, serialize_chunks=True).seconds
    assert bseq >= bpar


def test_run_row_columns():
    values = run_row("lstm", 32, 32, 8, 4, n_cores=8)
    assert len(values) == len(HEADERS)
    row = dict(zip(HEADERS, values))
    assert row["BPar"] > 0 and row["K-CPU"] > 0
    assert row["vs K-CPU"] == pytest.approx(row["K-CPU"] / row["BPar"])


def test_make_spec_six_layers():
    s = make_spec("gru", 64, 128)
    assert s.num_layers == 6 and s.cell == "gru"


def test_fig3_series_shape():
    out = figures.fig3_minibatch_scaling(
        layers=2, seq_len=8, batch=16, core_counts=(1, 4), mbs_list=(1, 2, 8)
    )
    assert out["headers"] == ["mbs", "1c", "4c"]
    assert [row[0] for row in out["rows"]] == ["mbs:1", "mbs:2", "mbs:8"]
    assert all(len(row) == 3 for row in out["rows"])
    assert out["mbs1_speedup_at_1_core"] == pytest.approx(1.0, rel=0.05)  # self-speedup


def test_fig4_series():
    s = figures.fig4_core_scaling(layers=2, seq_len=6, batch=16, mbs=2, core_counts=(1, 8))
    rows = {row[0]: row[1:] for row in s["rows"]}
    assert len(rows["Keras"]) == len(rows["B-Par"]) == 2
    assert rows["B-Par"][1] < rows["B-Par"][0]  # more cores help B-Par
    assert s["bpar_best_core_count"] == 8


def test_fig6_training_and_inference_rows():
    out = figures.fig6_layers(layer_counts=(2,), seq_len=6, batch=16, n_cores=8)
    row = dict(zip(out["headers"], out["rows"][0]))
    assert row["bpar infer"] < row["bpar train"]
    assert row["keras infer"] < row["keras train"]
    assert out["max_bpar_infer_over_train"] < 1.0


def test_fig8_speedups_positive():
    out = figures.fig8_next_char(
        layer_counts=(2,), batches=(16,), hiddens=(32,), seq_len=8, n_cores=8
    )
    assert [row[0] for row in out["rows"]] == ["lstm", "gru"]
    assert all(row[-1] > 0 for row in out["rows"])
    assert out["lstm"]["max_speedup_deepest"] == out["lstm"]["max_speedup_shallowest"]


def test_granularity_study_small():
    out = figures.granularity_study(
        layers=2, input_size=16, hidden=128, seq_len=8, batch=32, mbs=1, n_cores=8,
        batches_per_epoch=10,
    )
    assert out["tasks_per_epoch"] == out["num_tasks"] * 10
    assert out["overhead_ratio"] < 0.5


def test_memory_study_barrier_reduces_live_set():
    out = figures.memory_study(layers=3, seq_len=10, batch=12, mbs=2, n_cores=8)
    assert out["live_task_ratio"] > 1.0
    assert out["live_wss_ratio"] > 1.0


def test_both_grids_cover_every_paper_section():
    assert list(GRIDS["smoke"]) == list(GRIDS["record"]) == list(SECTIONS)


def test_paper_sections_are_deterministic_and_a_command_prints_its_section(capsys):
    names = ["granularity", "inference_latency"]
    first = run_paper_suite("smoke", names)
    # the simulated clock: two runs write byte-identical reports
    assert json.dumps(first) == json.dumps(run_paper_suite("smoke", names))
    assert list(first["results"]) == list(first["config"]["sections"]) == names
    assert main(["granularity"]) == 0
    section = {"granularity": first["results"]["granularity"]}
    assert capsys.readouterr().out == format_results(section) + "\n"
