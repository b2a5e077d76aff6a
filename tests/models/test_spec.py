"""Unit tests for BRNNSpec, including the paper's parameter counts."""

import numpy as np
import pytest

from repro.models.spec import BRNNSpec


def test_defaults_valid():
    s = BRNNSpec()
    assert s.cell == "lstm" and s.head == "many_to_one"


@pytest.mark.parametrize(
    "field,value",
    [
        ("cell", "transformer"),
        ("head", "seq2seq"),
        ("merge_mode", "max"),
        ("input_size", 0),
        ("hidden_size", -1),
        ("num_layers", 0),
        ("num_classes", 0),
    ],
)
def test_invalid_fields_raise(field, value):
    with pytest.raises(ValueError):
        BRNNSpec(**{field: value})


def test_the_basic_rnn_cell_is_rejected():
    """The paper's two cells are the only ones: ``"rnn"`` is an unknown
    cell, and the error names the ones there are."""
    with pytest.raises(ValueError, match=r"'lstm', 'gru'\).*'rnn'"):
        BRNNSpec(cell="rnn")


def test_layer_input_size_sum_merge():
    s = BRNNSpec(input_size=10, hidden_size=7, num_layers=3, merge_mode="sum")
    assert s.layer_input_size(0) == 10
    assert s.layer_input_size(1) == 7
    assert s.layer_input_size(2) == 7
    with pytest.raises(ValueError):
        s.layer_input_size(3)


def test_layer_input_size_concat_merge():
    s = BRNNSpec(input_size=10, hidden_size=7, num_layers=2, merge_mode="concat")
    assert s.layer_input_size(1) == 14
    assert s.merged_size == 14


def test_cell_param_shapes():
    s = BRNNSpec(cell="lstm", input_size=10, hidden_size=8, num_layers=2)
    assert s.cell_param_shapes(0) == ((18, 32), (32,))
    g = BRNNSpec(cell="gru", input_size=10, hidden_size=8, num_layers=2)
    assert g.cell_param_shapes(0) == ((18, 24), (24,))


# Parameter counts from Tables III and IV of the paper (±1.5% for head).
PAPER_COUNTS = [
    ("lstm", 64, 256, 5.9e6),
    ("lstm", 256, 256, 6.3e6),
    ("lstm", 1024, 256, 7.8e6),
    ("lstm", 64, 1024, 92.8e6),
    ("lstm", 256, 1024, 94.4e6),
    ("lstm", 1024, 1024, 100.7e6),
    ("gru", 64, 256, 4.4e6),
    ("gru", 256, 256, 4.7e6),
    ("gru", 1024, 256, 5.9e6),
    ("gru", 64, 1024, 69.6e6),
    ("gru", 256, 1024, 70.8e6),
    ("gru", 1024, 1024, 75.5e6),
]


@pytest.mark.parametrize("cell,inp,hid,expected", PAPER_COUNTS)
def test_parameter_counts_match_paper(cell, inp, hid, expected):
    s = BRNNSpec(
        cell=cell, input_size=inp, hidden_size=hid, num_layers=6,
        merge_mode="sum", num_classes=11,
    )
    assert s.num_parameters() == pytest.approx(expected, rel=0.015)


def test_fig7_model_parameter_count():
    s = BRNNSpec(cell="lstm", input_size=64, hidden_size=512, num_layers=8,
                 merge_mode="sum", num_classes=11)
    assert s.num_parameters() == pytest.approx(31.7e6, rel=0.01)


def test_describe_mentions_key_facts():
    s = BRNNSpec(cell="gru", num_layers=4)
    d = s.describe()
    assert "BGRU" in d and "4L" in d


def test_spec_is_hashable_and_frozen():
    s = BRNNSpec()
    with pytest.raises(Exception):
        s.hidden_size = 1
    assert hash(s) == hash(BRNNSpec())
