"""Tables III and IV drivers: single-batch training times across engines.

Each row compares Keras-CPU, Keras-GPU, PyTorch-CPU, PyTorch-GPU, B-Seq and
B-Par on one model configuration (input, hidden, batch, seq-len) of a
6-layer many-to-one BLSTM (Table III) or BGRU (Table IV), plus B-Par
speed-ups against each framework — the exact column structure of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import speedup
from repro.baselines import keras_gpu_model, pytorch_gpu_model
from repro.harness import measure
from repro.harness.simtime import engine_times
from repro.models.spec import BRNNSpec

#: (input, hidden, batch, seq_len) rows of Tables III/IV, paper order
TABLE_CONFIGS = [
    (64, 256, 128, 100),
    (256, 256, 128, 100),
    (1024, 256, 128, 100),
    (256, 256, 1, 2),
    (256, 256, 1, 10),
    (256, 256, 1, 100),
    (64, 256, 256, 100),
    (64, 1024, 256, 100),
    (256, 256, 256, 100),
    (256, 1024, 256, 100),
    (1024, 256, 256, 100),
    (1024, 1024, 256, 100),
]

NUM_LAYERS = 6


#: one column per engine (ms per batch), then B-Par's speed-up over the four
#: framework columns — the exact column structure of the paper
ENGINES = ("K-CPU", "K-GPU", "P-CPU", "P-GPU", "BSeq", "BPar")
HEADERS = ["in/hid/B/T", "params M", *ENGINES, *(f"vs {e}" for e in ENGINES[:4])]


def make_spec(cell: str, input_size: int, hidden_size: int) -> BRNNSpec:
    return measure.make_spec(cell, input_size, hidden_size, NUM_LAYERS)


def run_row(cell: str, input_size: int, hidden: int, batch: int, seq_len: int,
            n_cores: int = 48) -> List:
    """One table row in :data:`HEADERS` order; ``None`` where a run hangs."""
    spec = make_spec(cell, input_size, hidden)
    cpu = engine_times(spec, seq_len, batch, n_cores)
    k_gpu = keras_gpu_model().batch_time(spec, seq_len, batch)
    p_gpu = pytorch_gpu_model().batch_time(spec, seq_len, batch)
    ms = [None if s is None else s * 1e3
          for s in (cpu["keras"], k_gpu, cpu["pytorch"], p_gpu, cpu["bseq"], cpu["bpar"])]
    return [f"{input_size}/{hidden}/{batch}/{seq_len}", spec.num_parameters() / 1e6,
            *ms, *(speedup(t, ms[-1]) for t in ms[:4])]


def table_section(cell: str, configs: Sequence[Tuple[int, int, int, int]]) -> Dict:
    """Table III (``cell='lstm'``) or IV (``'gru'``) over ``configs`` as a
    section of suite ``paper``: the rows plus the scalars its bars read."""
    table = [run_row(cell, *cfg) for cfg in configs]
    rows = [dict(zip(HEADERS, row), batch=batch, seq_len=seq_len)
            for row, (_, _, batch, seq_len) in zip(table, configs)]
    big = [r for r in rows if r["batch"] >= 128 and r["seq_len"] >= 100]
    tiny = [r for r in rows if r["batch"] == 1 and r["seq_len"] <= 10]
    return {
        "headers": HEADERS,
        "rows": table,
        "min_speedup_k_cpu": min(r["vs K-CPU"] for r in rows),
        "max_speedup_k_cpu": max(r["vs K-CPU"] for r in rows),
        "min_speedup_p_cpu": min(r["vs P-CPU"] for r in rows),
        "max_speedup_p_cpu": max(r["vs P-CPU"] for r in rows),
        "rows_where_bseq_beats_bpar": sum(r["BSeq"] < r["BPar"] for r in rows),
        "big_rows_where_bpar_beats_k_gpu": sum(r["K-GPU"] >= r["BPar"] for r in big),
        "tiny_rows_where_k_gpu_beats_bpar": sum(r["vs K-GPU"] <= 1.0 for r in tiny),
        "tiny_rows_where_p_gpu_beats_bpar": sum(r["vs P-GPU"] <= 1.0 for r in tiny),
        "rows_over_90m_params_where_p_gpu_ran": sum(
            r["P-GPU"] is not None for r in rows if r["params M"] > 90),
        "max_params_m": max(r["params M"] for r in rows),
    }
