"""Serving-side fused input projection: engine knobs and bitwise serving."""

import numpy as np
import pytest

from repro.models.params import BRNNParams
from repro.models.reference import reference_forward
from repro.models.spec import BRNNSpec
from repro.serve.engine import SERVE_DEFAULTS
from repro.serve import (
    InferenceEngine,
    InferenceRequest,
    Server,
    ServeConfig,
    WorkloadConfig,
    poisson_workload,
)
from repro.simarch.presets import laptop_sim


def tiny_spec():
    return BRNNSpec(cell="lstm", input_size=6, hidden_size=5, num_layers=2,
                    merge_mode="sum", head="many_to_one", num_classes=4)


def sim_engine(**kw):
    return InferenceEngine(tiny_spec(), config=SERVE_DEFAULTS.replace(**kw),
                           machine=laptop_sim(4))


def small_workload(seed=0, rate=400.0, duration=0.2, features=None):
    return poisson_workload(
        WorkloadConfig(rate_hz=rate, duration_s=duration, seq_len_range=(4, 12),
                       features=features),
        seed=seed,
    )


def test_sim_auto_resolves_to_on():
    engine = sim_engine()
    assert engine.fused_input_projection == "on"
    off = sim_engine(fused_input_projection="off")
    assert off.fused_input_projection == "off"


def test_threaded_fused_serving_matches_reference():
    """Fused threaded serving still returns bitwise-correct logits."""
    spec = tiny_spec()
    params = BRNNParams.initialize(spec, seed=0)
    engine = InferenceEngine(
        spec, params=params,
        config=SERVE_DEFAULTS.replace(
            executor="threaded", fused_input_projection="on", proj_block=2
        ),
    )
    requests = small_workload(seed=1, rate=150.0, duration=0.1,
                              features=spec.input_size)[:6]
    stats = Server(engine, ServeConfig(max_batch_size=4, max_wait=1e-3,
                                       bucket_width=4)).run(requests)
    by_rid = {r.rid: r for r in requests}
    assert stats.completed
    for done in stats.completed:
        req = by_rid[done.rid]
        padded = np.zeros((done.padded_len, 1, spec.input_size), dtype=np.float32)
        padded[: req.seq_len, 0] = req.x
        ref_logits, _ = reference_forward(spec, params, padded)
        assert np.allclose(done.result, ref_logits[0], rtol=1e-5, atol=1e-6)
