"""B-Par: task-based barrier-free parallel execution of bidirectional RNNs.

Reproduction of Sharma & Casas, "Task-based Acceleration of Bidirectional
Recurrent Neural Networks on Multi-core Architectures" (IPDPS 2022).

Quickstart::

    import numpy as np
    from repro import BRNNSpec, BParEngine, ExecutionConfig

    spec = BRNNSpec(cell="lstm", input_size=39, hidden_size=64,
                    num_layers=3, head="many_to_one", num_classes=11)
    engine = BParEngine(spec, config=ExecutionConfig(mbs=2))
    x = np.random.randn(20, 16, 39).astype(np.float32)   # (T, B, features)
    labels = np.random.randint(0, 11, size=16)
    loss = engine.train_batch(x, labels, lr=0.05)
    logits = engine.forward(x)

Package layout (see DESIGN.md):

* :mod:`repro.runtime` — OmpSs-like tasking runtime (dependences,
  schedulers, threaded + simulated executors)
* :mod:`repro.simarch` — modelled Xeon-8160/V100 hardware substrate
* :mod:`repro.kernels` — LSTM/GRU/merge/loss numerics (Eqs. 1-11)
* :mod:`repro.models` — specs, parameters, sequential oracle
* :mod:`repro.core` — B-Par graph builder and engines (the contribution)
* :mod:`repro.baselines` — Keras/PyTorch/GPU execution-model baselines
* :mod:`repro.data` — synthetic TIDIGITS / Wikipedia substitutes
* :mod:`repro.analysis` — granularity, working-set, reporting
* :mod:`repro.harness` — per-table/per-figure experiment drivers
* :mod:`repro.serve` — online inference serving: bounded queue,
  dynamic/continuous batching, replica fleet with routing and
  admission control, SLO metrics (docs/SERVING.md)
* :mod:`repro.obs` — observability: metrics registry and scheduler
  counters (docs/OBSERVABILITY.md); attached through
  :class:`~repro.config.ExecutionConfig`
"""

from repro.config import ExecutionConfig
from repro.obs import MetricsRegistry
from repro.models.spec import BRNNSpec
from repro.models.params import BRNNParams
from repro.core.bpar import BParEngine
from repro.core.bseq import BSeqEngine
from repro.core.trainer import Trainer, accuracy
from repro.core.graph_builder import build_brnn_graph
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import tesla_v100, xeon_8160_2s
from repro.serve import (
    FleetServer,
    InferenceEngine,
    ReplicaPool,
    ServeConfig,
)

__version__ = "1.0.0"

__all__ = [
    "ExecutionConfig",
    "MetricsRegistry",
    "BRNNSpec",
    "BRNNParams",
    "BParEngine",
    "BSeqEngine",
    "Trainer",
    "accuracy",
    "build_brnn_graph",
    "SerialExecutor",
    "ThreadedExecutor",
    "SimulatedExecutor",
    "xeon_8160_2s",
    "tesla_v100",
    "InferenceEngine",
    "ServeConfig",
    "ReplicaPool",
    "FleetServer",
    "__version__",
]
