"""Simulated single-batch timing of B-Par / B-Seq on the modelled machine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.baselines import KerasCPUEngine, PyTorchCPUEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.runtime.depgraph import TaskGraph
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.trace import ExecutionTrace
from repro.serve.engine import BATCH_FIXED_S
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import xeon_8160_2s


@dataclass
class SimTiming:
    """Result of one simulated batch execution."""

    seconds: float
    trace: ExecutionTrace
    n_tasks: int


def simulated_graph_time(sim: SimulatedExecutor, graph: TaskGraph) -> SimTiming:
    """Price one batch's task graph on ``sim``'s modelled machine.

    The timed run follows an untimed one, so weights are NUMA-homed and
    cache-resident, matching the steady state of a training loop (the
    paper reports per-batch times from multi-batch runs).  The time adds
    the sequential creation of the graph's tasks and
    :data:`~repro.serve.engine.BATCH_FIXED_S`, the per-batch cost outside
    the task graph (input staging, runtime bring-up) — it dominates only
    the batch-1 / seq-2 configurations, as in Tables III/IV.
    """
    # Execute the graph once untimed: a steady-state training loop reuses
    # the same weight/state buffers batch after batch, so the timed batch
    # must see NUMA homes and cache residency established.
    sim.run(graph)
    trace = sim.run(graph)
    # The OmpSs master thread creates the batch's tasks sequentially —
    # finer decompositions (higher mbs) pay a per-task creation tax.
    creation = len(graph) * sim.machine.task_create_s
    return SimTiming(
        seconds=trace.makespan + creation + BATCH_FIXED_S,
        trace=trace,
        n_tasks=len(graph),
    )


def simulated_batch_time(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    *,
    mbs: int = 1,
    n_cores: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    training: bool = True,
    scheduler: str = "locality",
    barrier_free: bool = True,
    serialize_chunks: bool = False,
) -> SimTiming:
    """Build one single-batch pass of B-Par (or B-Seq) and price it
    (:func:`simulated_graph_time`)."""
    machine = machine or xeon_8160_2s()
    sim = SimulatedExecutor(machine, n_cores=n_cores or machine.n_cores, scheduler=scheduler)
    graph = build_brnn_graph(
        spec,
        seq_len=seq_len,
        batch=batch,
        mbs=mbs,
        training=training,
        barrier_free=barrier_free,
        serialize_chunks=serialize_chunks,
    ).graph
    return simulated_graph_time(sim, graph)


def engine_times(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    n_cores: int,
    *,
    mbs: Optional[int] = None,
    training: bool = True,
    engines: Sequence[str] = ("keras", "pytorch", "bseq", "bpar"),
) -> Dict[str, float]:
    """Single-batch time (s) per CPU engine of the paper's comparisons: the
    two framework emulations, and B-Seq and B-Par at ``mbs`` chunks (default
    the evaluation's ``min(8, batch)``)."""
    chunks = dict(mbs=min(8, batch) if mbs is None else mbs, n_cores=n_cores,
                  training=training)
    measure = {
        "keras": lambda: KerasCPUEngine(spec).batch_time(
            seq_len, batch, n_cores, training=training)[0],
        "pytorch": lambda: PyTorchCPUEngine(spec).batch_time(
            seq_len, batch, n_cores, training=training)[0],
        "bseq": lambda: simulated_batch_time(
            spec, seq_len, batch, serialize_chunks=True, **chunks).seconds,
        "bpar": lambda: simulated_batch_time(spec, seq_len, batch, **chunks).seconds,
    }
    return {engine: measure[engine]() for engine in engines}
