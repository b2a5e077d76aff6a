"""Graph-identity digests of ``build_brnn_graph`` over a fixed config matrix.

The equivalence instrument for refactors of ``core/graph_builder.py``: run it
against the parent commit's ``src`` and the change's; equal lines mean the
builder emits the same graphs and the same numbers.  Every matrix prints one
line per ``fused_input_projection`` half, so a change to the hoisted graphs
(``on``) can show that it left the per-step graphs (``off``) alone, and every
line carries two digests, so a change to what a graph is called or annotated
with can show that it left the numbers alone.  Per config the *structure*
digest takes every task's name, kind, family id, ordered ``in``/``out``/
``inout`` keys, flops and ``meta``; every region's ``nbytes``/``streaming``/
``home``; the successor lists; and the simulated makespan of the cost-only
graph (8 cores of the paper machine, locality scheduler).  The *numerics*
digest takes, from a functional build run serially, logits, loss, every
per-chunk gradient and the updated weights.

Four matrices (T=7, batch=6, mbs=2; ``mbs=3`` on the variants' B-Seq rows):

* ``per_step``: 2 cells x 2 heads x projection on/off x
  barrier-free/barriered x fwd/train (32);
* ``tiled``: 2 cells x 2 heads x tile 1, 3 and 8 (one tile per chain) x
  projection on/off x barrier-free/barriered x fwd/train (96);
* ``variants``: 2 cells x merge {mul, concat} x 2 heads x projection on/off x
  {B-Par, B-Seq}, training (32);
* ``paired``: 2 cells x 2 heads x fwd/train x projection on/off, both
  directions' forward chains as one, at tile 3 and 7 (one tile per chain)
  (32).

Usage: PYTHONPATH=src python tools/graph_digest.py
"""

import hashlib
from itertools import product

import numpy as np

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime.executor import SerialExecutor
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s

SEQ_LEN, BATCH = 7, 6
HEADS = ("many_to_one", "many_to_many")


def _per_step():
    for cell, head, fused, free, training in product(
        CELL_TYPES, HEADS, ("on", "off"), (True, False), (False, True)
    ):
        yield dict(cell=cell, head=head, fused=fused, barrier_free=free, training=training)


def _tiled():
    for cell, head, tile, fused, free, training in product(
        CELL_TYPES, HEADS, (1, 3, 8), ("on", "off"), (True, False), (False, True)
    ):
        yield dict(cell=cell, head=head, wavefront_tile=tile,
                   fused=fused, barrier_free=free, training=training)


def _variants():
    for cell, merge, head, fused, bseq in product(
        CELL_TYPES, ("mul", "concat"), HEADS, ("on", "off"), (False, True)
    ):
        yield dict(cell=cell, merge=merge, head=head, fused=fused,
                   serialize_chunks=bseq, mbs=3 if bseq else 2)


def _paired():
    for cell, head, training, fused, tile in product(
        CELL_TYPES, HEADS, (False, True), ("on", "off"), (3, SEQ_LEN)
    ):
        yield dict(cell=cell, head=head, training=training, fused=fused,
                   wavefront_tile=tile, paired=True)


MATRICES = {"per_step": _per_step, "tiled": _tiled, "variants": _variants, "paired": _paired}


def build(cfg, functional):
    spec = BRNNSpec(cell=cfg["cell"], input_size=5, hidden_size=4, num_layers=3,
                    merge_mode=cfg.get("merge", "sum"), head=cfg["head"], num_classes=3)
    training = cfg.get("training", True)
    kwargs = dict(
        mbs=cfg.get("mbs", 2), training=training, lr=0.05,
        barrier_free=cfg.get("barrier_free", True),
        serialize_chunks=cfg.get("serialize_chunks", False),
        fused_input_projection=cfg["fused"], proj_block=2,
        wavefront_tile=cfg.get("wavefront_tile"),
        paired=cfg.get("paired", False),
    )
    if not functional:
        return build_brnn_graph(spec, seq_len=SEQ_LEN, batch=BATCH, **kwargs)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((SEQ_LEN, BATCH, spec.input_size)).astype(spec.dtype)
    shape = BATCH if spec.head == "many_to_one" else (SEQ_LEN, BATCH)
    labels = rng.integers(0, spec.num_classes, size=shape) if training else None
    return build_brnn_graph(spec, x=x, labels=labels,
                            params=BRNNParams.initialize(spec, seed=2), **kwargs)


def _structure(built) -> str:
    """Everything the builder decides about one graph, as text."""
    graph = built.graph
    lines = []
    for task in graph.tasks:
        decl = [[r.key for r in group] for group in (task.ins, task.outs, task.inouts)]
        lines.append(repr((task.name, task.kind, decl, float(task.flops),
                           sorted(task.meta.items()), graph.successors[task.tid])))
    regions = {r.key: (r.nbytes, r.streaming, r.home) for r in built.regions.regions()}
    lines.append(repr(sorted(regions.items(), key=repr)))
    return "\n".join(lines)


def _numerics(built, h) -> None:
    """Feed logits, loss, gradients and updated state of a serial run to ``h``."""
    SerialExecutor().run(built.graph)
    h.update(built.logits().tobytes())
    if built.training:
        h.update(repr(built.mean_loss()).encode())
        for store in [chunk.grads for chunk in built.chunks] + [built.params]:
            for _, array in store.arrays():
                h.update(array.tobytes())


def digest(configs) -> tuple:
    """``(structure digest, numerics digest)`` of ``configs``."""
    structure, numerics = hashlib.sha256(), hashlib.sha256()
    sim = SimulatedExecutor(xeon_8160_2s(), n_cores=8, persistent_cache=False)
    for cfg in configs:
        cost_only = build(cfg, functional=False)
        structure.update(_structure(cost_only).encode())
        structure.update(repr(sim.run(cost_only.graph).makespan).encode())
        functional = build(cfg, functional=True)
        structure.update(_structure(functional).encode())
        _numerics(functional, numerics)
    return structure.hexdigest()[:16], numerics.hexdigest()[:16]


def main() -> None:
    for name, matrix in MATRICES.items():
        configs = list(matrix())
        for fused in ("off", "on"):
            half = [cfg for cfg in configs if cfg["fused"] == fused]
            structure, numerics = digest(half)
            print(f"{name} proj={fused} {len(half)} configs "
                  f"structure {structure} numerics {numerics}")


if __name__ == "__main__":
    main()
