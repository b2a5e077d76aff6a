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
per-chunk gradient and the updated weights and velocity.

Three matrices (T=7, batch=6, mbs=2; ``mbs=3`` on the variants' B-Seq rows):

* ``matrix96``: 3 cells x 2 heads x {off, gates} x projection on/off x
  barrier-free/barriered x fwd/train, per-step;
* ``tiled``: 2 cells x 2 heads x {gates at tile 1, 3 and 8 (one tile per
  chain), off at tile 3} x projection on/off (``off`` never hoists: off only)
  x barrier-free/barriered x fwd/train (112);
* ``variants``: 3 cells x merge {mul, concat} x 2 heads x projection on/off x
  {plain, momentum, B-Seq, momentum + B-Seq}, training (96).

Usage: PYTHONPATH=src python tools/graph_digest.py
"""

import hashlib
from itertools import product

import numpy as np

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.executor import SerialExecutor
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s

SEQ_LEN, BATCH = 7, 6
CELLS, HEADS = ("lstm", "gru", "rnn"), ("many_to_one", "many_to_many")


def _matrix96():
    for cell, head, fusion, fused, free, training in product(
        CELLS, HEADS, ("off", "gates"), ("on", "off"), (True, False), (False, True)
    ):
        yield dict(cell=cell, head=head, fusion=fusion, fused=fused,
                   barrier_free=free, training=training)


def _tiled():
    for cell, head, (fusion, tile), fused, free, training in product(
        CELLS[:2], HEADS, (("gates", 1), ("gates", 3), ("gates", 8), ("off", 3)),
        ("on", "off"), (True, False), (False, True)
    ):
        if (fusion, fused) != ("off", "on"):
            yield dict(cell=cell, head=head, fusion=fusion, wavefront_tile=tile,
                       fused=fused, barrier_free=free, training=training)


def _variants():
    for cell, merge, head, fused, (momentum, bseq) in product(
        CELLS, ("mul", "concat"), HEADS, ("on", "off"),
        ((0.0, False), (0.9, False), (0.0, True), (0.9, True)),
    ):
        yield dict(cell=cell, merge=merge, head=head, fused=fused, momentum=momentum,
                   serialize_chunks=bseq, mbs=3 if bseq else 2)


MATRICES = {"matrix96": _matrix96, "tiled": _tiled, "variants": _variants}


def _build(cfg, functional):
    spec = BRNNSpec(cell=cfg["cell"], input_size=5, hidden_size=4, num_layers=3,
                    merge_mode=cfg.get("merge", "sum"), head=cfg["head"], num_classes=3)
    training = cfg.get("training", True)
    momentum = cfg.get("momentum", 0.0)
    kwargs = dict(
        mbs=cfg.get("mbs", 2), training=training, lr=0.05,
        barrier_free=cfg.get("barrier_free", True),
        serialize_chunks=cfg.get("serialize_chunks", False),
        momentum=momentum,
        velocity=BRNNParams.zeros_like(spec) if momentum else None,
        fused_input_projection=cfg["fused"], proj_block=2,
        fusion=cfg.get("fusion", "gates"), wavefront_tile=cfg.get("wavefront_tile"),
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
        stores = [chunk.grads for chunk in built.chunks] + [built.params]
        if built.velocity is not None:
            stores.append(built.velocity)
        for store in stores:
            for _, array in store.arrays():
                h.update(array.tobytes())


def digest(configs) -> tuple:
    """``(structure digest, numerics digest)`` of ``configs``."""
    structure, numerics = hashlib.sha256(), hashlib.sha256()
    sim = SimulatedExecutor(xeon_8160_2s(), n_cores=8, persistent_cache=False)
    for cfg in configs:
        cost_only = _build(cfg, functional=False)
        structure.update(_structure(cost_only).encode())
        structure.update(repr(sim.run(cost_only.graph).makespan).encode())
        functional = _build(cfg, functional=True)
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
