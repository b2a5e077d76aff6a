"""Kernel access specifications, per task family.

Every task the graph builder emits is stamped with a *family* id
(``meta["family"] = "kind@build_site"``).  This module records, for each
family, the region keys the family's **kernel** actually touches — an
independent, hand-audited transcription of the payload factories in
:mod:`repro.core.graph_builder` (``_fn_cell_fwd_tile`` reads the
``zx``/input slot of every step ``[lo, hi)`` it covers, the weight panel,
and the state carried in from below ``lo``; ``_fn_proj_bwd`` accumulates
into the input rows ``dW[:I]`` only; …).  A cell task is a chain tile of
one step unless ``fusion="wavefront"``, so one forward and one backward
cell rule cover every tile length.

The symbolic verifier (:mod:`repro.analysis.verify`) replays this table
against a built graph and proves two things task by task:

* **fidelity** — the builder's declared ``in``/``out``/``inout`` sets
  name exactly the keys the kernel touches, and
* **coverage** — the declared byte extents
  (:meth:`~repro.core.graph_builder.GraphBuildResult.symbolic_storage`)
  cover the kernel's footprint for every valuation of the symbolic size
  parameters.

Because the table is written from the kernel side, a builder regression
(a dropped ``in``, a region shrunk below what the kernel writes) shows
up as a mismatch here even when the graph is self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.models.spec import BRNNSpec

#: region key — the graph builder's structured vocabulary
Key = tuple


@dataclass(frozen=True)
class AccessContext:
    """Build parameters the access rules need to reconstruct key sets."""

    spec: BRNNSpec
    seq_len: int
    mbs: int
    training: bool
    fused_layers: Tuple[bool, ...]
    fusion: str
    serialize_chunks: bool
    serial_dirs: bool  # barriered mode: direction chains serialised
    has_velocity: bool

    @staticmethod
    def from_result(result) -> "AccessContext":
        """Derive the context from a :class:`GraphBuildResult`."""
        return AccessContext(
            spec=result.spec,
            seq_len=result.seq_len,
            mbs=result.mbs,
            training=result.training,
            fused_layers=tuple(result.fused_layers or ()),
            fusion=result.fusion,
            serialize_chunks=result.serialize_chunks,
            serial_dirs=not result.barrier_free,
            has_velocity=result.velocity is not None,
        )


@dataclass(frozen=True)
class AccessDecl:
    """The key sets one task's kernel touches (order-insensitive)."""

    ins: Tuple[Key, ...] = ()
    outs: Tuple[Key, ...] = ()
    inouts: Tuple[Key, ...] = ()

    def reads(self) -> Tuple[Key, ...]:
        return self.ins + self.inouts

    def writes(self) -> Tuple[Key, ...]:
        return self.outs + self.inouts


def _in_key(mb: int, layer: int, pos: int) -> Key:
    """Layer input at sequence position ``pos`` (x row or merge below)."""
    return ("x", mb, pos) if layer == 0 else ("m", mb, layer - 1, pos)


def _slot_pair(ctx: AccessContext, slot: int) -> Tuple[int, int]:
    """(t_fwd, u_rev) chain steps feeding head slot ``slot``."""
    T = ctx.seq_len
    if ctx.spec.head == "many_to_one":
        return T - 1, T - 1
    return slot, T - 1 - slot


def _proj(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, d = meta["mb"], meta["layer"], meta["dir"]
    span = range(meta["lo"], meta["hi"])
    return AccessDecl(
        ins=tuple(_in_key(mb, layer, pos) for pos in span) + (("W", layer, d),),
        outs=tuple(("zx", mb, layer, d, pos) for pos in span),
    )


def _cell_fwd_tile(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, d = meta["mb"], meta["layer"], meta["dir"]
    lo, hi = meta["lo"], meta["hi"]
    T = ctx.seq_len
    fused = ctx.fused_layers[layer]
    ins: List[Key] = []
    for s in range(lo, hi):
        pos = s if d == "fwd" else T - 1 - s
        ins.append(("zx", mb, layer, d, pos) if fused else _in_key(mb, layer, pos))
    ins.append(("W", layer, d))
    if lo > 0:
        ins.append(("h", mb, layer, d, lo - 1))
    if ctx.serial_dirs and d == "rev" and lo == 0:
        ins.append(("h", mb, layer, "fwd", T - 1))
    outs: List[Key] = [("h", mb, layer, d, s) for s in range(lo, hi)]
    if not fused or ctx.training:
        outs += [("cache", mb, layer, d, s) for s in range(lo, hi)]
    return AccessDecl(ins=tuple(ins), outs=tuple(outs))


def _merge(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, t = meta["mb"], meta["layer"], meta["t"]
    T = ctx.seq_len
    return AccessDecl(
        ins=(("h", mb, layer, "fwd", t), ("h", mb, layer, "rev", T - 1 - t)),
        outs=(("m", mb, layer, t),),
    )


def _merge_last(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, slot = meta["mb"], meta["layer"], meta["slot"]
    t_fwd, u_rev = _slot_pair(ctx, slot)
    return AccessDecl(
        ins=(("h", mb, layer, "fwd", t_fwd), ("h", mb, layer, "rev", u_rev)),
        outs=(("mlast", mb, slot),),
    )


def _head(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, slot = meta["mb"], meta["slot"]
    return AccessDecl(
        ins=(("mlast", mb, slot), ("Wout",)),
        outs=(("logits", mb, slot),),
    )


def _loss(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, slot = meta["mb"], meta["slot"]
    return AccessDecl(ins=(("logits", mb, slot),), outs=(("dlogits", mb, slot),))


def _head_bwd(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, slot = meta["mb"], meta["slot"]
    return AccessDecl(
        ins=(("dlogits", mb, slot), ("mlast", mb, slot), ("Wout",)),
        outs=(("dmlast", mb, slot),),
        inouts=(("gWout", mb),),
    )


def _merge_last_bwd(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, slot = meta["mb"], meta["slot"]
    last = ctx.spec.num_layers - 1
    t_fwd, u_rev = _slot_pair(ctx, slot)
    ins: List[Key] = [("dmlast", mb, slot)]
    if ctx.spec.merge_mode == "mul":
        ins += [("h", mb, last, "fwd", t_fwd), ("h", mb, last, "rev", u_rev)]
    return AccessDecl(
        ins=tuple(ins),
        inouts=(("dh", mb, last, "fwd", t_fwd), ("dh", mb, last, "rev", u_rev)),
    )


def _cell_bwd_tile(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, d = meta["mb"], meta["layer"], meta["dir"]
    lo, hi = meta["lo"], meta["hi"]
    T = ctx.seq_len
    fused = ctx.fused_layers[layer]
    steps = range(hi - 1, lo - 1, -1)
    ins: List[Key] = [("dh", mb, layer, d, s) for s in steps]
    ins += [("cache", mb, layer, d, s) for s in steps]
    ins.append(("W", layer, d))
    if ctx.serial_dirs and d == "rev" and hi == T:
        ins.append(("gW", mb, layer, "fwd"))
    inouts: List[Key] = [("gW", mb, layer, d)]
    if lo > 0:
        inouts.append(("dh", mb, layer, d, lo - 1))
    outs: List[Key] = []
    if fused:
        outs = [
            ("dz", mb, layer, d, s if d == "fwd" else T - 1 - s) for s in steps
        ]
    elif layer > 0:
        inouts += [
            ("dm", mb, layer - 1, s if d == "fwd" else T - 1 - s) for s in steps
        ]
    return AccessDecl(ins=tuple(ins), outs=tuple(outs), inouts=tuple(inouts))


def _proj_bwd(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, d = meta["mb"], meta["layer"], meta["dir"]
    span = range(meta["lo"], meta["hi"])
    ins: List[Key] = [("dz", mb, layer, d, pos) for pos in span]
    ins += [_in_key(mb, layer, pos) for pos in span]
    ins.append(("W", layer, d))
    inouts: List[Key] = [("gWx", mb, layer, d)]
    if layer > 0:
        inouts += [("dm", mb, layer - 1, pos) for pos in span]
    return AccessDecl(ins=tuple(ins), inouts=tuple(inouts))


def _merge_bwd(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    mb, layer, t = meta["mb"], meta["layer"], meta["t"]
    T = ctx.seq_len
    ins: List[Key] = [("dm", mb, layer, t)]
    if ctx.spec.merge_mode == "mul":
        ins += [("h", mb, layer, "fwd", t), ("h", mb, layer, "rev", T - 1 - t)]
    return AccessDecl(
        ins=tuple(ins),
        inouts=(("dh", mb, layer, "fwd", t), ("dh", mb, layer, "rev", T - 1 - t)),
    )


def _weight_update(meta: Mapping, ctx: AccessContext) -> AccessDecl:
    if "layer" not in meta:  # the head update
        ins = tuple(("gWout", mb) for mb in range(ctx.mbs))
        inouts: Tuple[Key, ...] = (("Wout",),)
        if ctx.has_velocity:
            inouts += (("vel", "head"),)
        return AccessDecl(ins=ins, inouts=inouts)
    layer, d = meta["layer"], meta["dir"]
    ins = tuple(("gW", mb, layer, d) for mb in range(ctx.mbs))
    if ctx.fused_layers[layer]:
        ins += tuple(("gWx", mb, layer, d) for mb in range(ctx.mbs))
    inouts = (("W", layer, d),)
    if ctx.has_velocity:
        inouts += (("vel", layer, d),)
    return AccessDecl(ins=ins, inouts=inouts)


#: family id → access rule.  Keys are ``kind@build_site`` exactly as
#: :meth:`_Builder._add` stamps them.
FAMILIES: Dict[str, Callable[[Mapping, AccessContext], AccessDecl]] = {
    "proj@_build_proj_tasks": _proj,
    "cell@_build_forward_layer": _cell_fwd_tile,
    "merge@_build_forward_layer_outputs": _merge,
    "merge@_build_head": _merge_last,
    "head@_build_head": _head,
    "loss@_build_head": _loss,
    "head_bwd@_build_backward_head": _head_bwd,
    "merge_bwd@_build_backward_head": _merge_last_bwd,
    "cell_bwd@_build_backward_layer": _cell_bwd_tile,
    "proj_bwd@_build_proj_bwd_tasks": _proj_bwd,
    "merge_bwd@_build_backward_layer_outputs": _merge_bwd,
    "weight_update@_build_updates": _weight_update,
}


def expected_access(family: str, meta: Mapping, ctx: AccessContext) -> AccessDecl:
    """Key sets family ``family``'s kernel touches for task ``meta``.

    Applies the chunk-serialisation token the builder appends: under
    ``serialize_chunks`` every task carrying an ``mb`` threads its
    chunk's zero-byte ``serial`` region as ``inout``.

    Raises ``KeyError`` for a family this table does not know — the
    verifier reports that as a finding rather than guessing.
    """
    decl = FAMILIES[family](meta, ctx)
    if ctx.serialize_chunks and "mb" in meta:
        decl = AccessDecl(
            ins=decl.ins,
            outs=decl.outs,
            inouts=decl.inouts + (("serial", meta["mb"]),),
        )
    return decl
