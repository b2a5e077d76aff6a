"""The access relation: per task family, the region keys a task touches.

Every task the graph builder emits is stamped with a *family* id
(``meta["family"] = "kind@build_site"``).  This module is the one place
that says which region keys a task of each family reads (``ins``), writes
(``outs``) or updates in place (``inouts``), as a function of the task's
``meta`` and the build's :class:`AccessContext`: ``_cell_fwd_tile`` reads
the ``zx``/input slot of every step ``[lo, hi)`` it covers, the weight
panel, and the state carried in from below ``lo``; in a hoisted layer
``_proj_bwd`` is the only writer of the weight-gradient panel ``gW`` (a
hoisted ``cell_bwd`` publishes ``dz`` and touches no gradient); …  A cell
task is a chain tile of one step unless ``wavefront_tile`` lengthens it, so
one forward and one backward cell rule cover every tile length.

Three readers, no second copy:

* the builder (:meth:`repro.core.graph_builder._Builder._add`) *emits*
  each task's ``in``/``out``/``inout`` regions from its family's rule, so
  a built graph agrees with the table by construction;
* the symbolic verifier (:mod:`repro.analysis.verify`) replays the table
  against any graph it is handed (**fidelity**: declared key sets equal
  the rule's, which catches a graph changed after the build or a task
  added around ``_add``) and proves **coverage**: the declared byte
  extents (:meth:`~repro.core.graph_builder.GraphBuildResult.
  symbolic_storage`) cover the kernel's footprint for every valuation of
  the symbolic size parameters;
* the closure lint (:mod:`repro.analysis.pylint`) reads the rule
  functions' source (the ``ins``/``outs``/``inouts`` names and
  ``AccessDecl`` keywords below are its vocabulary) and compares it with
  what each family's payload closure touches.

What ties the table to the *kernels* is therefore not a second
transcription but two checks of payload against rule: that lint,
statically, and the race checker's observed-versus-declared audit
(:func:`repro.runtime.racecheck.check_build`), by running every payload
on tracked arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple

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
            serialize_chunks=result.serialize_chunks,
            serial_dirs=not result.barrier_free,
            has_velocity=result.velocity is not None,
        )


class AccessDecl(NamedTuple):
    """The key lists one task declares, in declaration order."""

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
        # framework discipline: the reverse pass starts only after the
        # forward pass of this layer has finished
        ins.append(("h", mb, layer, "fwd", T - 1))
    outs: List[Key] = [("h", mb, layer, d, s) for s in range(lo, hi)]
    if not fused or ctx.training:
        # fused inference never materialises the per-step cache
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
        # framework discipline: the reverse backward pass waits for the
        # forward-direction backward pass, i.e. its last task's write
        # (chain step 0: its dz when hoisted, else the final gW update)
        ins.append(("dz", mb, layer, "fwd", 0) if fused else ("gW", mb, layer, "fwd"))
    # only dh_prev stays on a hoisted layer's chain: its cell_bwd publishes
    # dz, from which the per-block proj_bwd computes dW, db and dx
    inouts: List[Key] = [] if fused else [("gW", mb, layer, d)]
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
    T = ctx.seq_len
    span = range(meta["lo"], meta["hi"])
    steps = [pos if d == "fwd" else T - 1 - pos for pos in span]
    ins: List[Key] = [("dz", mb, layer, d, pos) for pos in span]
    ins += [_in_key(mb, layer, pos) for pos in span]
    # h_prev of every step: the h slot below it; the initial state is no
    # region of its own, the cache of chain step 0 is what holds it.  A GRU's
    # candidate gate needs r⊙h_prev as well, which only the cache holds.
    gru = ctx.spec.cell == "gru"
    ins += [
        ("cache", mb, layer, d, s) if gru or s == 0 else ("h", mb, layer, d, s - 1)
        for s in steps
    ]
    ins.append(("W", layer, d))
    inouts: List[Key] = [("gW", mb, layer, d)]
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
    inouts = (("W", layer, d),)
    if ctx.has_velocity:
        inouts += (("vel", layer, d),)
    return AccessDecl(ins=ins, inouts=inouts)


#: family id → access rule.  Keys are ``kind@build_site`` exactly as
#: :meth:`_Builder._add` stamps them; a task of a family missing here
#: cannot be emitted.
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
    """Key sets a task of ``family`` with this ``meta`` declares, in order.

    Appends the chunk-serialisation token: under ``serialize_chunks``
    every task carrying an ``mb`` threads its chunk's zero-byte ``serial``
    region as ``inout``.

    Raises ``KeyError(family)`` for a family this table does not know:
    the builder cannot emit such a task, and the verifier reports one it
    finds in a graph as ``unknown_family`` rather than guessing.
    """
    decl = FAMILIES[family](meta, ctx)
    if ctx.serialize_chunks and "mb" in meta:
        decl = decl._replace(inouts=decl.inouts + (("serial", meta["mb"]),))
    return decl
