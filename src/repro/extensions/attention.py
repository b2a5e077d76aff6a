"""Barrier-free multi-head self-attention on the B-Par runtime.

Realises the paper's concluding claim on a concrete model: one inference
pass of multi-head self-attention is decomposed into tasks — per-head
Q/K/V projections, per-head score/softmax/context computation, and a
final output projection — annotated with the same ``in``/``out`` region
dependences the BRNN cells use.  Heads are fully independent until the
concat/projection task, so the runtime overlaps them without any
synchronisation point; batch chunks add data parallelism exactly as
B-Par's ``mbs`` does.

Scope: forward (inference) only — enough to demonstrate that the
execution model transfers; training transformers is out of the paper's
scope and ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.depgraph import TaskGraph
from repro.runtime.task import RegionSpace


@dataclass(frozen=True)
class AttentionSpec:
    """Multi-head self-attention dimensions."""

    model_dim: int = 64
    num_heads: int = 4

    def __post_init__(self) -> None:
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.model_dim < 1 or self.num_heads < 1:
            raise ValueError("dimensions must be positive")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclass
class AttentionParams:
    """Projection matrices: per-head Q/K/V slices plus the output matrix."""

    Wq: np.ndarray  # (D, D)
    Wk: np.ndarray
    Wv: np.ndarray
    Wo: np.ndarray

    @classmethod
    def initialize(cls, spec: AttentionSpec, seed: int = 0) -> "AttentionParams":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(spec.model_dim)
        mk = lambda: (rng.standard_normal((spec.model_dim, spec.model_dim)) * scale).astype(np.float32)
        return cls(Wq=mk(), Wk=mk(), Wv=mk(), Wo=mk())


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def attention_reference(
    spec: AttentionSpec, params: AttentionParams, x: np.ndarray
) -> np.ndarray:
    """Sequential oracle: ``x (T, D)`` → ``(T, D)`` self-attention output."""
    d = spec.head_dim
    heads: List[np.ndarray] = []
    for h in range(spec.num_heads):
        cols = slice(h * d, (h + 1) * d)
        q = x @ params.Wq[:, cols]
        k = x @ params.Wk[:, cols]
        v = x @ params.Wv[:, cols]
        scores = (q @ k.T) / np.asarray(np.sqrt(d), dtype=x.dtype)
        heads.append(_softmax_rows(scores) @ v)
    return np.concatenate(heads, axis=1) @ params.Wo


def build_attention_graph(
    spec: AttentionSpec,
    params: Optional[AttentionParams],
    xs: List[np.ndarray],
    out: List[Optional[np.ndarray]],
):
    """Task graph for one attention pass over ``len(xs)`` batch chunks.

    Per chunk and head: three projection tasks (parallel), one
    score/softmax/context task; one concat+output-projection task per
    chunk.  Returns the graph (regions carry realistic sizes so the graph
    also works on the simulated machine).
    """
    g = TaskGraph()
    rs = RegionSpace()
    d = spec.head_dim
    isz = 4

    r_wq = rs.get("Wq", spec.model_dim**2 * isz)
    r_wk = rs.get("Wk", spec.model_dim**2 * isz)
    r_wv = rs.get("Wv", spec.model_dim**2 * isz)
    r_wo = rs.get("Wo", spec.model_dim**2 * isz)

    for mb, x in enumerate(xs):
        seq = x.shape[0]
        r_x = rs.get(("x", mb), seq * spec.model_dim * isz, streaming=True)
        qkv_store = [{} for _ in range(spec.num_heads)]
        ctx_store: List[Optional[np.ndarray]] = [None] * spec.num_heads
        ctx_regions = []
        for h in range(spec.num_heads):
            cols = slice(h * d, (h + 1) * d)
            proj_regions = {}
            for name, w_region, W in (
                ("q", r_wq, None if params is None else params.Wq),
                ("k", r_wk, None if params is None else params.Wk),
                ("v", r_wv, None if params is None else params.Wv),
            ):
                r_out = rs.get(("proj", mb, h, name), seq * d * isz, streaming=True)
                proj_regions[name] = r_out

                def fn(name=name, W=W, cols=cols, x=x, qkv=qkv_store[h]):
                    if W is not None:
                        qkv[name] = x @ W[:, cols]

                g.add_task(
                    f"attn.proj[{mb}]h{h}.{name}",
                    fn if params is not None else None,
                    ins=[r_x, w_region],
                    outs=[r_out],
                    flops=2.0 * seq * spec.model_dim * d,
                    kind="head",
                    meta={"mb": mb, "head": h},
                )
            r_ctx = rs.get(("ctx", mb, h), seq * d * isz, streaming=True)
            ctx_regions.append(r_ctx)

            def ctx_fn(h=h, qkv=qkv_store[h], ctx_store=ctx_store):
                q, k, v = qkv["q"], qkv["k"], qkv["v"]
                scores = (q @ k.T) / np.asarray(np.sqrt(d), dtype=q.dtype)
                ctx_store[h] = _softmax_rows(scores) @ v

            g.add_task(
                f"attn.ctx[{mb}]h{h}",
                ctx_fn if params is not None else None,
                ins=[proj_regions["q"], proj_regions["k"], proj_regions["v"]],
                outs=[r_ctx],
                flops=4.0 * seq * seq * d + 6.0 * seq * seq,
                kind="head",
                meta={"mb": mb, "head": h},
            )

        r_y = rs.get(("y", mb), seq * spec.model_dim * isz, streaming=True)

        def out_fn(mb=mb, ctx_store=ctx_store):
            out[mb] = np.concatenate(ctx_store, axis=1) @ params.Wo

        g.add_task(
            f"attn.out[{mb}]",
            out_fn if params is not None else None,
            ins=ctx_regions + [r_wo],
            outs=[r_y],
            flops=2.0 * xs[mb].shape[0] * spec.model_dim**2,
            kind="head",
            meta={"mb": mb},
        )
    return g


def run_attention(
    spec: AttentionSpec,
    params: AttentionParams,
    x: np.ndarray,
    executor,
    chunks: int = 1,
) -> np.ndarray:
    """Execute one self-attention pass ``x (T, D)`` on any executor.

    ``chunks`` splits the *sequence* into independent attention windows
    (block-local attention), each a data-parallel chunk.
    """
    xs = np.array_split(x, chunks, axis=0)
    out: List[Optional[np.ndarray]] = [None] * len(xs)
    graph = build_attention_graph(spec, params, xs, out)
    executor.run(graph)
    return np.concatenate(out, axis=0)
