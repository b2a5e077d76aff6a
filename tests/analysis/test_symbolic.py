"""Units for the affine interval algebra under the symbolic verifier.

The algebra only ever *proves* (sound, incomplete): every ``provably_*``
True must be semantically true for all nonnegative symbol valuations,
and the tests check both directions — proofs hold under random concrete
valuations, and statements that are false at some valuation are never
proven.  The last tests tie the builder's symbolic storage model to the
storage itself: region keys whose bytes overlap must share a space, and a
storage-table entry moved off the blocks is reported by the proof (a width)
or by the observer (an address).
"""

import numpy as np
import pytest

from repro.analysis.verify import verify_build
from repro.core import state
from repro.core.graph_builder import build_brnn_graph
from repro.core.symbolic import Affine, Extent, Interval, union_covers
from repro.models.params import BRNNParams
from repro.runtime.racecheck import check_build
from tests.conftest import make_batch, small_spec


def _env(**kw):
    return dict(kw)


# -- Affine ------------------------------------------------------------------


def test_affine_arithmetic_matches_concrete_evaluation():
    H, b = Affine.sym("H"), Affine.sym("b")
    expr = (H * 3 + b) * Affine.const(2) - H
    env = _env(H=5, b=7)
    assert expr.evaluate(env) == (5 * 3 + 7) * 2 - 5


def test_affine_product_of_symbols_is_a_monomial():
    H, b = Affine.sym("H"), Affine.sym("b")
    expr = H * b * 4
    assert expr.evaluate(_env(H=3, b=2)) == 24
    assert (expr - expr).is_zero()


def test_affine_equality_and_hash_are_structural():
    H = Affine.sym("H")
    assert H * 2 + 1 == Affine.const(1) + H + H
    assert hash(H * 2 + 1) == hash(Affine.const(1) + H + H)
    assert H * 2 != H * 3


def test_provably_nonneg_is_sound_not_complete():
    H, b = Affine.sym("H"), Affine.sym("b")
    assert (H * 2 + b).provably_nonneg()
    assert Affine.const(0).provably_nonneg()
    # H - b can be negative (b > H), must not be proven
    assert not (H - b).provably_nonneg()
    # ... even though it is nonnegative at some valuations
    assert (H - b).evaluate(_env(H=5, b=2)) > 0


def test_provably_positive_uses_the_symbols_at_least_one_convention():
    H = Affine.sym("H")
    assert (H + 1).provably_positive()
    assert H.provably_positive()  # model dimensions are >= 1
    assert not Affine.const(0).provably_positive()
    assert not (H - 1).provably_positive()  # negative coeff: no proof


# -- Interval ----------------------------------------------------------------


def test_adjacent_intervals_are_provably_disjoint():
    H = Affine.sym("H")
    a = Interval(Affine.const(0), H)
    b = Interval(H, H * 2)
    assert a.provably_disjoint(b) and b.provably_disjoint(a)


def test_overlapping_intervals_are_not_provably_disjoint():
    H = Affine.sym("H")
    a = Interval(Affine.const(0), H + 1)
    b = Interval(H, H * 2)
    assert not a.provably_disjoint(b)


def test_symbolic_gap_requires_a_proof_not_luck():
    H, b = Affine.sym("H"), Affine.sym("b")
    # [0, H) vs [b, b + H): disjoint only when b >= H — not provable
    a = Interval(Affine.const(0), H)
    c = Interval(b, b + H)
    assert not a.provably_disjoint(c)


def test_empty_interval_is_disjoint_from_everything():
    H = Affine.sym("H")
    empty = Interval(H, H)
    assert empty.provably_empty()
    assert empty.provably_disjoint(Interval(Affine.const(0), H * 9))


def test_contains_and_evaluate():
    H = Affine.sym("H")
    outer = Interval(Affine.const(0), H * 4)
    inner = Interval(H, H * 2)
    assert outer.provably_contains(inner)
    assert not inner.provably_contains(outer)
    assert inner.evaluate(_env(H=3)) == (3, 6)


# -- Extent ------------------------------------------------------------------


def test_extents_in_different_spaces_are_disjoint():
    H = Affine.sym("H")
    iv = Interval(Affine.const(0), H)
    assert Extent(("a",), iv).provably_disjoint(Extent(("b",), iv))
    assert not Extent(("a",), iv).provably_disjoint(Extent(("a",), iv))


# -- union_covers ------------------------------------------------------------


def test_union_covers_exact_tiling():
    H = Affine.sym("H")
    target = Interval(Affine.const(0), H * 3)
    tiles = [
        Interval(H * 2, H * 3),
        Interval(Affine.const(0), H),
        Interval(H, H * 2),
    ]
    assert union_covers(tiles, target)


def test_union_covers_rejects_one_byte_gap():
    H = Affine.sym("H")
    target = Interval(Affine.const(0), H * 2)
    assert not union_covers(
        [Interval(Affine.const(0), H), Interval(H + 1, H * 2)], target
    )
    assert not union_covers(
        [Interval(Affine.const(0), H), Interval(H, H * 2 - 1)], target
    )


def test_union_covers_accepts_provably_overlapping_cover():
    H = Affine.sym("H")
    target = Interval(Affine.const(0), H * 2)
    assert union_covers(
        [Interval(Affine.const(0), H), Interval(Affine.const(0), H * 2)], target
    )
    # conservative: [0,H+1) ∪ [H,2H) covers, but the sweep would need
    # H−1 ≥ 0, which the nonneg-coefficients rule cannot prove — the
    # sweep must reject rather than guess
    assert not union_covers(
        [Interval(Affine.const(0), H + 1), Interval(H, H * 2)], target
    )


def test_union_covers_empty_target_is_trivially_covered():
    H = Affine.sym("H")
    assert union_covers([], Interval(H, H))
    assert not union_covers([], Interval(H, H + 1))


def test_randomized_agreement_with_concrete_arithmetic():
    """Any interval pair the algebra proves disjoint must be disjoint at
    every sampled valuation (soundness spot-check)."""
    rng = np.random.default_rng(0)
    H, b = Affine.sym("H"), Affine.sym("b")
    candidates = [
        Interval(Affine.const(0), H),
        Interval(H, H * 2),
        Interval(H * 2 + b, H * 3 + b),
        Interval(b, b + 1),
        Interval(H + b, H * 2 + b),
    ]
    for _ in range(200):
        env = _env(H=int(rng.integers(0, 6)), b=int(rng.integers(0, 6)))
        for x in candidates:
            for y in candidates:
                if x is y or not x.provably_disjoint(y):
                    continue
                (xl, xh), (yl, yh) = x.evaluate(env), y.evaluate(env)
                assert xh <= yl or yh <= xl, (x, y, env)


# -- the storage model -------------------------------------------------------

#: region kinds that are no slot of a chunk's blocks: the inputs, parameter
#: panels, cache records (views of other blocks) and the zero-byte token
NOT_BLOCKS = ("x", "W", "gW", "Wout", "gWout", "cache", "serial")


def _block_spans(result):
    """``(lo, hi, key)`` byte spans of every block-slot region's storage
    (``h``, ``dh``, ``z``, ``m``, ``dm``, ``mlast``, ``logits``,
    ``dlogits``, ``dmlast``), ordered by address."""
    spans = []
    for region in result.regions.regions():
        if region.key[0] not in NOT_BLOCKS:
            for view in result.region_storage(region.key):
                lo, hi = np.lib.array_utils.byte_bounds(view)
                spans.append((lo, hi, region.key))
    return sorted(spans, key=lambda span: span[0])


def _extents(result, key):
    """``(space, lo, hi)`` of each symbolic extent of ``key``, evaluated
    under the build's own valuation."""
    env = result.symbol_env()
    return [(e.space, *e.interval.evaluate(env)) for e in result.symbolic_storage(key)]


#: (wavefront_tile, paired): per-step, tiled, paired
BUILDS = [(None, False), (2, False), (2, True)]


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
@pytest.mark.parametrize("hoist", ["off", "on"])
@pytest.mark.parametrize("tile, paired", BUILDS, ids=["step", "tiled", "paired"])
def test_overlapping_storage_is_one_symbolic_space(cell, training, hoist, tile, paired):
    """Two region keys that resolve to overlapping bytes must have overlapping
    symbolic extents in one space.  The proof takes keys in different spaces
    as disjoint, so one block under two kind names (a projection block
    reused for its gradient) would leave their WAR and WAW pairs unchecked.
    Each key's extents also measure its bytes."""
    spec = small_spec(cell=cell, head="many_to_many", num_layers=2)
    x, labels = make_batch(spec, seq_len=5, batch=4)
    result = build_brnn_graph(
        spec, x=x, labels=labels if training else None, training=training,
        params=BRNNParams.initialize(spec, 1), mbs=2, fused_input_projection=hoist,
        proj_block=2, wavefront_tile=tile, paired=paired,
    )
    spans = _block_spans(result)
    for i, (lo, hi, key) in enumerate(spans):
        for lo2, _, key2 in spans[i + 1:]:
            if lo2 >= hi:
                break
            if key2 != key:
                assert any(
                    sa == sb and alo < bhi and blo < ahi
                    for sa, alo, ahi in _extents(result, key)
                    for sb, blo, bhi in _extents(result, key2)
                ), (key, key2)
    nbytes = {}
    for lo, hi, key in spans:
        nbytes[key] = nbytes.get(key, 0) + hi - lo
    for key, n in nbytes.items():
        assert sum(hi - lo for _, lo, hi in _extents(result, key)) == n, key
    assert {key[0] for key in nbytes} >= {"h", "m", "mlast", "logits"}


def _table_build():
    """A training build that declares every kind of the storage table: two
    layers, the first hoisted (``z``), a head per position.  One chunk: its
    ``x`` is then the whole input, and the projection's reads of it are
    observed (the unhoisted layer's reads of its input are also its
    ``cache`` keys')."""
    spec = small_spec(head="many_to_many", num_layers=2)
    x, labels = make_batch(spec, seq_len=4, batch=4)
    return build_brnn_graph(
        spec, x=x, labels=labels, params=BRNNParams.initialize(spec, 1),
        fused_input_projection=[True, False], proj_block=2,
    )


def test_the_table_build_declares_every_table_kind_and_verifies_clean():
    result = _table_build()
    assert {r.key[0] for r in result.regions.regions()} >= set(state.STORAGE)
    assert verify_build(result, check_plan=False).ok


@pytest.mark.parametrize("kind", sorted(state.STORAGE))
def test_a_table_width_off_by_one_element_is_a_size_model_mismatch(monkeypatch, kind):
    """The builder and the proof both size a key from the table, so only
    the blocks the chunks allocated can tell a wrong width."""
    entry = state.STORAGE[kind]
    monkeypatch.setitem(
        state.STORAGE, kind, entry._replace(width=lambda d, w=entry.width: w(d) + 1)
    )
    findings = verify_build(_table_build(), check_plan=False).findings
    assert {
        f.region.split(",")[0] for f in findings
        if f.kind == "size_model_mismatch" and "allocated" in f.detail
    } == {f"({kind!r}"}


@pytest.mark.parametrize("kind", sorted(state.STORAGE))
def test_a_table_address_off_by_one_slot_is_an_undeclared_access(monkeypatch, kind):
    """A key resolved one slot over (wrapping at the sequence end) still
    names bytes of its block, but not the ones its task touches: the
    observed-versus-declared audit names a task that declares the kind."""
    entry = state.STORAGE[kind]

    def shifted(key, T, address=entry.address):
        where = address(key, T)
        return where[:-1] + ((where[-1] + 1) % T,)

    monkeypatch.setitem(state.STORAGE, kind, entry._replace(address=shifted))
    result = _table_build()
    declaring = {t.name for t in result.graph if any(r.key[0] == kind for r in t.regions())}
    findings = check_build(result).findings
    assert any(f.kind.startswith("undeclared") and f.task in declaring for f in findings)
