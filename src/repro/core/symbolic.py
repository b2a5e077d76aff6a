"""Affine byte-interval algebra for symbolic region metadata.

The graph builder names every region with a structured key (``("h", mb,
layer, dir, step)`` …) and sizes it with an *affine* expression in the
model dimensions: a chunk's hidden state is ``state_arrays · b_mb · H ·
itemsize`` bytes, a weight panel ``(I_l + H) · G·H · itemsize``, and so
on.  This module gives those expressions a first-class form so the
symbolic verifier (:mod:`repro.analysis.verify`) can prove storage facts
for **all** valuations of the size parameters at once instead of
checking one concrete shape at a time.

Three pieces:

* :class:`Affine` — an integer polynomial over named symbols (monomials
  are multisets of symbols, so products like ``b0·H·isz`` are one term).
  Every symbol stands for a *nonnegative* model dimension (a batch
  width, a feature width, an itemsize), which is what makes the proof
  rule below sound.
* :class:`Interval` — a half-open byte interval ``[lo, hi)`` with
  ``provably_disjoint`` / ``provably_contains`` decided by the
  nonnegative-combination rule: an :class:`Affine` is provably ≥ 0 when
  every coefficient is ≥ 0 (all symbols being ≥ 0).  The rule is
  incomplete in general but exact for the layouts the builder emits —
  row splits and slot grids, whose separating differences always reduce
  to nonnegative combinations.
* :class:`Extent` — an interval inside a named symbolic address space.
  Extents in *different* spaces are disjoint by construction (distinct
  allocations); extents in the same space must be proven apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple, Union

AffineLike = Union["Affine", int]

#: monomial: sorted tuple of symbol names (repeats = powers); () = constant
Monomial = Tuple[str, ...]


class Affine:
    """An integer polynomial over named nonnegative symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()) -> None:
        self.terms: Dict[Monomial, int] = {
            m: c for m, c in dict(terms).items() if c != 0
        }

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def const(value: int) -> "Affine":
        return Affine({(): int(value)})

    @staticmethod
    def sym(name: str) -> "Affine":
        return Affine({(name,): 1})

    @staticmethod
    def coerce(value: AffineLike) -> "Affine":
        return value if isinstance(value, Affine) else Affine.const(value)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Affine(terms)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: AffineLike) -> "Affine":
        return self + (-Affine.coerce(other))

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.coerce(other) + (-self)

    def __mul__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Affine(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Affine, int)):
            return NotImplemented
        return not (self - Affine.coerce(other)).terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Concrete value under a symbol valuation (KeyError on a miss)."""
        total = 0
        for m, c in self.terms.items():
            prod = c
            for s in m:
                prod *= env[s]
            total += prod
        return total

    def provably_nonneg(self) -> bool:
        """True when the expression is ≥ 0 for *every* nonnegative
        valuation of its symbols: every coefficient (constant included)
        is ≥ 0.  A ``False`` is "unproven", not "negative"."""
        return all(c >= 0 for c in self.terms.values())

    def provably_positive(self) -> bool:
        """≥ 1 under every valuation that makes each symbol ≥ 1 — the
        model dimensions are all at least one (a zero-width layer does
        not build).  Sound because each monomial then evaluates ≥ 1."""
        return self.provably_nonneg() and sum(self.terms.values()) >= 1

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            body = "·".join(m) if m else ""
            if body:
                parts.append(f"{c}·{body}" if c != 1 else body)
            else:
                parts.append(str(c))
        return " + ".join(parts)


@dataclass(frozen=True)
class Interval:
    """Half-open symbolic byte interval ``[lo, hi)``."""

    lo: Affine
    hi: Affine

    def length(self) -> Affine:
        return self.hi - self.lo

    def provably_empty(self) -> bool:
        return (self.hi - self.lo).is_zero()

    def provably_disjoint(self, other: "Interval") -> bool:
        """Proven non-overlapping for every nonnegative valuation.

        Empty intervals (zero-byte ordering tokens) overlap nothing.
        """
        if self.provably_empty() or other.provably_empty():
            return True
        return (
            (other.lo - self.hi).provably_nonneg()
            or (self.lo - other.hi).provably_nonneg()
        )

    def provably_contains(self, other: "Interval") -> bool:
        """Proven ``other ⊆ self`` for every nonnegative valuation."""
        if other.provably_empty():
            return True
        return (
            (other.lo - self.lo).provably_nonneg()
            and (self.hi - other.hi).provably_nonneg()
        )

    def evaluate(self, env: Mapping[str, int]) -> Tuple[int, int]:
        return self.lo.evaluate(env), self.hi.evaluate(env)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r})"


@dataclass(frozen=True)
class Extent:
    """One byte extent: an interval inside a named address space.

    ``space`` identifies one allocation family (e.g. ``("slots", "h", mb,
    layer)`` — a chunk's packed hidden-state slots of one layer, which the
    per-step ``h`` regions split).  Extents of different spaces never
    alias; extents of one space alias unless proven disjoint.
    """

    space: tuple
    interval: Interval

    def provably_disjoint(self, other: "Extent") -> bool:
        if self.space != other.space:
            return True
        return self.interval.provably_disjoint(other.interval)


def union_covers(cover: Iterable[Interval], target: Interval) -> bool:
    """Prove ``target ⊆ ⋃ cover`` for every nonnegative valuation.

    Greedy sweep: starting at ``target.lo``, repeatedly absorb a cover
    interval proven to start at-or-before the frontier and extend it,
    until the frontier provably reaches ``target.hi``.  Sound (each
    absorption is a proof) and complete for the contiguous row/slot
    layouts the builder emits.
    """
    if target.provably_empty():
        return True
    frontier = target.lo
    remaining = [iv for iv in cover if not iv.provably_empty()]
    progressed = True
    while progressed:
        if (frontier - target.hi).provably_nonneg():
            return True
        progressed = False
        for iv in list(remaining):
            starts_at_or_before = (frontier - iv.lo).provably_nonneg()
            extends = (iv.hi - frontier).provably_nonneg() and not (
                iv.hi - frontier
            ).is_zero()
            if starts_at_or_before and extends:
                frontier = iv.hi
                remaining.remove(iv)
                progressed = True
    return (frontier - target.hi).provably_nonneg()
