"""Homogeneity deciders and their definition-level oracles.

An algebra is ultrahomogeneous (UH) when every isomorphism between
finitely generated subalgebras extends to an automorphism; n-homogeneous
when this holds for isomorphisms between n-element subalgebras; partially
n-homogeneous when it holds for isomorphisms between the induced partial
structures on arbitrary n-element subsets.

Fast deciders read the shape that symbolic.decompose computes: a finite
algebra is UH iff it has that normal form (trees uniform level by level,
components with equal cycle size isomorphic), and partially homogeneous
iff the form is one of the five shapes of
symbolic.is_partially_homogeneous; the lattice report reads UH, partial
homogeneity and transitivity off one normal form.  These three read
symbolic inside the function, so that importing this module for the
oracles alone (`check ... --oracle`, `check hom-n`, `check phom-n`)
does not import symbolic.  Oracles replay the
definitions by exhaustive search and exist to be disagreed with, so they
share nothing with the deciders.  They share one path with each other:
the automorphisms and the isomorphisms between induced structures both
come from the one permutation filter iso.partial_iso_images, and one
check, _all_extend, asks that every such isomorphism between equal-size
sets of a family is the restriction of an automorphism.  It reads each
unordered pair of sets once, since the whole group holds the inverse
of every automorphism.  The families are the subalgebras (UH), the
one-generated subalgebras <x> (1-UH), the k-element subalgebras
(n-homogeneity) and all k-subsets (partial n-homogeneity); the
subalgebras are listed as the unions of the <x>, since each is the
union of the <x> it contains.  A single-operation oracle is the
one-table case of the multi-operation check.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from . import core, iso
from .core import FiniteMonounary, PartialMonounary


# ---------------------------------------------------------------------------
# fast deciders

def is_ultrahomogeneous(A: FiniteMonounary) -> bool:
    from . import symbolic

    return symbolic.normal_form(A) is not None


def is_partially_homogeneous(A: FiniteMonounary) -> bool:
    """One of the five shapes of symbolic.is_partially_homogeneous, all of
    them ultrahomogeneous."""
    from . import symbolic

    S = symbolic.normal_form(A)
    return S is not None and symbolic.is_partially_homogeneous(S)


# ---------------------------------------------------------------------------
# oracles

def _all_extend(
    tables: Sequence[Sequence[int]], auts: Sequence[tuple[int, ...]], sets: Sequence[tuple[int, ...]]
) -> bool:
    """For every pair (S, T) of equal-size sets, every isomorphism of the
    induced structures S -> T is the restriction of an automorphism;
    auts is the whole group.  T runs from S's own position on: the
    inverse of an isomorphism T -> S is an isomorphism S -> T, and the
    inverse automorphism extends it."""
    images_of = list(zip(*auts))  # images_of[x]: x's image under each automorphism
    for s, S in enumerate(sets):
        restrictions = set(zip(*map(images_of.__getitem__, S)))
        isos = iso.partial_iso_filter(tables, S)
        for T in sets[s:]:
            if len(T) == len(S) and not all(images in restrictions for images in isos(T)):
                return False
    return True


def _generated(tables: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The one-generated subalgebras <x>, each once, ordered by the least
    x that generates it."""
    found: dict[tuple[int, ...], None] = {}
    for x in range(len(tables[0])):
        closure = [x]
        seen = {x}
        for y in closure:
            for t in tables:
                if t[y] not in seen:
                    seen.add(t[y])
                    closure.append(t[y])
        found.setdefault(tuple(sorted(closure)), None)
    return list(found)


def _subalgebras(generated: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every subalgebra, smallest first, then in lexicographic order, from
    the one-generated ones: a subalgebra is the union of the <x> it
    contains, and a union of closed sets is closed."""
    unions = {frozenset()}
    for G in generated:
        unions |= {U.union(G) for U in unions}
    unions.discard(frozenset())
    return sorted(map(tuple, map(sorted, unions)), key=lambda S: (len(S), S))


def _auts_for(A: FiniteMonounary, bound: int, auts) -> list[tuple[int, ...]]:
    if A.n > bound:
        raise ValueError(f"bound exceeded: n={A.n} > {bound}")
    return list(auts) if auts is not None else iso.brute_force_automorphisms(A, bound)


def is_ultrahomogeneous_oracle(
    A: FiniteMonounary, bound: int = core.DEFAULT_BOUND, auts=None
) -> bool:
    tables = [A.table]
    return _all_extend(tables, _auts_for(A, bound, auts), _subalgebras(_generated(tables)))


def is_1_ultrahomogeneous_oracle(
    A: FiniteMonounary, bound: int = core.DEFAULT_BOUND, auts=None
) -> bool:
    tables = [A.table]
    return _all_extend(tables, _auts_for(A, bound, auts), _generated(tables))


def is_n_homogeneous(
    A: FiniteMonounary, k: int, bound: int = core.DEFAULT_BOUND, auts=None
) -> bool:
    """Isomorphisms between k-element subalgebras all extend; vacuously
    true when no k-element subalgebra exists."""
    if k < 1:
        raise ValueError("k must be positive")
    auts = _auts_for(A, bound, auts)
    tables = [A.table]
    return _all_extend(tables, auts, [S for S in _subalgebras(_generated(tables)) if len(S) == k])


def is_partially_n_homogeneous(
    A: FiniteMonounary, k: int, bound: int = core.DEFAULT_BOUND, auts=None
) -> bool:
    """Isomorphisms between induced partial structures on arbitrary
    k-subsets all extend to automorphisms."""
    if k < 1:
        raise ValueError("k must be positive")
    auts = _auts_for(A, bound, auts)
    return _all_extend([A.table], auts, list(combinations(range(A.n), k)))


def is_partially_homogeneous_oracle(
    A: FiniteMonounary, bound: int = core.DEFAULT_BOUND, auts=None
) -> bool:
    auts = _auts_for(A, bound, auts)
    return all(
        is_partially_n_homogeneous(A, k, bound, auts) for k in range(1, A.n + 1)
    )


# ---------------------------------------------------------------------------
# the lattice of conditions

class LatticeReport(NamedTuple):
    """Membership in the eight conditions, from transitivity up to
    1-homogeneity.  h is decided as uh: finite algebras are locally
    finite, where homogeneous and ultrahomogeneous coincide."""

    transitive: bool
    ph1: bool
    ph2: bool
    ph: bool
    uh: bool
    h: bool
    h2: bool
    h1: bool

    def to_dict(self) -> dict:
        return self._asdict()

    def implications_hold(self) -> bool:
        # transitive -> ph1 only: a bare 5-cycle is transitive yet fails ph2
        r = self
        return all(
            [
                not r.transitive or r.ph1,
                not r.ph or r.ph1,
                not r.ph or r.ph2,
                not (r.ph1 and r.ph2) or r.ph,
                not r.ph1 or r.uh,
                not r.ph2 or r.uh,
                not r.uh or r.h,
                not r.h or r.h2,
                not r.h2 or r.h1,
            ]
        )


def classify_lattice(A: FiniteMonounary, bound: int = core.DEFAULT_BOUND) -> LatticeReport:
    from . import symbolic

    auts = _auts_for(A, bound, None)
    S = symbolic.normal_form(A)
    uh = S is not None
    return LatticeReport(
        transitive=uh and symbolic.is_transitive(S),
        ph1=is_partially_n_homogeneous(A, 1, bound, auts),
        ph2=is_partially_n_homogeneous(A, 2, bound, auts),
        ph=uh and symbolic.is_partially_homogeneous(S),
        uh=uh,
        h=uh,
        h2=is_n_homogeneous(A, 2, bound, auts),
        h1=is_n_homogeneous(A, 1, bound, auts),
    )


# ---------------------------------------------------------------------------
# loop-free partial algebras (pseudoforests)

def pseudoforest_ultrahomogeneous(P: PartialMonounary) -> bool:
    """UH for loop-free partial algebras, equivalently homogeneity of the
    associated functional digraph.  An operation defined on some points
    but not all never is UH and the nowhere-defined one always is; a
    total one is UH exactly when it is partially homogeneous, since
    without loops its induced partial structures are the induced
    subdigraphs.  Loops are rejected."""
    for x, v in enumerate(P.table):
        if v == x:
            raise ValueError(f"loop at {x}: input must be loop-free")
    if None in P.table:
        return set(P.table) == {None}
    return is_partially_homogeneous(FiniteMonounary(P.table))


# ---------------------------------------------------------------------------
# several unary operations at once

def multiunary_brute_check(tables: Sequence[Sequence[int]], bound: int = core.DEFAULT_BOUND) -> dict:
    """Brute-force 1-UH and UH for an algebra with several unary
    operations over one domain.  Returns both verdicts."""
    tabs = [tuple(t) for t in tables]
    if not tabs:
        raise ValueError("need at least one operation")
    n = len(tabs[0])
    if any(len(t) != n for t in tabs):
        raise ValueError("operation tables must share one domain")
    for t in tabs:
        FiniteMonounary(t)
    if n > bound:
        raise ValueError(f"bound exceeded: n={n} > {bound}")
    auts = list(iso.partial_iso_images(tabs, range(n), range(n)))
    generated = _generated(tabs)
    return {
        "is_1_ultrahomogeneous": _all_extend(tabs, auts, generated),
        "is_ultrahomogeneous": _all_extend(tabs, auts, _subalgebras(generated)),
    }
