"""Homogeneity deciders and their definition-level oracles.

An algebra is ultrahomogeneous (UH) when every isomorphism between
finitely generated subalgebras extends to an automorphism; n-homogeneous
when this holds for isomorphisms between n-element subalgebras; partially
n-homogeneous when it holds for isomorphisms between the induced partial
structures on arbitrary n-element subsets.

Fast deciders use the structure theory (a finite algebra is UH iff
elements of equal height inside components with equal cycle size have
equal indegree and those components are isomorphic; the partially
homogeneous algebras form five explicit families).  Oracles replay the
definitions by exhaustive search and exist to be disagreed with, so they
share nothing with the deciders beyond the automorphism filter.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

from dataclasses import dataclass

from . import core, iso, orbits
from .core import FiniteMonounary, PartialMonounary

DEFAULT_BOUND = 8


# ---------------------------------------------------------------------------
# fast deciders

def is_ultrahomogeneous(A: FiniteMonounary) -> bool:
    sk = core.Skeleton(A.table)
    _, seqs, _ = iso.label(sk, A.table)
    classes: dict[tuple[int, ...], int] = {}
    comp_class = [classes.setdefault(seq, len(classes)) for seq in seqs]
    indeg = [0] * A.n
    for v in A.table:
        indeg[v] += 1
    seen: dict = {}
    for x, (h, c) in enumerate(zip(sk.height, sk.comp)):
        key = (h, len(seqs[c]))
        val = (indeg[x], comp_class[c])
        if seen.setdefault(key, val) != val:
            return False
    return True


def _component_shapes(A: FiniteMonounary):
    """Per component: ('Z', k) for a bare k-cycle, ('A1', a) for a 1-cycle
    with a height-1 leaves and nothing deeper, else None."""
    sk = core.Skeleton(A.table)
    shapes = []
    for cycle, block in zip(sk.cycles, sk.blocks()):
        if len(block) == len(cycle):
            shapes.append(("Z", len(cycle)))
        elif len(cycle) == 1 and max(sk.height[x] for x in block) == 1:
            shapes.append(("A1", len(block) - 1))
        else:
            shapes.append(None)
    return shapes


def is_partially_homogeneous(A: FiniteMonounary) -> bool:
    """Membership in one of the five shapes closed under extending
    isomorphisms of induced partial substructures:
    fixed points + 2-cycles, fixed points + 3-cycles, fixed points + one
    4-cycle, copies of a looped point with one leaf, or a single looped
    point with any number of leaves."""
    shapes = _component_shapes(A)
    if any(s is None for s in shapes):
        return False
    if all(s in (("Z", 1), ("Z", 2)) for s in shapes):
        return True
    if all(s in (("Z", 1), ("Z", 3)) for s in shapes):
        return True
    if sum(1 for s in shapes if s == ("Z", 4)) == 1 and all(
        s in (("Z", 1), ("Z", 4)) for s in shapes
    ):
        return True
    if all(s == ("A1", 1) for s in shapes):
        return True
    if len(shapes) == 1 and shapes[0][0] == "A1":
        return True
    return False


# ---------------------------------------------------------------------------
# oracles

def _antichain_sets(A: FiniteMonounary) -> list[tuple[int, ...]]:
    """Generator sets with no generator inside the closure of the others.
    Every subalgebra is generated by such a set, so quantifying over them
    exhausts all finitely generated substructures."""
    singles = [core.generated(A, [x]) for x in range(A.n)]
    out = []
    for bits in range(1, 1 << A.n):
        S = [x for x in range(A.n) if bits >> x & 1]
        if all(not any(s in singles[t] for t in S if t != s) for s in S):
            out.append(tuple(S))
    return out


class _Restrictions:
    """Restriction images of the automorphism group on sorted element
    tuples, computed once per tuple."""

    def __init__(self, auts: Sequence[tuple[int, ...]]):
        self.auts = auts
        self._memo: dict[tuple[int, ...], set] = {}

    def on(self, elems: tuple[int, ...]) -> set:
        got = self._memo.get(elems)
        if got is None:
            got = {tuple(p[x] for x in elems) for p in self.auts}
            self._memo[elems] = got
        return got


def _auts_for(A: FiniteMonounary, bound: int, auts) -> list[tuple[int, ...]]:
    if A.n > bound:
        raise ValueError(f"bound exceeded: n={A.n} > {bound}")
    return list(auts) if auts is not None else iso.brute_force_automorphisms(A, bound)


def is_ultrahomogeneous_oracle(
    A: FiniteMonounary, bound: int = DEFAULT_BOUND, auts=None
) -> bool:
    auts = _auts_for(A, bound, auts)
    restr = _Restrictions(auts)
    sets_ = _antichain_sets(A)
    closures = {S: tuple(sorted(core.generated(A, S))) for S in sets_}
    for S in sets_:
        src = closures[S]
        for T in sets_:
            if len(T) != len(S):
                continue
            tgt = closures[T]
            if len(tgt) != len(src):
                continue
            avail = restr.on(src)
            for images in iso.subalgebra_isomorphism_images(A.table, src, tgt):
                if images not in avail:
                    return False
    return True


def is_1_ultrahomogeneous_oracle(
    A: FiniteMonounary, bound: int = DEFAULT_BOUND, auts=None
) -> bool:
    auts = _auts_for(A, bound, auts)
    restr = _Restrictions(auts)
    closures = [tuple(sorted(core.generated(A, [x]))) for x in range(A.n)]
    for x in range(A.n):
        src = closures[x]
        avail = restr.on(src)
        for y in range(A.n):
            tgt = closures[y]
            if len(tgt) != len(src):
                continue
            for images in iso.subalgebra_isomorphism_images(A.table, src, tgt):
                if images not in avail:
                    return False
    return True


def is_n_homogeneous(
    A: FiniteMonounary, k: int, bound: int = DEFAULT_BOUND, auts=None
) -> bool:
    """Isomorphisms between k-element subalgebras all extend; vacuously
    true when no k-element subalgebra exists."""
    if k < 1:
        raise ValueError("k must be positive")
    auts = _auts_for(A, bound, auts)
    f = A.table
    subs = [
        S for S in combinations(range(A.n), k) if all(f[x] in S for x in S)
    ]
    restr = _Restrictions(auts)
    for src in subs:
        avail = restr.on(src)
        for tgt in subs:
            for images in iso.subalgebra_isomorphism_images(f, src, tgt):
                if images not in avail:
                    return False
    return True


def _partial_iso_images(table, S: tuple[int, ...], T: tuple[int, ...]):
    """Images of S under all isomorphisms of induced partial structures
    S -> T (domains must correspond both ways)."""
    pos = {x: i for i, x in enumerate(S)}
    sset, tset = set(S), set(T)
    for perm in permutations(T):
        ok = True
        for i, x in enumerate(S):
            v = table[x]
            if v in sset:
                if table[perm[i]] != perm[pos[v]]:
                    ok = False
                    break
            else:
                if table[perm[i]] in tset:
                    ok = False
                    break
        if ok:
            yield perm


def is_partially_n_homogeneous(
    A: FiniteMonounary, k: int, bound: int = DEFAULT_BOUND, auts=None
) -> bool:
    """Isomorphisms between induced partial structures on arbitrary
    k-subsets all extend to automorphisms."""
    if k < 1:
        raise ValueError("k must be positive")
    auts = _auts_for(A, bound, auts)
    restr = _Restrictions(auts)
    subsets = list(combinations(range(A.n), k))
    for S in subsets:
        avail = restr.on(S)
        for T in subsets:
            for images in _partial_iso_images(A.table, S, T):
                if images not in avail:
                    return False
    return True


def is_partially_homogeneous_oracle(
    A: FiniteMonounary, bound: int = DEFAULT_BOUND, auts=None
) -> bool:
    auts = _auts_for(A, bound, auts)
    return all(
        is_partially_n_homogeneous(A, k, bound, auts) for k in range(1, A.n + 1)
    )


# ---------------------------------------------------------------------------
# the lattice of conditions

@dataclass(frozen=True)
class LatticeReport:
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
        return {
            "transitive": self.transitive,
            "ph1": self.ph1,
            "ph2": self.ph2,
            "ph": self.ph,
            "uh": self.uh,
            "h": self.h,
            "h2": self.h2,
            "h1": self.h1,
        }

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


def classify_lattice(A: FiniteMonounary, bound: int = DEFAULT_BOUND) -> LatticeReport:
    auts = _auts_for(A, bound, None)
    uh = is_ultrahomogeneous(A)
    return LatticeReport(
        transitive=orbits.is_transitive(A),
        ph1=is_partially_n_homogeneous(A, 1, bound, auts),
        ph2=is_partially_n_homogeneous(A, 2, bound, auts),
        ph=is_partially_homogeneous(A),
        uh=uh,
        h=uh,
        h2=is_n_homogeneous(A, 2, bound, auts),
        h1=is_n_homogeneous(A, 1, bound, auts),
    )


# ---------------------------------------------------------------------------
# loop-free partial algebras (pseudoforests)

def pseudoforest_ultrahomogeneous(P: PartialMonounary) -> bool:
    """UH for loop-free partial algebras, equivalently homogeneity of the
    associated functional digraph: disjoint 2-cycles, disjoint 3-cycles, a
    single 4-cycle, or the empty operation.  Loops are rejected."""
    for x, v in enumerate(P.table):
        if v == x:
            raise ValueError(f"loop at {x}: input must be loop-free")
    defined = [v is not None for v in P.table]
    if not any(defined):
        return True
    if not all(defined):
        return False
    sk = core.Skeleton(P.table)
    if not all(sk.cyclic):
        return False
    sizes = sorted(len(c) for c in sk.cycles)
    return set(sizes) == {2} or set(sizes) == {3} or sizes == [4]


# ---------------------------------------------------------------------------
# several unary operations at once

def multiunary_brute_check(tables: Sequence[Sequence[int]], bound: int = DEFAULT_BOUND) -> dict:
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

    rng = range(n)
    auts = [
        p
        for p in permutations(rng)
        if all(p[t[x]] == t[p[x]] for t in tabs for x in rng)
    ]

    def closure(seed: int) -> frozenset[int]:
        out: set[int] = set()
        stack = [seed]
        while stack:
            x = stack.pop()
            if x not in out:
                out.add(x)
                stack.extend(t[x] for t in tabs)
        return frozenset(out)

    singles = [closure(x) for x in rng]

    def iso_images(src: tuple[int, ...], tgt: tuple[int, ...]):
        pos = {x: i for i, x in enumerate(src)}
        for perm in permutations(tgt):
            if all(
                perm[pos[t[x]]] == t[perm[i]]
                for t in tabs
                for i, x in enumerate(src)
            ):
                yield perm

    def extendable(src: tuple[int, ...], tgt: tuple[int, ...]) -> bool:
        avail = {tuple(p[x] for x in src) for p in auts}
        for images in iso_images(src, tgt):
            if images not in avail:
                return False
        return True

    one_uh = True
    for x in rng:
        src = tuple(sorted(singles[x]))
        for y in rng:
            tgt = tuple(sorted(singles[y]))
            if len(src) == len(tgt) and not extendable(src, tgt):
                one_uh = False
                break
        if not one_uh:
            break

    full_uh = True
    sets_ = []
    for bits in range(1, 1 << n):
        S = [x for x in rng if bits >> x & 1]
        if all(not any(s in singles[t] for t in S if t != s) for s in S):
            sets_.append(S)
    closures = {
        tuple(S): tuple(sorted(frozenset().union(*[singles[s] for s in S])))
        for S in sets_
    }
    for S in sets_:
        src = closures[tuple(S)]
        for T in sets_:
            tgt = closures[tuple(T)]
            if len(S) == len(T) and len(src) == len(tgt) and not extendable(src, tgt):
                full_uh = False
                break
        if not full_uh:
            break

    return {"is_1_ultrahomogeneous": one_uh, "is_ultrahomogeneous": full_uh}
