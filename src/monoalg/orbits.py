"""Orbits of tuples under the automorphism group.

Single elements are labelled by the pointed certificate of the algebra
around them.  A k-tuple label is built inductively: the (k-1)-prefix
label, the last coordinate's 1-orbit label, and the marked certificate of
the subalgebra the tuple generates (marks carrying generator positions).
Two tuples get the same label iff some automorphism maps one to the other,
so counting distinct labels counts orbits without touching the group.
"""

from __future__ import annotations

from itertools import product

from . import iso
from .core import FiniteMonounary, Skeleton, generated, subalgebra
from .iso import Certificate, brute_force_automorphisms, marked_certificate


class OrbitLabeler:
    """Memoizing label factory for one fixed algebra; the memo is
    per-instance."""

    def __init__(self, A: FiniteMonounary):
        self.A = A
        self._skeleton = Skeleton(A.table)
        self._memo: dict[tuple[int, ...], Certificate] = {}

    def label(self, xs: tuple[int, ...]) -> Certificate:
        if not xs:
            raise ValueError("empty tuple has no orbit label")
        got = self._memo.get(xs)
        if got is not None:
            return got
        if len(xs) == 1:
            if not 0 <= xs[0] < self.A.n:
                raise ValueError(f"element out of range: {xs[0]}")
            lab = ("pt", iso.label(self._skeleton, self.A.table, xs)[2])
        else:
            sub, elems = subalgebra(self.A, generated(self.A, xs))
            local = {x: i for i, x in enumerate(elems)}
            lab = (
                self.label(xs[:-1]),
                self.label(xs[-1:]),
                marked_certificate(sub, tuple(local[x] for x in xs)),
            )
        self._memo[xs] = lab
        return lab


def one_orbits(A: FiniteMonounary) -> tuple[tuple[int, ...], ...]:
    """Partition of the domain into automorphism orbits, blocks and
    block list both ascending."""
    labeler = OrbitLabeler(A)
    blocks: dict[Certificate, list[int]] = {}
    for x in range(A.n):
        blocks.setdefault(labeler.label((x,)), []).append(x)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def tuple_orbit_label(A: FiniteMonounary, xs: tuple[int, ...]) -> Certificate:
    return OrbitLabeler(A).label(tuple(xs))


def n_orbit_count(A: FiniteMonounary, k: int) -> int:
    """Number of orbits of k-tuples (coordinates may repeat)."""
    if k < 1:
        raise ValueError("arity must be positive")
    labeler = OrbitLabeler(A)
    return len({labeler.label(xs) for xs in product(range(A.n), repeat=k)})


def n_orbit_count_bruteforce(
    A: FiniteMonounary, k: int, cap: int = 250_000, auts=None
) -> int:
    """Union-find over all k-tuples under the full automorphism action."""
    if k < 1:
        raise ValueError("arity must be positive")
    total = A.n ** k
    if total > cap:
        raise ValueError(f"tuple space {total} exceeds cap {cap}")
    if auts is None:
        auts = brute_force_automorphisms(A)

    tuples = list(product(range(A.n), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    parent = list(range(total))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, t in enumerate(tuples):
        for p in auts:
            j = index[tuple(p[x] for x in t)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return sum(1 for i in range(total) if find(i) == i)


def is_transitive(A: FiniteMonounary) -> bool:
    return len(one_orbits(A)) == 1


def orbit_profile(A: FiniteMonounary, up_to: int) -> list[int]:
    """Orbit counts for arities 1..up_to."""
    return [n_orbit_count(A, k) for k in range(1, up_to + 1)]
