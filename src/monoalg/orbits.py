"""Orbits of elements and of tuples under the automorphism group.

One top-down pass over `iso.label` with xs marked numbers the orbits of
the automorphisms fixing every xs[i]: a cyclic x is keyed by its
component's least-rotated label sequence and its phase modulo that
sequence's period, an acyclic x by the orbit of f(x) and its own label.
The k-tuple orbits starting in the orbit of x1 are the (k-1)-tuple
orbits of the stabilizer of x1, so marking one representative per orbit
of each successive stabilizer reaches every arity in one walk.
orbit_walk is that walk, a generator of one (arity, xs, orbit) triple
per labelling: first (1, (), the whole group's orbit numbering), then
for each arity k >= 2 one triple per representative (k-1)-tuple xs,
with the orbit numbering of its stabilizer; the k-tuple representatives
are xs + (x,), one x per orbit number.  profile counts the orbits of
every arity off the triples, for orbit_profile and the orbits verb.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from . import iso
from .core import FiniteMonounary, Skeleton, group_points, skeleton
from .iso import brute_force_automorphisms

# the orbit walk limit: one orbit_profile walk counts tuples of at most
# MAX_ORBIT_ARITY coordinates and takes at most MAX_ORBIT_LABELLINGS
# labellings, each linear in n plus the arity, of at most
# MAX_ORBIT_POINTS points in all (labellings times n; about 0.75 us a
# point with CPython 3.11 on a 2-core host)
MAX_ORBIT_ARITY = 32
MAX_ORBIT_LABELLINGS = 10_000
MAX_ORBIT_POINTS = 10_000_000


def _point_orbits(sk: Skeleton, xs: Sequence[int] = ()) -> list[int]:
    """Orbit number of every element under the automorphisms fixing
    each xs[i]."""
    table = sk.table
    labels, seqs, rots, _ = iso.label(sk, xs)
    seq_ids: dict[tuple[int, ...], int] = {}
    ids: dict[tuple, int] = {}  # cyclic keys have three entries, acyclic two
    orbit = [0] * len(table)
    for cycle, seq, (r, period) in zip(sk.cycles(), seqs, rots):
        s = seq_ids.setdefault(seq, len(seq_ids))
        for t, c in enumerate(cycle):
            orbit[c] = ids.setdefault((None, s, (t - r) % period), len(ids))
    for x in sk.parents_first():
        orbit[x] = ids.setdefault((orbit[table[x]], labels[x]), len(ids))
    return orbit


def one_orbits(A: FiniteMonounary) -> tuple[tuple[int, ...], ...]:
    """Partition of the domain into automorphism orbits, blocks and
    block list both ascending."""
    return group_points(_point_orbits(skeleton(A.table)))


def orbit_profile(A: FiniteMonounary, up_to: int) -> list[int]:
    """Orbit counts of k-tuples (coordinates may repeat) for k = 1..up_to."""
    return profile(orbit_walk(A, up_to))


def profile(walk: Iterable[tuple[int, tuple[int, ...], list[int]]]) -> list[int]:
    """Orbit counts of k-tuples for each arity k that orbit_walk's triples
    reach: an orbit numbering has one number per representative x."""
    counts: dict[int, int] = {}  # by arity, which the walk takes in increasing order
    for arity, _, orbit in walk:
        counts[arity] = counts.get(arity, 0) + max(orbit) + 1  # orbit numbers are dense from 0
    return list(counts.values())


def orbit_walk(A: FiniteMonounary, up_to: int) -> Iterator[tuple[int, tuple[int, ...], list[int]]]:
    """Yield (arity, xs, orbit) for each labelling of the walk to arity
    up_to: first (1, (), the orbit number of every element), then, arity
    by arity, one triple per representative (arity - 1)-tuple xs, with
    the orbit numbering of the automorphisms fixing every xs[i].  The
    arity-k representatives are xs + (x,), one x per orbit number.

    A stabilizer has at least as many orbits as the whole group, so the
    representatives found bound the labellings still to come from below;
    the walk fails as soon as that bound exceeds MAX_ORBIT_LABELLINGS, or
    the bound times n exceeds MAX_ORBIT_POINTS, before it does them, and
    up_to may not exceed MAX_ORBIT_ARITY."""
    if up_to < 1:
        raise ValueError("arity must be positive")
    if up_to > MAX_ORBIT_ARITY:
        raise ValueError(f"orbit profile to arity {up_to} is over the orbit walk limit of arity {MAX_ORBIT_ARITY}")
    points = range(A.n)
    spent = 0
    ones = 1  # the number of 1-orbits, once the first labelling is done

    def reserve(tuples: int, arity: int) -> None:
        """Fail unless labelling `tuples` tuples of arity - 1 coordinates,
        and the walk on from them to arity up_to, fits in both limits."""
        need = spent
        for _ in range(arity, up_to + 1):
            need += tuples
            if need > MAX_ORBIT_LABELLINGS:
                raise ValueError(
                    f"orbit profile to arity {up_to} needs more than {MAX_ORBIT_LABELLINGS}"
                    " labellings, the orbit walk limit"
                )
            if need * A.n > MAX_ORBIT_POINTS:
                raise ValueError(
                    f"orbit profile to arity {up_to} needs more than {MAX_ORBIT_POINTS} labelled points"
                    f" ({A.n} points a labelling), the orbit walk limit"
                )
            tuples *= ones

    level: list[tuple[int, ...]] = [()]
    reserve(1, 1)  # checked before the skeleton is built
    sk = skeleton(A.table)
    first = _point_orbits(sk)  # arity 1's one labelling, xs = ()
    ones = max(first) + 1
    for arity in range(1, up_to + 1):
        spent += len(level)
        found: list[tuple[int, ...]] = []
        for xs in level:
            orbit = _point_orbits(sk, xs) if xs else first
            yield arity, xs, orbit
            if arity < up_to:
                found.extend(xs + (x,) for x in dict(zip(orbit, points)).values())
                reserve(len(found), arity + 1)
        level = found


def n_orbit_count(A: FiniteMonounary, k: int) -> int:
    """Number of orbits of k-tuples (coordinates may repeat)."""
    return orbit_profile(A, k)[-1]


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
