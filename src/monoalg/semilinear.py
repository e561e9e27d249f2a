"""Order structure on the tree above a cyclic element.

For cyclic c, the tree A_c carries a partial order: a >= b iff some power
of f sends a to b (staying inside the tree, with c at the bottom).  Down
from any element is a chain, any two elements meet, and x covers y exactly
when y = f(x), so the order and the partial operation determine each
other; their automorphism groups coincide.  build_order therefore keeps
only the covers, one per element above c, and check_aut_equality
verifies the coincidence on concrete inputs with two independent
brute-force filters.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, NamedTuple

from . import core, iso
from .core import FiniteMonounary


class InducedPoset(NamedTuple):
    """The order on the tree above `bottom`, on original labels, as its
    cover pairs (x, f(x)): a <= b iff covers lead down from b to a."""

    elements: tuple[int, ...]
    covers: frozenset[tuple[int, int]]
    bottom: int


def build_order(A: FiniteMonounary, c: int) -> InducedPoset:
    if not 0 <= c < A.n:
        raise ValueError(f"element out of range: {c}")
    sk = core.skeleton(A.table)
    if not sk.cyclic[c]:
        raise ValueError(f"{c} is not cyclic")
    elems = tuple(sk.tree_above(c))
    f = A.table
    return InducedPoset(elems, frozenset((x, f[x]) for x in elems if x != c), c)


def check_aut_equality(
    A: FiniteMonounary, c: int, bound: int = core.DEFAULT_BOUND
) -> tuple[bool, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Automorphisms of the tree above c, once as a partial algebra (the
    oracles' filter iso.partial_iso_images) and once as an order (a
    filter of its own); returns the verdict with both lists (local
    indices into the ascending element list).  The tree and its order
    come straight from the definitions, not from build_order."""
    f, n = A.table, A.n
    if not 0 <= c < n:
        raise ValueError(f"element out of range: {c}")
    cycle = [c]
    while len(cycle) <= n and f[cycle[-1]] != c:
        cycle.append(f[cycle[-1]])
    if f[cycle[-1]] != c:
        raise ValueError(f"{c} is not cyclic")
    # the tree: everything reaching c through preimages, except through
    # the predecessor of c on its cycle
    pre: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        pre[f[x]].append(x)
    elems = [c]
    for x in elems:
        elems.extend(y for y in pre[x] if y != cycle[-1])
    elems.sort()
    k = len(elems)
    if k > bound:
        raise ValueError(f"bound exceeded: tree size {k} > {bound}")
    pos = {e: i for i, e in enumerate(elems)}
    rng = range(k)
    alg = [tuple(map(pos.__getitem__, images)) for images in iso.partial_iso_images([f], elems, elems)]

    def down(b: int) -> Iterator[int]:  # b, f(b), ..., c: the elements <= b
        yield b
        while b != c:
            b = f[b]
            yield b

    lset = {(pos[a], pos[b]) for b in elems for a in down(b)}
    ord_auts = [
        p
        for p in permutations(rng)
        if all(((p[a], p[b]) in lset) == ((a, b) in lset) for a in rng for b in rng)
    ]
    return alg == ord_auts, tuple(alg), tuple(ord_auts)
