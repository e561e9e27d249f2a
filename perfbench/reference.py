"""Reference answers the benchmark checks the package against.

Nothing here imports monoalg.  Every answer is recomputed from the value
table with plain loops, so a defect in the package cannot hide behind the
same defect in its reference.  All functions take a raw table: a sequence
whose entry x is f(x).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

ENUMERATION_COUNTS = (1, 3, 7, 19, 47, 130, 343)  # OEIS A001372, n = 1..7


def random_perm(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(f, perm) -> list[int]:
    """The table of the isomorphic copy in which x is renamed perm[x]."""
    out = [0] * len(f)
    for x, v in enumerate(f):
        out[perm[x]] = perm[v]
    return out


def perturb(f) -> list[int]:
    """Turn the first leaf into a loop.  The result has one cycle more than
    f, so it is never isomorphic to f."""
    image = set(f)
    leaf = next(x for x in range(len(f)) if x not in image)
    out = list(f)
    out[leaf] = leaf
    return out


def is_automorphism(f, p) -> bool:
    n = len(f)
    return (
        len(p) == n
        and sorted(p) == list(range(n))
        and list(map(p.__getitem__, f)) == list(map(f.__getitem__, p))
    )


def _peel(f):
    """(indegrees, acyclic elements with every child before its parent,
    cyclic mask, cycles each in operation order)."""
    n = len(f)
    indeg = [0] * n
    for v in f:
        indeg[v] += 1
    left = indeg[:]
    order = [x for x in range(n) if not left[x]]
    for x in order:  # the loop also visits elements appended during it
        y = f[x]
        left[y] -= 1
        if not left[y]:
            order.append(y)
    cyclic = [True] * n
    for x in order:
        cyclic[x] = False
    seen = [False] * n
    cycles = []
    for x in range(n):
        if cyclic[x] and not seen[x]:
            cycle = []
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = f[x]
            cycles.append(cycle)
    return indeg, order, cyclic, cycles


@dataclass(frozen=True)
class Facts:
    """What `structure_report` must say about a table."""

    components: tuple[tuple[int, ...], ...]
    cyclic: frozenset[int]
    heights: tuple[int, ...]
    leaves: frozenset[int]
    cycle_sizes: tuple[int, ...]
    cycle_size_of: tuple[int, ...]
    indegrees: tuple[int, ...]


def facts(f) -> Facts:
    indeg, order, cyclic, cycles = _peel(f)
    n = len(f)
    height = [0] * n
    comp = [0] * n
    csize = [0] * n
    for i, cycle in enumerate(cycles):
        for c in cycle:
            comp[c], csize[c] = i, len(cycle)
    for x in reversed(order):  # parents first
        y = f[x]
        height[x], comp[x], csize[x] = height[y] + 1, comp[y], csize[y]
    blocks: list[list[int]] = [[] for _ in cycles]
    for x in range(n):
        blocks[comp[x]].append(x)
    return Facts(
        components=tuple(sorted(tuple(b) for b in blocks)),
        cyclic=frozenset(x for x in range(n) if cyclic[x]),
        heights=tuple(height),
        leaves=frozenset(x for x in range(n) if not indeg[x]),
        cycle_sizes=tuple(sorted(len(c) for c in cycles)),
        cycle_size_of=tuple(csize),
        indegrees=tuple(indeg),
    )


def uh_witness(fa: Facts):
    """Two elements that no automorphism can swap although the map between
    the subalgebras they generate is an isomorphism: equal height, equal
    cycle size, unequal indegree.  Such a pair proves that the algebra is
    not ultrahomogeneous; None proves nothing."""
    first: dict = {}
    for x, key in enumerate(zip(fa.heights, fa.cycle_size_of)):
        y = first.setdefault(key, x)
        if fa.indegrees[y] != fa.indegrees[x]:
            return y, x
    return None


def _labels(f, marked=None):
    """Integer tree labels (Aho-Hopcroft-Ullman interning) plus the
    skeleton, with one element optionally individualized."""
    indeg, order, cyclic, cycles = _peel(f)
    kids: list[list[int]] = [[] for _ in f]
    for x in order:
        kids[f[x]].append(x)
    label = [0] * len(f)
    seen: dict = {}
    for x in order + [c for cycle in cycles for c in cycle]:
        key = (x == marked, tuple(sorted(label[k] for k in kids[x])))
        label[x] = seen.setdefault(key, len(seen))
    return label, kids, order, cycles


def _rotation(seq):
    """(start of the least rotation, rotational period, least rotation)."""
    k = len(seq)
    rots = [tuple(seq[i:] + seq[:i]) for i in range(k)]
    best = min(rots)
    period = next(p for p in range(1, k + 1) if rots[p % k] == rots[0])
    return rots.index(best), period, best


def orbit_partition(f, marked=None) -> tuple[tuple[int, ...], ...]:
    """Automorphism orbits of single elements (of the automorphisms fixing
    `marked`, when given), blocks and block list ascending.

    A cyclic element is named by its component's class and its offset from
    the least rotation modulo the rotational period; an acyclic element by
    the orbit of its image and its own tree label."""
    label, _, order, cycles = _labels(f, marked)
    orbit = [0] * len(f)
    names: dict = {}
    for cycle in cycles:
        start, period, best = _rotation([label[c] for c in cycle])
        for i, c in enumerate(cycle):
            orbit[c] = names.setdefault(("cycle", best, (i - start) % period), len(names))
    for x in reversed(order):
        orbit[x] = names.setdefault((orbit[f[x]], label[x]), len(names))
    blocks: dict[int, list[int]] = {}
    for x, o in enumerate(orbit):
        blocks.setdefault(o, []).append(x)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def pair_orbit_count(f) -> int:
    """Orbits of ordered pairs: for one x per orbit, the orbits of the
    stabilizer of x."""
    return sum(len(orbit_partition(f, marked=b[0])) for b in orbit_partition(f))


def group_order(f) -> int:
    label, kids, order, cycles = _labels(f)
    count = [1] * len(f)
    for x in order + [c for cycle in cycles for c in cycle]:
        same = Counter(label[k] for k in kids[x])
        count[x] = prod(count[k] for k in kids[x]) * prod(map(factorial, same.values()))
    classes: dict = {}
    for cycle in cycles:
        _, period, best = _rotation([label[c] for c in cycle])
        per = len(cycle) // period * prod(count[c] for c in cycle)
        classes.setdefault(best, []).append(per)
    return prod(factorial(len(pers)) * pers[0] ** len(pers) for pers in classes.values())

