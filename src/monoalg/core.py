"""Finite monounary algebras: one total unary operation on {0, ..., n-1}.

An algebra is stored as its value table (entry i is f(i)); the partial
variant allows None entries.  Induced substructures on a subset B keep f
on b exactly when f(b) lands inside B, so a subset of a total algebra is
in general only a partial algebra.

The skeleton (Skeleton, kept per table by `skeleton`) is the one peel
of a table that the other modules read.  Next to it, _least_rotation
gives the least rotation and the period of a cycle's sequence: iso
reads it for the cycles of a labelling, and enumeration for the cycles
it lays out, so that enumerating imports this module and not iso.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property, lru_cache
from itertools import compress, pairwise
from operator import attrgetter, not_, sub
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

# stated limits, kept here so that building the CLI's parser reads them
# without importing the modules that enforce them
DEFAULT_BOUND = 8  # largest domain the brute-force oracles search
MAX_POINTS = 12  # largest n that enumeration builds every class for (57903 classes)


class _Record:
    """Immutable value record over the fields named in _fields, each
    class's own __slots__: equal to records of its own class with equal
    fields, hashed, printed and pickled by its fields, like a frozen
    dataclass."""

    __slots__ = _fields = ()
    _values = property(lambda self: ())  # the field tuple; one reader per class

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if len(cls._fields) > 1:
            cls._values = property(attrgetter(*cls._fields))
        elif cls._fields:
            one = attrgetter(*cls._fields)
            cls._values = property(lambda self: (one(self),))

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._values


class _Monounary(_Record):
    """A value table checked once: entry i is f(i), an int in range(n)
    that is not a bool, or None where undefined when the class allows it.
    A table of plain ints in range passes in C (its set of entry types,
    then min and max); any other goes through the per-entry loop."""

    __slots__ = _fields = ("table",)
    _undefined_ok = False

    def __init__(self, table: Sequence) -> None:
        table = tuple(table)  # hashable, so `skeleton` can key on it; a tuple is kept as it is
        n = len(table)
        if n == 0:
            raise ValueError("empty table")
        if not (set(map(type, table)) <= {int} and 0 <= min(table) and max(table) < n):
            for i, v in enumerate(table):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    if v is None and self._undefined_ok:
                        continue
                    raise ValueError(f"entry {i} out of range: {v!r}")
        super().__init__(table)

    @property
    def n(self) -> int:
        return len(self.table)


class FiniteMonounary(_Monounary):
    """Total unary operation given as its value table."""

    __slots__ = ()
    table: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.table[x]


class PartialMonounary(_Monounary):
    """Unary operation that may be undefined (None) on some elements."""

    __slots__ = ()
    _undefined_ok = True
    table: tuple[Union[int, None], ...]

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.table) if v is not None)


Algebra = Union[FiniteMonounary, PartialMonounary]


def validate(raw: Sequence[int]) -> FiniteMonounary:
    """Checked constructor from any integer sequence."""
    return FiniteMonounary(tuple(raw))


def random_algebra(n: int, seed: int) -> FiniteMonounary:
    """Uniform over raw tables (not over isomorphism classes)."""
    if n < 1:
        raise ValueError("n must be positive")
    import random

    rng = random.Random(seed)
    return FiniteMonounary(tuple(rng.randrange(n) for _ in range(n)))


# ---------------------------------------------------------------------------
# structural invariants

class Skeleton:
    """One indegree peel of a table, read by every structural layer.

    Every per-point field is an array("i"), or bytes for cyclic, built in
    a list and converted once:
    table   the table
    degree  the number of preimages of each point, before the peel
    cyclic  1 where the indegree never drops to 0 (one cycle preimage
            is left), else 0
    ranked  every point, rank by rank: a leaf has rank 0, any other
            point one more than its highest-ranked acyclic preimage;
            in a rank the acyclic points come in peel order, then the
            cyclic ones in cycle order.  The peel is one flat Kahn
            queue, so it builds no list per rank
    level_starts
            where each rank begins in `ranked`, then n; no rank is empty
    cycle_points, cycle_starts
            the cycles the same way, each in operation order from its
            least point, sorted by it; cycles() yields them
    height  least k with f^k(x) cyclic
    comp    the index of x's cycle in cycles()
    height and comp are filled together, in one walk down `ranked`,
    when either is first read.
    unmarked
            iso.label(self), stored there by its first call; None before

    Every layer reads its skeleton through `skeleton`, which keeps the
    two tables last asked for, so calls on one table share one peel and
    one unmarked labelling.  On a random 10^5-point table (tracemalloc,
    CPython 3.11) a skeleton holds 1.25 MiB, height and comp 0.76 MiB
    and the unmarked labelling 2.64 MiB, 2.25 of it the certificate's
    tuples; lists of int objects held 5.80, 2.23 and 3.02 MiB.  On 10^6
    points: 12.5, 7.6 and 24.3 MiB against 58.0, 35.8 and 28.1.  An
    array holds no references, so one cached random 10^5 skeleton no
    longer slows a full gc.collect() (1.6-1.9 ms, 1.6-2.4 with none;
    8.4-9.4 ms with the lists; three runs each).  A shared skeleton and
    its labelling are read-only: readers copy before they change
    anything, and children() and tree_above() build fresh lists on each
    call.
    """

    def __init__(self, table: Sequence[int]):
        table = array("i", table)  # "i" holds every index below 2^31
        n = len(table)
        indeg = [0] * n
        for v in table:
            indeg[v] += 1
        degree = array("i", indeg)
        # one flat Kahn queue: the leaves, then each point as its last
        # acyclic preimage leaves, so the queue runs rank by rank
        rank = [0] * n
        queue = [x for x in range(n) if not indeg[x]]
        starts = [0] if queue else []  # where each rank begins in the queue
        top = 0
        for x in queue:
            y = table[x]
            r = rank[x] + 1  # the last child to leave has the highest rank
            rank[y] = r
            d = indeg[y] - 1
            indeg[y] = d
            if not d:
                if r != top:
                    top = r
                    starts.append(len(queue))
                queue.append(y)
        starts += [len(queue)] * 2  # the top rank, which holds cyclic points only, and the end
        cyclic = bytes(indeg)
        cycle_points, cycle_starts = [], [0]
        on_rank: dict[int, list[int]] = {}  # the cyclic points by rank
        for s in compress(range(n), cyclic):
            if indeg[s]:  # the walk clears each cycle point's indegree
                x = s
                while indeg[x]:
                    indeg[x] = 0
                    cycle_points.append(x)
                    on_rank.setdefault(rank[x], []).append(x)
                    x = table[x]
                cycle_starts.append(len(cycle_points))
        # each rank's cyclic points go after its acyclic ones
        ranked, level_starts, placed, lo = array("i"), [], 0, 0
        for r in sorted(on_rank):
            part = starts[lo:r + 1]
            level_starts += [s + placed for s in part] if placed else part
            ranked.fromlist(queue[starts[lo]:starts[r + 1]])
            ranked.fromlist(on_rank[r])
            placed += len(on_rank[r])
            lo = r + 1
        level_starts.append(n)
        self.table, self.degree, self.cyclic, self.ranked = table, degree, cyclic, ranked
        self.level_starts = array("i", level_starts)
        self.cycle_points, self.cycle_starts = array("i", cycle_points), array("i", cycle_starts)
        self.unmarked = None

    def cycles(self) -> Iterator[array]:
        """Each cycle, as a slice of cycle_points."""
        points = self.cycle_points
        return (points[a:b] for a, b in pairwise(self.cycle_starts))

    def cycle_lengths(self) -> Iterator[int]:
        """The length of each cycle, in the order of cycles()."""
        starts = self.cycle_starts
        return map(sub, starts[1:], starts)

    def parents_first(self) -> Iterator[int]:
        """The acyclic points, each after its image f(x)."""
        cyclic = self.cyclic
        return (x for x in reversed(self.ranked) if not cyclic[x])

    @cached_property
    def height(self) -> array:
        return self._height_and_comp()[0]

    @cached_property
    def comp(self) -> array:
        return self._height_and_comp()[1]

    def _height_and_comp(self) -> tuple[array, array]:
        """Both height and comp in one walk down `ranked`, cached
        together whichever is read first."""
        table, cyclic = self.table, self.cyclic
        h = [0] * len(table)
        c = h.copy()
        for i, cycle in enumerate(self.cycles()):
            for x in cycle:
                c[x] = i
        for x in reversed(self.ranked):
            if not cyclic[x]:
                y = table[x]
                h[x] = h[y] + 1
                c[x] = c[y]
        height, comp = array("i", h), array("i", c)
        self.__dict__.update(height=height, comp=comp)
        return height, comp

    def children(self) -> list[list[int]]:
        """Per element, its acyclic preimages in ascending order."""
        kids: list[list[int]] = [[] for _ in self.table]
        cyclic = self.cyclic
        for x, v in enumerate(self.table):
            if not cyclic[x]:
                kids[v].append(x)
        return kids

    def tree_above(self, z: int) -> list[int]:
        """z plus every acyclic element whose forward orbit reaches z
        before it reaches a cycle, ascending."""
        kids = self.children()
        block = [z]
        for x in block:
            block.extend(kids[x])
        return sorted(block)


# the skeleton of a table given as a tuple, shared with the call before:
# keyed by the table's value, at most two tables' worth kept alive
skeleton = lru_cache(maxsize=2)(Skeleton)


def _least_rotation(seq: Sequence[int]) -> tuple[int, int]:
    """Offset of the lexicographically least rotation and the least
    period of the rotations, in O(k).  Two candidate offsets i < j race
    along the doubled sequence; at the first mismatch after m equal steps
    the loser skips m + 1 offsets, none of which starts a least rotation.
    The race ends when j runs out or the candidates agree for k steps,
    and then j - i is the period."""
    k = len(seq)
    s = seq + seq
    i, j, m = 0, 1, 0
    while j < k and m < k:
        a, b = s[i + m], s[j + m]
        if a == b:
            m += 1
            continue
        if a > b:
            i += m + 1
        else:
            j += m + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        m = 0
    return i, (j - i if m == k else k)


def group_points(key: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The points grouped by their int key (a component or orbit number),
    blocks and block list both ascending: a dict keeps its blocks in the
    order of their least points."""
    blocks: dict[int, list[int]] = {}
    for x, k in enumerate(key):
        blocks.setdefault(k, []).append(x)
    return tuple(map(tuple, blocks.values()))


class MinimalGenerators(NamedTuple):
    """Minimal generating sets, in factored form.

    Every minimal generating set is `leaves` together with one element
    chosen from each block of `cycle_choices` (the purely cyclic
    components, which contain no leaf to reach them from).
    """

    leaves: frozenset[int]
    cycle_choices: tuple[frozenset[int], ...]


class StructureReport(NamedTuple):
    components: tuple[tuple[int, ...], ...]
    cyclic: frozenset[int]
    heights: tuple[int, ...]
    height: int
    leaves: frozenset[int]
    cycle_sizes: tuple[int, ...]
    min_generating: MinimalGenerators


def structure_report(A: FiniteMonounary) -> StructureReport:
    sk = skeleton(A.table)
    degree = sk.degree
    points = range(A.n)
    leaves = frozenset(compress(points, map(not_, degree)))
    # a component is purely cyclic iff each cycle point's one preimage is
    # its cycle predecessor
    purely_cyclic = tuple(
        frozenset(c) for c in sk.cycles() if all(degree[x] == 1 for x in c)
    )
    return StructureReport(
        components=group_points(sk.comp),
        cyclic=frozenset(compress(points, sk.cyclic)),
        heights=tuple(sk.height),
        height=max(sk.height),
        leaves=leaves,
        cycle_sizes=tuple(sorted(sk.cycle_lengths())),
        min_generating=MinimalGenerators(leaves, purely_cyclic),
    )


# ---------------------------------------------------------------------------
# substructures

def generated(A: FiniteMonounary, seeds: Iterable[int]) -> frozenset[int]:
    """Subalgebra generated by `seeds`: closure under f."""
    out: set[int] = set()
    for s in seeds:
        if not 0 <= s < A.n:
            raise ValueError(f"generator out of range: {s}")
        x = s
        while x not in out:
            out.add(x)
            x = A.table[x]
    return frozenset(out)


def subalgebra(A: FiniteMonounary, elements: Iterable[int]) -> tuple[FiniteMonounary, tuple[int, ...]]:
    """Reindex a closed subset as a total algebra; returns it with the
    ascending element list mapping local index -> original element."""
    elems = tuple(sorted(set(elements)))
    idx = {x: i for i, x in enumerate(elems)}
    tab = []
    for x in elems:
        v = A.table[x]
        if v not in idx:
            raise ValueError(f"subset not closed: f({x}) = {v} escapes")
        tab.append(idx[v])
    return FiniteMonounary(tuple(tab)), elems


# ---------------------------------------------------------------------------
# io

def relational_form(alg: Algebra) -> tuple[tuple[int, int], ...]:
    """Edge list of the associated digraph: x -> f(x) where defined."""
    return tuple((x, v) for x, v in enumerate(alg.table) if v is not None)


def to_json(alg: Algebra) -> str:
    return json.dumps({"n": alg.n, "f": list(alg.table)})


def from_json(text: str) -> Algebra:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply for a table") from None
    if not isinstance(data, dict) or "n" not in data or "f" not in data:
        raise ValueError("expected an object with keys 'n' and 'f'")
    n, f = data["n"], data["f"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'n' must be an integer, got {type(n).__name__}")
    if not isinstance(f, list) or n != len(f):
        raise ValueError("'n' does not match the table length")
    if None in f:
        return PartialMonounary(tuple(f))
    return FiniteMonounary(tuple(f))


def to_text(alg: Algebra) -> str:
    return "f: " + " ".join("-" if v is None else str(v) for v in alg.table)


def from_text(line: str) -> Algebra:
    body = line.strip()
    if body.startswith("f:"):
        body = body[2:]
    parts = body.split()
    if not parts:
        raise ValueError("empty table")
    tab = tuple(None if p == "-" else int(p) for p in parts)
    if any(v is None for v in tab):
        return PartialMonounary(tab)
    return FiniteMonounary(tab)


def to_dot(alg: Algebra, name: str = "monounary") -> str:
    lines = [f"digraph {name} {{"]
    for x in range(alg.n):
        lines.append(f"  {x};")
    for x, y in relational_form(alg):
        lines.append(f"  {x} -> {y};")
    lines.append("}")
    return "\n".join(lines)
