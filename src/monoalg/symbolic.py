"""Symbolic calculus for algebras given by shape rather than by table.

A descriptor is one of
  A[n; a0, a1, ...]   a cycle of length n whose trees are uniform level by
                      level: every cyclic element has a0 children outside
                      the cycle, every height-k element has a_k children.
                      An optional tail card repeats forever (infinite
                      height); trailing prefix entries equal to the tail
                      are stripped.  Zn abbreviates the bare cycle A[n].
  B[a]                connected, acyclic, every element with exactly a
                      preimages and a-branching all the way down (a >= 1,
                      usually w); every element has infinite height.
  N                   the successor chain on the naturals.
Cardinals come from {0, 1, 2, ...} with a top element w; arithmetic
saturates at w.  A symbolic algebra is a cardinal-weighted sum of
descriptors, normalized by merging isomorphic descriptors and sorting.
In the written form, `parse`/`show`, whitespace may stand between any
two tokens but not inside a number, and a syntax error names the term
that failed to match.
Limit families (one profile per cycle length, over all lengths at once)
represent the age-limits of the finite, and the k-bounded-branching,
algebras; they print but do not parse.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Optional, Union

from . import core
from .core import FiniteMonounary, _Record


# ---------------------------------------------------------------------------
# cardinals

_value = itemgetter(0)  # a Cardinal's payload, read in C
_INF = float("inf")


class Cardinal(tuple):
    """Natural number or the top value w.

    A one-entry tuple underneath, its payload the number or inf for w,
    so that hashing one, or a profile's tuple of them, and ordering them
    (numbers ascending, w on top) run in C; equal only to Cardinals."""

    __slots__ = ()

    def __new__(cls, value: Optional[int]) -> "Cardinal":
        if value is not None and (not isinstance(value, int) or value < 0):
            raise ValueError(f"bad cardinal: {value!r}")
        return tuple.__new__(cls, (_INF if value is None else value,))

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            # a plain tuple would otherwise compare equal through tuple.__eq__
            return False if isinstance(other, tuple) else NotImplemented
        return self[0] == other[0]

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    @property
    def value(self) -> Optional[int]:  # the number, or None for w
        return None if self[0] == _INF else self[0]

    @property
    def is_omega(self) -> bool:
        return self[0] == _INF

    def substitute(self, w: int) -> int:
        """The number, or `w` in place of w."""
        return w if self[0] == _INF else self[0]

    def __add__(self, other: "Cardinal") -> "Cardinal":
        if self.is_omega or other.is_omega:
            return OMEGA
        return Cardinal(self.value + other.value)

    def __mul__(self, other: "Cardinal") -> "Cardinal":
        if (self.value == 0) or (other.value == 0):
            return ZERO
        if self.is_omega or other.is_omega:
            return OMEGA
        return Cardinal(self.value * other.value)

    def __rmul__(self, other: object) -> object:
        return NotImplemented  # no tuple repetition

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(value={self.value!r})"

    def __str__(self) -> str:
        return "w" if self.value is None else str(self.value)

    def __reduce__(self):
        return self.__class__, (self.value,)


OMEGA = Cardinal(None)
ZERO = Cardinal(0)
ONE = Cardinal(1)


def card(x: Union[int, str, Cardinal]) -> Cardinal:
    if isinstance(x, Cardinal):
        return x
    if isinstance(x, str):
        if x == "w":
            return OMEGA
        return Cardinal(int(x))
    return Cardinal(x)


# ---------------------------------------------------------------------------
# descriptors

class Profile(_Record):
    """Cycle of length `cycle` with level-uniform trees; see module doc."""

    __slots__ = _fields = ("cycle", "prefix", "tail")
    cycle: int
    prefix: tuple[Cardinal, ...]
    tail: Optional[Cardinal]

    def __init__(
        self,
        cycle: int,
        prefix: Iterable[Union[int, str, Cardinal]] = (),
        tail: Union[int, str, Cardinal, None] = None,
    ) -> None:
        if cycle < 1:
            raise ValueError("cycle length must be positive")
        prefix = tuple(map(card, prefix))
        tail = card(tail) if tail is not None else None
        if 0 in map(_value, prefix) or tail == ZERO:
            raise ValueError("level cardinals must be nonzero")
        k = len(prefix)  # drop trailing entries equal to the tail (none if None), slicing once
        while k and prefix[k - 1] == tail:
            k -= 1
        super().__init__(cycle, prefix[:k], tail)

    @property
    def height(self) -> Optional[int]:
        """Height of the component; None when a tail makes it infinite."""
        return None if self.tail is not None else len(self.prefix)

    def levels(self, h: int) -> tuple[Cardinal, ...]:
        """First h level cardinals, expanding the tail as needed."""
        return self.prefix[:h] + (self.tail,) * (_depth(self.prefix, self.tail, h) - len(self.prefix))


def _depth(prefix: tuple, tail: Optional[Cardinal], h: int) -> int:
    """How many level cardinals a profile keeps when cut to height h: h
    with a tail to expand, else at most its prefix."""
    return h if tail is not None else min(h, len(prefix))


class Bee(_Record):
    __slots__ = _fields = ("alpha",)
    alpha: Cardinal

    def __init__(self, alpha: Union[int, str, Cardinal]) -> None:
        a = card(alpha)
        if a == ZERO:
            raise ValueError("branching cardinal must be nonzero")
        super().__init__(a)


class NSucc(_Record):
    __slots__ = ()


NSUCC = NSucc()

Descriptor = Union[Profile, Bee, NSucc]


def _desc_key(d: Descriptor):
    if isinstance(d, Profile):
        # the tail is compared only when both tails are set
        return (0, d.cycle, d.tail is not None, d.prefix, d.tail)
    if isinstance(d, Bee):
        return (1, d.alpha)
    return (2,)


class CycleFamily(_Record):
    """One profile shape per cycle length, over every length at once."""

    __slots__ = _fields = ("multiplicity", "prefix", "tail")
    multiplicity: Cardinal
    prefix: tuple[Cardinal, ...]
    tail: Optional[Cardinal]

    def member(self, n: int) -> Profile:
        return Profile(n, self.prefix, self.tail)

    def __str__(self) -> str:
        body = show_descriptor(Profile(1, self.prefix, self.tail))
        body = body.replace("A[1", "A[n", 1) if body.startswith("A[1") else "A[n]"
        return f"sum_(n>=1) {self.multiplicity}*{body}"


class SymbolicAlgebra(_Record):
    __slots__ = _fields = ("components", "families")
    components: tuple[tuple[Cardinal, Descriptor], ...]
    families: tuple[CycleFamily, ...]

    def __init__(
        self, components: tuple[tuple[Cardinal, Descriptor], ...], families: tuple[CycleFamily, ...] = ()
    ) -> None:
        super().__init__(components, families)

    def __str__(self) -> str:
        return show(self)


def symbolic(
    components: Iterable[tuple[Union[int, str, Cardinal], Descriptor]],
    families: Iterable[CycleFamily] = (),
) -> SymbolicAlgebra:
    """Checked, normalizing constructor: multiplicities coerced and
    nonzero, isomorphic descriptors merged, deterministic order."""
    merged: dict = {}
    order: list[Descriptor] = []
    for mult, desc in components:
        m = card(mult)
        if m == ZERO:
            raise ValueError("zero multiplicity")
        if desc in merged:
            merged[desc] = merged[desc] + m
        else:
            merged[desc] = m
            order.append(desc)
    fams = tuple(families)
    if not merged and not fams:
        raise ValueError("empty sum")
    comps = tuple(
        (merged[d], d) for d in sorted(order, key=_desc_key)
    )
    return SymbolicAlgebra(comps, fams)


# ---------------------------------------------------------------------------
# concrete syntax

def show_descriptor(d: Descriptor) -> str:
    if isinstance(d, Profile):
        if not d.prefix and d.tail is None:
            return f"Z{d.cycle}"
        body = f"A[{d.cycle};" + ",".join(str(e) for e in d.prefix)
        if d.tail is not None:
            body += f";{d.tail}"
        return body + "]"
    if isinstance(d, Bee):
        return f"B[{d.alpha}]"
    return "N"


def show(S: SymbolicAlgebra) -> str:
    parts = []
    for mult, desc in S.components:
        ds = show_descriptor(desc)
        parts.append(ds if mult == ONE else f"{mult}*{ds}")
    parts.extend(str(f) for f in S.families)
    return " + ".join(parts)


_CARD = r"(?:\d+|w)"
# One term of a sum.  No two \s* meet, not even across an optional group:
# a whitespace run that fails to match would be retried at every split.
_TERM = re.compile(
    rf"""\s* (?: (?P<weight> {_CARD} ) \s* \* \s* )?
    (?: N                                               # the successor chain
      | Z \s* (?P<z> \d+ )                              # a bare cycle
      | B \s* \[ \s* (?P<b> {_CARD} ) \s* \]            # B[a]
      | A \s* \[ \s* (?P<a> \d+ ) \s*                   # A[n;prefix;tail], both parts optional
        (?: ; \s* (?: (?P<prefix> {_CARD} (?: \s* , \s* {_CARD} )* ) \s* )?
            (?: ; \s* (?P<tail> {_CARD} ) \s* )? )? \]    # A[1; ;1] reads as A[1;;1]
    ) \s*""",
    re.X,
)


def parse(text: str) -> SymbolicAlgebra:
    """Read a `+`-sum of terms, each matched whole by _TERM; the first
    term that does not match is named in the error, cut to its first 60
    characters and its length when it is longer."""
    comps = []
    for term in text.split("+"):
        m = _TERM.fullmatch(term)
        if m is None:
            term = term.strip()
            if len(term) > 60:
                raise ValueError(f"not a shape term: {term[:60]!r}... ({len(term)} characters)")
            raise ValueError(f"not a shape term: {term!r}")
        weight, z, b, a, prefix, tail = m.group("weight", "z", "b", "a", "prefix", "tail")
        if z is not None:
            desc: Descriptor = Profile(int(z))
        elif b is not None:
            desc = Bee(b)
        elif a is not None:
            desc = Profile(int(a), re.findall(_CARD, prefix or ""), tail)
        else:
            desc = NSUCC
        comps.append((weight or ONE, desc))
    return symbolic(comps)


# ---------------------------------------------------------------------------
# deciders

def is_locally_finite(S: SymbolicAlgebra) -> bool:
    """Every element generates a finite subalgebra, i.e. every element has
    finite height; rules out exactly B[a] and N components."""
    return all(isinstance(d, Profile) for _, d in S.components)


def is_ulf(S: SymbolicAlgebra) -> bool:
    """Uniformly locally finite: bounded height and finitely many cycle
    sizes.  Tails break the bound; families carry all cycle sizes."""
    return (
        is_locally_finite(S)
        and not S.families
        and all(d.tail is None for _, d in S.components)
    )


def o1(S: SymbolicAlgebra) -> Cardinal:
    """Number of 1-orbits.  Isomorphic components share orbits, so each
    distinct descriptor contributes independently: height+1 for tail-free
    profiles, 1 for B[a], w for tailed profiles and N."""
    if S.families:
        return OMEGA
    total = ZERO
    for _, d in S.components:
        if isinstance(d, Profile):
            total = total + (OMEGA if d.tail is not None else Cardinal(len(d.prefix) + 1))
        elif isinstance(d, Bee):
            total = total + ONE
        else:
            total = total + OMEGA
    return total


def is_omega_categorical(S: SymbolicAlgebra) -> bool:
    return is_locally_finite(S) and not o1(S).is_omega


def _family_shapes_consistent(S: SymbolicAlgebra) -> bool:
    shapes = {(f.prefix, f.tail) for f in S.families}
    if len(shapes) > 1:
        return False
    if S.families:
        fam = S.families[0]
        for _, d in S.components:
            if isinstance(d, Profile) and d != fam.member(d.cycle):
                return False
    return True


def is_ultrahomogeneous(S: SymbolicAlgebra) -> bool:
    """All acyclic components are one common B[a], and components with
    equal cycle size are isomorphic."""
    if any(isinstance(d, NSucc) for _, d in S.components):
        return False
    if sum(1 for _, d in S.components if isinstance(d, Bee)) > 1:
        return False
    cycles = [d.cycle for _, d in S.components if isinstance(d, Profile)]
    if len(cycles) != len(set(cycles)):
        return False
    return _family_shapes_consistent(S)


def is_homogeneous(S: SymbolicAlgebra) -> bool:
    """The infinite-height part is unconstrained; only the cyclic part
    must be ultrahomogeneous."""
    cyclic_part = [(m, d) for m, d in S.components if isinstance(d, Profile)]
    if not cyclic_part and not S.families:
        return True
    return is_ultrahomogeneous(SymbolicAlgebra(tuple(cyclic_part), S.families))


def is_transitive(S: SymbolicAlgebra) -> bool:
    if S.families or len(S.components) != 1:
        return False
    d = S.components[0][1]
    if isinstance(d, Bee):
        return True
    return isinstance(d, Profile) and not d.prefix and d.tail is None


def is_partially_homogeneous(S: SymbolicAlgebra) -> bool:
    """Membership in one of the five shapes closed under extending
    isomorphisms of induced partial substructures: fixed points +
    2-cycles, fixed points + 3-cycles, fixed points + one 4-cycle, copies
    of a looped point with one leaf, or a single looped point with any
    number of leaves; cardinals go up to w.  Finite tables are decided
    here too, through decompose."""
    if S.families:
        return False
    descs = [(m, d) for m, d in S.components]
    if any(not isinstance(d, Profile) for _, d in descs):
        return False

    def bare(d: Profile, k: int) -> bool:
        return d.cycle == k and not d.prefix and d.tail is None

    ds = [d for _, d in descs]
    if all(bare(d, 1) or bare(d, 2) for d in ds):
        return True
    if all(bare(d, 1) or bare(d, 3) for d in ds):
        return True
    fours = [(m, d) for m, d in descs if bare(d, 4)]
    if fours and all(bare(d, 1) or bare(d, 4) for d in ds):
        if len(fours) == 1 and fours[0][0] == ONE:
            return True
    if len(ds) == 1 and ds[0].tail is None and ds[0].cycle == 1 and len(ds[0].prefix) == 1:
        if ds[0].prefix[0] == ONE:
            return True  # any number of copies of a looped point with one leaf
        return descs[0][0] == ONE  # a single looped point with any branching
    return False


# ---------------------------------------------------------------------------
# limits, instantiation, decomposition

def fraisse_limit(k: Optional[int] = None) -> SymbolicAlgebra:
    """Age-limit families: all finite algebras (k None), or those with
    every indegree at most k.  For k = 1 the shape A[n; 0, 1, 1, ...] has
    an empty level, which the notation cannot carry, so the family is
    presented as the bare cycles it consists of."""
    if k is None:
        fam = CycleFamily(OMEGA, (), OMEGA)
    elif k == 1:
        fam = CycleFamily(OMEGA, (), None)
    elif k >= 2:
        fam = CycleFamily(OMEGA, (card(k - 1),), card(k))
    else:
        raise ValueError("k must be at least 1")
    return SymbolicAlgebra((), (fam,))


def _level_sizes(desc: Profile, omega_value: int) -> list[int]:
    """The points of each level of a tail-free profile's instance: the
    cycle, then each height, with w replaced by `omega_value`."""
    sizes = [desc.cycle]
    for a in desc.prefix:
        sizes.append(sizes[-1] * a.substitute(omega_value))
    return sizes


def instance_size(S: SymbolicAlgebra, omega_value: int) -> int:
    """Points of instantiate(S, omega_value), counted from the level sizes
    without building a table; a descriptor with no finite instance counts
    as empty."""
    return sum(
        mult.substitute(omega_value) * sum(_level_sizes(desc, omega_value))
        for mult, desc in S.components if isinstance(desc, Profile) and desc.tail is None
    )


def instantiate(S: SymbolicAlgebra, omega_value: int) -> FiniteMonounary:
    """Build an explicit table with w replaced by `omega_value`: each copy
    is its cycle, then each level's points in turn, the children of one
    point consecutive and in the order of their parents."""
    if omega_value < 1:
        raise ValueError("omega_value must be positive")
    if S.families:
        raise ValueError("a limit family has no finite instance")

    table: list[int] = []
    for mult, desc in S.components:
        if not isinstance(desc, Profile) or desc.tail is not None:
            raise ValueError(f"{show_descriptor(desc)} has no finite instance")
        sizes = _level_sizes(desc, omega_value)
        for _ in range(mult.substitute(omega_value)):
            here = len(table)  # the first point of the level being read
            table += [*range(here + 1, here + sizes[0]), here]
            for k, above in zip(sizes, sizes[1:]):
                a = above // k  # children of each of the level's k points
                for p in range(here, here + k):
                    table += [p] * a
                here += k
    return FiniteMonounary(tuple(table))


def truncate(S: SymbolicAlgebra, h: int, max_cycle: Optional[int] = None) -> SymbolicAlgebra:
    """Cut every component to height at most h (tails expand into
    prefixes).  Families materialize into one profile per cycle length up
    to `max_cycle`, which is then required; a given `max_cycle` is at
    least 1, with or without families."""
    if h < 0:
        raise ValueError("height must be nonnegative")
    if max_cycle is not None and max_cycle < 1:
        raise ValueError(f"max_cycle must be at least 1, got {max_cycle}")
    comps: list[tuple[Cardinal, Descriptor]] = []
    for mult, desc in S.components:
        if not isinstance(desc, Profile):
            raise ValueError(f"{show_descriptor(desc)} has unbounded elements; cannot truncate")
        comps.append((mult, Profile(desc.cycle, desc.levels(h), None)))
    if S.families:
        if max_cycle is None:
            raise ValueError("limit family requires max_cycle to truncate")
        for fam in S.families:
            shape = Profile(1, fam.prefix, fam.tail)
            for n in range(1, max_cycle + 1):
                comps.append((fam.multiplicity, Profile(n, shape.levels(h), None)))
    return symbolic(comps)


def truncated_size(S: SymbolicAlgebra, h: int, max_cycle: Optional[int]) -> int:
    """Profiles and level cardinals of truncate(S, h, max_cycle), counted
    without building them, as Profile.levels cuts: a tail expands to h
    levels, a tail-free prefix keeps at most h of them, and a family
    makes one profile per cycle length up to max_cycle.  What truncate
    refuses counts as empty."""
    total = sum(1 + _depth(d.prefix, d.tail, h) for _, d in S.components if isinstance(d, Profile))
    return total + (max_cycle or 0) * sum(1 + _depth(fam.prefix, fam.tail, h) for fam in S.families)


class NotUltrahomogeneous(ValueError):
    pass


def _non_uniform(level: int, counts: Iterable[int]) -> NotUltrahomogeneous:
    return NotUltrahomogeneous(
        f"not ultrahomogeneous: level {level} has non-uniform preimage counts {sorted(set(counts))}"
    )


# flips a cyclic mark, so that compress keeps the acyclic points
_ACYCLIC = bytes.maketrans(b"\0\1", b"\1\0")


def decompose(A: FiniteMonounary) -> SymbolicAlgebra:
    """Symbolic normal form of an ultrahomogeneous finite algebra; this
    is the finite UH test: a finite algebra is UH iff its trees are
    uniform level by level and components with equal cycle size are
    isomorphic.  NotUltrahomogeneous names one violation, the first of:
    level 0 with the child counts of the first cycle, in cycles() order,
    whose points have unequal numbers of acyclic preimages; the height of
    the first acyclic point, in point order, whose component has another
    child count at that height, with every count there; a cycle size
    whose components are not isomorphic.  Level 0 is read off the cycles
    and the preimage counts alone, so a table that fails there is refused
    before its heights and components are filled."""
    sk = core.skeleton(A.table)
    degree, points, starts = sk.degree, sk.cycle_points, sk.cycle_starts
    # level 0: a cycle point's children are its preimages but its cycle
    # predecessor, so a cycle is uniform iff each point has the degree of
    # its image, and the first point that has not lies on the first
    # non-uniform cycle
    at = degree.__getitem__
    odd = compress(range(len(points)), map(ne, map(at, points), map(at, map(sk.table.__getitem__, points))))
    i = next(odd, None)
    if i is not None:
        c = bisect_right(starts, i) - 1
        raise _non_uniform(0, [at(x) - 1 for x in points[starts[c]:starts[c + 1]]])
    # above it, one pass over the acyclic points, whose child counts are
    # their degrees: every (component, height) bucket must hold one count
    counts: dict[tuple[int, int], int] = {}
    if len(points) < len(degree):  # some point is acyclic; else no height is needed
        for key, d in compress(zip(zip(sk.comp, sk.height), degree), sk.cyclic.translate(_ACYCLIC)):
            if counts.setdefault(key, d) != d:
                raise _non_uniform(key[1], compress(degree, map(key.__eq__, zip(sk.comp, sk.height))))
    top = [0] * (len(starts) - 1)  # each component's height: heights 1..top all have a bucket
    for c, h in counts:
        if h > top[c]:
            top[c] = h
    # one profile per cycle size, counted: components with one cycle size
    # must have the same level counts
    levels: dict[int, tuple[int, ...]] = {}
    copies: dict[int, int] = {}
    for c, size in enumerate(sk.cycle_lengths()):
        shape = ()
        if top[c]:  # level 0's one count, from the cycle, then the buckets'
            shape = (at(points[starts[c]]) - 1, *[counts[c, k] for k in range(1, top[c])])
        if levels.setdefault(size, shape) != shape:
            raise NotUltrahomogeneous(
                f"not ultrahomogeneous: components with cycle size {size} are not isomorphic"
            )
        copies[size] = copies.get(size, 0) + 1
    return symbolic((Cardinal(m), Profile(size, levels[size])) for size, m in copies.items())


def normal_form(A: FiniteMonounary) -> Optional[SymbolicAlgebra]:
    """decompose(A), or None when A is not ultrahomogeneous."""
    try:
        return decompose(A)
    except NotUltrahomogeneous:
        return None
