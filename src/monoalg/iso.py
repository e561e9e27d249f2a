"""Isomorphism machinery: canonical certificates and automorphisms.

Every element gets an integer label for the isomorphism type of the tree
hanging above it (Aho, Hopcroft & Ullman's tree labelling): level by
level of the skeleton, the distinct sorted tuples of child labels are
sorted and numbered on from the previous level.  No child list is ever
sorted: labels grow from level to level, and each level hands its labels
out in order, appending each to its parent's child labels, so these are
already its sorted key.  An element holds its child labels as () until
its first child is labelled, then as the 1-tuple of that label, one
tuple shared by the whole group that hands it out, and from the second
child on as a list that later labels extend.  Most elements have at
most one child, so most keys cost no allocation, and tuple() of a tuple
key is that tuple, not a copy.  The list keeps a node with many
distinct child labels linear: extending a tuple would copy it once per
label.  Unmarked, every key on the bottom level is empty, so that level
takes label 0, which every element starts with, and only hands it to
the parents.  Every loop reads the skeleton's flat arrays
(core.Skeleton): f from its dense copy of the table, each level as a
slice of its rank order.  A certificate is a flat pair of int
tuples: the child-label tuples in label order, which fixes what every
label means, and the sorted cycle label sequences, each at its least
rotation.  Two algebras have equal certificates iff they are
isomorphic; certificates are compared for equality only, never ordered
or looked into.  are_isomorphic first compares what the two skeletons
carry, the level starts and the sorted cycle lengths, and labels only
when these agree.
Marked variants seed the child list of a marked element xs[i] with
-1 - i, last mark first so that a point marked twice keeps its list
ascending, which makes certificate equality of marked algebras
equivalent to the existence of an isomorphism matching the marks.

One layout of a labelling (_layout) lists every point once: the
components sorted by least-rotated label sequence, each read from its
least rotation, and each cycle point followed by its tree in preorder,
children in label order.  Every tree and every component is then one
slice of it, and slices of equal labels align point by point; this is
the only alignment here.  The automorphism group factors uniquely into
small sets of moves of aligned slices, as in a stabilizer chain: swaps
of isomorphic components and of the trees above equal-labelled
siblings, and the cyclic shifts of each component's slice by multiples
of its period.  extend_to_automorphism zips the layouts of the
labellings with the keys marked and with their images marked.
automorphism_images multiplies the factor sizes into the group order
and checks it against the cap, and the list's size against
MAX_AUT_ENTRIES, before it builds any factor, then composes the
factors' permutations in C into the products f0 o f1 o ...: on at most
256 points as byte strings, each factor applied with bytes.translate,
last factor first, and the products sorted by memcmp; on more points as
tuples, first factor first, by itemgetter.  The `aut` verb writes its
rows from these images as they are.  enumerate_automorphisms turns the
byte strings into tuples in one pass: it joins them into one string,
frees them, and unpacks the tuples from the joined string with struct,
so that the strings and the tuples are never alive at once.

Every function here that takes an algebra or a table reads its
skeleton from core.skeleton, and the unmarked labelling is kept on the
skeleton by the first label() call, so a certificate, an isomorphism
test and an automorphism enumeration on one table peel it and label it
once.  At most two tables' skeletons and unmarked labellings stay
alive; both are shared, so read-only.  The labels are kept as one
array("i"), converted from the list the labelling fills, so what stays
alive is that array and the certificate (their size is stated at
core.Skeleton).  A marked labelling is built afresh on every call.

The labelling builds a child-label list per element, so on 10^5 points
CPython's cyclic garbage collector would pass over them many times.  It
could free nothing: nothing the labelling builds refers back to itself,
so reference counting frees all of it.  A table of at least ten times
the collector's first threshold is therefore labelled with the
collector paused, and the caller's setting comes back, also when the
labelling raises; the kept labels are converted to their array inside
the pause.  The automorphisms' tuples are built by the same rule,
counted in automorphisms, and free nothing either.  On at most 256
points the products are byte strings, which the collector does not
track, so only enumerate_automorphisms' closing unpacking to tuples is
paused.  On more points automorphism_images builds the products
themselves as tuples with the collector paused; CPython keeps no tuple
of more than 256 entries on a free list, so a pause there leaves no
freed tuple of an earlier group scattered in memory.  Raw tables are
checked by core.FiniteMonounary.
"""

from __future__ import annotations

import gc
from array import array
from itertools import chain, groupby, pairwise, permutations, repeat
from math import log10, prod
from operator import itemgetter
from struct import iter_unpack
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

from .core import DEFAULT_BOUND, FiniteMonounary, Skeleton, skeleton

Certificate = tuple
T = TypeVar("T")

DEFAULT_AUT_CAP = 100_000
MAX_AUT_ENTRIES = 10_000_000  # automorphisms times n, the size of the list
MAX_ORDER_BITS = 1 << 20  # the group orders a refusal states exactly, in bits of their factor sizes


# ---------------------------------------------------------------------------
# certificates

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


def _paused(size: int, build: Callable[..., T], *args: object) -> T:
    """build(*args), with the cyclic garbage collector paused when `size`,
    the number of objects it builds, is at least ten times the
    collector's first threshold; the caller's setting comes back, also
    when build raises."""
    if not gc.isenabled() or size < 10 * gc.get_threshold()[0]:
        return build(*args)
    gc.disable()
    try:
        return build(*args)
    finally:
        gc.enable()


def label(
    sk: Skeleton, xs: Sequence[int] = ()
) -> tuple[Sequence[int], list[tuple[int, ...]], list[tuple[int, int]], Certificate]:
    """Canonical tree labels, each cycle's label sequence at its least
    rotation and that rotation's (offset, period), both aligned with
    sk.cycles(), and the certificate, with xs[i] marked by -1 - i.  Large
    tables are labelled with the cyclic garbage collector paused.  The
    unmarked labelling is kept on sk, its labels as array("i"), and
    returned again on every later call, so it is read-only; a marked one
    is built afresh each time, its labels a list."""
    if xs:
        return _paused(len(sk.table), _label, sk, xs)
    if sk.unmarked is None:
        sk.unmarked = _paused(len(sk.table), _kept, sk)
    return sk.unmarked


def _kept(sk: Skeleton) -> tuple[array, list[tuple[int, ...]], list[tuple[int, int]], Certificate]:
    """The unmarked labelling, its labels converted to the array kept."""
    labels, seqs, rots, cert = _label(sk, ())
    return array("i", labels), seqs, rots, cert


def _label(
    sk: Skeleton, xs: Sequence[int]
) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, int]], Certificate]:
    table, cyclic, ranked = sk.table, sk.cyclic, sk.ranked
    n = len(table)
    # x's child labels so far: (), then its group's shared 1-tuple, then a
    # list that later labels extend; tuple() of a tuple is that tuple
    keys_of: list = [()] * n
    for i in range(len(xs) - 1, -1, -1):  # last first: a repeated mark's list ascends
        keys_of[xs[i]] = [*keys_of[xs[i]], -1 - i]
    labels = [0] * n
    entries: list[tuple[int, ...]] = []
    for lo, hi in pairwise(sk.level_starts):
        base = len(entries)
        if hi - lo == 1:  # a path's levels: nothing to group or sort
            x = ranked[lo]
            entries.append(tuple(keys_of[x]))
            labels[x] = base
            if not cyclic[x]:
                y = table[x]
                k = keys_of[y]
                if not k:
                    keys_of[y] = (base,)
                elif k.__class__ is tuple:
                    keys_of[y] = [*k, base]
                else:
                    k.append(base)
            continue
        level = ranked[lo:hi]
        if not (lo or xs):  # unmarked, every key on the bottom level is empty
            entries.append(())
            runs = ((0, level),)
        else:
            # labels only grow from level to level and each level hands its
            # labels out in order, so every child list is already its sorted key
            groups: dict[tuple[int, ...], list[int]] = {}
            for x in level:
                key = tuple(keys_of[x])
                group = groups.get(key)
                if group is None:
                    groups[key] = [x]
                else:
                    group.append(x)
            keys = sorted(groups)
            entries += keys
            runs = zip(range(base, len(entries)), map(groups.__getitem__, keys))
        for lab, run in runs:
            one = (lab,)
            for x in run:
                labels[x] = lab
                if not cyclic[x]:
                    y = table[x]
                    k = keys_of[y]
                    if not k:
                        keys_of[y] = one
                    elif k.__class__ is tuple:
                        keys_of[y] = [*k, lab]
                    else:
                        k.append(lab)
    seqs, rots = [], []
    points = sk.cycle_points
    for a, b in pairwise(sk.cycle_starts):
        if b - a == 1:  # a loop is its own least rotation
            seqs.append((labels[points[a]],))
            rots.append((0, 1))
            continue
        seq = list(map(labels.__getitem__, points[a:b]))
        r, period = _least_rotation(seq)
        seqs.append(tuple(seq[r:] + seq[:r]))
        rots.append((r, period))
    return labels, seqs, rots, (tuple(entries), tuple(sorted(seqs)))


def table_certificate(table: Sequence[int], xs: Sequence[int] = ()) -> Certificate:
    """Certificate straight from a raw table, checked as FiniteMonounary
    checks it, with the points of `xs` marked by their positions.

    The certificates of (A, xs) and (B, ys) are equal iff some
    isomorphism A -> B maps xs[i] to ys[i] for every i.
    """
    table = FiniteMonounary(table).table
    for x in xs:
        if not 0 <= x < len(table):
            raise ValueError(f"marked element out of range: {x}")
    return label(skeleton(table), xs)[3]


def are_isomorphic(A: FiniteMonounary, B: FiniteMonounary) -> bool:
    """Equal certificates, labelled only when the skeletons agree on the
    invariants they carry: the size of every level and the sorted cycle
    lengths."""
    if A.n != B.n:
        return False
    ska, skb = skeleton(A.table), skeleton(B.table)
    if ska.level_starts != skb.level_starts:
        return False
    if sorted(ska.cycle_lengths()) != sorted(skb.cycle_lengths()):
        return False
    return label(ska)[3] == label(skb)[3]


# ---------------------------------------------------------------------------
# automorphisms

def partial_iso_images(
    tables: Sequence[Sequence[int]], S: Sequence[int], T: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Images of S, aligned with S, under every bijection S -> T that is
    an isomorphism of the structures the tables induce: where t[x] lies
    in S, t[x] goes to t of the image of x; where t[x] leaves S, t of the
    image leaves T.  On closed sets the second rule never fires, so this
    one filter serves total, partial and multi-operation structures.
    Oracle-grade: it tries every permutation of T."""
    if len(S) != len(T):
        return
    pos = {x: i for i, x in enumerate(S)}
    tset = set(T)
    # one rule per table and position i: t[S[i]] sits at position j of S,
    # or j is None when it leaves S
    rules = [(t, i, pos.get(t[x])) for t in tables for i, x in enumerate(S)]
    for perm in permutations(T):
        for t, i, j in rules:
            y = t[perm[i]]
            if y in tset if j is None else y != perm[j]:
                break
        else:
            yield perm


def brute_force_automorphisms(A: FiniteMonounary, bound: int = DEFAULT_BOUND) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every permutation; oracle-grade only."""
    if A.n > bound:
        raise ValueError(f"bound exceeded: n={A.n} > {bound}")
    return list(partial_iso_images([A.table], range(A.n), range(A.n)))


def _order_text(sizes: list[int]) -> str:
    """The group order, the product of the factor sizes, as the cap's
    refusal states it: in full up to 30 digits, else by its number of
    digits, which its bit length gives to within one and one power of
    ten settles (str() refuses an int longer than
    sys.get_int_max_str_digits()).  The sizes are multiplied pairwise,
    so that each product is of two numbers of like length; past
    MAX_ORDER_BITS bits of sizes the order is bounded from below instead,
    each size by 2 ** (its bit length - 1)."""
    if sum(s.bit_length() for s in sizes) > MAX_ORDER_BITS:
        low = sum(s.bit_length() - 1 for s in sizes)
        return f"of at least {int(low * log10(2)) + 1} digits"
    while len(sizes) > 1:
        sizes = [prod(sizes[i:i + 2]) for i in range(0, len(sizes), 2)]
    order = sizes[0]
    if order < 10**30:
        return str(order)
    digits = int((order.bit_length() - 1) * log10(2)) + 1  # those of 2 ** (bit length - 1)
    return f"of {digits + (order >= 10**digits)} digits"


def _layout(sk: Skeleton, labelling: tuple, kids: list[list[int]]) -> list[int]:
    """Every point once, as aligned slices: the components sorted by
    their least-rotated label sequences, ties by cycle index, each read
    from its least rotation, and each cycle point followed by its tree
    in preorder, children in label order, ties in ascending point order
    (kids, each list ascending, is left as it is).  So every tree and
    every component is one contiguous slice, and two slices whose roots
    have one label, or two components with one label sequence, match
    point by point: the layouts of two labellings with equal
    certificates zip into an isomorphism."""
    labels, seqs, rots, _ = labelling
    cycles = list(sk.cycles())
    order: list[int] = []
    for i in sorted(range(len(seqs)), key=seqs.__getitem__):
        cycle, r = cycles[i], rots[i][0]
        stack = (cycle[r:] + cycle[:r]).tolist()[::-1]
        while stack:  # pops in preorder: the last pushed is the next child
            x = stack.pop()
            order.append(x)
            ks = kids[x]
            stack += ks if len(ks) < 2 else sorted(ks, key=labels.__getitem__)[::-1]
    return order


def automorphism_images(
    A: FiniteMonounary, cap: int = DEFAULT_AUT_CAP
) -> Union[list[bytes], list[tuple[int, ...]]]:
    """All automorphisms, sorted, each as its sequence of images: byte
    strings on at most 256 points, tuples on more.  They are the
    products f0 o f1 o ... of small factor sets, one pick from each;
    every automorphism is exactly one such product.  Every factor moves
    aligned slices of one layout of the labelled trees (_layout):
    a run of s consecutive equal-width slices, s isomorphic components
    or the trees above s equal-labelled siblings, gives s - 1 factors:
    factor i is the identity and the swaps of slice i with each later
    slice.  A component of k cycle points with least period d gives the
    factor of its slice's k/d cyclic shifts by multiples of d/k times
    its width.  A class of components gives its swaps, then each
    member's rotations; the sibling swaps come last, parents first.

    The factor sizes are multiplied first; if the count exceeds `cap`,
    or the count times n exceeds MAX_AUT_ENTRIES, the call fails before
    any factor permutation is built.  Only the cap's refusal multiplies
    all of them, to state the group's order.

    When every point fits in a byte (n <= 256) the products are byte
    strings: a pick p is applied to a product a as a.translate(t), t
    being p padded to 256 bytes, which is p o a, so the factors are
    applied last first and the products come out as f0 o f1 o ...,
    grouped by f0's pick, then by f1's, and so on, an order that the
    closing sort takes in fewer comparisons than the reverse one.  Byte
    strings of one length sort as the tuples of their bytes, and
    iterating one gives its points, so the `aut` verb writes its rows
    from them as they are.  On more points the products are tuples,
    a o p by itemgetter, the factors applied first first, with the
    collector paused by _paused's rule.
    """
    sk = skeleton(A.table)
    labelling = label(sk)
    labels, seqs, _, _ = labelling
    kids = sk.children()
    order = _layout(sk, labelling, kids)
    n, table, cyclic = A.n, sk.table, sk.cyclic
    width = [1] * n  # the size of the tree above each point: its slice's width
    for x in sk.ranked:  # each point after its children
        if not cyclic[x]:
            width[table[x]] += width[x]

    # the moves, in factor order: (start, width, s, turn), s aligned
    # slices of that width from start on, swapped pairwise or, for a
    # turn, shifted cyclically
    moves: list[tuple[int, int, int, bool]] = []
    start = 0
    for seq, copies in groupby(sorted(seqs)):  # the components, as _layout lists them
        s, k, end = len(list(copies)), len(seq), start
        for _ in seq:  # k trees make up one component
            end += width[order[end]]
        w, period = end - start, _least_rotation(seq)[1]
        if s > 1:
            moves.append((start, w, s, False))
        moves += [(a, w * period // k, k // period, True) for a in range(start, start + s * w, w)]
        start += s * w
    for i, x in enumerate(order):  # parents first
        if len(kids[x]) > 1:
            at = [i + 1]  # where each child's slice starts, in label order
            for _ in kids[x][1:]:
                at.append(at[-1] + width[order[at[-1]]])
            for _, run in groupby(at, key=lambda a: labels[order[a]]):
                run = list(run)
                if len(run) > 1:
                    moves.append((run[0], run[1] - run[0], len(run), False))

    # s shifts, or s! as 2 * 3 * ... * s swaps
    sizes = [*chain.from_iterable([s] if turn else range(2, s + 1) for _, _, s, turn in moves)]
    total = 1  # the group order is the product of the sizes
    for size in sizes:
        total *= size
        if total > cap:
            raise ValueError(f"automorphism count {_order_text(sizes)} exceeds cap {cap}")
    if total * n > MAX_AUT_ENTRIES:
        raise ValueError(f"{total} automorphisms on {n} points exceed the limit of {MAX_AUT_ENTRIES} listed entries")

    def moved(src: list[int], dst: list[int]) -> list[int]:
        p = list(range(n))
        for u, v in zip(src, dst):
            p[u] = v
        return p

    factors: list[list[list[int]]] = []  # each factor's permutations but the identity
    for start, w, s, turn in moves:
        if not turn:
            blocks = [order[a:a + w] for a in range(start, start + s * w, w)]
            for i, a in enumerate(blocks[:-1]):
                factors.append([moved(a + b, b + a) for b in blocks[i + 1:]])
        elif s > 1:
            ring = order[start:start + s * w]
            factors.append([moved(ring, ring[t:] + ring[:t]) for t in range(w, s * w, w)])

    if n <= 256:  # a point fits in a byte: p o a, so the last factor first
        auts = _products(reversed(factors), bytes(range(n)),
                         lambda p, auts: map(bytes.translate, auts, repeat(bytes(p).ljust(256, b"\0"))))
    else:  # a o p, the first factor first, as tuples, which the collector tracks
        auts = _paused(total, _products, factors, tuple(range(n)), lambda p, auts: map(itemgetter(*p), auts))
    auts.sort()
    return auts


def _products(factors: Iterable[list[list[int]]], identity: T, apply: Callable[..., Iterable[T]]) -> list[T]:
    """The identity and its products with one pick from each factor set,
    in turn: apply(p, auts) maps every product so far to its product
    with the pick p."""
    auts = [identity]
    for factor in factors:
        products = auts.copy()
        for p in factor:
            products += apply(p, auts)
        auts = products
    return auts


def enumerate_automorphisms(A: FiniteMonounary, cap: int = DEFAULT_AUT_CAP) -> list[tuple[int, ...]]:
    """All automorphisms as tuples, sorted: automorphism_images, whose
    byte strings on at most 256 points are joined into one, and freed
    before the tuples are unpacked from it in one struct pass, so that
    the strings and the tuples are never held at once."""
    auts = automorphism_images(A, cap)
    if A.n > 256:
        return auts
    count, joined = len(auts), b"".join(auts)
    auts.clear()
    return _paused(count, list, iter_unpack(f"{A.n}B", joined))


def extend_to_automorphism(
    A: FiniteMonounary, mapping: Union[Mapping[int, int], Iterable[tuple[int, int]]]
) -> Optional[tuple[int, ...]]:
    """An automorphism agreeing with the partial map, or None.  Labellings
    with the keys marked and with their images marked have equal
    certificates iff one exists; it is then the zip of their two layouts
    (_layout): the slices of the components, of their least rotations and
    of the trees above equal-labelled points align point by point."""
    pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
    m: dict[int, int] = {}
    for k, v in pairs:
        if not (0 <= k < A.n and 0 <= v < A.n):
            raise ValueError(f"map entry out of range: {k} -> {v}")
        if k in m and m[k] != v:
            raise ValueError(f"conflicting images for {k}")
        m[k] = v
    if len(set(m.values())) != len(m):
        raise ValueError("map is not injective")
    sk = skeleton(A.table)
    src, dst = label(sk, tuple(m)), label(sk, tuple(m.values()))
    if src[3] != dst[3]:
        return None
    kids = sk.children()
    p = [0] * A.n
    for a, b in zip(_layout(sk, src, kids), _layout(sk, dst, kids)):
        p[a] = b
    return tuple(p)
