"""Isomorphism machinery: canonical certificates and automorphisms.

Every element gets an integer label for the isomorphism type of the tree
hanging above it (Aho, Hopcroft & Ullman's tree labelling): level by
level of the skeleton, the distinct sorted tuples of child labels are
sorted and numbered on from the previous level.  No child list is ever
sorted: labels grow from level to level, and each level hands its labels
out in order, appending each to its parent's list, so every list is
already its sorted key.  A certificate is a flat pair of int tuples: the
child-label tuples in label order, which fixes what every label means,
and the sorted cycle label sequences, each at its least rotation.  Two
algebras have equal certificates iff they are isomorphic; certificates
are compared for equality only, never ordered or looked into.
are_isomorphic first compares what the two skeletons carry, the level
sizes and the sorted cycle lengths, and labels only when these agree.
Marked variants seed the child list of a marked element xs[i] with
-1 - i, last mark first so that a point marked twice keeps its list
ascending, which makes certificate equality of marked algebras
equivalent to the existence of an isomorphism matching the marks.
"""

from __future__ import annotations

from itertools import groupby, permutations, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .core import DEFAULT_BOUND, FiniteMonounary, Skeleton, generated

Certificate = tuple

DEFAULT_AUT_CAP = 100_000


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


def label(
    sk: Skeleton, table: Sequence[int], xs: Sequence[int] = ()
) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, int]], Certificate]:
    """Canonical tree labels, each cycle's label sequence at its least
    rotation and that rotation's (offset, period), both aligned with
    sk.cycles, and the certificate, with xs[i] marked by -1 - i."""
    kid_labels: list[list[int]] = [[] for _ in table]
    for i in range(len(xs) - 1, -1, -1):  # last first: a repeated mark's list ascends
        kid_labels[xs[i]].append(-1 - i)
    labels = [0] * len(table)
    entries: list[tuple[int, ...]] = []
    cyclic = sk.cyclic
    for level in sk.levels:
        base = len(entries)
        if len(level) == 1:  # a path's levels: nothing to group or sort
            x = level[0]
            entries.append(tuple(kid_labels[x]))
            labels[x] = base
            if not cyclic[x]:
                kid_labels[table[x]].append(base)
            continue
        # labels only grow from level to level and each level hands its
        # labels out in order, so every child list is already its sorted key
        groups: dict[tuple[int, ...], list[int]] = {}
        for x in level:
            key = tuple(kid_labels[x])
            group = groups.get(key)
            if group is None:
                groups[key] = [x]
            else:
                group.append(x)
        keys = sorted(groups)
        for lab, key in enumerate(keys, base):
            for x in groups[key]:
                labels[x] = lab
                if not cyclic[x]:
                    kid_labels[table[x]].append(lab)
        entries += keys
    seqs, rots = [], []
    for cycle in sk.cycles:
        seq = list(map(labels.__getitem__, cycle))
        r, period = _least_rotation(seq) if len(seq) > 1 else (0, 1)
        seqs.append(tuple(seq[r:] + seq[:r]))
        rots.append((r, period))
    return labels, seqs, rots, (tuple(entries), tuple(sorted(seqs)))


def table_certificate(table: Sequence[int]) -> Certificate:
    """Certificate straight from a raw table (hot path for enumeration)."""
    return label(Skeleton(table), table)[3]


def marked_certificate(A: FiniteMonounary, xs: Sequence[int]) -> Certificate:
    """Certificate of A with the elements of `xs` marked by their positions.

    Equal marked certificates of (A, xs) and (B, ys) hold iff some
    isomorphism A -> B maps xs[i] to ys[i] for every i.
    """
    for x in xs:
        if not 0 <= x < A.n:
            raise ValueError(f"marked element out of range: {x}")
    return label(Skeleton(A.table), A.table, xs)[3]


def are_isomorphic(A: FiniteMonounary, B: FiniteMonounary) -> bool:
    """Equal certificates, labelled only when the skeletons agree on the
    invariants they carry: the size of every level and the sorted cycle
    lengths."""
    if A.n != B.n:
        return False
    ska, skb = Skeleton(A.table), Skeleton(B.table)
    if list(map(len, ska.levels)) != list(map(len, skb.levels)):
        return False
    if sorted(map(len, ska.cycles)) != sorted(map(len, skb.cycles)):
        return False
    return label(ska, A.table)[3] == label(skb, B.table)[3]


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


def enumerate_automorphisms(A: FiniteMonounary, cap: int = DEFAULT_AUT_CAP) -> list[tuple[int, ...]]:
    """All automorphisms, assembled from independent choices: where each
    component goes among the isomorphic ones, which symmetric rotation
    its cycle takes, and, at every element, how its children with equal
    labels are permuted.

    The count is computed first; if it exceeds `cap` the call fails
    instead of materializing.
    """
    sk = Skeleton(A.table)
    labels, seqs, rots, _ = label(sk, A.table)
    factors: list[int] = []  # the group order is their product

    # with children sorted by label, any permutation within a run of
    # equal labels maps the tree above x onto itself
    kids = sk.children()
    runs_at: dict[int, list[slice]] = {}
    for x, ks in enumerate(kids):
        ks.sort(key=labels.__getitem__)
        start = 0
        for _, run in groupby(ks, key=labels.__getitem__):
            size = len(list(run))
            if size > 1:
                runs_at.setdefault(x, []).append(slice(start, start + size))
                factors += range(2, size + 1)
            start += size

    # components are isomorphic iff their least-rotated cycle sequences
    # are equal; one maps onto another at every rotation that aligns the
    # least rotations, up to the sequence's period
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(seq, []).append(i)
    group_of = [0] * len(seqs)
    for g, (seq, members) in enumerate(groups.items()):
        for i in members:
            group_of[i] = g
        factors += range(2, len(members) + 1)
        factors += [len(seq) // rots[members[0]][1]] * len(members)
    total = 1
    for factor in factors:
        total *= factor
        if total > cap:
            raise ValueError(f"automorphism count {total}+ exceeds cap {cap}")
    parents: list[list[int]] = [[] for _ in groups]
    for level in reversed(sk.levels):
        for x in level:
            if kids[x]:
                parents[group_of[sk.comp[x]]].append(x)

    group_maps = []
    for members, ps in zip(groups.values(), parents):
        cycles = [sk.cycles[i] for i in members]
        offsets = [rots[i][0] for i in members]
        k, period = len(cycles[0]), rots[members[0]][1]
        maps = []
        for target in permutations(range(len(members))):
            for shifts in product(range(0, k, period), repeat=len(members)):
                m = {}
                for a, b, r in zip(range(len(members)), target, shifts):
                    oa, ob = offsets[a], offsets[b] + r
                    m.update((cycles[a][(oa + t) % k], cycles[b][(ob + t) % k]) for t in range(k))
                maps.append(m)
        for x in ps:  # parents first: m[x] is set before x's children
            ks = kids[x]
            for m in maps:
                m.update(zip(ks, kids[m[x]]))
            runs = runs_at.get(x)
            if runs:
                branched = []
                for m in maps:
                    ts = kids[m[x]]
                    for images in product(*[permutations(ts[r]) for r in runs]):
                        b = m.copy()
                        for r, image in zip(runs, images):
                            b.update(zip(ks[r], image))
                        branched.append(b)
                maps = branched
        group_maps.append(maps)

    auts = []
    points = range(A.n)
    for combo in product(*group_maps):
        m = combo[0]
        if len(combo) > 1:
            m = {}
            for part in combo:
                m.update(part)
        auts.append(tuple(map(m.__getitem__, points)))
    auts.sort()
    return auts


def extend_to_automorphism(
    A: FiniteMonounary, mapping: Union[Mapping[int, int], Iterable[tuple[int, int]]]
) -> Optional[tuple[int, ...]]:
    """An automorphism agreeing with the partial map, or None.  Labellings
    with the keys marked and with their images marked have equal
    certificates iff one exists; it is then built top down, pairing the
    cycles sorted by label sequence and aligned at their least rotations,
    then at each element the children sorted by label on either side."""
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
    sk = Skeleton(A.table)
    src, src_seqs, src_rots, cert = label(sk, A.table, tuple(m))
    dst, dst_seqs, dst_rots, dst_cert = label(sk, A.table, tuple(m.values()))
    if cert != dst_cert:
        return None
    p = [0] * A.n
    cyc = range(len(sk.cycles))
    for a, b in zip(sorted(cyc, key=src_seqs.__getitem__), sorted(cyc, key=dst_seqs.__getitem__)):
        image, shift = sk.cycles[b], dst_rots[b][0] - src_rots[a][0]
        for t, c in enumerate(sk.cycles[a]):
            p[c] = image[(t + shift) % len(image)]
    kids = sk.children()
    for level in reversed(sk.levels):  # parents first: p[x] is set before x's children
        for x in level:
            mine = sorted(kids[x], key=src.__getitem__)
            theirs = sorted(kids[p[x]], key=dst.__getitem__)
            for a, b in zip(mine, theirs):
                p[a] = b
    return tuple(p)


# ---------------------------------------------------------------------------
# isomorphisms between generated subalgebras

def isomorphisms_between(
    A: FiniteMonounary, S: Iterable[int], T: Iterable[int], bound: int = DEFAULT_BOUND
) -> list[dict[int, int]]:
    """All isomorphisms from the subalgebra generated by S onto the one
    generated by T, as explicit maps."""
    src = tuple(sorted(generated(A, S)))
    tgt = tuple(sorted(generated(A, T)))
    if max(len(src), len(tgt)) > bound:
        raise ValueError(f"bound exceeded: subalgebra size > {bound}")
    return [dict(zip(src, images)) for images in partial_iso_images([A.table], src, tgt)]
