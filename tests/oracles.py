"""Independent reference implementations used only by the tests.

Everything here recomputes answers from definitions (bijection filters,
subset sweeps, Pólya counting) and deliberately shares no code with the
structured algorithms it is used to check.  The one exception is
`sweep_corpus`, which buckets tables by `iso.table_certificate`; the
certificates are checked against bijection search in test_iso.py.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import hypothesis.strategies as st

from monoalg.core import FiniteMonounary
from monoalg.enumeration import Corpus
from monoalg.iso import table_certificate


def tables(max_n: int = 6):
    """Hypothesis strategy for raw total tables."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.integers(0, n - 1)] * n)
    )


def symmetric_tables(min_n: int, max_n: int):
    """Hypothesis strategy for tables on min_n..max_n points with many
    symmetries: either every value lies below some m, so the points from
    m on are leaves, or the table is copies of a small table under a
    random relabelling."""
    def below(n):
        return st.integers(1, n).flatmap(
            lambda m: st.tuples(*[st.integers(0, m - 1)] * n)
        )

    def copies(base):
        k = len(base)
        return st.integers(-(-min_n // k), max_n // k).flatmap(
            lambda c: st.permutations(range(k * c)).map(
                lambda p: tuple(p[base[q % k] + q // k * k] for q in inverse(p))
            )
        )

    return st.integers(min_n, max_n).flatmap(below) | tables(max_n=12).flatmap(copies)


def inverse(p):
    """The inverse of a permutation given as its image sequence."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return inv


def iso_bijections(t1, t2):
    if len(t1) != len(t2):
        return []
    rng = range(len(t1))
    return [p for p in permutations(rng) if all(p[t1[x]] == t2[p[x]] for x in rng)]


def partial_iso_images(tables, S, T):
    """Images of S under the bijections m: S -> T with, for every table t
    and x in S, t(m(x)) = m(t(x)) when t(x) is in S and t(m(x)) outside T
    when t(x) is outside S; in the order of permutations(T)."""
    if len(S) != len(T):
        return []
    out = []
    for perm in permutations(T):
        m = dict(zip(S, perm))
        if all(
            t[m[x]] == m[t[x]] if t[x] in m else t[m[x]] not in perm
            for t in tables
            for x in S
        ):
            out.append(perm)
    return out


def exists_iso(t1, t2) -> bool:
    return bool(iso_bijections(t1, t2))


def digraph_automorphisms(ptable):
    """Edge-preserving permutations of a partial table's digraph."""
    n = len(ptable)
    edges = {(x, v) for x, v in enumerate(ptable) if v is not None}
    out = []
    for p in permutations(range(n)):
        if all((p[x], p[y]) in edges for (x, y) in edges):
            out.append(p)
    return out


def digraph_uh(ptable) -> bool:
    """Homogeneity of a loop-free digraph: every isomorphism between
    induced subgraphs extends to an automorphism.  Definition replay over
    all subset pairs, with a vertex-transitivity early exit (singletons
    of a loop-free graph are always isomorphic)."""
    n = len(ptable)
    V = range(n)
    edges = {(x, v) for x, v in enumerate(ptable) if v is not None}
    auts = digraph_automorphisms(ptable)
    if len({p[0] for p in auts}) != n:
        return False
    sub_edges = {}

    def edges_in(S):
        if S not in sub_edges:
            inset = set(S)
            sub_edges[S] = {(x, y) for (x, y) in edges if x in inset and y in inset}
        return sub_edges[S]

    restr = {}

    def restrictions(S):
        if S not in restr:
            restr[S] = {tuple(p[x] for x in S) for p in auts}
        return restr[S]

    for k in range(2, n + 1):
        subs = list(combinations(V, k))
        for S in subs:
            ES = edges_in(S)
            avail = restrictions(S)
            for T in subs:
                ET = edges_in(T)
                if len(ES) != len(ET):
                    continue
                for perm in permutations(T):
                    m = dict(zip(S, perm))
                    if all((m[x], m[y]) in ET for (x, y) in ES):
                        if perm not in avail:
                            return False
    return True


def sweep_corpus(n):
    """Every class on n points by sweeping all n^n tables and bucketing
    them by certificate; tables arrive in lexicographic order, so the
    first of each bucket is its class's least table."""
    best = {}
    for t in product(range(n), repeat=n):
        best.setdefault(table_certificate(t), t)
    return Corpus(n, tuple(FiniteMonounary(t) for t in sorted(best.values())))


def least_relabelling(t):
    """The least table over every relabelling of t's points."""
    n = len(t)
    best = None
    for p in permutations(range(n)):
        q = [0] * n
        for x in range(n):
            q[p[x]] = p[t[x]]
        if best is None or q < best:
            best = q
    return tuple(best)


def _euler_transform(a):
    """b[m], m = 0..len(a)-1: multisets of weight m of objects counted by
    a[k] per weight k (a[0] is ignored)."""
    b = [Fraction(1)]
    for m in range(1, len(a)):
        b.append(sum(
            sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * b[m - k]
            for k in range(1, m + 1)
        ) / m)
    return b


def polya_class_counts(up_to):
    """Isomorphism classes of monounary algebras on 1..up_to points by
    Pólya counting (Harary & Palmer, Graphical Enumeration, 1973): rooted
    trees T(x) (OEIS A000081), connected classes as the cycle index of
    C_k evaluated at T(x), T(x^2), ... and summed over k (A002861), then
    the Euler transform (A001372)."""
    N = up_to + 1
    trees = [0, 1]  # a rooted tree is a root over a multiset of trees
    for m in range(2, N):
        trees.append(_euler_transform(trees)[m - 1])

    def mul(p, q):
        r = [Fraction(0)] * N
        for i, x in enumerate(p):
            if x:
                for j in range(N - i):
                    r[i + j] += x * q[j]
        return r

    connected = [Fraction(0)] * N
    for d in range(1, N):
        phi = sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)
        t_d = [Fraction(0)] * N  # T(x^d)
        for m in range(1, (N - 1) // d + 1):
            t_d[m * d] = Fraction(trees[m])
        power = t_d
        for j in range(1, (N - 1) // d + 1):  # the term of C_k, k = j*d
            for m in range(N):
                connected[m] += Fraction(phi, j * d) * power[m]
            power = mul(power, t_d)
    classes = _euler_transform(connected)
    assert all(c.denominator == 1 for c in classes)
    return [int(c) for c in classes[1:]]
