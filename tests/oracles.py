"""Independent reference implementations used only by the tests.

Everything here recomputes answers from definitions (bijection filters,
subset sweeps) and deliberately shares no code with the structured
algorithms it is used to check.
"""

from itertools import combinations, permutations

import hypothesis.strategies as st


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
