"""Orbits of points and tuple-orbit counts against the brute force that
marks every image of each unmarked tuple (itself checked against
union-find), and at sizes the brute force cannot reach against marked
certificates and automorphism extension."""

import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import core, iso, orbits, symbolic
from monoalg.core import FiniteMonounary, validate
from monoalg.iso import brute_force_automorphisms
from monoalg.symbolic import Cardinal
from oracles import orbit_count_union_find, symmetric_tables, tables


def test_one_orbits_examples():
    assert orbits.one_orbits(validate([0, 0, 0])) == ((0,), (1, 2))
    assert orbits.one_orbits(validate([1, 2, 0])) == ((0, 1, 2),)
    # leaves at different heights fall in different orbits
    assert orbits.one_orbits(validate([0, 0, 0, 1])) == ((0,), (1,), (2,), (3,))


def test_orbit_counts_examples():
    star = validate([0, 0, 0])
    assert orbits.orbit_profile(star, 2) == [2, 5]
    # with no automorphisms given, the brute force finds its own
    assert orbits.n_orbit_count_bruteforce(star, 2) == orbits.orbit_profile(star, 2)[-1]
    z3 = validate([1, 2, 0])
    assert orbits.n_orbit_count(z3, 1) == 1
    assert orbits.n_orbit_count(z3, 2) == 3
    assert orbits.n_orbit_count(z3, 3) == 9


def test_transitivity():
    def transitive(tab):
        return len(orbits.one_orbits(validate(tab))) == 1

    assert transitive([1, 2, 0])
    assert transitive([0])
    assert not transitive([0, 0, 0])
    # two cycles of different sizes cannot be merged by an automorphism
    assert not transitive([0, 2, 1])


def test_arity_must_be_positive():
    with pytest.raises(ValueError):
        orbits.n_orbit_count(validate([0]), 0)
    for k in (0, -3):
        with pytest.raises(ValueError, match="arity must be positive"):
            orbits.orbit_profile(validate([0, 0, 0]), k)
    with pytest.raises(ValueError):
        orbits.n_orbit_count_bruteforce(validate([0]), 0)
    with pytest.raises(ValueError, match="cap"):
        orbits.n_orbit_count_bruteforce(validate([0, 0, 0]), 2, cap=5)


def test_walk_limit_is_checked_before_the_work():
    top = orbits.MAX_ORBIT_ARITY
    assert orbits.orbit_profile(validate([0]), top) == [1] * top
    for k in (top + 1, 10**9):
        with pytest.raises(ValueError, match=f"arity {k} is over the orbit walk limit of arity {top}"):
            orbits.orbit_profile(validate([0]), k)
    # a loop with one leaf is rigid: 2^k orbits of k-tuples, 2^k - 1
    # labellings to arity k, so arity 13 fits the limit and 14 does not
    rigid = validate([0, 0])
    assert orbits.MAX_ORBIT_LABELLINGS == 10_000
    assert orbits.orbit_profile(rigid, 13) == [2**k for k in range(1, 14)]
    with pytest.raises(ValueError, match="arity 14 needs more than 10000 labellings, the orbit walk limit"):
        orbits.orbit_profile(rigid, 14)


def test_walk_limit_is_checked_between_arities(monkeypatch):
    # a 100-point path is rigid, 100 orbits of points, so arity 3 needs
    # 1 + 100 + 100^2 labellings: refused after the first, before arity 2
    path = validate([0] + list(range(99)))
    calls = []
    label = orbits._point_orbits
    monkeypatch.setattr(orbits, "_point_orbits", lambda *args: calls.append(args) or label(*args))
    assert orbits.orbit_profile(path, 2) == [100, 100**2] and len(calls) == 101
    calls.clear()
    with pytest.raises(ValueError, match="arity 3 needs more than 10000 labellings"):
        orbits.orbit_profile(path, 3)
    assert len(calls) == 1


def test_walk_limit_counts_labelled_points(monkeypatch):
    assert orbits.MAX_ORBIT_POINTS == 10_000_000
    # one labelling of all 400 000 points per arity at least: refused
    # before the skeleton is built
    with monkeypatch.context() as m:
        m.setattr(orbits, "skeleton", None)
        with pytest.raises(ValueError, match="arity 32 needs more than 10000000 labelled points"):
            orbits.orbit_profile(validate([0] * 400_000), 32)
    # 1 + 4615 labellings of 5000 points to arity 2, refused after the first
    start = time.perf_counter()
    A = core.random_algebra(5000, 1)
    message = r"arity 2 needs more than 10000000 labelled points \(5000 points a labelling\)"
    with pytest.raises(ValueError, match=message):
        orbits.orbit_profile(A, 2)
    assert time.perf_counter() - start < 2
    assert orbits.orbit_profile(A, 1) == [4615]


def test_labels_respect_coordinate_permutation_symmetry():
    A = (0, 0, 0)
    lab = iso.table_certificate
    # (1,2) and (2,1) lie in one orbit: swap the twin leaves
    assert lab(A, (1, 2)) == lab(A, (2, 1))
    assert lab(A, (1, 1)) != lab(A, (1, 2))
    assert lab(A, (0, 1)) != lab(A, (1, 0))


@given(tables(max_n=5), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_label_count_matches_union_find(tab, k):
    A = FiniteMonounary(tab)
    auts = brute_force_automorphisms(A)
    assert orbits.n_orbit_count(A, k) == orbits.n_orbit_count_bruteforce(A, k, auts=auts)


def test_marking_counts_the_union_find_orbits(corpus):
    """Marking every image of each unmarked tuple against union-find over
    every (tuple, automorphism) pair, on every class with up to 6 points,
    to arity 3 on up to 5 points and to arity 2 on 6."""
    for n, reps in corpus.items():
        for A in reps:
            auts = brute_force_automorphisms(A)
            for k in range(1, (3 if n < 6 else 2) + 1):
                assert orbits.n_orbit_count_bruteforce(A, k, auts=auts) == orbit_count_union_find(auts, n, k), (A.table, k)


@given(tables(max_n=5), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_walk_yields_each_stabilizers_orbits(tab, up_to):
    """Each (k, xs, orbit) the walk yields numbers the orbits of the
    automorphisms fixing every xs[i], and the arity-k representatives
    xs + (x,) lie one in each k-tuple orbit."""
    A = FiniteMonounary(tab)
    auts = brute_force_automorphisms(A)
    reps: dict[int, list[tuple[int, ...]]] = {}
    for k, xs, orbit in orbits.orbit_walk(A, up_to):
        assert len(xs) == k - 1
        fixing = [p for p in auts if all(p[x] == x for x in xs)]
        for x in range(A.n):
            for y in range(A.n):
                assert (orbit[x] == orbit[y]) == any(p[x] == y for p in fixing)
        reps.setdefault(k, []).extend(xs + (x,) for x in dict(zip(orbit, range(A.n))).values())
    assert sorted(reps) == list(range(1, up_to + 1))
    for k, ts in reps.items():
        images = [{tuple(p[x] for x in t) for p in auts} for t in ts]
        assert all(a.isdisjoint(b) for i, a in enumerate(images) for b in images[i + 1:])
        assert len(ts) == orbits.n_orbit_count_bruteforce(A, k, auts=auts)


@given(tables(max_n=5))
@settings(max_examples=50, deadline=None)
def test_one_orbits_match_automorphism_action(tab):
    A = FiniteMonounary(tab)
    auts = brute_force_automorphisms(A)
    blocks = orbits.one_orbits(A)
    covered = sorted(x for b in blocks for x in b)
    assert covered == list(range(A.n))
    for b in blocks:
        for x in b:
            assert sorted({p[x] for p in auts}) == list(b)


@given(tables(max_n=5), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_orbit_counts_grow_with_arity(tab, k):
    A = FiniteMonounary(tab)
    assert orbits.n_orbit_count(A, k + 1) >= orbits.n_orbit_count(A, k)


def test_orbits_of_large_instances():
    S = symbolic.parse("A[3;4,4,4,4,4]")
    A = symbolic.instantiate(S, 1)
    assert A.n == 4095
    assert Cardinal(len(orbits.one_orbits(A))) == symbolic.o1(S) == Cardinal(6)
    B = symbolic.instantiate(symbolic.parse("2*A[2;3,3,3] + 3*Z5"), 1)
    assert orbits.n_orbit_count(B, 2) == 76
    assert orbits.orbit_profile(B, 2) == [len(orbits.one_orbits(B)), 76]


@given(symmetric_tables(8, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_one_orbits_are_the_marked_certificate_classes(tab, data):
    A = FiniteMonounary(tab)
    by_cert: dict = {}
    for x in range(A.n):
        by_cert.setdefault(iso.table_certificate(tab, (x,)), []).append(x)
    blocks = orbits.one_orbits(A)
    assert sorted(map(tuple, by_cert.values())) == list(blocks)
    block_of = {x: b for b in blocks for x in b}
    for _ in range(5):
        x = data.draw(st.integers(0, A.n - 1))
        y = data.draw(st.sampled_from(block_of[x]) | st.integers(0, A.n - 1))
        p = iso.extend_to_automorphism(A, {x: y})
        assert (p is not None) == (y in block_of[x])
        if p is not None:
            assert sorted(p) == list(range(A.n)) and p[x] == y
            assert all(p[tab[z]] == tab[p[z]] for z in range(A.n))
