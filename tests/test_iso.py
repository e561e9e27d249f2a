"""Certificates, isomorphism decisions and automorphism enumeration,
cross-checked against permutation brute force."""

import gc
import json
import random
import sys
import time
import tracemalloc
from enum import IntEnum
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import cli, core, iso, symbolic
from monoalg.core import FiniteMonounary, Skeleton, random_algebra, validate
from oracles import exists_iso, inverse, iso_bijections, partial_iso_images, symmetric_tables, tables


@pytest.mark.parametrize(
    "table", [(-1, 0), (5, 0), (), (True, 0), (1.0, 0)], ids=["negative", "too-large", "empty", "bool", "float"]
)
def test_raw_tables_are_checked_as_algebras_are(table):
    """The ValueError FiniteMonounary raises, cold and after equal-valued
    valid tables were asked for, with and without marks."""
    with pytest.raises(ValueError) as expected:
        FiniteMonounary(table)
    for warm in (False, True):
        core.skeleton.cache_clear()
        if warm:
            iso.table_certificate((1, 0))
            iso.table_certificate((0, 0))
        for xs in ((), (0,)):
            with pytest.raises(ValueError) as got:
                iso.table_certificate(table, xs)
            assert str(got.value) == str(expected.value)


def test_an_int_enum_table_is_its_int_table():
    Point = IntEnum("Point", ["a", "b", "c"], start=0)
    for xs in ((), (0,)):
        core.skeleton.cache_clear()
        assert iso.table_certificate((Point.b, Point.c, Point.b), xs) == iso.table_certificate((1, 2, 1), xs)


def test_known_pairs():
    assert iso.are_isomorphic(validate([0, 0, 0]), validate([1, 1, 1]))
    assert iso.are_isomorphic(validate([0, 0, 0, 1]), validate([0, 0, 0, 2]))
    # same tree shape hung on the loop either way round
    assert iso.are_isomorphic(validate([0, 0, 0, 1]), validate([0, 0, 1, 0]))
    assert (0, 1, 3, 2) in iso_bijections((0, 0, 0, 1), (0, 0, 1, 0))
    assert not iso.are_isomorphic(validate([0, 0, 0]), validate([0, 1, 2]))
    assert not iso.are_isomorphic(validate([1, 2, 0]), validate([1, 0, 2]))
    assert not iso.are_isomorphic(validate([0]), validate([0, 0]))


@given(tables(max_n=5), tables(max_n=5))
@settings(max_examples=100, deadline=None)
def test_certificate_equality_is_isomorphism(t1, t2):
    same = iso.are_isomorphic(FiniteMonounary(t1), FiniteMonounary(t2))
    assert same == exists_iso(t1, t2)


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_certificate_is_relabelling_invariant(tab, rnd):
    n = len(tab)
    p = list(range(n))
    rnd.shuffle(p)
    relabelled = tuple(p[tab[q]] for q in inverse(p))
    assert iso.table_certificate(tab) == iso.table_certificate(relabelled)


def test_are_isomorphic_where_the_skeletons_agree():
    """Every table on n <= 5 points, and 3000 random ones on 6, against
    the first table with the same level sizes and sorted cycle lengths:
    the skeletons cannot tell these apart, so the labels decide."""
    rng = random.Random(8)
    undecided = 0
    for n in range(1, 7):
        if n <= 5:
            tabs = product(range(n), repeat=n)
        else:
            tabs = (tuple(rng.randrange(n) for _ in range(n)) for _ in range(3000))
        first = {}
        for t in tabs:
            sk = Skeleton(t)
            u = first.setdefault((tuple(sk.level_starts), tuple(sorted(sk.cycle_lengths()))), t)
            same = exists_iso(u, t)
            assert iso.are_isomorphic(FiniteMonounary(u), FiniteMonounary(t)) == same, (u, t)
            undecided += not same
    assert undecided > 1000


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.integers(0, n - 1)] * n) | st.just((0,) * n)), st.data())
@settings(max_examples=150, deadline=None)
def test_are_isomorphic_matches_bijection_search(t1, data):
    """Pairs of equal size: a relabelled copy, a copy with one entry
    changed, or any table."""
    n = len(t1)
    p = data.draw(st.permutations(range(n)))
    relabelled = tuple(p[t1[q]] for q in inverse(p))
    x, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    changed = relabelled[:x] + (v,) + relabelled[x + 1:]
    t2 = data.draw(st.sampled_from([relabelled, changed]) | st.tuples(*[st.integers(0, n - 1)] * n))
    assert iso.are_isomorphic(FiniteMonounary(t1), FiniteMonounary(t2)) == exists_iso(t1, t2)


@given(symmetric_tables(8, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_repeated_marks_follow_a_relabelling(tab, data):
    """Marks may repeat, as orbit_profile's tuples do; the marked
    certificate is the same after relabelling the points and the marks
    along with them."""
    n = len(tab)
    A = FiniteMonounary(tab)
    xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    xs += data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=3))
    xs = data.draw(st.permutations(xs))
    p = data.draw(st.permutations(range(n)))
    B = FiniteMonounary(tuple(p[tab[q]] for q in inverse(p)))
    cert = iso.table_certificate(A.table, xs)
    assert cert == iso.table_certificate(B.table, [p[x] for x in xs])
    # each entry is a sorted child-label tuple, marks included
    assert all(list(entry) == sorted(entry) for entry in cert[0])


def test_marked_certificates_track_positions():
    cert = iso.table_certificate
    A = (0, 0, 0)
    # both leaves look alike until one is marked
    assert cert(A, (1,)) == cert(A, (2,))
    assert cert(A, (0,)) != cert(A, (1,))
    assert cert(A, (1, 2)) == cert(A, (2, 1))
    # no marks is the unmarked certificate
    assert cert(A, ()) == cert(A) != cert(A, (0,))
    B = (0, 0, 0, 1)
    assert cert(B, (2,)) != cert(B, (3,))
    for bad in (5, 3, -1):
        with pytest.raises(ValueError, match=f"marked element out of range: {bad}"):
            cert(A, (bad,))


@given(tables(max_n=5))
@settings(max_examples=60, deadline=None)
def test_pointed_certificates_split_into_automorphism_orbits(tab):
    A = FiniteMonounary(tab)
    auts = iso.brute_force_automorphisms(A)
    for x in range(A.n):
        for y in range(A.n):
            same_orbit = any(p[x] == y for p in auts)
            same_cert = iso.table_certificate(tab, (x,)) == iso.table_certificate(tab, (y,))
            assert same_orbit == same_cert


# ---------------------------------------------------------------------------
# automorphisms

def test_automorphisms_of_small_examples():
    star = validate([0, 0, 0])
    assert iso.enumerate_automorphisms(star) == [(0, 1, 2), (0, 2, 1)]
    z4 = validate([1, 2, 3, 0])
    assert iso.enumerate_automorphisms(z4) == [
        (0, 1, 2, 3),
        (1, 2, 3, 0),
        (2, 3, 0, 1),
        (3, 0, 1, 2),
    ]
    rigid = validate([0, 0, 0, 1])
    assert iso.enumerate_automorphisms(rigid) == [(0, 1, 2, 3)]


@given(tables(max_n=6))
@settings(max_examples=100, deadline=None)
def test_structured_enumeration_matches_brute_force(tab):
    A = FiniteMonounary(tab)
    assert iso.enumerate_automorphisms(A) == iso.brute_force_automorphisms(A)


@given(tables(max_n=5))
@settings(max_examples=50, deadline=None)
def test_automorphisms_form_a_group(tab):
    A = FiniteMonounary(tab)
    auts = set(iso.enumerate_automorphisms(A))
    assert tuple(range(A.n)) in auts
    for p in auts:
        assert tuple(inverse(list(p))) in auts
    sample = sorted(auts)[:6]
    for p in sample:
        for q in sample:
            assert tuple(p[q[x]] for x in range(A.n)) in auts


def test_enumeration_converts_to_tuples_with_the_collector_paused():
    """40 320 automorphisms are at least ten times the first threshold, so
    their tuples are built with the collector paused: at most the one
    young collection that the paused allocations leave due, where each
    700 tuples would trigger one."""
    A8 = symbolic.instantiate(symbolic.parse("A[1;8]"), 1)
    ran = []

    def note(phase, info):
        if phase == "start":
            ran.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(note)
    try:
        auts = iso.enumerate_automorphisms(A8)
    finally:
        gc.callbacks.remove(note)
    assert len(auts) == 40_320 and len(ran) <= 1 and gc.isenabled()


def test_enumeration_frees_the_byte_strings_before_building_the_tuples():
    """4*Z3 + A[1;3,2] has 93 312 automorphisms on 22 points.  The byte
    strings are joined and freed before the tuples are unpacked, so the
    peak exceeds the finished list by less than the strings' own size;
    holding both at once exceeds it by more."""
    A = symbolic.instantiate(symbolic.parse("4*Z3 + A[1;3,2]"), 1)
    iso.enumerate_automorphisms(A)  # caches the skeleton and its labelling outside the measure
    tracemalloc.start()
    try:
        auts = iso.enumerate_automorphisms(A)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(auts), A.n) == (93_312, 22)
    assert peak - kept < len(auts) * sys.getsizeof(bytes(A.n))


def test_kernels_leave_the_collector_as_they_found_it():
    A = random_algebra(10_000, 4)
    sk = Skeleton(A.table)
    A8 = symbolic.instantiate(symbolic.parse("A[1;8]"), 1)
    star = validate([0, 0, 0])
    # 7 020 automorphisms on 287 points: tuple products, built paused
    rings = _relabelled(symbolic.instantiate(symbolic.parse("Z260 + Z27"), 1), random.Random(5))
    ran = []

    def note(phase, info):
        ran.append(info["generation"])

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.callbacks.append(note)
            try:
                iso.label(sk)
            finally:
                gc.callbacks.remove(note)
            assert not ran  # 10^4 points are labelled with the collector paused
            assert gc.isenabled() is enabled
            with pytest.raises(IndexError):  # a mark outside the table
                iso.label(sk, (A.n,))
            assert gc.isenabled() is enabled
            iso.enumerate_automorphisms(star)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="cap"):
                iso.enumerate_automorphisms(star, cap=1)
            assert gc.isenabled() is enabled
            iso.enumerate_automorphisms(rings)  # labelled here, so that only the listing is watched
            gc.collect()
            gc.callbacks.append(note)
            try:
                assert len(iso.enumerate_automorphisms(rings)) == 7020
            finally:
                gc.callbacks.remove(note)
            # the start and stop of at most one collection, from the factors'
            # lists: the tuples trigger none (without the pause, about ten)
            assert len(ran) <= 2 * enabled
            assert gc.isenabled() is enabled
            ran.clear()
        # the kernels build no reference cycle, so the pause defers no work
        gc.collect()
        gc.disable()
        iso.label(sk)
        assert len(iso.enumerate_automorphisms(A8)) == 40_320
        assert len(iso.enumerate_automorphisms(rings)) == 7020
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_cap_refuses_to_materialize():
    with pytest.raises(ValueError, match="cap"):
        iso.enumerate_automorphisms(validate([0, 0, 0]), cap=1)
    with pytest.raises(ValueError, match="bound"):
        iso.brute_force_automorphisms(validate([0] * 9))


@pytest.mark.parametrize("table, order", [
    ([0] * 11, "3628800"),  # a loop with 10 leaves: the count passes the cap at 9!, the order is 10!
    (list(range(40)), "of 48 digits"),  # 40 loops, 40!
    (list(range(2000)), "of 5736 digits"),  # 2000!, longer than str() writes by default
    (list(range(70_000)), "of at least 297703 digits"),  # past MAX_ORDER_BITS: a lower bound
], ids=["short", "long", "over-str-limit", "bounded"])
def test_cap_refusal_states_the_group_order(table, order):
    with pytest.raises(ValueError) as exc:
        iso.enumerate_automorphisms(validate(table))
    assert str(exc.value) == f"automorphism count {order} exceeds cap {iso.DEFAULT_AUT_CAP}"


def test_list_size_is_bounded_before_any_factor_is_built():
    """A[1;8] (a loop with 8 leaves) has 8! = 40320 automorphisms; next
    to a rigid 300-point path, listing them would take 40320 * 309
    entries."""
    A = validate((0,) * 9 + (9,) + tuple(range(9, 308)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"40320 automorphisms on 309 points exceed the limit of {iso.MAX_AUT_ENTRIES}"):
        iso.enumerate_automorphisms(A)
    assert time.perf_counter() - start < 1


def _relabelled(A, rng):
    """A copy of A under a random relabelling drawn from rng."""
    p = list(range(A.n))
    rng.shuffle(p)
    return validate([p[A.table[q]] for q in inverse(p)])


@pytest.mark.parametrize("table", [list(range(100_000)), [0] * 100_000], ids=["identity", "star"])
def test_cap_is_counted_before_any_factor_is_built(table):
    """10^5 loops, or 10^5 - 1 leaves on one loop: the count passes the
    cap within a few factor sizes.  Building even the first factor would
    take about n^2 / 2 swaps on permutations of n points."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        iso.enumerate_automorphisms(validate(table))
    assert time.perf_counter() - start < 5


def test_every_small_class_matches_brute_force(corpus):
    rng = random.Random(9)
    classes = [A for n in range(1, 7) for A in corpus[n]]
    assert len(classes) == 207
    for A in classes:
        B = _relabelled(A, rng)
        assert iso.enumerate_automorphisms(B) == iso.brute_force_automorphisms(B), B.table


def test_two_runs_at_one_element_match_brute_force():
    """A loop with three leaves and two one-leaf paths: the loop has two
    runs of equal-labelled children, which no table on 6 points has."""
    B = _relabelled(validate([0, 0, 0, 0, 0, 3, 4, 0]), random.Random(2))
    auts = iso.enumerate_automorphisms(B)
    assert len(auts) == 12 and auts == iso.brute_force_automorphisms(B)


@pytest.mark.parametrize("text, order",[("A[1;8]", 40_320), ("4*Z3 + A[1;3,2]", 24 * 3**4 * 6 * 2**3)])
def test_group_orders_above_brute_force_reach(text, order):
    A = _relabelled(symbolic.instantiate(symbolic.parse(text), 1), random.Random(text))
    auts = iso.enumerate_automorphisms(A)
    assert len(auts) == len(set(auts)) == order
    f = A.table
    for p in auts:
        assert tuple(map(p.__getitem__, f)) == tuple(map(f.__getitem__, p))
    assert auts == sorted(auts)


def _padded_to_either_side_of_256():
    """2*A[1;3], relabelled, and that group padded by a rigid path to 256
    and 257 points, by size; the group component takes the top numbers,
    so 255 and 256 are moved."""
    G = _relabelled(symbolic.instantiate(symbolic.parse("2*A[1;3]"), 1), random.Random(256))
    return G, {n: validate([0] + list(range(n - G.n - 1)) + [n - G.n + y for y in G.table]) for n in (256, 257)}


def test_groups_on_either_side_of_256_points():
    """Up to 256 points the products are composed as bytes, above as
    tuples."""
    G, padded = _padded_to_either_side_of_256()
    on_component = []
    for n, A in padded.items():
        top = n - G.n
        auts = iso.enumerate_automorphisms(A)
        assert len(auts) == len(set(auts)) == 2 * 6**2  # swap the components, permute each one's 3 leaves
        assert auts == sorted(auts)
        f = A.table
        for p in auts:
            assert tuple(map(p.__getitem__, f)) == tuple(map(f.__getitem__, p))
            assert p[:top] == tuple(range(top))
        on_component.append([tuple(x - top for x in p[top:]) for p in auts])
    assert on_component[0] == on_component[1] == iso.brute_force_automorphisms(G)


@pytest.mark.parametrize("n", [256, 257])
def test_aut_writes_the_enumeration_on_either_side_of_256_points(capsys, n):
    """Through cli.main, `aut` writes each automorphism as str(list(p))
    and `aut --json` writes json.dumps of the list: the rows are read
    from byte strings up to 256 points and from tuples above."""
    A = _padded_to_either_side_of_256()[1][n]
    auts = iso.enumerate_automorphisms(A)
    assert cli.main(["aut", core.to_text(A)]) == 0
    assert capsys.readouterr().out == "".join(f"{list(p)}\n" for p in auts)
    assert cli.main(["aut", core.to_text(A), "--json"]) == 0
    assert capsys.readouterr().out == json.dumps({"count": len(auts), "automorphisms": auts}) + "\n"


def test_extend_to_automorphism():
    A = validate([0, 0, 0])
    assert iso.extend_to_automorphism(A, {1: 2}) == (0, 2, 1)
    assert iso.extend_to_automorphism(A, {0: 1}) is None
    B = validate([0, 0, 0, 1])
    # the two leaves sit at different heights
    assert iso.extend_to_automorphism(B, {2: 3}) is None
    with pytest.raises(ValueError):
        iso.extend_to_automorphism(A, {1: 0, 2: 0})
    with pytest.raises(ValueError):
        iso.extend_to_automorphism(A, {1: 9})
    with pytest.raises(ValueError, match="conflicting images for 1"):
        iso.extend_to_automorphism(A, [(1, 1), (1, 2)])


def test_extension_reaches_groups_above_the_cap():
    for text in ("A[1;9]", "3*A[1;4] + Z2"):
        A = symbolic.instantiate(symbolic.parse(text), 1)
        with pytest.raises(ValueError, match="cap"):
            iso.enumerate_automorphisms(A)
        leaves = [x for x in range(A.n) if x not in A.table]
        x, y = leaves[0], leaves[-1]
        p = iso.extend_to_automorphism(A, {x: y, y: x})
        assert p is not None and p[x] == y and p[y] == x
        assert all(p[A.table[z]] == A.table[p[z]] for z in range(A.n))
        assert iso.extend_to_automorphism(A, {x: A.table[x]}) is None


def _assert_layouts_zip_into_an_isomorphism(t, u):
    """The unmarked layouts of two isomorphic tables t and u, zipped,
    map t's points onto u's and commute with the operations."""
    m = [-1] * len(t)
    sks = (Skeleton(t), Skeleton(u))
    for a, b in zip(*(iso._layout(sk, iso.label(sk), sk.children()) for sk in sks)):
        m[a] = b
    assert sorted(m) == list(range(len(t)))
    assert all(m[t[x]] == u[m[x]] for x in range(len(t)))


@given(symmetric_tables(1, 200), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_layouts_of_a_relabelled_table_zip_into_an_isomorphism(tab, rnd):
    p = list(range(len(tab)))
    rnd.shuffle(p)
    _assert_layouts_zip_into_an_isomorphism(tab, tuple(p[tab[q]] for q in inverse(p)))


def test_layouts_of_a_relabelled_random_table_zip_into_an_isomorphism():
    A = random_algebra(10_000, 4)
    _assert_layouts_zip_into_an_isomorphism(A.table, _relabelled(A, random.Random(4)).table)


@given(tables(max_n=6), st.data())
@settings(max_examples=150, deadline=None)
def test_extension_matches_brute_force(tab, data):
    A = FiniteMonounary(tab)
    r = data.draw(st.integers(1, min(3, A.n)))
    keys = data.draw(st.lists(st.integers(0, A.n - 1), min_size=r, max_size=r, unique=True))
    auts = iso.brute_force_automorphisms(A)
    images = data.draw(
        st.sampled_from([tuple(p[k] for k in keys) for p in auts])
        | st.lists(st.integers(0, A.n - 1), min_size=r, max_size=r, unique=True)
    )
    m = dict(zip(keys, images))
    p = iso.extend_to_automorphism(A, m)
    assert (p is not None) == any(all(q[k] == v for k, v in m.items()) for q in auts)
    assert p is None or p in auts and all(p[k] == v for k, v in m.items())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_partial_iso_images_follow_the_definition(data):
    n = data.draw(st.integers(1, 5))
    tabs = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), min_size=1, max_size=2))
    k = data.draw(st.integers(1, n))
    subset = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    S, T = data.draw(subset), data.draw(subset)
    assert list(iso.partial_iso_images(tabs, S, T)) == partial_iso_images(tabs, S, T)
    assert not list(iso.partial_iso_images(tabs, S, T[:-1]))
