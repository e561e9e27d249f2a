"""Calls on one table share its skeleton and its unmarked labelling
through core.skeleton: every layer gives the same answers whether or not
the cache is cleared before each call, at most two tables' skeletons
stay alive, and no reader changes what it shares."""

import weakref
from array import array

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import core, homogeneity, iso, orbits, semilinear, symbolic
from monoalg.core import FiniteMonounary, random_algebra
from oracles import inverse, symmetric_tables, tables

BIG = 10_000
UH_BIG = symbolic.instantiate(symbolic.parse("A[1;9,9,9,9]"), 1).table  # 7381 points


def big_tables():
    """10^4-point random tables, and a 7381-point UH instance under a
    random relabelling."""
    def relabel(p):
        return tuple(p[UH_BIG[q]] for q in inverse(p))

    return st.integers(0, 2**16).map(lambda seed: random_algebra(BIG, seed).table) | st.randoms(
        use_true_random=False
    ).map(lambda rnd: relabel(rnd.sample(range(len(UH_BIG)), len(UH_BIG))))


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # NotUltrahomogeneous and every stated limit
        return type(exc), str(exc)


def _layers(tab, other):
    """Every layer that reads the shared skeleton, on one table (and, for
    are_isomorphic, against another)."""
    A, B = FiniteMonounary(tab), FiniteMonounary(other)
    n = len(tab)
    c = 0
    for _ in range(n):  # n steps from any point land on its cycle
        c = tab[c]
    return [
        lambda: core.structure_report(A),
        lambda: symbolic.decompose(A),
        lambda: homogeneity.is_ultrahomogeneous(A),
        lambda: symbolic.normal_form(A),
        lambda: iso.table_certificate(tab),
        lambda: iso.table_certificate(list(tab)),
        lambda: iso.table_certificate(tab, (0, n - 1)),
        lambda: iso.are_isomorphic(A, B),
        lambda: iso.are_isomorphic(B, A),
        lambda: iso.enumerate_automorphisms(A, cap=5000),
        lambda: iso.extend_to_automorphism(A, {0: n // 2}),
        lambda: orbits.one_orbits(A),
        lambda: orbits.orbit_profile(A, 2),
        lambda: semilinear.build_order(A, c),
    ]


@given(
    st.lists(tables(max_n=9) | symmetric_tables(8, 60) | big_tables(), min_size=2, max_size=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_layers_answer_alike_with_and_without_the_shared_skeleton(tabs, rnd):
    """Calls on two or three tables, interleaved: cleared before every
    call, then shared through the cache twice over, so that a reader
    that changed a shared result would show in the second round."""
    calls = [call for i, tab in enumerate(tabs) for call in _layers(tab, tabs[i - 1])]
    rnd.shuffle(calls)
    cold = []
    for call in calls:
        core.skeleton.cache_clear()
        cold.append(_outcome(call))
    core.skeleton.cache_clear()
    for _ in range(2):
        assert [_outcome(call) for call in calls] == cold


def test_at_most_two_tables_are_kept():
    assert core.skeleton.cache_info().maxsize == 2
    core.skeleton.cache_clear()
    algebras = [random_algebra(BIG, seed) for seed in range(3)]
    first = core.skeleton(algebras[0].table)
    iso.label(first)  # kept on the skeleton, so it goes with it
    first = weakref.ref(first)
    for A in algebras:
        core.structure_report(A)
        iso.table_certificate(A.table)
        orbits.one_orbits(A)
        homogeneity.is_ultrahomogeneous(A)
    assert core.skeleton.cache_info().currsize == 2
    # the first table's skeleton was dropped, and is kept nowhere else
    assert first() is None
    assert iso.are_isomorphic(algebras[1], algebras[2]) is False
    assert core.skeleton.cache_info().currsize == 2


def test_a_cached_skeleton_holds_no_per_point_list():
    """Every per-point field of a cached skeleton, height and comp and
    the unmarked labels included, is an array("i"), and cyclic is bytes:
    machine ints side by side, not a list of int objects."""
    A = random_algebra(BIG, 6)
    sk = core.skeleton(A.table)
    sk.height, sk.comp
    labels = iso.label(sk)[0]
    fields = {name: value for name, value in vars(sk).items() if name != "unmarked"}
    assert fields.keys() == {
        "table", "degree", "cyclic", "ranked", "level_starts",
        "cycle_points", "cycle_starts", "height", "comp",
    }
    fields["labels"] = labels
    for name, value in fields.items():
        assert type(value) is (bytes if name == "cyclic" else array), name
        assert name == "cyclic" or value.typecode == "i", name
    assert {name for name, value in fields.items() if len(value) == BIG} == {
        "table", "degree", "cyclic", "ranked", "height", "comp", "labels",
    }
    assert core.skeleton(A.table).unmarked[0] is labels


def test_certificate_of_a_list_is_that_of_its_tuple():
    tab = random_algebra(500, 3).table
    core.skeleton.cache_clear()
    assert iso.table_certificate(list(tab)) == iso.table_certificate(tab)
    assert core.skeleton.cache_info().currsize == 1  # one entry, keyed by value
    assert FiniteMonounary([1, 0]).table == (1, 0)


def test_only_the_unmarked_labelling_is_kept():
    sk = core.skeleton(random_algebra(200, 5).table)
    assert iso.label(sk) is iso.label(sk)
    assert iso.label(sk, (0,)) is not iso.label(sk, (0,))
    assert iso.label(sk, (0,)) == iso.label(core.Skeleton(sk.table), (0,))
    # the lists are not kept on the skeleton: every call builds them afresh
    assert sk.children() is not sk.children()


def test_a_float_table_is_refused_cold_and_warm():
    """(1.0, 0) equals (1, 0) as a cache key, so it is refused before the
    lookup, whatever was asked before."""
    core.skeleton.cache_clear()
    with pytest.raises(ValueError, match=r"entry 0 out of range: 1\.0"):
        iso.table_certificate((1.0, 0))
    cert = iso.table_certificate((1, 0))
    for xs in ((), (0,)):
        with pytest.raises(ValueError, match=r"entry 0 out of range: 1\.0"):
            iso.table_certificate((1.0, 0), xs)
    assert iso.table_certificate([1, 0]) == cert
