"""Homogeneity deciders against exhaustive oracles, plus the witnesses
separating the eight conditions of the lattice."""

import copy
import pickle
from itertools import combinations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import homogeneity as hom
from monoalg.core import FiniteMonounary, PartialMonounary, validate
from monoalg.iso import brute_force_automorphisms
from oracles import all_extend, one_generated, subalgebras, tables


def test_uh_examples():
    assert hom.is_ultrahomogeneous(validate([1, 2, 0]))
    assert hom.is_ultrahomogeneous(validate([0, 0]))
    # Z2 + Z3 is ultrahomogeneous even though it has two cycle sizes
    assert hom.is_ultrahomogeneous(validate([1, 0, 3, 4, 2]))
    # a cycle with a tail never is
    assert not hom.is_ultrahomogeneous(validate([1, 0, 0]))
    # two looped points with different leaf counts break equal indegree
    assert not hom.is_ultrahomogeneous(validate([0, 0, 2]))


def test_partial_homogeneity_patterns():
    assert hom.is_partially_homogeneous(validate([0, 2, 1]))        # Z1 + Z2
    assert hom.is_partially_homogeneous(validate([1, 2, 0, 3]))     # Z3 + Z1
    assert hom.is_partially_homogeneous(validate([1, 2, 3, 0, 4]))  # Z4 + Z1
    assert hom.is_partially_homogeneous(validate([0, 0, 2, 2]))     # two looped points, one leaf each
    assert hom.is_partially_homogeneous(validate([0, 0, 0, 0]))     # one looped point, many leaves
    assert not hom.is_partially_homogeneous(validate([1, 2, 3, 0, 5, 6, 7, 4]))  # two 4-cycles
    assert not hom.is_partially_homogeneous(validate([1, 0, 3, 4, 2]))           # Z2 + Z3 mix
    assert not hom.is_partially_homogeneous(validate([0, 0, 0, 1]))


# ---------------------------------------------------------------------------
# witnesses separating the conditions

def test_two_cycle_with_tail_is_h1_not_h2():
    r = hom.classify_lattice(validate([1, 0, 0]))
    assert r.to_dict() == {
        "transitive": False,
        "ph1": False,
        "ph2": False,
        "ph": False,
        "uh": False,
        "h": False,
        "h2": False,
        "h1": True,
    }
    assert r.implications_hold()


def test_three_cycle_with_tail_is_h2_not_h():
    r = hom.classify_lattice(validate([1, 2, 0, 0]))
    assert r.h2 and r.h1
    assert not r.uh and not r.h
    assert r.implications_hold()


def test_cycle_with_tail_homogeneity_degrees():
    # a k-cycle with a tail separates (k-1)- from k-homogeneity
    z4t = validate([1, 2, 3, 0, 0])
    assert not hom.is_n_homogeneous(z4t, 4)
    assert hom.is_n_homogeneous(z4t, 3)  # vacuous: no 3-element subalgebra
    assert hom.is_n_homogeneous(z4t, 5)
    z2t = validate([1, 0, 0])
    assert hom.is_n_homogeneous(z2t, 1)
    assert not hom.is_n_homogeneous(z2t, 2)


def test_five_cycle_is_ph1_not_ph2():
    z5 = validate([1, 2, 3, 4, 0])
    assert hom.is_partially_n_homogeneous(z5, 1)
    assert not hom.is_partially_n_homogeneous(z5, 2)
    assert hom.is_ultrahomogeneous(z5)
    assert not hom.is_partially_homogeneous(z5)


def test_mixed_cycles_uh_but_not_ph():
    A = validate([1, 0, 3, 4, 2])
    r = hom.classify_lattice(A)
    assert r.uh
    assert not r.ph1 and not r.ph2 and not r.ph
    assert r.implications_hold()


def test_fixed_point_plus_two_cycle_is_ph_not_transitive():
    r = hom.classify_lattice(validate([0, 2, 1]))
    assert r.ph and r.ph1 and r.ph2 and r.uh
    assert not r.transitive
    assert r.implications_hold()


# ---------------------------------------------------------------------------
# deciders vs oracles

def test_deciders_agree_with_oracles_on_small_corpus(corpus):
    for n in range(1, 5):
        for A in corpus[n]:
            auts = hom._auts_for(A, 8, None)
            assert hom.is_ultrahomogeneous(A) == hom.is_ultrahomogeneous_oracle(A, auts=auts)
            assert hom.is_partially_homogeneous(A) == hom.is_partially_homogeneous_oracle(A, auts=auts)


@given(tables(max_n=5))
@settings(max_examples=60, deadline=None)
def test_uh_decider_matches_oracle(tab):
    A = FiniteMonounary(tab)
    assert hom.is_ultrahomogeneous(A) == hom.is_ultrahomogeneous_oracle(A)


@given(tables(max_n=5))
@settings(max_examples=40, deadline=None)
def test_uh_equals_1uh_on_totals(tab):
    A = FiniteMonounary(tab)
    assert hom.is_ultrahomogeneous_oracle(A) == hom.is_1_ultrahomogeneous_oracle(A)


@given(tables(max_n=5))
@settings(max_examples=40, deadline=None)
def test_lattice_implications(tab):
    assert hom.classify_lattice(FiniteMonounary(tab)).implications_hold()


def test_lattice_report_is_a_record():
    r = hom.classify_lattice(validate([1, 0, 0]))
    assert list(r.to_dict()) == ["transitive", "ph1", "ph2", "ph", "uh", "h", "h2", "h1"]
    assert r.to_dict()["uh"] is r.uh is False
    assert pickle.loads(pickle.dumps(r)) == r and hash(copy.copy(r)) == hash(r)
    assert repr(r).startswith("LatticeReport(transitive=False, ph1=")
    with pytest.raises(AttributeError):
        r.uh = True


def test_ph1_without_uh_breaks_the_implications():
    """1-partial homogeneity implies ultrahomogeneity.  A report with ph1
    and not uh fails the check, though every other implication holds: it
    holds again once uh and the conditions above it are set."""
    r = hom.LatticeReport(
        transitive=False, ph1=True, ph2=False, ph=False, uh=False, h=False, h2=False, h1=False
    )
    assert r.implications_hold() is False
    assert r._replace(uh=True, h=True, h2=True, h1=True).implications_hold() is True


def test_bounds_and_arity_errors():
    big = validate([0] * 9)
    with pytest.raises(ValueError, match="bound"):
        hom.is_ultrahomogeneous_oracle(big)
    with pytest.raises(ValueError):
        hom.is_n_homogeneous(validate([0]), 0)
    with pytest.raises(ValueError):
        hom.is_partially_n_homogeneous(validate([0]), 0)


# ---------------------------------------------------------------------------
# loop-free partial algebras

def test_pseudoforest_patterns():
    assert hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 0, 3, 2)))
    assert hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 2, 0, 4, 5, 3)))
    assert hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 2, 3, 0)))
    assert hom.pseudoforest_ultrahomogeneous(PartialMonounary((None, None)))
    assert not hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 2, 3, 4, 0)))
    assert not hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 0, None)))
    # two 4-cycles, or mixed 2- and 3-cycles, fail
    assert not hom.pseudoforest_ultrahomogeneous(
        PartialMonounary((1, 2, 3, 0, 5, 6, 7, 4))
    )
    assert not hom.pseudoforest_ultrahomogeneous(PartialMonounary((1, 0, 3, 4, 2)))


def test_pseudoforest_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        hom.pseudoforest_ultrahomogeneous(PartialMonounary((0, None)))


def test_pseudoforest_matches_digraph_oracle_small():
    from oracles import digraph_uh

    for n in range(1, 5):
        for tab in product(*[[None] + [v for v in range(n) if v != x] for x in range(n)]):
            P = PartialMonounary(tab)
            assert hom.pseudoforest_ultrahomogeneous(P) == digraph_uh(tab), tab


# ---------------------------------------------------------------------------
# several operations over one domain

def test_multiunary_joint_check():
    t1 = [2, 2, 1]
    t2 = [1, 0, 0]
    joint = hom.multiunary_brute_check([t1, t2])
    assert joint == {"is_1_ultrahomogeneous": True, "is_ultrahomogeneous": True}
    # each operation alone is a 2-cycle with a tail: not even 1-UH
    assert hom.multiunary_brute_check([t1])["is_1_ultrahomogeneous"] is False
    assert hom.multiunary_brute_check([t2])["is_1_ultrahomogeneous"] is False


def test_multiunary_validates_input():
    with pytest.raises(ValueError):
        hom.multiunary_brute_check([])
    with pytest.raises(ValueError):
        hom.multiunary_brute_check([[0, 0], [0]])
    with pytest.raises(ValueError, match="bound"):
        hom.multiunary_brute_check([[0] * 9])


def test_multiunary_agrees_with_single_operation_oracle(corpus):
    for A in corpus[4][:10]:
        got = hom.multiunary_brute_check([A.table])
        assert got["is_ultrahomogeneous"] == hom.is_ultrahomogeneous_oracle(A)
        assert got["is_1_ultrahomogeneous"] == hom.is_1_ultrahomogeneous_oracle(A)


# ---------------------------------------------------------------------------
# the oracles' shortcuts against their literal versions

def test_subalgebras_are_the_unions_of_the_one_generated(corpus):
    for reps in corpus.values():
        for A in reps:
            generated = hom._generated([A.table])
            assert generated == one_generated([A.table])
            assert hom._subalgebras(generated) == subalgebras([A.table])


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, n - 1)] * n), min_size=2, max_size=2)
    )
)
@settings(max_examples=60, deadline=None)
def test_subalgebras_of_two_tables_are_the_unions_of_the_one_generated(tabs):
    generated = hom._generated(tabs)
    assert generated == one_generated(tabs)
    assert hom._subalgebras(generated) == subalgebras(tabs)


def test_each_unordered_pair_of_sets_is_read_once(corpus):
    """_all_extend, which reads each unordered pair of sets once, against
    every ordered pair, on the four families of every class with up to 6
    points (the k-element ones up to k = 3 at 6 points, where the larger
    k hold most of the literal version's time): with the whole group, and
    with the identity alone, which a nontrivial automorphism of the whole
    domain fails."""
    for reps in corpus.values():
        for A in reps:
            tables, points = [A.table], range(A.n)
            auts, identity = brute_force_automorphisms(A), [tuple(points)]
            subs = subalgebras(tables)
            families = [subs, one_generated(tables)]
            for k in range(1, (A.n if A.n < 6 else 3) + 1):
                families += [[S for S in subs if len(S) == k], list(combinations(points, k))]
            for sets in families:
                for group in (auts, identity):
                    assert hom._all_extend(tables, group, sets) == all_extend(tables, group, sets), (A.table, sets)
            assert len(auts) == 1 or not hom._all_extend(tables, identity, subs)
