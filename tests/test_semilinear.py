"""Order structure on trees above cyclic elements."""

import pytest
from hypothesis import given, settings

from monoalg import core, semilinear
from monoalg.core import FiniteMonounary, validate
from oracles import tables


def test_build_order_example():
    A = validate([0, 0, 0, 1])
    P = semilinear.build_order(A, 0)
    assert P.elements == (0, 1, 2, 3)
    assert P.bottom == 0
    assert P.covers == frozenset({(1, 0), (2, 0), (3, 1)})
    # 3 >= 1 >= 0 by covers, 1 >= 3 by none
    assert (3, 1) in P.covers and (1, 0) in P.covers
    assert (1, 3) not in P.covers
    assert all((P.bottom, x) not in P.covers for x in P.elements)


def test_build_order_rejects_non_cyclic():
    A = validate([0, 0, 0, 1])
    with pytest.raises(ValueError, match="not cyclic"):
        semilinear.build_order(A, 3)
    with pytest.raises(ValueError):
        semilinear.build_order(A, 9)


def test_trivial_tree_over_proper_cycle():
    z3 = validate([1, 2, 0])
    P = semilinear.build_order(z3, 1)
    assert P.elements == (1,)
    assert P.covers == frozenset()


def test_cover_relation_is_the_operation():
    A = validate([1, 0, 0, 2, 2, 3])
    cyc = core.Skeleton(A.table).cyclic
    for c in range(A.n):
        if not cyc[c]:
            continue
        P = semilinear.build_order(A, c)
        expect = {
            (x, A(x)) for x in P.elements if x != c and A(x) in set(P.elements)
        }
        assert P.covers == frozenset(expect)


def test_aut_equality_examples():
    A = validate([0, 0, 0, 0])
    same, alg, ordr = semilinear.check_aut_equality(A, 0)
    assert same
    assert len(alg) == 6  # free permutation of the three leaves
    assert alg == ordr
    z3 = validate([1, 2, 0])
    same, alg, ordr = semilinear.check_aut_equality(z3, 0)
    assert same and alg == ((0,),)
    with pytest.raises(ValueError, match="bound"):
        semilinear.check_aut_equality(validate([0] * 9), 0)


@given(tables(max_n=6))
@settings(max_examples=60, deadline=None)
def test_covers_generate_the_tree_order(tab):
    A = FiniteMonounary(tab)
    cyc = core.Skeleton(tab).cyclic
    for c in range(A.n):
        if not cyc[c]:
            continue
        P = semilinear.build_order(A, c)
        # the definition: a >= b iff some power of f sends a to b inside
        # the tree, whose powers stop at the first cyclic element, c
        order = set()
        for a in range(A.n):
            down = [a]
            while not cyc[down[-1]]:
                down.append(A(down[-1]))
            if down[-1] == c:
                order.update((a, b) for b in down)
        assert P.elements == tuple(sorted({a for a, _ in order}))
        # the reflexive-transitive closure of the covers, pairs (above, below)
        closure = {(a, a) for a in P.elements}
        while True:
            more = {(a, z) for a, b in closure for y, z in P.covers if y == b} - closure
            if not more:
                break
            closure |= more
        assert closure == order


@given(tables(max_n=6))
@settings(max_examples=40, deadline=None)
def test_order_and_operation_share_automorphisms(tab):
    A = FiniteMonounary(tab)
    cyc = core.Skeleton(tab).cyclic
    for c in range(A.n):
        if cyc[c]:
            same, _, _ = semilinear.check_aut_equality(A, c)
            assert same
