"""Value semantics, structure reports, substructures and serialization
round trips."""

import copy
import enum
import pickle
from itertools import pairwise, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import core
from monoalg.core import (
    FiniteMonounary,
    PartialMonounary,
    Skeleton,
    validate,
)
from oracles import symmetric_tables, tables


def _minimal_sets(mg):
    """Every minimal generating set: the leaves and one pick per choice block."""
    return [mg.leaves | frozenset(picks) for picks in product(*map(sorted, mg.cycle_choices))]


# ---------------------------------------------------------------------------
# constructors

def test_validate_rejects_bad_tables():
    with pytest.raises(ValueError):
        validate([])
    with pytest.raises(ValueError):
        validate([0, 3, 1])
    with pytest.raises(ValueError):
        validate([-1])
    with pytest.raises(ValueError):
        validate([True, 0])


def test_partial_allows_none_only():
    p = PartialMonounary((None, 0, None))
    assert p.domain() == (1,)
    with pytest.raises(ValueError):
        PartialMonounary((None, 3, 0))


def test_validation_errors_are_unchanged():
    for cls, raw, message in [
        (FiniteMonounary, (), "empty table"),
        (PartialMonounary, (), "empty table"),
        (FiniteMonounary, (True, 0), "entry 0 out of range: True"),
        (PartialMonounary, (None, False), "entry 1 out of range: False"),
        (FiniteMonounary, (0, 3, 1), "entry 1 out of range: 3"),
        (PartialMonounary, (None, 2), "entry 1 out of range: 2"),
        (FiniteMonounary, (0, None), "entry 1 out of range: None"),
    ]:
        with pytest.raises(ValueError) as info:
            cls(raw)
        assert str(info.value) == message
    # 10^4 entries: a bad one late in the table fails the C-level check
    # and the loop names it; valid entries that are not plain ints in
    # range pass through the same loop
    n = 10_000
    good = list(range(1, n)) + [0]
    for i, bad in [(n - 3, True), (n - 2, None), (n - 5, -1), (n - 7, n)]:
        raw = tuple(good[:i] + [bad] + good[i + 1:])
        for cls in (FiniteMonounary, PartialMonounary):
            if cls is PartialMonounary and bad is None:
                assert cls(raw).table[i] is None
                continue
            with pytest.raises(ValueError) as info:
                cls(raw)
            assert str(info.value) == f"entry {i} out of range: {bad!r}"

    class Point(enum.IntEnum):
        ZERO = 0
        ONE = 1

    enum_table = tuple(Point.ONE if i % 2 else Point.ZERO for i in range(n))
    for cls in (FiniteMonounary, PartialMonounary):
        assert cls(enum_table).table == enum_table
    undefined = tuple(None if i % 3 else 0 for i in range(n))
    assert PartialMonounary(undefined).domain() == tuple(range(0, n, 3))


def test_value_semantics():
    A, P = FiniteMonounary((0,)), PartialMonounary((0,))
    assert A != P and P != A
    assert FiniteMonounary((1, 0)) == validate([1, 0])
    assert hash(FiniteMonounary((1, 0))) == hash(validate([1, 0]))
    assert hash(PartialMonounary((None, 0))) == hash(PartialMonounary((None, 0)))
    assert len({A, FiniteMonounary((0,)), P}) == 2
    for target in (A, P):
        with pytest.raises(AttributeError):
            target.table = (0,)
        with pytest.raises(AttributeError):
            target.other = 1
        with pytest.raises(AttributeError):
            del target.table
    assert A.table == (0,)
    assert repr(A) == "FiniteMonounary(table=(0,))"
    assert repr(P) == "PartialMonounary(table=(0,))"
    assert pickle.loads(pickle.dumps(P)) == P and copy.copy(A) == A
    assert hash(A) == hash(((0,),))  # the field tuple's hash, as a frozen dataclass's


def test_records_take_exactly_their_fields():
    class Pair(core._Record):
        __slots__ = _fields = ("left", "right")

    assert Pair(1, 2) == Pair(1, 2) != Pair(2, 1) and hash(Pair(1, 2)) == hash((1, 2))
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"Pair takes 2 values, got {len(values)}"):
            Pair(*values)


def test_random_algebra_is_seed_deterministic():
    a = core.random_algebra(6, 123)
    b = core.random_algebra(6, 123)
    c = core.random_algebra(6, 124)
    assert a == b
    assert a.n == 6
    assert isinstance(c, FiniteMonounary)
    assert core.random_algebra(1, 0).table == (0,)
    with pytest.raises(ValueError):
        core.random_algebra(0, 1)


def test_call_and_n():
    A = validate([1, 2, 0])
    assert A.n == 3
    assert [A(x) for x in range(3)] == [1, 2, 0]


# ---------------------------------------------------------------------------
# structure of a hand-worked example: loop at 0, leaves 2 and 3,
# with 3 sitting one level higher (3 -> 1 -> 0).

def test_structure_report_tree_over_loop():
    A = validate([0, 0, 0, 1])
    rep = core.structure_report(A)
    assert rep.components == ((0, 1, 2, 3),)
    assert rep.cyclic == frozenset({0})
    assert rep.heights == (0, 1, 1, 2)
    assert rep.height == 2
    assert rep.leaves == frozenset({2, 3})
    assert rep.cycle_sizes == (1,)
    assert rep.min_generating.leaves == frozenset({2, 3})
    assert rep.min_generating.cycle_choices == ()
    assert _minimal_sets(rep.min_generating) == [frozenset({2, 3})]


def test_structure_report_pure_cycle():
    Z3 = validate([1, 2, 0])
    rep = core.structure_report(Z3)
    assert rep.components == ((0, 1, 2),)
    assert rep.cyclic == frozenset({0, 1, 2})
    assert rep.height == 0
    assert rep.leaves == frozenset()
    assert rep.min_generating.cycle_choices == (frozenset({0, 1, 2}),)
    assert sorted(_minimal_sets(rep.min_generating)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]


def test_two_components():
    A = validate([1, 0, 3, 2, 2])
    rep = core.structure_report(A)
    assert rep.components == ((0, 1), (2, 3, 4))
    assert rep.cycle_sizes == (2, 2)
    # the 2-cycle {0,1} has no leaf, so it contributes a choice block
    assert rep.min_generating.leaves == frozenset({4})
    assert rep.min_generating.cycle_choices == (frozenset({0, 1}),)


def test_cycles_listed_in_operation_order():
    A = validate([2, 0, 1])
    assert list(map(list, Skeleton(A.table).cycles())) == [[0, 2, 1]]


# ---------------------------------------------------------------------------
# substructures

def test_generated_closure():
    A = validate([0, 0, 0, 1])
    assert core.generated(A, [3]) == frozenset({0, 1, 3})
    assert core.generated(A, [2]) == frozenset({0, 2})
    assert core.generated(A, []) == frozenset()
    with pytest.raises(ValueError):
        core.generated(A, [4])


def test_subalgebra_reindexes_closed_sets():
    A = validate([0, 0, 0, 1])
    S, elems = core.subalgebra(A, [0, 1, 3])
    assert elems == (0, 1, 3)
    assert S.table == (0, 0, 1)
    with pytest.raises(ValueError):
        core.subalgebra(A, [3])


def test_tree_above_a_point():
    sk = Skeleton((0, 0, 0, 1))
    assert sk.tree_above(1) == [1, 3]
    # the loop at the root: every acyclic point reaches 0
    assert sk.tree_above(0) == [0, 1, 2, 3]
    # a cycle point's own cycle predecessors are not above it
    assert Skeleton((1, 2, 0)).tree_above(1) == [1]


@given(tables())
@settings(max_examples=100, deadline=None)
def test_structural_invariants(tab):
    A = FiniteMonounary(tab)
    rep = core.structure_report(A)
    covered = sorted(x for c in rep.components for x in c)
    assert covered == list(range(A.n))
    for x in range(A.n):
        if x in rep.cyclic:
            assert rep.heights[x] == 0
        else:
            assert rep.heights[x] == rep.heights[A(x)] + 1
    assert rep.leaves == frozenset(range(A.n)) - set(A.table)
    for gens in _minimal_sets(rep.min_generating):
        assert core.generated(A, gens) == frozenset(range(A.n))
        for g in gens:
            assert core.generated(A, gens - {g}) != frozenset(range(A.n))


@given(tables(max_n=9) | symmetric_tables(8, 60), st.booleans())
@settings(max_examples=150, deadline=None)
def test_skeleton_height_and_comp_follow_the_definition(tab, height_first):
    """Walk f from x until it reaches a cycle: the steps are the height,
    and the cycle reached, as an index into sk.cycles, is comp; the same
    whichever of the two is read first.  No level is empty, degree
    counts preimages, cyclic marks the cycle points, and table is the
    input's entries whatever sequence type it came as."""
    n = len(tab)
    on_cycle = set()
    for x in range(n):  # n steps from any point land on its cycle
        for _ in range(n):
            x = tab[x]
        on_cycle.add(x)
    sk = Skeleton(tab)
    index = {c: i for i, cycle in enumerate(sk.cycles()) for c in cycle}
    if height_first:
        height, comp = sk.height, sk.comp
    else:
        comp, height = sk.comp, sk.height
    assert sorted(index) == sorted(on_cycle)
    assert all(a < b for a, b in pairwise(sk.level_starts))
    for x in range(n):
        k, y = 0, x
        while y not in on_cycle:
            k, y = k + 1, tab[y]
        assert (height[x], comp[x]) == (k, index[y])
    assert list(sk.degree) == [tab.count(x) for x in range(n)]
    assert list(sk.cyclic) == [x in on_cycle for x in range(n)]
    for raw in (tab, list(tab), range(n)):
        assert list(Skeleton(raw).table) == list(raw)


@given(tables(max_n=9) | symmetric_tables(8, 60))
@settings(max_examples=150, deadline=None)
def test_skeleton_ranks_and_cycles_follow_the_definition(tab):
    """ranked holds every point once, rank by rank, and level_starts
    splits it into the ranks: a leaf has rank 0, any other point one more
    than its highest-ranked acyclic preimage, and within a rank the
    acyclic points come first.  Each cycle runs in operation order from
    its least point, and the cycles are sorted by it."""
    n = len(tab)
    sk = Skeleton(tab)
    rank = [0] * n
    for _ in range(n):  # a rank is at most n - 1, so n rounds reach the fixed point
        for x in range(n):
            if not sk.cyclic[x]:
                rank[tab[x]] = max(rank[tab[x]], rank[x] + 1)
    assert sorted(sk.ranked) == list(range(n))
    assert sk.level_starts[0] == 0 and sk.level_starts[-1] == n
    for r, (a, b) in enumerate(pairwise(sk.level_starts)):
        level = sk.ranked[a:b]
        assert {rank[x] for x in level} == {r}
        marks = [sk.cyclic[x] for x in level]
        assert marks == sorted(marks)
    cycles = [list(c) for c in sk.cycles()]
    assert sorted(sk.cycle_points) == [x for x in range(n) if sk.cyclic[x]]
    assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
    for c in cycles:
        assert [tab[x] for x in c] == c[1:] + c[:1]
    assert list(sk.cycle_lengths()) == list(map(len, cycles))


@given(tables() | symmetric_tables(8, 60))
@settings(max_examples=80, deadline=None)
def test_component_blocks_are_closed(tab):
    """Each component block is closed under f; two points share a block
    iff f^n sends them onto the same cycle; and the cycle choices of the
    minimal generating sets are exactly the blocks inside the cyclic
    points."""
    n = len(tab)
    A = FiniteMonounary(tab)
    rep = core.structure_report(A)
    for block in rep.components:
        inset = set(block)
        assert all(A(x) in inset for x in block)
    cycle_of = []
    for x in range(n):
        for _ in range(n):  # n steps from any point land on its cycle
            x = tab[x]
        cycle = {x}
        while tab[x] not in cycle:
            x = tab[x]
            cycle.add(x)
        cycle_of.append(frozenset(cycle))
    block_of = {x: b for b in rep.components for x in b}
    for x in range(n):
        for y in range(n):
            assert (block_of[x] == block_of[y]) == (cycle_of[x] == cycle_of[y])
    inside = [frozenset(b) for b in rep.components if rep.cyclic.issuperset(b)]
    assert list(rep.min_generating.cycle_choices) == inside


# ---------------------------------------------------------------------------
# io

@given(tables())
@settings(max_examples=50, deadline=None)
def test_json_and_text_round_trip(tab):
    A = FiniteMonounary(tab)
    assert core.from_json(core.to_json(A)) == A
    assert core.from_text(core.to_text(A)) == A


def test_partial_round_trip():
    P = PartialMonounary((None, 0, 1))
    assert core.from_json(core.to_json(P)) == P
    assert core.to_text(P) == "f: - 0 1"
    assert core.from_text("f: - 0 1") == P
    for text in ("f:", "  f:  ", ""):
        with pytest.raises(ValueError, match="^empty table$"):
            core.from_text(text)


def test_from_json_validates_shape():
    with pytest.raises(ValueError):
        core.from_json('{"n": 3, "f": [0, 0]}')
    with pytest.raises(ValueError):
        core.from_json("[0, 1]")


def test_relational_form_and_dot():
    A = validate([1, 1])
    assert core.relational_form(A) == ((0, 1), (1, 1))
    dot = core.to_dot(A)
    assert dot.startswith("digraph")
    assert "0 -> 1;" in dot and "1 -> 1;" in dot
    P = PartialMonounary((None, 0))
    assert core.relational_form(P) == ((1, 0),)
