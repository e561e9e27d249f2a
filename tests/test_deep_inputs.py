"""Inputs far deeper or wider than the corpus: long paths, a broom with a
long handle, many copies of one component.  No answer may depend on the
recursion limit."""

import random
import time

import pytest

from monoalg import core, homogeneity, iso, orbits, semilinear, symbolic
from monoalg.core import FiniteMonounary
from monoalg.symbolic import Profile


def _relabel(table, seed):
    """The same algebra under a seeded permutation p: g(p(x)) = p(f(x))."""
    p = list(range(len(table)))
    random.Random(seed).shuffle(p)
    g = [0] * len(table)
    for x, v in enumerate(table):
        g[p[x]] = p[v]
    return tuple(g)


def _leaf_to_loop(table):
    """Not isomorphic: one more component, rooted at a former leaf."""
    leaf = min(set(range(len(table))) - set(table))
    return table[:leaf] + (leaf,) + table[leaf + 1:]


def _path(n):
    return (0,) + tuple(range(n - 1))


def _copies(k, seed):
    """k copies of one random 100-point component, interleaved."""
    rng = random.Random(seed)
    comp = [0] + [rng.randrange(i) for i in range(1, 100)]
    return tuple(x * k + c for x in comp for c in range(k))


BROOM = symbolic.symbolic([(1, Profile(1, (1,) * 1999 + (8000,)))])
DEEP = {
    "path-10k": _path(10_000),
    "broom": symbolic.instantiate(BROOM, 1).table,
    "200-copies": _copies(200, 5),
}


def _depth(obj):
    return 1 + max(map(_depth, obj), default=0) if isinstance(obj, tuple) else 0


@pytest.mark.parametrize("name", sorted(DEEP))
def test_certificates_decide_isomorphism_on_deep_inputs(name):
    table = DEEP[name]
    A = FiniteMonounary(table)
    copy = FiniteMonounary(_relabel(table, 1))
    other = FiniteMonounary(_relabel(_leaf_to_loop(table), 2))
    assert iso.table_certificate(A.table) == iso.table_certificate(copy.table)
    assert iso.table_certificate(A.table) != iso.table_certificate(other.table)
    assert iso.are_isomorphic(A, copy)
    assert not iso.are_isomorphic(A, other)


def test_labelling_stays_linear_at_a_high_degree_node():
    """One loop under a node with 50 000 leaf children and hairs of
    lengths 1..300: that node takes a new child label on each of 300
    levels, so its key must grow in place, not be copied per label."""
    table = [0, 0] + [1] * 50_000
    for length in range(1, 301):
        table.append(1)
        table += range(len(table) - 1, len(table) + length - 2)
    assert len(table) == 95_152
    table = tuple(table)
    copy = _relabel(table, 8)
    start = time.perf_counter()
    assert iso.table_certificate(table) == iso.table_certificate(copy)
    assert time.perf_counter() - start < 2
    assert iso.are_isomorphic(FiniteMonounary(table), FiniteMonounary(copy))


def test_tree_order_and_tree_above_stay_linear_on_a_long_path():
    A = FiniteMonounary(_path(100_000))
    start = time.perf_counter()
    assert len(semilinear.build_order(A, 0).covers) == 99_999
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    assert len(core.Skeleton(A.table).tree_above(1)) == 99_999
    assert time.perf_counter() - start < 2


def _seconds(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def test_shape_parsing_stays_linear():
    """A 10^5-entry prefix parses, a prefix of 10^5 entries equal to the
    tail is stripped, and shapes of 2*10^5 characters that break off are
    refused, each within 2 s: the term pattern must not backtrack over
    every split of a run of digits, commas or whitespace."""
    long = "A[1;" + ",".join(["2"] * 100_000) + "]"
    assert _seconds(symbolic.parse, long) < 2
    assert symbolic.parse(long) == symbolic.symbolic([(1, Profile(1, (2,) * 100_000))])
    assert _seconds(symbolic.parse, long[:-1] + ";2]") < 2
    assert symbolic.parse(long[:-1] + ";2]") == symbolic.parse("A[1;;2]")

    def refuse(text):
        with pytest.raises(ValueError, match="not a shape term"):
            symbolic.parse(text)

    for bad in ("A[1;" + "1," * 100_000, "A[1;" + " " * 200_000, "A[1;1" + " , 1" * 50_000 + ";"):
        assert len(bad) >= 200_000
        assert _seconds(refuse, bad) < 2


def test_ultrahomogeneity_on_deep_inputs():
    two_paths = symbolic.instantiate(symbolic.symbolic([(2, Profile(1, (1,) * 4999))]), 1)
    assert homogeneity.is_ultrahomogeneous(FiniteMonounary(_relabel(two_paths.table, 3)))
    assert homogeneity.is_ultrahomogeneous(FiniteMonounary(_relabel(DEEP["path-10k"], 3)))
    assert homogeneity.is_ultrahomogeneous(FiniteMonounary(_relabel(DEEP["broom"], 4)))
    one = homogeneity.is_ultrahomogeneous(FiniteMonounary(_copies(1, 5)))
    assert homogeneity.is_ultrahomogeneous(FiniteMonounary(DEEP["200-copies"])) == one
    assert not homogeneity.is_ultrahomogeneous(FiniteMonounary(_leaf_to_loop(DEEP["path-10k"])))


def test_decompose_inverts_instantiate_on_deep_shapes():
    path = symbolic.symbolic([(1, Profile(1, (1,) * 9999))])
    for S in (path, BROOM):
        A = symbolic.instantiate(S, 1)
        assert symbolic.decompose(FiniteMonounary(_relabel(A.table, 6))) == S


def test_long_path_has_only_the_identity():
    A = FiniteMonounary(_relabel(_path(5000), 7))
    assert iso.enumerate_automorphisms(A) == [tuple(range(5000))]
    assert len(orbits.one_orbits(A)) == 5000
    assert iso.extend_to_automorphism(A, {0: 0}) == tuple(range(5000))


def test_certificates_stay_flat():
    assert _depth(iso.table_certificate(DEEP["path-10k"])) <= 3
    assert _depth(iso.table_certificate(DEEP["path-10k"], (9999, 0))) <= 3
