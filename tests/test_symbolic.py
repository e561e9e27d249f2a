"""Symbolic shape calculus: syntax, normalization, deciders, limits,
instantiation and decomposition."""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import core, homogeneity, orbits, symbolic as sym
from monoalg.core import FiniteMonounary
from monoalg.symbolic import (
    Bee,
    Cardinal,
    CycleFamily,
    NSUCC,
    NSucc,
    NotUltrahomogeneous,
    OMEGA,
    ONE,
    Profile,
    card,
    decompose,
    fraisse_limit,
    instantiate,
    o1,
    parse,
    show,
    truncate,
)
from oracles import tables


# ---------------------------------------------------------------------------
# cardinals

def test_cardinal_arithmetic_saturates():
    two, three = Cardinal(2), Cardinal(3)
    assert (two + three).value == 5
    assert (two * three).value == 6
    assert (OMEGA + two) == OMEGA
    assert (two * OMEGA) == OMEGA
    assert (OMEGA * Cardinal(0)).value == 0
    assert (Cardinal(0) * OMEGA).value == 0
    assert two < OMEGA and two < three and OMEGA <= OMEGA
    assert str(OMEGA) == "w" and str(two) == "2"


def test_card_coercion():
    assert card("w") == OMEGA
    assert card("5") == Cardinal(5)
    assert card(5) == Cardinal(5)
    assert card(OMEGA) == OMEGA
    with pytest.raises(ValueError):
        Cardinal(-1)


def test_records_keep_their_value_semantics():
    shape = parse("2*A[3;w,2] + B[w] + N")
    family = fraisse_limit(2).families[0]
    for r in (Cardinal(3), OMEGA, Profile(3, (OMEGA, 2)), Bee(OMEGA), NSUCC, shape, family, fraisse_limit(2)):
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert twin == r and hash(twin) == hash(r) and type(twin) is type(r)
    # equal within one type only, hashed by their fields
    assert Cardinal(3) != (3,) and (3,) != Cardinal(3) and Cardinal(3) != 3
    assert Profile(1) != Bee(1) and Bee(1) != Profile(1)
    assert hash(Cardinal(3)) == hash((3,)) and hash(NSUCC) == hash(())
    assert hash(Profile(3, (2,))) == hash((3, (Cardinal(2),), None))
    assert repr(Profile(3, (OMEGA,), 2)) == (
        "Profile(cycle=3, prefix=(Cardinal(value=None),), tail=Cardinal(value=2))"
    )
    assert repr(Bee(1)) == "Bee(alpha=Cardinal(value=1))" and repr(NSUCC) == "NSucc()"
    assert repr(parse("Z2")) == (
        "SymbolicAlgebra(components=((Cardinal(value=1), Profile(cycle=2, prefix=(), tail=None)),), families=())"
    )
    assert repr(family) == (
        "CycleFamily(multiplicity=Cardinal(value=None), prefix=(Cardinal(value=1),), tail=Cardinal(value=2))"
    )
    named = ((Cardinal(3), "value"), (Profile(2), "cycle"), (Bee(1), "alpha"), (shape, "families"), (NSUCC, "x"))
    for r, name in named:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    # a Cardinal is no sequence to repeat, and orders by value with w on top
    with pytest.raises(TypeError):
        2 * Cardinal(3)
    assert Cardinal(3) > Cardinal(2) and OMEGA >= Cardinal(3) and not Cardinal(2) > OMEGA
    with pytest.raises(TypeError):
        Cardinal(2) < 3
    # a record takes exactly its fields
    for values in ((1,), (1, 2)):
        with pytest.raises(TypeError, match=f"NSucc takes 0 values, got {len(values)}"):
            NSucc(*values)


def _card_key(c):
    """The order of cardinals as a key: numbers ascending, w on top."""
    return (1, 0) if c.is_omega else (0, c.value)


@given(st.lists(st.none() | st.integers(0, 20)))
@settings(max_examples=100, deadline=None)
def test_cardinals_order_as_numbers_below_w(values):
    cards = list(map(Cardinal, values))
    assert sorted(cards) == sorted(cards, key=_card_key)


@given(st.none() | st.integers(0, 20), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_substitute_replaces_w_alone(value, w):
    assert Cardinal(value).substitute(w) == (w if value is None else value)


# ---------------------------------------------------------------------------
# descriptors and normalization

def test_profile_normalizes_tail_overlap():
    p = Profile(1, (Cardinal(1),), Cardinal(1))
    assert p.prefix == ()
    assert p.tail == ONE
    assert p.height is None
    q = Profile(3, ("w", 2))
    assert q.height == 2
    assert q.levels(4) == (OMEGA, Cardinal(2))
    assert p.levels(3) == (ONE, ONE, ONE)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Profile(0)
    with pytest.raises(ValueError):
        Profile(1, (0,))
    with pytest.raises(ValueError):
        Bee(0)
    with pytest.raises(ValueError):
        sym.symbolic([(0, Profile(2))])
    with pytest.raises(ValueError):
        sym.symbolic([])


def test_symbolic_merges_and_sorts():
    assert show(parse("Z2 + Z2")) == "2*Z2"
    assert show(parse("Z3 + Z2")) == "Z2 + Z3"
    assert show(parse("A[1;1;1]")) == "A[1;;1]"
    assert show(parse("w*Z2 + Z2")) == "w*Z2"
    assert parse("Z2+Z3") == parse("Z3 + Z2")
    assert Profile(2) == Profile(2, ())
    assert Profile(2) != Profile(3)


@pytest.mark.parametrize(
    "text",
    [
        "Z2 + Z3",
        "A[1;w,2]",
        "w*A[1;w] + Z2",
        "B[w]",
        "N",
        "A[1;2] + Z2 + 2*A[3;1,2]",
        "A[1;;1]",
        "A[2;1;3]",
        "3*B[2]",
        "Z1 + B[w] + N",
    ],
)
def test_parse_show_round_trip(text):
    S = parse(text)
    assert show(S) == text
    assert parse(show(S)) == S


def test_parse_rejects_garbage():
    for bad in [
        "", "Z", "A[;1]", "Z2 +", "Q7", "A[2;1", "2*", "w",
        "A[1;,1]", "A[1;1,]", "A[5;;]", "A[2;1;]", "Z1 2", "2*3*Z2", "Z3+", "+Z3",
        "B[]", "A[1;1;1;1]", "N[1]", "A[1;x]",
    ]:
        with pytest.raises(ValueError):
            parse(bad)


def test_syntax_errors_name_the_failing_term():
    with pytest.raises(ValueError, match=r"^not a shape term: 'A\[2;1'$"):
        parse("Z2 + A[2;1")


@pytest.mark.parametrize(
    "text, shown",
    [
        ("A [ 3 ; w , 2 ]", "A[3;w,2]"),
        ("A[5;]", "Z5"),
        ("A[1; ;1]", "A[1;;1]"),
        ("A[1;\t1]\n+\tZ2", "A[1;1] + Z2"),
    ],
)
def test_parse_accepts_edge_forms(text, shown):
    assert show(parse(text)) == shown


_cards = st.sampled_from(["w", 1, 2, 3, 12])
_descriptors = st.one_of(
    st.just(NSUCC),
    st.builds(Bee, _cards),
    st.builds(Profile, st.integers(1, 12), st.lists(_cards, max_size=4), st.none() | _cards),
)


def _descriptor_key(d):
    """symbolic()'s order of descriptors: profiles by cycle, tail-free
    first, then by prefix and tail; then B[a] by a; then N."""
    if isinstance(d, Profile):
        tail = (0, 0) if d.tail is None else _card_key(d.tail)
        return (0, d.cycle, d.tail is not None, tuple(map(_card_key, d.prefix)), tail)
    if isinstance(d, Bee):
        return (1, _card_key(d.alpha))
    return (2,)


@given(st.lists(st.tuples(_cards, _descriptors), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_symbolic_sorts_descriptors_by_their_order(comps):
    descs = [d for _, d in sym.symbolic(comps).components]
    assert descs == sorted(descs, key=_descriptor_key)


@given(st.lists(st.tuples(_cards, _descriptors), min_size=1, max_size=4).map(sym.symbolic), st.data())
@settings(max_examples=200, deadline=None)
def test_parse_reads_show_with_any_whitespace_between_tokens(S, data):
    """Whitespace may stand between any two tokens, a number being one."""
    tokens = re.findall(r"\d+|\S", show(S))
    gaps = st.sampled_from(["", " ", "\t", "\n", "  \t"])
    text = "".join(data.draw(gaps) + tok for tok in tokens) + data.draw(gaps)
    assert parse(text) == S


# ---------------------------------------------------------------------------
# deciders

def test_local_finiteness():
    assert sym.is_locally_finite(parse("Z2 + A[1;;1]"))
    assert not sym.is_locally_finite(parse("B[w]"))
    assert not sym.is_locally_finite(parse("N + Z2"))
    assert sym.is_ulf(parse("Z2 + A[3;w,2]"))
    assert not sym.is_ulf(parse("A[1;;1]"))
    assert not sym.is_ulf(fraisse_limit())


def test_orbit_count_and_categoricity():
    assert o1(parse("A[3;w,2]")) == Cardinal(3)
    assert o1(parse("Z2 + Z3")) == Cardinal(2)
    assert o1(parse("w*A[1;w] + Z2")) == Cardinal(3)
    assert o1(parse("B[w]")) == ONE
    assert o1(parse("N")) == OMEGA
    assert o1(parse("A[1;2;2]")) == OMEGA
    assert o1(fraisse_limit()) == OMEGA
    assert sym.is_omega_categorical(parse("A[2;w,3]"))
    assert sym.is_omega_categorical(parse("w*A[1;w] + Z2"))
    assert not sym.is_omega_categorical(parse("B[w]"))
    assert not sym.is_omega_categorical(parse("N"))
    assert not sym.is_omega_categorical(parse("A[1;2;2]"))
    assert not sym.is_omega_categorical(fraisse_limit())


def test_symbolic_ultrahomogeneity():
    assert sym.is_ultrahomogeneous(parse("Z2 + Z3"))
    assert sym.is_ultrahomogeneous(parse("2*Z2"))
    assert sym.is_ultrahomogeneous(parse("B[w] + Z2"))
    assert sym.is_ultrahomogeneous(parse("w*A[1;w]"))
    assert not sym.is_ultrahomogeneous(parse("Z2 + A[2;1]"))
    assert not sym.is_ultrahomogeneous(parse("B[w] + B[2]"))
    assert not sym.is_ultrahomogeneous(parse("N"))
    # acyclic components do not constrain plain homogeneity
    assert sym.is_homogeneous(parse("N + Z2"))
    assert sym.is_homogeneous(parse("B[w] + B[2]"))
    assert not sym.is_homogeneous(parse("N + Z2 + A[2;1]"))


def test_symbolic_transitivity():
    assert sym.is_transitive(parse("Z5"))
    assert sym.is_transitive(parse("w*Z2"))
    assert sym.is_transitive(parse("B[w]"))
    assert not sym.is_transitive(parse("N"))
    assert not sym.is_transitive(parse("Z1 + Z2"))
    assert not sym.is_transitive(parse("A[1;1]"))
    assert not sym.is_transitive(fraisse_limit())


def test_symbolic_partial_homogeneity():
    assert sym.is_partially_homogeneous(parse("Z1 + Z2"))
    assert sym.is_partially_homogeneous(parse("w*Z2"))
    assert sym.is_partially_homogeneous(parse("Z1 + Z3"))
    assert sym.is_partially_homogeneous(parse("w*Z1 + Z4"))
    assert sym.is_partially_homogeneous(parse("Z4"))
    assert sym.is_partially_homogeneous(parse("w*A[1;1]"))
    assert sym.is_partially_homogeneous(parse("A[1;w]"))
    assert not sym.is_partially_homogeneous(parse("2*Z4"))
    assert not sym.is_partially_homogeneous(parse("2*A[1;w]"))
    assert not sym.is_partially_homogeneous(parse("Z2 + Z3"))
    assert not sym.is_partially_homogeneous(parse("B[w]"))
    assert not sym.is_partially_homogeneous(fraisse_limit())


# ---------------------------------------------------------------------------
# limits

def test_limit_families_render():
    assert str(fraisse_limit()) == "sum_(n>=1) w*A[n;;w]"
    assert str(fraisse_limit(1)) == "sum_(n>=1) w*A[n]"
    assert str(fraisse_limit(2)) == "sum_(n>=1) w*A[n;1;2]"
    assert str(fraisse_limit(3)) == "sum_(n>=1) w*A[n;2;3]"
    with pytest.raises(ValueError):
        fraisse_limit(0)


def test_limits_are_ultrahomogeneous_but_not_categorical():
    for k in [None, 1, 2, 3]:
        F = fraisse_limit(k)
        assert sym.is_ultrahomogeneous(F)
        assert not sym.is_omega_categorical(F)


def test_family_membership_constrains_concrete_components():
    F2 = fraisse_limit(2)
    ok = sym.SymbolicAlgebra(((ONE, F2.families[0].member(2)),), F2.families)
    assert sym.is_ultrahomogeneous(ok)
    clash = sym.SymbolicAlgebra(((ONE, Profile(2)),), F2.families)
    assert not sym.is_ultrahomogeneous(clash)
    bare = fraisse_limit(1)
    with_z2 = sym.SymbolicAlgebra(((ONE, Profile(2)),), bare.families)
    assert sym.is_ultrahomogeneous(with_z2)
    # two families of different shapes
    mixed = sym.SymbolicAlgebra((), F2.families + fraisse_limit(3).families)
    assert not sym.is_ultrahomogeneous(mixed) and not sym.is_homogeneous(mixed)


# ---------------------------------------------------------------------------
# instantiation, truncation, decomposition

def test_instantiate_examples():
    assert instantiate(parse("2*Z3"), 1).table == (1, 2, 0, 4, 5, 3)
    A = instantiate(parse("A[1;w,2]"), 3)
    assert A.table == (0, 0, 0, 0, 1, 1, 2, 2, 3, 3)
    assert homogeneity.is_ultrahomogeneous(A)


def test_instantiate_refuses_infinite_shapes():
    with pytest.raises(ValueError):
        instantiate(parse("B[w]"), 2)
    with pytest.raises(ValueError):
        instantiate(parse("N"), 2)
    with pytest.raises(ValueError):
        instantiate(parse("A[1;;1]"), 2)
    with pytest.raises(ValueError):
        instantiate(fraisse_limit(), 2)
    with pytest.raises(ValueError):
        instantiate(parse("Z2"), 0)


def test_truncate():
    assert show(truncate(parse("A[1;;2]"), 3)) == "A[1;2,2,2]"
    assert show(truncate(parse("Z2 + A[1;1;1]"), 2)) == "A[1;1,1] + Z2"
    assert show(truncate(parse("A[1;w]"), 0)) == "Z1"
    assert show(truncate(fraisse_limit(2), 3, max_cycle=2)) == "w*A[1;1,2,2] + w*A[2;1,2,2]"
    with pytest.raises(ValueError, match="max_cycle"):
        truncate(fraisse_limit(), 2)
    for S, max_cycle in ((fraisse_limit(2), 0), (parse("A[1;w]"), -1)):  # with and without a family
        with pytest.raises(ValueError, match=f"^max_cycle must be at least 1, got {max_cycle}$"):
            truncate(S, 2, max_cycle=max_cycle)
    with pytest.raises(ValueError):
        truncate(parse("N"), 2)
    with pytest.raises(ValueError):
        truncate(parse("Z2"), -1)


def test_decompose_examples():
    assert show(decompose(instantiate(parse("Z2 + Z3"), 1))) == "Z2 + Z3"
    S = parse("2*A[3;1,2] + A[1;2] + Z2")
    assert decompose(instantiate(S, 1)) == S


def test_decompose_rejects_non_uniform_levels():
    from monoalg.core import validate

    with pytest.raises(NotUltrahomogeneous, match=re.escape("level 1 has non-uniform preimage counts [0, 1]")):
        decompose(validate([0, 0, 0, 1]))
    with pytest.raises(NotUltrahomogeneous, match="cycle size 1"):
        decompose(validate([0, 0, 2]))


def test_decompose_refuses_a_non_uniform_cycle_before_filling_heights():
    A = core.random_algebra(10_000, 1)  # its first cycle has 0 to 3 acyclic preimages a point
    core.skeleton.cache_clear()
    with pytest.raises(NotUltrahomogeneous, match=re.escape("level 0 has non-uniform preimage counts [0, 1, 2, 3]")):
        decompose(A)
    assert not {"height", "comp"} & vars(core.skeleton(A.table)).keys()


def _first_non_uniform_cycle(tab):
    """From the definitions: the numbers of acyclic preimages on the
    first cycle, by least point, whose points do not all have as many;
    None when there is no such cycle."""
    n = len(tab)

    def orbit(x):  # f(x), f(f(x)), ... n times
        out = []
        for _ in range(n):
            x = tab[x]
            out.append(x)
        return out

    cyclic = {x for x in range(n) if x in orbit(x)}
    for x in sorted(cyclic):
        cycle = set(orbit(x))
        if x == min(cycle):
            counts = {sum(tab[y] == z and y not in cyclic for y in range(n)) for z in cycle}
            if len(counts) > 1:
                return counts
    return None


@given(tables(max_n=8))
@settings(max_examples=80, deadline=None)
def test_decompose_refuses_exactly_the_oracles_non_uh_tables(tab):
    """decompose raises exactly when the definition-level oracle says not
    UH, and names level 0 exactly when some cycle is not uniform, with
    the counts of the first such cycle."""
    A = FiniteMonounary(tab)
    uh = homogeneity.is_ultrahomogeneous_oracle(A)
    counts = _first_non_uniform_cycle(tab)
    try:
        decompose(A)
    except NotUltrahomogeneous as exc:
        assert not uh
        assert ("level 0 " in str(exc)) == (counts is not None), str(exc)
        if counts is not None:
            assert str(exc) == f"not ultrahomogeneous: level 0 has non-uniform preimage counts {sorted(counts)}"
    else:
        assert uh and counts is None


@given(
    st.lists(
        st.tuples(st.integers(1, 2), st.integers(1, 5), st.lists(st.integers(1, 2), max_size=2)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[1],
    )
)
@settings(max_examples=60, deadline=None)
def test_decompose_inverts_instantiate_on_uh_shapes(entries):
    S = sym.symbolic([(m, Profile(c, tuple(pre))) for m, c, pre in entries])
    assert sym.is_ultrahomogeneous(S)
    A = instantiate(S, 1)
    assert decompose(A) == S
    assert homogeneity.is_ultrahomogeneous(A)


def test_symbolic_deciders_match_finite_deciders():
    cases = ["Z1 + Z2", "w*Z2", "Z4", "2*Z4", "A[1;w]", "2*A[1;w]",
             "w*A[1;1]", "Z2 + Z3", "Z2 + A[2;1]", "Z5"]
    # w is instantiated at 2 or 3: substituting 1 can slide a shape into a
    # different pattern family (w branching collapsing to a single leaf)
    for text in cases:
        S = parse(text)
        for m in (2, 3):
            A = instantiate(S, m)
            assert sym.is_ultrahomogeneous(S) == homogeneity.is_ultrahomogeneous(A), (text, m)
            assert sym.is_partially_homogeneous(S) == homogeneity.is_partially_homogeneous(A), (text, m)
            assert sym.is_transitive(S) == (len(orbits.one_orbits(A)) == 1), (text, m)
