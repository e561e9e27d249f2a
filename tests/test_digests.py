"""Answers pinned by digest: the sha256 of repr() of each answer, as
computed before the skeleton was stored as flat arrays; the 9-point
corpus as computed while enumeration still labelled each class afresh;
the automorphisms, the extensions and the cap's refusal as computed
while automorphism_images and extend_to_automorphism each aligned the
labelled trees their own way; the instances and truncations of a grid
of shapes as computed while instantiate built each level from a list of
the level below, and while the command line counted their sizes with
copies of symbolic's level rules.  A change to how the skeleton, the
labelling, the corpus, the automorphisms or the shapes are built must
leave every one of these byte-identical."""

import hashlib
import itertools

import pytest

from monoalg import iso, orbits, symbolic
from monoalg.core import random_algebra
from monoalg.enumeration import enumerate_up_to_iso


def _digest(answer) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def _profiles(tails=(None,)):
    """One weighted profile per sum: cycles 1-3, prefixes of up to 3
    entries from {1, 2, w}, each tail given, multiplicities {1, 2, w}."""
    cards = ("1", "2", "w")
    for cycle in (1, 2, 3):
        for length in range(4):
            for prefix in itertools.product(cards, repeat=length):
                for tail in tails:
                    for mult in cards:
                        yield symbolic.symbolic([(mult, symbolic.Profile(cycle, prefix, tail))])


def test_certificates_of_every_class_up_to_7_points():
    certs = [
        iso.table_certificate(A.table)
        for n in range(1, 8)
        for A in enumerate_up_to_iso(n).representatives
    ]
    assert len(certs) == 550
    assert _digest(certs) == "48924420f1b777f9a09e90e8059ccb24c24458d1734c71418fb4e9184cd13efc"


def test_automorphisms_of_every_class_up_to_7_points():
    auts = [
        iso.enumerate_automorphisms(A)
        for n in range(1, 8)
        for A in enumerate_up_to_iso(n).representatives
    ]
    assert len(auts) == 550
    assert _digest(auts) == "44d857e2fa37ba7f425abf9e3edcb553df462fc579af982333c947c350df9bda"


def test_extensions_of_every_one_point_map_up_to_6_points():
    reps = [A for n in range(1, 7) for A in enumerate_up_to_iso(n).representatives]
    assert len(reps) == 207
    extensions = [iso.extend_to_automorphism(A, {x: y}) for A in reps for x in range(A.n) for y in range(A.n)]
    assert _digest(extensions) == "d303464e56f7f555a2aae32060c62d6506b1b509b8c2b0c937646ad4ada6fe43"


def test_every_class_on_9_points():
    corpus = enumerate_up_to_iso(9)
    assert len(corpus.representatives) == 2615
    assert _digest(corpus) == "dbabb3bbd3558bd731085f35c83f68e4f3bbda63ea7d1e3deacd60f488829597"


def test_answers_on_a_random_10_5_point_table():
    A = random_algebra(100_000, 1)
    assert _digest(iso.table_certificate(A.table)) == (
        "2a13df4815f85e215ef247da9c3de27816ad0c2b3e0edbd6aba8691c83cadf5d"
    )
    assert _digest(iso.table_certificate(A.table, (5, 0, 99_999, 5))) == (
        "f0c8649e40112fab59d2b01c5fbfc02b0fb6dce15b70290c64cbe97ea08faa56"
    )
    assert _digest(orbits.one_orbits(A)) == (
        "a07383a21169bbf66e7d4f99313763df395a7459100fd0df76f0a40706612d8a"
    )
    with pytest.raises(ValueError) as refusal:
        iso.enumerate_automorphisms(A)
    assert _digest(str(refusal.value)) == (
        "af2c5d73965e8477d84f423274d8e63032a2be218e98d18edbed1bf91bbf57e5"
    )


def test_decomposition_of_a_uniform_tree_shape():
    A = symbolic.instantiate(symbolic.parse("A[3;" + ",".join(["4"] * 7) + "]"), 1)
    assert _digest(symbolic.decompose(A)) == (
        "9e9151ab28e53dbbc3ba4c87b667e55cdc210bdcf44c30fa31adcf129648b2c3"
    )


def test_instances_of_a_grid_of_profiles():
    tables = [symbolic.instantiate(S, w).table for S in _profiles() for w in (1, 2, 3)]
    assert len(tables) == 1080
    assert _digest(tables) == "2e4454d54a82049210f83c5ee4e403256134b20e30420c601042c76a7560bf1c"


def test_truncations_of_a_grid_of_profiles_and_of_the_limits():
    cut = [symbolic.truncate(S, h) for S in _profiles((None, "1", "2", "w")) for h in range(5)]
    assert len(cut) == 7200
    assert _digest(cut) == "3618fda9c1e787a3f38a0ed08d9fe634d3b62beddcff8412690d018ee2f3b4e8"
    limits = [
        symbolic.truncate(symbolic.fraisse_limit(k), h, m) for k in (None, 1, 2, 3) for h in range(5) for m in range(1, 5)
    ]
    assert _digest(limits) == "aeb61bcc831562b73f1892e67749bd7cf48ffa1a456bb6f2dce675b74c51cece"
