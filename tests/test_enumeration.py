"""Enumeration up to isomorphism: class counts against Pólya counting,
the sweep over all tables, representative canonicity, determinism,
corpus files."""

import random
import re
from itertools import accumulate

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monoalg import core, enumeration, iso
from monoalg.iso import table_certificate
from oracles import exists_iso, least_relabelling, least_table_by_search, polya_class_counts, sweep_corpus

# class counts for 1..5 points (OEIS A001372); Pólya counting checks
# them further in test_counts_equal_polya_counting
KNOWN_COUNTS = [1, 3, 7, 19, 47]


def test_counts_small():
    assert enumeration.counts(5) == KNOWN_COUNTS


def test_counts_equal_polya_counting():
    assert enumeration.counts(10) == polya_class_counts(10)


def test_counts_are_the_corpus_sizes():
    assert enumeration.counts(8) == [len(enumeration.enumerate_up_to_iso(n).representatives) for n in range(1, 9)]
    assert enumeration.counts(0) == enumeration.counts(-3) == []
    with pytest.raises(ValueError, match=f"n must be between 1 and {core.MAX_POINTS}, got 13"):
        enumeration.counts(13)


def test_generator_equals_the_sweep_over_all_tables():
    for n in range(1, 7):
        assert enumeration.enumerate_up_to_iso(n) == sweep_corpus(n)


def test_representatives_are_pairwise_non_isomorphic(corpus):
    for n in range(1, 6):
        reps = corpus[n]
        certs = {table_certificate(A.table) for A in reps}
        assert len(certs) == len(reps)
    # spot-check certificates against raw bijection search
    rng = random.Random(7)
    reps4 = corpus[4]
    for _ in range(100):
        A, B = rng.sample(reps4, 2)
        assert not exists_iso(A.table, B.table)


def test_every_table_matches_exactly_one_representative():
    reps = {n: enumeration.enumerate_up_to_iso(n).representatives for n in range(1, 9)}
    certs = {n: [table_certificate(A.table) for A in reps[n]] for n in reps}
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        t = tuple(rng.randrange(n) for _ in range(n))
        c = table_certificate(t)
        hits = [A for A, cert in zip(reps[n], certs[n]) if cert == c]
        assert len(hits) == 1
        # the representative is the least table of t's class, which also
        # makes it isomorphic to t
        assert hits[0].table == least_relabelling(t)


def test_enumeration_is_deterministic():
    assert enumeration.enumerate_up_to_iso(5) == enumeration.enumerate_up_to_iso(5)


def test_enumeration_builds_no_skeleton_and_no_labelling(monkeypatch):
    """The generator's tree ids and cycle phases tell the interchangeable
    candidates apart, so no class is peeled or labelled afresh."""

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration built a skeleton or a labelling")

    monkeypatch.setattr(core.Skeleton, "__init__", refuse)
    monkeypatch.setattr(iso, "_label", refuse)
    assert len(enumeration.enumerate_up_to_iso(8).representatives) == 951


CONNECTED, CONNECTED_UPTO = enumeration._connected_tables(8)


def _at_most_30_points(ids):
    """The longest prefix of a list of connected class ids that has at
    most 30 points in all."""
    return ids[:sum(total <= 30 for total in accumulate(len(CONNECTED[c][0]) for c in ids))]


# a few connected classes on 1..8 points, each size alike likely, drawn
# again and again so that copies of one class meet in a multiset
multisets = st.lists(
    st.integers(1, 8).flatmap(lambda m: st.integers(CONNECTED_UPTO[m - 1], CONNECTED_UPTO[m] - 1)),
    min_size=1, max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=20)).map(_at_most_30_points)


@given(multisets)
@settings(max_examples=150, deadline=None)
def test_concatenation_equals_the_search_over_the_whole_multiset(parts):
    """The least table of a multiset of connected classes, on up to 30
    points, is its components' least tables concatenated; on up to 8
    points it is also the least over every relabelling."""
    table, orbit, cycle_len = [], [], []
    for c in parts:
        t, types, k = CONNECTED[c]
        cycle_len += [k] * k + [0] * (len(t) - k)
        orbit += [(c, x) for x in types]
        table += [len(table) + v for v in t]
    least = enumeration._concatenate(enumeration._least_table(*CONNECTED[c]) for c in parts)
    assert least == least_table_by_search(table, orbit, cycle_len)
    if len(table) <= 8:
        assert least == least_relabelling(table)


def test_least_table_runs_once_per_connected_class(monkeypatch):
    """Each connected class on at most 8 points is solved once (541 of
    them, OEIS A002861 summed), not once in each of the 951 classes."""
    calls = []
    least_table = enumeration._least_table

    def counted(*args):
        calls.append(args)
        return least_table(*args)

    monkeypatch.setattr(enumeration, "_least_table", counted)
    assert len(enumeration.enumerate_up_to_iso(8).representatives) == 951
    assert len(calls) == len(set(calls)) == len(CONNECTED) == 541


def test_bounds():
    with pytest.raises(ValueError):
        enumeration.enumerate_up_to_iso(0)
    with pytest.raises(ValueError):
        enumeration.enumerate_up_to_iso(core.MAX_POINTS + 1)


def test_corpus_save_load_round_trip(tmp_path, corpus):
    c = enumeration.Corpus(4, corpus[4])
    path = tmp_path / "n4.txt"
    enumeration.save_corpus(c, str(path))
    back = enumeration.load_corpus(str(path))
    assert back == c
    # blank lines between the tables are skipped
    path.write_text(path.read_text().replace("\n", "\n\n"))
    assert enumeration.load_corpus(str(path)) == c


def test_load_corpus_validates_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# n=2 count=3\n0 0\n1 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 1: corpus header promises 3 tables, found 2")):
        enumeration.load_corpus(str(path))
    path.write_text("0 0\n")
    with pytest.raises(ValueError, match="header"):
        enumeration.load_corpus(str(path))


def test_load_corpus_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# n=3 count=2\n0 0\n1 0 0 0\n")
    with pytest.raises(ValueError, match="line 2: 2 entries, but the header says n=3"):
        enumeration.load_corpus(str(path))
    path.write_text("# n=3 count=2\n0 0 0\n1 0 0 0\n")
    with pytest.raises(ValueError, match="line 3: 4 entries"):
        enumeration.load_corpus(str(path))


def test_load_corpus_header_needs_n(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# count=1\n0\n")
    with pytest.raises(ValueError, match="line 1: expected the corpus header"):
        enumeration.load_corpus(str(path))
    # no algebra has fewer than one point
    for n in (0, -2):
        path.write_text(f"# n={n} count=0\n")
        with pytest.raises(ValueError, match=f"line 1: n={n}, but an algebra has at least one point"):
            enumeration.load_corpus(str(path))
