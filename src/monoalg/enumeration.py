"""Enumeration up to isomorphism, one table per class, built directly.

A connected monounary algebra is a cycle with a rooted tree hanging from
each cycle point, so the classes are built bottom up (Beyer & Hedetniemi,
SIAM J. Comput. 1980) and no raw table is ever swept:

- a rooted tree on m nodes is a multiset of rooted trees whose sizes sum
  to m - 1;
- a connected class is a sequence of rooted trees around a cycle, kept
  at its least rotation;
- a class is a multiset of connected classes.

Each class is represented by the lexicographically least table of its
class, and the corpus lists these ascending: the list a sweep over all
n^n tables bucketed by certificate would give.  That table is found once
per connected class (26880 of them on at most 12 points, against 57903
classes), and each class's is a concatenation of its components'.  When
label i has no point yet, the labelled points are closed under f.  A
child of a labelled point then gives entry i a label below i, while the
start of a new component gives i or more, and a shorter new cycle comes
back to i sooner.  So the least labelling finishes one component before
it starts the next, and starts the shortest unlabelled cycle first: a
class's least table is its components' least tables, each shifted by the
number of points before it, ordered by cycle length and then by least
table (the order of the least tables alone, as each begins with its
cycle 1, 2, ..., k-1, 0), with a table that is a proper prefix of
another placed after it.
At the first position past the shorter table, the longer one names a
point below the shift, while the next component's first entry is the
shift or more.  n is capped at core.MAX_POINTS = 12.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import MAX_POINTS, FiniteMonounary, _least_rotation


class Corpus(NamedTuple):
    """All isomorphism classes on n points, one least-table representative each."""

    n: int
    representatives: tuple[FiniteMonounary, ...]


# ---------------------------------------------------------------------------
# generation

def _multisets(sizes: Sequence[int], upto: Sequence[int], total: int, top: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of ids below `top` whose sizes sum to `total`.
    Ids are numbered by size, upto[s] of them of size at most s, and id 0
    has size 1, so every partial choice completes."""
    if not total:
        yield ()
        return
    for i in range(min(top, upto[total]) - 1, -1, -1):
        for rest in _multisets(sizes, upto, total - sizes[i], i + 1):
            yield (i,) + rest


def _sequences(sizes: Sequence[int], upto: Sequence[int], total: int, low: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ids at least `low` whose sizes sum to `total`."""
    if not total:
        yield ()
        return
    for i in range(low, upto[total]):
        for rest in _sequences(sizes, upto, total - sizes[i], low):
            yield (i,) + rest


def _rooted_trees(n: int) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Every rooted tree on at most n nodes as the non-increasing tuple of
    its subtrees' ids, ids numbered by size; with each tree's size and
    upto[s], the number of trees on at most s nodes."""
    kids: list[tuple[int, ...]] = [()]
    sizes, upto = [1], [0, 1]
    for m in range(2, n + 1):
        for ks in _multisets(sizes, upto, m - 1, len(kids)):
            kids.append(ks)
            sizes.append(m)
        upto.append(len(kids))
    return kids, sizes, upto


def _connected_tables(n: int) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...], int]], list[int]]:
    """One connected class on at most n points per entry, numbered by
    size: its table, the cycle 0 -> 1 -> ... -> k-1 -> 0 then the trees
    hanging from the cycle points in order, each breadth first; each
    point's type, its phase modulo the period on the cycle, else its
    tree's id; and its cycle length.  With the number of classes on at
    most s points for each s."""
    kids, sizes, tree_upto = _rooted_trees(n)
    tables, upto = [], [0]
    for m in range(1, n + 1):
        for first in range(tree_upto[m]):
            for rest in _sequences(sizes, tree_upto, m - sizes[first], first):
                seq = (first,) + rest
                rot, period = _least_rotation(seq)
                if rot:
                    continue  # not the least rotation
                k = len(seq)
                table = [(j + 1) % k for j in range(k)]
                types = [j % period for j in range(k)]
                queue = list(zip(range(k), seq))
                for node, tree in queue:
                    for child in kids[tree]:
                        queue.append((len(table), child))
                        table.append(node)
                        types.append(child)
                tables.append((tuple(table), tuple(types), k))
        upto.append(len(tables))
    return tables, upto


# ---------------------------------------------------------------------------
# least table of a class

def _least_table(table: Sequence[int], types: Sequence[int], k: int) -> tuple[int, ...]:
    """The lexicographically least table isomorphic to one connected
    class, laid out as _connected_tables lays it out: its cycle on points
    0..k-1, and each point's type.

    Labels 0, 1, ... go to points in turn; position i of the new table is
    the label of f(p) for the point p labelled i, where f(p) keeps its
    label or takes the next free one.  Label 0 goes to a cycle point,
    whose path under f comes back soonest, and following f labels the
    whole cycle.  Whenever no point has label i yet, the labelled points
    are closed under f, so p is a child of the least-labelled point that
    has unlabelled children: entry i, that point's label, is the least
    any choice gives.  Candidates of one type (cycle points at one phase,
    or siblings with one tree id) are interchangeable by an automorphism
    fixing every labelled point, so one is tried per type.  All
    labellings whose prefix ties the least one are carried along
    together."""
    n = len(table)
    kids: list[list[int]] = [[] for _ in table]
    for x in range(k, n):
        kids[table[x]].append(x)
    # a state: label per point (-1 if none), points in label order, and
    # the least label that may still have unlabelled children
    states = [([-1] * n, [], 0)]
    out = []
    for i in range(n):
        best, ties = n, []
        for lab, pts, scan in states:
            if i < len(pts):
                branches = [(lab, pts, scan)]
            else:
                if i:
                    while all(lab[c] >= 0 for c in kids[pts[scan]]):
                        scan += 1
                    picks = [c for c in kids[pts[scan]] if lab[c] < 0]
                else:
                    picks = range(k)
                branches = []
                for p in {types[p]: p for p in picks}.values():
                    b = lab.copy()
                    b[p] = i
                    branches.append((b, pts + [p], scan))
            for state in branches:
                lab, pts, _ = state
                y = table[pts[i]]
                if lab[y] < 0:
                    lab[y] = len(pts)
                    pts.append(y)
                if lab[y] < best:
                    best, ties = lab[y], [state]
                elif lab[y] == best:
                    ties.append(state)
        out.append(best)
        states = ties
    return tuple(out)


def _concatenate(components: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The least table of the class whose components have these least
    tables: the tables one after another in ascending order, each shifted
    by the number of points before it.  A least table begins with its
    cycle, 1, 2, ..., k-1, 0, so this order is by cycle length first.  A
    table's length, appended as a last entry, puts it after every longer
    table that it is a prefix of: at that position the longer table names
    a point below the shift, and the next component's first entry is the
    shift or more."""
    table: list[int] = []
    for least in sorted(components, key=lambda t: t + (len(t),)):
        table += [len(table) + v for v in least]
    return tuple(table)


def enumerate_up_to_iso(n: int) -> Corpus:
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"n must be between 1 and {MAX_POINTS}, got {n}")
    connected, upto = _connected_tables(n)
    sizes = [len(t) for t, _, _ in connected]
    least = [_least_table(*c) for c in connected]
    reps = sorted(_concatenate(least[c] for c in parts) for parts in _multisets(sizes, upto, n, len(connected)))
    return Corpus(n, tuple(FiniteMonounary(t) for t in reps))


def counts(up_to: int) -> list[int]:
    """Number of isomorphism classes for each point count 1..up_to: the
    multisets of connected classes that enumerate_up_to_iso would lay
    out, counted without building a table."""
    if up_to > MAX_POINTS:
        raise ValueError(f"n must be between 1 and {MAX_POINTS}, got {up_to}")
    connected, upto = _connected_tables(up_to)
    sizes = [len(t) for t, _, _ in connected]
    return [sum(1 for _ in _multisets(sizes, upto, n, len(connected))) for n in range(1, up_to + 1)]


def corpus_lines(corpus: Corpus) -> Iterator[str]:
    """The corpus as text, line by line, each with its line break: the
    header '# n=N count=C', then one table per line, its entries spaced.
    load_corpus reads it back."""
    yield f"# n={corpus.n} count={len(corpus.representatives)}\n"
    for A in corpus.representatives:
        yield " ".join(map(str, A.table)) + "\n"


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(corpus_lines(corpus))


def load_corpus(path: str) -> Corpus:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(part.partition("=")[::2] for part in header[1:].split()) if header.startswith("#") else {}
        try:
            n, count = int(fields["n"]), int(fields["count"])
        except (KeyError, ValueError):
            raise ValueError(f"{path}, line 1: expected the corpus header '# n=N count=C', got {header!r}") from None
        if n < 1:
            raise ValueError(f"{path}, line 1: n={n}, but an algebra has at least one point")
        reps = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                row = tuple(map(int, line.split()))
                if len(row) != n:
                    raise ValueError(f"{len(row)} entries, but the header says n={n}")
                reps.append(FiniteMonounary(row))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if len(reps) != count:
        raise ValueError(f"{path}, line 1: corpus header promises {count} tables, found {len(reps)}")
    return Corpus(n, tuple(reps))
