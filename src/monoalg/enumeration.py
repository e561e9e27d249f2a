"""Enumeration up to isomorphism, one table per class, built directly.

A connected monounary algebra is a cycle with a rooted tree hanging from
each cycle point, so the classes are built bottom up (Beyer & Hedetniemi,
SIAM J. Comput. 1980) and no raw table is ever swept:

- a rooted tree on m nodes is a multiset of rooted trees whose sizes sum
  to m - 1;
- a connected class is a sequence of rooted trees around a cycle, kept
  at its least rotation;
- a class is a multiset of connected classes.

Each class is laid out once and relabelled to the lexicographically
least table of its class, and the corpus lists these ascending: the list
a sweep over all n^n tables bucketed by certificate would give.  n is
capped at core.MAX_POINTS = 12 (57903 classes).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

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

def _least_table(table: Sequence[int], orbit: Sequence[tuple], cycle_len: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically least table isomorphic to `table`, given each
    point's cycle length (0 off a cycle) and (class id, type) orbit key.

    Labels 0, 1, ... go to points in turn; position i of the new table is
    the label of f(p) for the point p labelled i, where f(p) keeps its
    label or takes the next free one.  When no point has label i yet, the
    labelled points are closed under f and p is chosen:
    - least of all, a child of the least-labelled point with unlabelled
      children;
    - failing that, the unlabelled points are whole components, and p
      starts a shortest unlabelled cycle, which closes soonest.
    Candidates with one orbit key (siblings with one tree id, or cycle
    points in copies of one class at one phase) are interchangeable by
    an automorphism fixing every labelled point, so one is tried per
    key.  All labellings whose prefix ties the least one are carried
    along together."""
    n = len(table)
    kids: list[list[int]] = [[] for _ in table]
    for x, v in enumerate(table):
        if not cycle_len[x]:
            kids[v].append(x)
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
                while scan < i and all(lab[c] >= 0 for c in kids[pts[scan]]):
                    scan += 1
                if scan < i:
                    picks = [c for c in kids[pts[scan]] if lab[c] < 0]
                else:
                    k = min(c for c, l in zip(cycle_len, lab) if c and l < 0)
                    picks = [x for x in range(n) if cycle_len[x] == k and lab[x] < 0]
                branches = []
                for p in {orbit[p]: p for p in picks}.values():
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


def enumerate_up_to_iso(n: int) -> Corpus:
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"n must be between 1 and {MAX_POINTS}, got {n}")
    connected, upto = _connected_tables(n)
    sizes = [len(t) for t, _, _ in connected]
    reps = []
    for parts in _multisets(sizes, upto, n, len(connected)):
        table, orbit, cycle_len = [], [], []
        for c in parts:
            t, types, k = connected[c]
            cycle_len += [k] * k + [0] * (len(t) - k)
            orbit += [(c, x) for x in types]
            table += [len(table) + v for v in t]
        reps.append(_least_table(table, orbit, cycle_len))
    reps.sort()
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
        raise ValueError(f"corpus header promises {count} tables, found {len(reps)}")
    return Corpus(n, tuple(reps))
