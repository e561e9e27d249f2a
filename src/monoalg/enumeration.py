"""Exhaustive enumeration up to isomorphism by certificate bucketing.

Every raw table over n points is classified by its canonical certificate;
the representative of a class is its lexicographically least table.  The
table space is n^n, so n is capped at 7 (823543 raw tables).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .core import FiniteMonounary
from .iso import table_certificate

MAX_POINTS = 7


@dataclass(frozen=True)
class Corpus:
    """All isomorphism classes on n points, one least-table representative each."""

    n: int
    representatives: tuple[FiniteMonounary, ...]


def enumerate_up_to_iso(n: int) -> Corpus:
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"n must be between 1 and {MAX_POINTS}, got {n}")
    best: dict = {}
    # tables arrive in lexicographic order, so the first hit per class is its least table
    for t in product(range(n), repeat=n):
        best.setdefault(table_certificate(t), t)
    reps = sorted(best.values())
    return Corpus(n, tuple(FiniteMonounary(t) for t in reps))


def counts(up_to: int) -> list[int]:
    """Number of isomorphism classes for each point count 1..up_to."""
    return [len(enumerate_up_to_iso(k).representatives) for k in range(1, up_to + 1)]


def random_algebra(n: int, seed: int) -> FiniteMonounary:
    """Uniform over raw tables (not over isomorphism classes)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    return FiniteMonounary(tuple(rng.randrange(n) for _ in range(n)))


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# n={corpus.n} count={len(corpus.representatives)}\n")
        for A in corpus.representatives:
            fh.write(" ".join(map(str, A.table)) + "\n")


def load_corpus(path: str) -> Corpus:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing corpus header")
        fields = dict(part.split("=") for part in header[1:].split())
        n, count = int(fields["n"]), int(fields["count"])
        reps = [
            FiniteMonounary(tuple(int(p) for p in line.split()))
            for line in fh
            if line.strip()
        ]
    if len(reps) != count:
        raise ValueError(f"corpus header promises {count} tables, found {len(reps)}")
    return Corpus(n, tuple(reps))
