"""The oracle sweep at 7 points: acceptance criteria 01, 02 and 05 and
the tuple-orbit counts to arity 2, each replayed on the 343 classes with
n = 7, past tier-1's n <= 6.  Every family of checks prints its time and
its disagreements; the sweep exits 1 if any family has one.  Run from
the repository root:

    PYTHONPATH=src python tests/oracle_sweep.py
"""

from __future__ import annotations

import sys
import time

from monoalg import core, enumeration, homogeneity, iso, orbits, semilinear

N = 7


def uh(A, auts) -> bool:
    """Criterion 01: the UH decider, the UH oracle and the 1-UH oracle agree."""
    fast = homogeneity.is_ultrahomogeneous(A)
    full = homogeneity.is_ultrahomogeneous_oracle(A, auts=auts)
    return fast == full == homogeneity.is_1_ultrahomogeneous_oracle(A, auts=auts)


def ph(A, auts) -> bool:
    """Criterion 02: the five-pattern decider, PH1 and PH2, and the
    all-arity partial oracle agree."""
    pattern = homogeneity.is_partially_homogeneous(A)
    ph12 = all(homogeneity.is_partially_n_homogeneous(A, k, auts=auts) for k in (1, 2))
    return pattern == ph12 == homogeneity.is_partially_homogeneous_oracle(A, auts=auts)


def order(A, auts) -> bool:
    """Criterion 05: the tree above every cyclic point has the same
    automorphisms as an order and as a partial algebra."""
    cyclic = core.skeleton(A.table).cyclic
    return all(semilinear.check_aut_equality(A, c)[0] for c in range(A.n) if cyclic[c])


def orbit_counts(A, auts) -> bool:
    """The certificate orbit counts equal the brute-force counts to arity 2."""
    return all(orbits.n_orbit_count(A, k) == orbits.n_orbit_count_bruteforce(A, k, auts=auts) for k in (1, 2))


FAMILIES = [
    ("criterion 01, UH decider == UH oracle == 1-UH oracle", uh),
    ("criterion 02, PH decider == PH1 and PH2 == PH oracle", ph),
    ("criterion 05, order and operation automorphisms agree", order),
    ("orbit counts == brute force, arity <= 2", orbit_counts),
]


def main() -> int:
    start = time.perf_counter()
    classes = enumeration.enumerate_up_to_iso(N).representatives
    groups = [iso.brute_force_automorphisms(A) for A in classes]
    print(f"{len(classes)} classes with n = {N} and their groups: {time.perf_counter() - start:.2f} s")
    failed = False
    for name, check in FAMILIES:
        t0 = time.perf_counter()
        wrong = [A.table for A, auts in zip(classes, groups) if not check(A, auts)]
        print(f"{name}: {len(wrong)} disagreements, {time.perf_counter() - t0:.2f} s")
        for table in wrong[:5]:
            print(f"  {list(table)}")
        failed = failed or bool(wrong)
    print(f"oracle sweep at n = {N}: {'FAIL' if failed else 'PASS'} in {time.perf_counter() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
