"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line on the real terminal (bypassing
capture) and then asserts, so a full run shows ten verdict lines.
"""

import random
import time
from itertools import product

from monoalg import core, enumeration, homogeneity, iso, orbits, semilinear, symbolic
from monoalg.core import FiniteMonounary, PartialMonounary, validate
from monoalg.symbolic import NotUltrahomogeneous, Profile
from oracles import digraph_uh


def _verdict(capsys, num, name, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_uh_decider_equals_oracles(corpus, capsys):
    """Fast UH decider == full UH oracle == 1-UH oracle on every class
    with up to 6 points, within the two minute budget."""
    t0 = time.perf_counter()
    mismatches = []
    total = 0
    for n in range(1, 7):
        for A in corpus[n]:
            total += 1
            auts = iso.brute_force_automorphisms(A)
            fast = homogeneity.is_ultrahomogeneous(A)
            full = homogeneity.is_ultrahomogeneous_oracle(A, auts=auts)
            one = homogeneity.is_1_ultrahomogeneous_oracle(A, auts=auts)
            if not (fast == full == one):
                mismatches.append((A.table, fast, full, one))
    elapsed = time.perf_counter() - t0
    ok = total == 207 and not mismatches and elapsed < 120.0
    _verdict(
        capsys, 1,
        f"UH decider == UH oracle == 1-UH oracle on {total} classes (n<=6) "
        f"in {elapsed:.1f}s", ok,
    )


def test_criterion_02_partial_homogeneity_patterns(corpus, capsys):
    """Five-pattern decider == (PH1 and PH2) == all-arity partial oracle
    on every class with up to 6 points."""
    mismatches = []
    for n in range(1, 7):
        for A in corpus[n]:
            auts = iso.brute_force_automorphisms(A)
            pattern = homogeneity.is_partially_homogeneous(A)
            ph12 = homogeneity.is_partially_n_homogeneous(
                A, 1, auts=auts
            ) and homogeneity.is_partially_n_homogeneous(A, 2, auts=auts)
            full = homogeneity.is_partially_homogeneous_oracle(A, auts=auts)
            if not (pattern == ph12 == full):
                mismatches.append((A.table, pattern, ph12, full))
    _verdict(
        capsys, 2,
        "partial homogeneity: pattern decider == PH1&PH2 == all-arity oracle "
        f"({len(mismatches)} disagreements)", not mismatches,
    )


def test_criterion_03_lattice_implications_and_witnesses(corpus, capsys):
    """The eight conditions are nested as claimed on the whole corpus, and
    the known witnesses separate exactly the levels they should."""
    ok = True
    for n in range(1, 7):
        for A in corpus[n]:
            if not homogeneity.classify_lattice(A).implications_hold():
                ok = False
    z2t = validate([1, 0, 0])
    z3t = validate([1, 2, 0, 0])
    z4t = validate([1, 2, 3, 0, 0])
    # a k-cycle with a tail: in H_{k-1} and H_{k+1} but not H_k
    for k, A in [(2, z2t), (3, z3t), (4, z4t)]:
        ok = ok and not homogeneity.is_n_homogeneous(A, k)
        ok = ok and homogeneity.is_n_homogeneous(A, k - 1)
        ok = ok and homogeneity.is_n_homogeneous(A, k + 1)
    r = homogeneity.classify_lattice(z2t)
    ok = ok and r.h1 and not r.h2
    r = homogeneity.classify_lattice(z3t)
    ok = ok and r.h2 and not r.h
    z5 = validate([1, 2, 3, 4, 0])
    ok = ok and homogeneity.is_partially_n_homogeneous(z5, 1)
    ok = ok and not homogeneity.is_partially_n_homogeneous(z5, 2)
    r = homogeneity.classify_lattice(validate([1, 0, 3, 4, 2]))
    ok = ok and r.uh and not r.ph1 and not r.ph2
    r = homogeneity.classify_lattice(validate([0, 2, 1]))
    ok = ok and r.ph and not r.transitive
    _verdict(capsys, 3, "lattice implications hold; witnesses separate the levels", ok)


def test_criterion_04_orbit_counts(corpus, capsys):
    """Certificate labels count tuple orbits exactly (against union-find
    over the automorphism action), and a connected UH algebra has height+1
    orbits of single elements."""
    ok = True
    for n in range(1, 6):
        for A in corpus[n]:
            auts = iso.brute_force_automorphisms(A)
            for k in (1, 2, 3):
                if orbits.n_orbit_count(A, k) != orbits.n_orbit_count_bruteforce(A, k, auts=auts):
                    ok = False
    checked = 0
    for n in range(1, 7):
        for A in corpus[n]:
            rep = core.structure_report(A)
            if len(rep.components) == 1 and homogeneity.is_ultrahomogeneous(A):
                checked += 1
                if orbits.n_orbit_count(A, 1) != rep.height + 1:
                    ok = False
    ok = ok and checked > 0
    _verdict(
        capsys, 4,
        f"orbit counts match union-find (n<=5, arity<=3); o1 = height+1 on "
        f"{checked} connected UH classes", ok,
    )


def test_criterion_05_order_automorphisms(corpus, capsys):
    """For every cyclic element of every class with up to 6 points, the
    tree above it has the same automorphisms as an order and as a partial
    algebra."""
    pairs = 0
    ok = True
    for n in range(1, 7):
        for A in corpus[n]:
            cyc = core.Skeleton(A.table).cyclic
            for c in range(A.n):
                if cyc[c]:
                    pairs += 1
                    same, _, _ = semilinear.check_aut_equality(A, c)
                    ok = ok and same
    _verdict(capsys, 5, f"order/operation automorphism groups agree on {pairs} trees", ok)


def test_criterion_06_symbolic_round_trip(corpus, capsys):
    """decompose(instantiate(S)) == S for 50 random UH normal forms, and
    decompose raises on every non-UH class with up to 6 points."""
    rng = random.Random(20260825)
    ok = True
    for _ in range(50):
        k = rng.randint(1, 3)
        cycles = rng.sample(range(1, 7), k)
        comps = []
        for c in cycles:
            prefix = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
            comps.append((rng.randint(1, 2), Profile(c, prefix)))
        S = symbolic.symbolic(comps)
        ok = ok and symbolic.is_ultrahomogeneous(S)
        ok = ok and symbolic.decompose(symbolic.instantiate(S, 1)) == S
    uh_count = non_uh_count = 0
    for n in range(1, 7):
        for A in corpus[n]:
            if homogeneity.is_ultrahomogeneous(A):
                uh_count += 1
                back = symbolic.instantiate(symbolic.decompose(A), 1)
                ok = ok and iso.are_isomorphic(A, back)
            else:
                non_uh_count += 1
                try:
                    symbolic.decompose(A)
                    ok = False
                except NotUltrahomogeneous:
                    pass
    _verdict(
        capsys, 6,
        f"symbolic round trip on 50 random + {uh_count} corpus UH forms; "
        f"decompose rejects all {non_uh_count} non-UH classes", ok,
    )


def test_criterion_07_omega_categoricity(capsys):
    """Spot suite plus randomized positives for the orbit-count criterion."""
    parse = symbolic.parse
    ok = symbolic.is_omega_categorical(parse("A[2;w,3]"))
    ok = ok and symbolic.is_omega_categorical(parse("w*A[1;w] + Z2"))
    for bad in ["B[w]", "N", "A[1;2;2]"]:
        ok = ok and not symbolic.is_omega_categorical(parse(bad))
    for k in [None, 1, 2, 3]:
        ok = ok and not symbolic.is_omega_categorical(symbolic.fraisse_limit(k))
    rng = random.Random(7202683)
    cards = [1, 2, "w"]
    for _ in range(20):
        k = rng.randint(1, 3)
        cycles = rng.sample(range(1, 9), k)
        comps = []
        for c in cycles:
            prefix = tuple(rng.choice(cards) for _ in range(rng.randint(0, 2)))
            comps.append((rng.choice(cards), Profile(c, prefix)))
        S = symbolic.symbolic(comps)
        ok = ok and symbolic.is_homogeneous(S)
        ok = ok and symbolic.is_omega_categorical(S)
    _verdict(capsys, 7, "omega-categoricity spot suite and 20 random positives", ok)


def test_criterion_08_pseudoforest_oracle(capsys):
    """Pattern decider equals the digraph homogeneity oracle on every
    loop-free partial table with up to 5 points."""
    total = 0
    mismatches = 0
    for n in range(1, 6):
        options = [[None] + [v for v in range(n) if v != x] for x in range(n)]
        for tab in product(*options):
            total += 1
            got = homogeneity.pseudoforest_ultrahomogeneous(PartialMonounary(tab))
            if got != digraph_uh(tab):
                mismatches += 1
    ok = total == 3413 and mismatches == 0
    _verdict(
        capsys, 8,
        f"pseudoforest decider == digraph oracle on {total} loop-free tables", ok,
    )


def test_criterion_09_multiunary(capsys):
    """Two operations whose reducts are both a 2-cycle with a tail (never
    1-UH alone) form a jointly ultrahomogeneous algebra."""
    t1, t2 = [2, 2, 1], [1, 0, 0]
    z2t = validate([1, 0, 0])
    ok = iso.are_isomorphic(validate(t1), z2t)
    ok = ok and iso.are_isomorphic(validate(t2), z2t)
    ok = ok and not homogeneity.is_1_ultrahomogeneous_oracle(validate(t1))
    ok = ok and not homogeneity.is_1_ultrahomogeneous_oracle(validate(t2))
    ok = ok and homogeneity.multiunary_brute_check([t1])["is_1_ultrahomogeneous"] is False
    ok = ok and homogeneity.multiunary_brute_check([t2])["is_1_ultrahomogeneous"] is False
    joint = homogeneity.multiunary_brute_check([t1, t2])
    ok = ok and joint == {"is_1_ultrahomogeneous": True, "is_ultrahomogeneous": True}
    _verdict(capsys, 9, "joint UH from two individually non-1-UH operations", ok)


def test_criterion_10_enumeration_counts(capsys):
    """Class counts for 1..7 points."""
    got = [len(enumeration.enumerate_up_to_iso(n).representatives) for n in range(1, 8)]
    ok = got == [1, 3, 7, 19, 47, 130, 343]
    _verdict(capsys, 10, f"class counts 1..7 = {got}", ok)
