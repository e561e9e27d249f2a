"""corpus-sweep: many tiny tables.

enumerate_up_to_iso(n) runs for n = 1..7 with default arguments.  Every
class on at most 6 points (207 classes), renamed by a random permutation,
then goes through each decider and its oracle, the lattice report, orbit
counts against union-find, the order/operation automorphism check at
every cyclic root, the multi-operation brute force and the decompose round
trip; random UH shapes go through the round trip the other way.  Per-call
overhead matters here, not scaling: the n^n enumeration and the oracles
run only in this workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from monoalg import core, enumeration, homogeneity, iso, orbits, semilinear, symbolic
from monoalg.symbolic import NotUltrahomogeneous, Profile

import reference as ref
from harness import FAILED, Spread, interleave

SWEEP_MAX_N = 6
SHAPES = 50
CLI_ROUNDS = 4  # the CLI calls are short, so their median needs several samples
CLASSES_PER_STEP = 21


@dataclass
class Inputs:
    perms: dict[int, list[list[int]]]  # per n, one renaming per class
    shapes: list[tuple[symbolic.SymbolicAlgebra, core.FiniteMonounary]]
    cli_table: str


def setup(run, rng, workdir) -> Inputs:
    perms = {
        n: [ref.random_perm(rng, n) for _ in range(ref.ENUMERATION_COUNTS[n - 1])]
        for n in range(1, SWEEP_MAX_N + 1)
    }
    shapes = []
    for i in range(SHAPES):
        comps = [
            (rng.randint(1, 2), Profile(c, tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))))
            for c in rng.sample(range(1, 7), rng.randint(1, 3))
        ]
        S = symbolic.symbolic(comps)
        shapes.append((S, run.call("symbolic.instantiate", f"shape-{i}", symbolic.instantiate, S, 1)))
    table = "f: " + " ".join(str(rng.randrange(6)) for _ in range(6))
    return Inputs(perms, shapes, table)


def _sweep_class(run, cid, A) -> None:
    """Every decider against its oracle on one class."""
    auts = run.call("iso.brute_force_automorphisms", cid, iso.brute_force_automorphisms, A)
    if auts is FAILED:
        return
    fast = run.call("iso.enumerate_automorphisms", cid, iso.enumerate_automorphisms, A)
    uh = run.call("homogeneity.is_ultrahomogeneous", cid, homogeneity.is_ultrahomogeneous, A)
    full = run.call("homogeneity.is_ultrahomogeneous_oracle", cid, homogeneity.is_ultrahomogeneous_oracle, A, auts=auts)
    one = run.call("homogeneity.is_1_ultrahomogeneous_oracle", cid, homogeneity.is_1_ultrahomogeneous_oracle, A, auts=auts)
    pattern = run.call("homogeneity.is_partially_homogeneous", cid, homogeneity.is_partially_homogeneous, A)
    ph1, ph2 = (
        run.call("homogeneity.is_partially_n_homogeneous", cid, homogeneity.is_partially_n_homogeneous, A, k, auts=auts)
        for k in (1, 2)
    )
    ph = run.call("homogeneity.is_partially_homogeneous_oracle", cid, homogeneity.is_partially_homogeneous_oracle, A, auts=auts)
    h1, h2 = (
        run.call("homogeneity.is_n_homogeneous", cid, homogeneity.is_n_homogeneous, A, k, auts=auts) for k in (1, 2)
    )
    lattice = run.call("homogeneity.classify_lattice", cid, homogeneity.classify_lattice, A)
    profile = run.call("orbits.orbit_profile", cid, orbits.orbit_profile, A, 2)
    brute = [
        run.call("orbits.n_orbit_count_bruteforce", cid, orbits.n_orbit_count_bruteforce, A, k, auts=auts)
        for k in (1, 2)
    ]
    with run.untimed():
        roots = sorted(ref.facts(A.table).cyclic)
    same_auts = [run.call("semilinear.check_aut_equality", cid, semilinear.check_aut_equality, A, c) for c in roots]
    multi = run.call("homogeneity.multiunary_brute_check", cid, homogeneity.multiunary_brute_check, [A.table])
    back = run.call("symbolic.decompose", cid, symbolic.decompose, A, answers=(NotUltrahomogeneous,))
    round_trip = None
    if back is not FAILED and not isinstance(back, NotUltrahomogeneous):
        B = run.call("symbolic.instantiate", cid, symbolic.instantiate, back, 1)
        if B is not FAILED:
            round_trip = run.call("iso.are_isomorphic", cid, iso.are_isomorphic, A, B)

    with run.untimed():
        run.count("iso.brute_force_automorphisms.found", len(auts))
        run.count("iso.brute_force_automorphisms.tried", factorial(A.n))
        got = [fast, uh, full, one, pattern, ph1, ph2, ph, h1, h2, lattice, profile, *brute, *same_auts, multi, back]
        if FAILED in got or round_trip is FAILED:
            return  # counted as failed operations
        run.expect(fast == sorted(auts), f"{cid}: enumerate_automorphisms != brute force")
        run.expect(uh == full == one, f"{cid}: UH decider {uh}, UH oracle {full}, 1-UH oracle {one}")
        run.expect(pattern == (ph1 and ph2) == ph, f"{cid}: PH patterns {pattern}, PH1&PH2 {ph1 and ph2}, PH oracle {ph}")
        run.expect(
            lattice.implications_hold()
            and (lattice.uh, lattice.ph, lattice.ph1, lattice.ph2, lattice.h1, lattice.h2) == (uh, pattern, ph1, ph2, h1, h2)
            and (not uh or h2) and (not h2 or h1),
            f"{cid}: lattice report {lattice.to_dict()}",
        )
        run.expect(profile == brute, f"{cid}: orbit_profile {profile} != union-find {brute}")
        run.expect(all(s[0] for s in same_auts), f"{cid}: order and operation automorphisms differ")
        run.expect(
            multi == {"is_1_ultrahomogeneous": one, "is_ultrahomogeneous": full},
            f"{cid}: multiunary_brute_check {multi}",
        )
        run.expect(
            isinstance(back, NotUltrahomogeneous) != uh and round_trip in (None, True),
            f"{cid}: decompose round trip ({back!s:.100}, {round_trip})",
        )


def run_pass(run, inp: Inputs, cache: dict, between=()) -> None:
    n_max = len(ref.ENUMERATION_COUNTS)
    # A CLI step after each enumeration size and after every CLASSES_PER_STEP classes.
    spread = Spread(
        interleave(_cli_calls(run, inp) * CLI_ROUNDS, between),
        n_max + sum(ref.ENUMERATION_COUNTS[:SWEEP_MAX_N]) // CLASSES_PER_STEP,
    )
    swept = 0
    corpora = {}
    for n in range(1, n_max + 1):
        corpora[n] = run.call("enumeration.enumerate_up_to_iso", f"n{n}", enumeration.enumerate_up_to_iso, n, tag=f"n{n}")
        spread.step()
    with run.untimed():
        counts = tuple(len(c.representatives) if c is not FAILED else None for c in corpora.values())
        run.expect(counts == ref.ENUMERATION_COUNTS, f"enumeration counts {counts}")
        run.count("enumeration.classes", sum(c for c in counts if c))
    for n in range(1, SWEEP_MAX_N + 1):
        if corpora[n] is FAILED:
            continue
        for i, rep in enumerate(corpora[n].representatives):
            cid = f"n{n}-class{i}"
            with run.untimed():
                table = ref.relabel(rep.table, inp.perms[n][i])
            A = run.call("core.validate", cid, core.validate, table)
            if A is not FAILED:
                before = run.busy
                with run.group("sweep.class", cid):
                    _sweep_class(run, cid, A)
                run.class_seconds.append(run.busy - before)
            swept += 1
            if swept % CLASSES_PER_STEP == 0:
                spread.step()
    for i, (S, A) in enumerate(inp.shapes):
        got = run.call("symbolic.decompose", f"shape-{i}", symbolic.decompose, A, answers=(NotUltrahomogeneous,))
        run.expect_result(got, S, f"decompose(instantiate(shape-{i}))")
    spread.finish()


def _cli_calls(run, inp: Inputs) -> list:
    def enumerate_():
        out = run.cli("enumerate", "n5", ["enumerate", "--n", "5"], {0})
        with run.untimed():
            rows = out[1].splitlines() if out else None
            run.expect(
                rows is None or (rows[0] == "# n=5 count=47" and len(rows) == 48),
                "cli enumerate --n 5 did not list 47 classes",
            )

    def classify():
        got = run.cli_json("classify", inp.cli_table, ["classify", inp.cli_table], {0})
        with run.untimed():
            want = homogeneity.classify_lattice(core.from_text(inp.cli_table)).to_dict()
        run.expect(got is None or got == want, f"cli classify gave {got}, library {want}")

    def check_uh_oracle():
        got = run.cli_json("check_uh_oracle", inp.cli_table, ["check", "uh", inp.cli_table, "--oracle"], {0, 1})
        with run.untimed():
            want = homogeneity.is_ultrahomogeneous(core.from_text(inp.cli_table))
        run.expect(got is None or got == {"property": "uh", "holds": want}, f"cli check uh --oracle gave {got}")

    def startup():
        got = run.cli_json("startup", "f: 1 0 0", ["analyze", "f: 1 0 0"], {0})
        run.expect(got is None or got["cycle_sizes"] == [2], f"cli analyze on a tiny table gave {got}")

    return [enumerate_, classify, check_uh_oracle, startup]
