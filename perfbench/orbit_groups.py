"""orbit-groups: orbit labelling and automorphism groups at n from 10 to 10^3.

one_orbits runs on UH instances of 255 and 1023 points and on random
tables of 500 and 1000 points; n_orbit_count(A, 2) on three tables of 60
to 175 points; enumerate_automorphisms and extend_to_automorphism on groups
of 10^4 to 10^5 elements; extend_to_automorphism also on groups above the
package's 100 000 cap.  The structural layers are a small share here.

one_orbits is quadratic at the baseline commit.  The 255- and 1023-point
instances time it at two sizes, and n = 1023 stands in for the 4095-point
instance and the random 10^4-point table, which take about 38 s and over
8 min.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from monoalg import core, iso, orbits, symbolic
from monoalg.symbolic import Cardinal

import reference as ref
from harness import FAILED, Spread, interleave

SPINE, CHERRIES, RIGID_N = 40, 11, 200
CLI_ROUNDS = 3


@dataclass
class Case:
    id: str
    A: core.FiniteMonounary
    shape: Optional[symbolic.SymbolicAlgebra] = None
    tag: Optional[str] = None
    maps: list = field(default_factory=list)  # (partial map, whether it extends)


@dataclass
class Inputs:
    orbit_cases: list[Case]
    pair_cases: list[Case]
    groups: list[Case]
    over_cap: list[Case]
    cli_orbits: str
    cli_aut: str


def _shape(run, rng, text, tag=None) -> Case:
    S = symbolic.parse(text)
    A = run.call("symbolic.instantiate", text, symbolic.instantiate, S, 1)
    raw = ref.relabel(A.table, ref.random_perm(rng, A.n))
    return Case(text, run.call("core.validate", text, core.validate, raw), S, tag)


def _random(run, rng, n) -> Case:
    tid = f"random-{n}"
    return Case(tid, run.call("core.validate", tid, core.validate, [rng.randrange(n) for _ in range(n)]))


def _rigid(run, rng) -> Case:
    """A loop with a random caterpillar above it: a spine whose nodes carry
    hairs (paths) of random lengths, so that no two siblings are alike, plus
    a cherry on each of the CHERRIES spine nodes nearest the loop and three
    leaves at the spine's end.  The group is 2^CHERRIES * 3! = 12288
    automorphisms.  With the cherries at fixed places, the memory that
    enumerate_automorphisms needs barely depends on the seed."""
    f = [0] + list(range(SPINE - 1))

    def add(parent):
        f.append(parent)
        return len(f) - 1

    for p in range(CHERRIES):
        c = add(p)
        add(c)
        add(c)
    for _ in range(3):
        add(SPINE - 1)
    hair = [0] * SPINE
    for _ in range(RIGID_N - len(f)):
        hair[rng.randrange(SPINE - 1)] += 1
    for p, length in enumerate(hair):
        for _ in range(length):
            p = add(p)
    tid = f"rigid-{RIGID_N}"
    return Case(tid, run.call("core.validate", tid, core.validate, ref.relabel(f, ref.random_perm(rng, len(f)))))


def _add_maps(rng, case: Case, misses: int = 0) -> None:
    """One partial map that extends and `misses` that do not."""
    blocks = ref.orbit_partition(case.A.table)
    x, y = rng.sample(rng.choice([b for b in blocks if len(b) > 1]), 2)
    case.maps.append(({x: y}, True))
    for _ in range(misses):
        b1, b2 = rng.sample(blocks, 2)
        case.maps.append(({rng.choice(b1): rng.choice(b2)}, False))


def _write(workdir, name, A) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump({"n": A.n, "f": list(A.table)}, fh)
    return path


def setup(run, rng, workdir) -> Inputs:
    orbit_cases = [
        _shape(run, rng, "A[3;4,4,4]", "n255"),
        _shape(run, rng, "A[3;4,4,4,4]", "n1023"),
        _random(run, rng, 500),
        _random(run, rng, 1000),
    ]
    pair_cases = [_shape(run, rng, "A[1;2,2,2,2,2,2]"), _shape(run, rng, "2*A[2;3,3,3] + 3*Z5"), _random(run, rng, 60)]
    groups = [_shape(run, rng, "A[1;8]"), _shape(run, rng, "4*Z3 + A[1;3,2]"), _rigid(run, rng)]
    over_cap = [_shape(run, rng, "A[1;9]"), _shape(run, rng, "3*A[1;4] + Z2")]
    for case in groups + over_cap:
        _add_maps(rng, case, misses=1 if case is groups[1] else 0)
    return Inputs(
        orbit_cases, pair_cases, groups, over_cap,
        _write(workdir, "uh255.json", orbit_cases[0].A), _write(workdir, "a18.json", groups[0].A),
    )


def _group_orbits(auts, n):
    return tuple(sorted({tuple(sorted({p[x] for p in auts})) for x in range(n)}))


def run_pass(run, inp: Inputs, cache: dict, between=()) -> None:
    def ref_orbits(case):
        if case.id not in cache:
            cache[case.id] = ref.orbit_partition(case.A.table)
        return cache[case.id]

    extended = inp.groups + inp.over_cap
    spread = Spread(
        interleave(_cli_calls(run, inp, ref_orbits(inp.orbit_cases[0])) * CLI_ROUNDS, between),
        len(inp.groups) + len(extended) + len(inp.orbit_cases) + len(inp.pair_cases),
    )
    # Groups first: materializing them on a fresh heap keeps the peak memory
    # steadier from run to run than after the orbit labelling has run.
    for case in inp.groups:
        auts = run.call("iso.enumerate_automorphisms", case.id, iso.enumerate_automorphisms, case.A)
        blocks = run.call("orbits.one_orbits", case.id, orbits.one_orbits, case.A)
        with run.untimed():
            key = case.id + "/order"
            if key not in cache:
                cache[key] = ref.group_order(case.A.table)
            run.expect_result(blocks, ref_orbits(case), f"one_orbits({case.id})")
            if auts is not FAILED:
                run.count("iso.enumerate_automorphisms.auts", len(auts))
                f = case.A.table
                run.expect(
                    len(auts) == cache[key] == len(set(auts)) and all(ref.is_automorphism(f, p) for p in auts),
                    f"enumerate_automorphisms({case.id}) is not the group of order {cache[key]}",
                )
                run.expect(_group_orbits(auts, case.A.n) == ref_orbits(case), f"orbits of the group of {case.id}")
            del auts
        spread.step()
    for case in extended:
        for mapping, extends in case.maps:
            got = run.call("iso.extend_to_automorphism", case.id, iso.extend_to_automorphism, case.A, mapping)
            with run.untimed():
                if got is not FAILED:
                    ok = (
                        ref.is_automorphism(case.A.table, got) and all(got[k] == v for k, v in mapping.items())
                        if extends else got is None
                    )
                    run.expect(ok, f"extend_to_automorphism({case.id}, {mapping}) gave {str(got):.200}")
        spread.step()
    for case in inp.orbit_cases:
        got = run.call("orbits.one_orbits", case.id, orbits.one_orbits, case.A, tag=case.tag)
        with run.untimed():
            run.expect_result(got, ref_orbits(case), f"one_orbits({case.id})")
            if case.shape is not None and got is not FAILED:
                run.expect(symbolic.o1(case.shape) == Cardinal(len(got)), f"one_orbits({case.id}) block count != o1")
        spread.step()
    for case in inp.pair_cases:
        got = run.call("orbits.n_orbit_count", case.id, orbits.n_orbit_count, case.A, 2)
        with run.untimed():
            run.count("orbits.tuples_labelled", case.A.n ** 2)
            key = case.id + "/pairs"
            if key not in cache:
                cache[key] = ref.pair_orbit_count(case.A.table)
            run.expect_result(got, cache[key], f"n_orbit_count({case.id}, 2)")
        spread.step()
    spread.finish()


def _cli_calls(run, inp: Inputs, blocks) -> list:
    def orbits_():
        got = run.cli_json("orbits", "A[3;4,4,4]", ["orbits", inp.cli_orbits], {0})
        run.expect(
            got is None or (got["profile"] == [len(blocks)] and got["one_orbits"] == [list(b) for b in blocks]),
            "cli orbits disagrees with the reference",
        )

    def aut():
        got = run.cli_json("aut", "A[1;8]", ["aut", inp.cli_aut], {0})
        run.expect(got is None or got["count"] == 40320, "cli aut did not list the 8! automorphisms of A[1;8]")

    def startup():
        got = run.cli_json("startup", "f: 1 0 0", ["analyze", "f: 1 0 0"], {0})
        run.expect(got is None or got["cycle_sizes"] == [2], f"cli analyze on a tiny table gave {got}")

    return [orbits_, aut, startup]
