"""large-tables: the structural pipeline at scale.

Every table goes through structure_report, certificate equality against a
relabelled copy, are_isomorphic (against that copy and against a copy with
one leaf turned into a loop), is_ultrahomogeneous and decompose.  Then the
CLI verbs run as subprocesses on one 10^5-point JSON file.  Orbits,
automorphism groups, enumeration and the oracles do no work here.

The 2500- and 10^4-point paths time decompose, which is quadratic in the
height at the baseline commit, at two sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from monoalg import core, homogeneity, iso, symbolic
from monoalg.symbolic import NotUltrahomogeneous

import reference as ref
from harness import FAILED, Spread, interleave

RANDOM_N = 100_000
COMPONENT_POINTS, COMPONENT_COPIES = 100, 200
CLI_ROUNDS = 2


@dataclass
class Table:
    id: str
    A: core.FiniteMonounary
    copy: core.FiniteMonounary  # relabelled by a random permutation
    perturbed: core.FiniteMonounary  # provably not isomorphic to A
    shape: Optional[symbolic.SymbolicAlgebra] = None  # set when A is a UH instance
    tag: Optional[str] = None  # size tag for per-layer metrics


@dataclass
class Inputs:
    tables: list[Table]
    cli_file: str
    cli_copy: str


def _table(run, rng, tid, raw, shape=None, tag=None) -> Table:
    copy = ref.relabel(raw, ref.random_perm(rng, len(raw)))

    def validate(t):
        return run.call("core.validate", tid, core.validate, t)

    return Table(tid, validate(raw), validate(copy), validate(ref.perturb(raw)), shape, tag)


def _shape_table(run, rng, tid, text, tag=None) -> Table:
    S = symbolic.parse(text)
    A = run.call("symbolic.instantiate", tid, symbolic.instantiate, S, 1)
    raw = ref.relabel(A.table, ref.random_perm(rng, A.n))
    return _table(run, rng, tid, raw, S, tag)


def _components(rng) -> list[int]:
    """COMPONENT_COPIES copies of one random connected component."""
    m = COMPONENT_POINTS
    cycle = rng.randint(1, 4)
    one = [(i + 1) % cycle for i in range(cycle)] + [rng.randrange(i) for i in range(cycle, m)]
    return [v + c * m for c in range(COMPONENT_COPIES) for v in one]


def setup(run, rng, workdir) -> Inputs:
    tables = [
        _table(run, rng, f"random-1e5-{k}", [rng.randrange(RANDOM_N) for _ in range(RANDOM_N)])
        for k in "ab"
    ]
    tables.append(_shape_table(run, rng, "uh-A[3;4^7]", "A[3;" + ",".join(["4"] * 7) + "]"))
    for tid, n in (("path-2500", 2500), ("path-10k", 10_000)):
        tables.append(_shape_table(run, rng, tid, "A[1;" + ",".join(["1"] * (n - 1)) + "]", tag=tid))
    tables.append(_shape_table(run, rng, "broom-10k", "A[1;" + "1," * 1999 + "8000]"))
    raw = _components(rng)
    tables.append(_table(run, rng, "components-2e4", ref.relabel(raw, ref.random_perm(rng, len(raw)))))
    paths = []
    for name, A in (("random.json", tables[0].A), ("random-copy.json", tables[0].copy)):
        paths.append(os.path.join(workdir, name))
        with open(paths[-1], "w") as fh:
            json.dump({"n": A.n, "f": list(A.table)}, fh)
    return Inputs(tables, *paths)


def _check_report(run, t, r, fa) -> None:
    purely_cyclic = tuple(frozenset(c) for c in fa.components if fa.cyclic.issuperset(c))
    run.expect(
        r.components == fa.components
        and r.cyclic == fa.cyclic
        and r.heights == fa.heights
        and r.height == max(fa.heights)
        and r.leaves == fa.leaves
        and r.cycle_sizes == fa.cycle_sizes
        and r.min_generating.leaves == fa.leaves
        and r.min_generating.cycle_choices == purely_cyclic,
        f"structure_report({t.id}) disagrees with the reference",
    )


def _reference(cache: dict, t: Table):
    """(reference facts, whether t is UH), computed once per input."""
    if t.id not in cache:
        fa = ref.facts(t.A.table)
        cache[t.id] = (fa, t.shape is not None or ref.uh_witness(fa) is None)
        if t.shape is None and cache[t.id][1]:
            raise RuntimeError(f"{t.id}: no reference for is_ultrahomogeneous")
    return cache[t.id]


def run_pass(run, inp: Inputs, cache: dict, between=()) -> None:
    spread = Spread(interleave(_cli_calls(run, inp, cache) * CLI_ROUNDS, between), len(inp.tables))
    for t in inp.tables:
        with run.untimed():
            fa, uh = _reference(cache, t)
        with run.group("input", t.id):
            r = run.call("core.structure_report", t.id, core.structure_report, t.A)
            with run.untimed():
                if r is not FAILED:
                    _check_report(run, t, r, fa)
                del r
            same = run.call(
                "iso.table_certificate", t.id,
                lambda: iso.table_certificate(t.A.table) == iso.table_certificate(t.copy.table),
            )
            run.expect_result(same, True, f"certificates of {t.id} and its relabelled copy")
            got = run.call("iso.are_isomorphic", f"{t.id}/relabelled", iso.are_isomorphic, t.A, t.copy)
            run.expect_result(got, True, f"are_isomorphic({t.id}, relabelled)")
            got = run.call("iso.are_isomorphic", f"{t.id}/perturbed", iso.are_isomorphic, t.A, t.perturbed)
            run.expect_result(got, False, f"are_isomorphic({t.id}, perturbed)")
            got = run.call("homogeneity.is_ultrahomogeneous", t.id, homogeneity.is_ultrahomogeneous, t.A)
            run.expect_result(got, uh, f"is_ultrahomogeneous({t.id})")
            got = run.call(
                "symbolic.decompose", t.id, symbolic.decompose, t.A,
                answers=(NotUltrahomogeneous,), tag=t.tag,
            )
            if got is not FAILED:
                run.expect(
                    got == t.shape if uh else isinstance(got, NotUltrahomogeneous),
                    f"decompose({t.id}) gave {str(got):.200}",
                )
        spread.step()
    spread.finish()


def _cli_calls(run, inp: Inputs, cache: dict) -> list:
    """The CLI verbs on the random table's JSON file, one call each."""
    tid = inp.tables[0].id

    def analyze():
        got = run.cli_json("analyze", tid, ["analyze", inp.cli_file], {0})
        with run.untimed():
            fa = _reference(cache, inp.tables[0])[0]
            run.expect(
                got is None
                or (
                    got["n"] == len(fa.heights)
                    and got["heights"] == list(fa.heights)
                    and got["cycle_sizes"] == list(fa.cycle_sizes)
                    and len(got["components"]) == len(fa.components)
                ),
                "cli analyze disagrees with the reference",
            )

    def iso_():
        got = run.cli_json("iso", tid, ["iso", inp.cli_file, inp.cli_copy], {0, 1})
        run.expect(got is None or got == {"isomorphic": True}, f"cli iso gave {got}")

    def check_uh():
        got = run.cli_json("check_uh", tid, ["check", "uh", inp.cli_file], {0, 1})
        run.expect(got is None or got == {"property": "uh", "holds": False}, f"cli check uh gave {got}")

    def decompose():
        out = run.cli("decompose", tid, ["decompose", inp.cli_file, "--json"], {0, 2})
        run.expect(
            out is None or (out[0] == 2 and "not ultrahomogeneous" in out[2]),
            "cli decompose accepted a non-UH table",
        )

    def startup():
        got = run.cli_json("startup", "f: 1 0 0", ["analyze", "f: 1 0 0"], {0})
        run.expect(got is None or got["cycle_sizes"] == [2], f"cli analyze on a tiny table gave {got}")

    return [analyze, iso_, check_uh, decompose, startup]
