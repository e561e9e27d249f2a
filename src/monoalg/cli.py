"""Command line front end.

Usage examples:
  monoalg analyze "f: 0 0 0 1"
  monoalg iso "f: 0 0 0" "f: 1 1 1"
  monoalg aut "f: 1 2 3 0"
  monoalg orbits "f: 0 0 0" --n 2
  monoalg check uh "f: 1 2 0"
  monoalg check omega-cat "B[w]" --json
  monoalg check phom-n "f: 1 2 3 4 0" --k 2
  monoalg classify "f: 1 0 0" --json
  monoalg decompose "f: 1 0 3 4 2"
  monoalg limit --k 2
  monoalg instantiate "A[1;w,2]" --w 3
  monoalg truncate "A[2;1;2]" --height 3
  monoalg enumerate --n 4 --out corpus4.txt
  monoalg semilinear "f: 0 0 0 1" --root 0
  monoalg export-dot "f: 1 2 0"

An algebra argument is a file path (JSON {"n":..,"f":[..]} or a text
table "f: 0 0 1"), the same two forms inline, "random:N:SEED", or, for
the verbs that accept shapes, a symbolic sum such as "2*A[3;w,2]+w*B[w]".
Exit codes: 0 holds/done, 1 property fails, 2 error.  MONOALG_BOUND sets
the default oracle bound (otherwise 8); it and --bound must be at least 1.

run() is the process entry, which `python -m monoalg.cli` and the
`monoalg` script call: it flushes the answer and leaves without the
interpreter's teardown, and a closed pipe exits 2.  main() is the
in-process entry, which returns the exit code; it builds the parser once
per process and reads MONOALG_BOUND on every call.

Each verb imports only the modules it reads, so a call pays only for
the code it runs; the parser reads its limits from core.  README's
Command line section lists the limits that bound each verb's work.
`check` reads its properties from one table, _PROPERTIES.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain, cycle
from operator import getitem
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import core

if TYPE_CHECKING:
    from . import symbolic

MAX_RANDOM_N = 10**6  # the most the CLI builds: points (random:N, instantiate), truncate's entries
AUT_CHUNK = 1 << 16  # the entries `aut` joins into one write

# shape tokens only, with at least one descriptor letter
_SHAPE = re.compile(r"[\dw\[\];,+*\s]*[ZNAB][\dwZNAB\[\];,+*\s]*")


def _bound(text: str) -> int:
    """An oracle bound as given to --bound or MONOALG_BOUND: an integer of
    at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _default_bound() -> int:
    env = os.environ.get("MONOALG_BOUND")
    try:
        return _bound(env) if env else core.DEFAULT_BOUND
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"MONOALG_BOUND {exc}") from None


def _load_any(arg: str):
    """Finite or partial algebra from path, inline table/JSON, or random:N:SEED.
    An operand that is none of these but reads as a symbolic shape is
    refused as one."""
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read().strip()
        return core.from_json(text) if text.startswith("{") else core.from_text(text)
    if arg.startswith("random:"):
        try:
            n, seed = map(int, arg.split(":")[1:])
        except ValueError:
            raise ValueError(f"expected random:N:SEED with integers N and SEED, got {arg!r}") from None
        if not 1 <= n <= MAX_RANDOM_N:
            raise ValueError(f"random:N needs 1 <= N <= {MAX_RANDOM_N}, got N={n}")
        return core.random_algebra(n, seed)
    if arg.lstrip().startswith("{"):
        return core.from_json(arg)
    try:
        return core.from_text(arg)
    except ValueError as exc:
        if _looks_symbolic(arg):
            raise ValueError(
                f"{arg!r} is a symbolic shape, not a table; the verbs that read shapes are check, instantiate"
                " and truncate"
            ) from None
        raise ValueError(f"no such file {arg!r}, and not an inline table either ({exc})") from None


def _load_total(arg: str) -> core.FiniteMonounary:
    alg = _load_any(arg)
    if isinstance(alg, core.PartialMonounary):
        raise ValueError("a total algebra is required here")
    return alg


def _looks_symbolic(arg: str) -> bool:
    return _SHAPE.fullmatch(arg) is not None and not os.path.exists(arg)


def _emit(args, payload: dict, human: Callable[[], str]) -> None:
    """Print the payload as JSON, or the text that `human` builds."""
    print(json.dumps(payload) if args.json else human())


def _cmd_analyze(args) -> int:
    A = _load_total(args.algebra)
    r = core.structure_report(A)
    payload = {
        "n": A.n,
        "components": [list(c) for c in r.components],
        "cyclic": sorted(r.cyclic),
        "heights": list(r.heights),
        "height": r.height,
        "leaves": sorted(r.leaves),
        "cycle_sizes": list(r.cycle_sizes),
        "min_generating": {
            "leaves": sorted(r.min_generating.leaves),
            "cycle_choices": [sorted(c) for c in r.min_generating.cycle_choices],
        },
    }

    def human() -> str:
        return "\n".join(
            [
                f"n = {A.n}",
                f"components: {payload['components']}",
                f"cyclic: {payload['cyclic']}",
                f"heights: {payload['heights']} (algebra height {r.height})",
                f"leaves: {payload['leaves']}",
                f"cycle sizes: {payload['cycle_sizes']}",
                f"minimal generators: leaves {payload['min_generating']['leaves']}"
                f" + one choice from each of {payload['min_generating']['cycle_choices']}",
            ]
        )

    _emit(args, payload, human)
    return 0


def _cmd_iso(args) -> int:
    from . import iso

    A, B = _load_total(args.left), _load_total(args.right)
    verdict = iso.are_isomorphic(A, B)
    _emit(args, {"isomorphic": verdict}, lambda: f"isomorphic: {str(verdict).lower()}")
    return 0 if verdict else 1


def _cmd_aut(args) -> int:
    from . import iso

    A = _load_total(args.algebra)
    if args.oracle:
        auts = iso.brute_force_automorphisms(A, bound=args.bound)
    else:  # byte strings on at most 256 points: iterating one gives its points
        auts = iso.automorphism_images(A)
    # the rows are written as json.dumps and str(list(p)) would write them,
    # whole rows of about AUT_CHUNK entries at a time, each chunk joined
    # in C from one piece per entry: seps[i][x] is x's name and what
    # follows position i, ", " or the row break.  The last row is written
    # with the closing.  No row is built as a string, and nothing the size
    # of the output is, so beyond the automorphisms themselves the text
    # alive is one chunk: the traced peak of `aut --json` on
    # 4*Z3 + A[1;3,2] (93 312 rows of 22 points) stays under 12 MiB
    if args.json:
        head, brk, tail = f'{{"count": {len(auts)}, "automorphisms": [[', "], [", "]]}\n"
    else:
        head, brk, tail = "[", "]\n[", "]\n"
    names = list(map(str, range(A.n)))
    seps = [[name + ", " for name in names]] * (A.n - 1) + [[name + brk for name in names]]
    step, last, out = max(1, AUT_CHUNK // A.n), len(auts) - 1, sys.stdout.write
    out(head)
    for start in range(0, last, step):
        chunk = auts[start:min(start + step, last)]
        out("".join(map(getitem, cycle(seps), chain.from_iterable(chunk))))
    out(", ".join(map(names.__getitem__, auts[last])) + tail)
    return 0


def _cmd_orbits(args) -> int:
    from . import orbits

    A = _load_total(args.algebra)
    walk = orbits.orbit_walk(A, args.n)
    first = next(walk)  # the unmarked labelling: the 1-orbits, and the profile's first count
    blocks = [list(b) for b in core.group_points(first[2])]
    profile = orbits.profile(chain([first], walk))
    _emit(
        args,
        {"profile": profile, "one_orbits": blocks},
        lambda: f"profile: {profile}\none_orbits: {blocks}",
    )
    return 0


class _Property(NamedTuple):
    """How `check` decides one property.  Functions are named, not held,
    so that importing the CLI imports neither module."""

    decider: str | None = None  # in symbolic: reads a shape, or a finite table's normal form
    search: str | None = None  # in homogeneity: definition-level, run under --oracle, or --k if no decider
    partial: bool = False  # `search` is instead a decider that reads the algebra as loaded, partial or total
    finite: bool = False  # what a finite table with no normal form, so not UH, answers
    reports: str | None = None  # the name answered under, when not the property's own

    @property
    def takes_k(self) -> bool:
        """Whether --k is read: by a search that has no decider to run instead."""
        return self.decider is None and not self.partial


# every property `check` decides, in the order its usage line lists them
_PROPERTIES = {
    "uh": _Property("is_ultrahomogeneous", "is_ultrahomogeneous_oracle"),
    "hom": _Property("is_homogeneous"),
    "hom-n": _Property(search="is_n_homogeneous"),
    "phom": _Property("is_partially_homogeneous", "is_partially_homogeneous_oracle"),
    "phom-n": _Property(search="is_partially_n_homogeneous"),
    "transitive": _Property("is_transitive"),
    "omega-cat": _Property("is_omega_categorical", finite=True, reports="omega_categorical"),
    "lf": _Property("is_locally_finite", finite=True),
    "ulf": _Property("is_ulf", finite=True),
    "pf-uh": _Property(search="pseudoforest_ultrahomogeneous", partial=True),
}


def _cmd_check(args) -> int:
    prop, arg = _PROPERTIES[args.property], args.algebra
    shape = _looks_symbolic(arg)
    if args.oracle and not (prop.decider and prop.search and not shape):
        where = " on a symbolic shape" if prop.decider and prop.search else ""
        has = " and ".join(name for name, p in _PROPERTIES.items() if p.decider and p.search)
        raise ValueError(f"property {args.property!r} has no --oracle{where}; it has one for {has} on finite tables")
    if args.k is not None and not prop.takes_k:
        has = " and ".join(name for name, p in _PROPERTIES.items() if p.takes_k)
        raise ValueError(f"property {args.property!r} takes no --k; only {has} do")
    if shape and prop.decider is None:
        raise ValueError(f"property {args.property!r} does not apply to a symbolic shape")
    if prop.decider and not args.oracle:
        from . import symbolic

        S = symbolic.parse(arg) if shape else symbolic.normal_form(_load_total(arg))
        holds = getattr(symbolic, prop.decider)(S) if S is not None else prop.finite
    else:  # the search: under --oracle, or where it is the only way to decide
        from . import homogeneity

        search = getattr(homogeneity, prop.search)
        if prop.partial:
            holds = search(_load_any(arg))
        else:
            A = _load_total(arg)
            if args.oracle:
                holds = search(A, args.bound)
            elif args.k is None:
                raise ValueError("this property needs --k")
            else:
                holds = search(A, args.k, args.bound)
    name = prop.reports or args.property.replace("-", "_")
    _emit(args, {"property": name, "holds": holds}, lambda: f"{name}: {str(holds).lower()}")
    return 0 if holds else 1


def _cmd_classify(args) -> int:
    from . import homogeneity

    A = _load_total(args.algebra)
    report = homogeneity.classify_lattice(A, bound=args.bound).to_dict()
    _emit(args, report, lambda: ", ".join(f"{k}={str(v).lower()}" for k, v in report.items()))
    return 0


def _emit_shape(args, S) -> None:
    from . import symbolic

    text = symbolic.show(S)
    _emit(args, {"symbolic": text}, lambda: text)


def _cmd_decompose(args) -> int:
    from . import symbolic

    _emit_shape(args, symbolic.decompose(_load_total(args.algebra)))
    return 0


def _cmd_limit(args) -> int:
    from . import symbolic

    _emit_shape(args, symbolic.fraisse_limit(args.k))
    return 0


def _instance_size(S: symbolic.SymbolicAlgebra, w: int) -> int:
    """Points of symbolic.instantiate(S, w), counted without building it;
    descriptors with no finite instance count as empty."""
    from . import symbolic

    total = 0
    for mult, desc in S.components:
        if isinstance(desc, symbolic.Profile) and desc.tail is None:
            level = points = desc.cycle
            for a in desc.prefix:
                level *= a.substitute(w)
                points += level
            total += mult.substitute(w) * points
    return total


def _cmd_instantiate(args) -> int:
    from . import symbolic

    S = symbolic.parse(args.shape)
    if args.w is None or args.w < 1:
        raise ValueError("instantiate needs --w, at least 1")
    n = _instance_size(S, args.w)
    if n > MAX_RANDOM_N:
        raise ValueError(f"instantiate builds at most {MAX_RANDOM_N} points; {args.shape!r} with w={args.w} has {n}")
    A = symbolic.instantiate(S, args.w)
    _emit(args, {"n": A.n, "f": list(A.table)}, lambda: core.to_text(A))
    return 0


def _truncate_size(S: symbolic.SymbolicAlgebra, h: int, max_cycle: int | None) -> int:
    """Profiles and level cardinals of symbolic.truncate(S, h, max_cycle),
    counted without building them: a tail expands to h levels, a
    tail-free prefix keeps min(h, len(prefix)) of them."""
    from . import symbolic

    def size(prefix, tail) -> int:
        return 1 + (h if tail is not None else min(h, len(prefix)))

    total = sum(size(d.prefix, d.tail) for _, d in S.components if isinstance(d, symbolic.Profile))
    return total + (max_cycle or 0) * sum(size(fam.prefix, fam.tail) for fam in S.families)


def _cmd_truncate(args) -> int:
    from . import symbolic

    S = symbolic.parse(args.shape) if args.limit_k is None else symbolic.fraisse_limit(args.limit_k)
    n = _truncate_size(S, args.height, args.max_cycle)
    if n > MAX_RANDOM_N:
        cycles = f" and max-cycle {args.max_cycle}" if S.families else ""
        raise ValueError(
            f"truncate builds at most {MAX_RANDOM_N} profiles and level cardinals;"
            f" {symbolic.show(S)!r} to height {args.height}{cycles} has {n}"
        )
    _emit_shape(args, symbolic.truncate(S, args.height, max_cycle=args.max_cycle))
    return 0


def _cmd_enumerate(args) -> int:
    from . import enumeration

    corpus = enumeration.enumerate_up_to_iso(args.n)
    if args.out:
        enumeration.save_corpus(corpus, args.out)
        print(f"wrote {len(corpus.representatives)} classes to {args.out}")
    else:
        print(f"# n={corpus.n} count={len(corpus.representatives)}")
        for A in corpus.representatives:
            print(" ".join(map(str, A.table)))
    return 0


def _cmd_semilinear(args) -> int:
    from . import semilinear

    A = _load_total(args.algebra)
    # the oracle checks the tree against the bound before anything is built
    equal, alg_auts, _ = semilinear.check_aut_equality(A, args.root, bound=args.bound)
    order = semilinear.build_order(A, args.root)
    payload = {
        "elements": list(order.elements),
        "bottom": order.bottom,
        "covers": sorted([list(c) for c in order.covers]),
        "aut_equality": equal,
        "aut_count": len(alg_auts),
    }

    def human() -> str:
        return (
            f"elements: {payload['elements']} (bottom {order.bottom})\n"
            f"covers: {payload['covers']}\n"
            f"aut groups agree: {str(equal).lower()} ({len(alg_auts)} automorphisms)"
        )

    _emit(args, payload, human)
    return 0 if equal else 1


def _cmd_export_dot(args) -> int:
    alg = _load_any(args.algebra)
    text = core.to_dot(alg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError from writing the help; this parser lets
    it through to main, so that help written into a closed pipe is
    reported like any other answer."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb.  --bound has no default of its own: main
    gives it one from MONOALG_BOUND on each call, so that one parser
    serves every call in a process."""
    parser = _Parser(prog="monoalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, **kwargs) -> argparse.ArgumentParser:
        """The verb's parser, naming `run` as the handler that main calls."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    def operands(p, *names, bound=False) -> None:
        """The positional operands, --json and, for a verb with an oracle, --bound."""
        for name in names:
            p.add_argument(name)
        p.add_argument("--json", action="store_true")
        if bound:
            p.add_argument("--bound", type=_bound, default=argparse.SUPPRESS)

    operands(verb("analyze", _cmd_analyze, help="structural report"), "algebra")

    operands(verb("iso", _cmd_iso, help="isomorphism test"), "left", "right")

    p = verb("aut", _cmd_aut, help="list automorphisms")
    operands(p, "algebra", bound=True)
    p.add_argument("--oracle", action="store_true", help="brute-force filter")

    p = verb("orbits", _cmd_orbits, help="orbit profile")
    operands(p, "algebra")
    p.add_argument("--n", type=int, default=1, help="largest tuple arity")

    p = verb("check", _cmd_check, help="decide a property")
    p.add_argument("property", choices=_PROPERTIES)
    operands(p, "algebra", bound=True)
    p.add_argument("--k", type=int)
    p.add_argument("--oracle", action="store_true", help="definition-level search")

    operands(verb("classify", _cmd_classify, help="full homogeneity lattice report"), "algebra", bound=True)

    operands(verb("decompose", _cmd_decompose, help="symbolic normal form of a UH algebra"), "algebra")

    p = verb("limit", _cmd_limit, help="age-limit family")
    p.add_argument("--k", type=int, default=None, help="indegree bound; omit for all finite algebras")
    operands(p)

    p = verb("instantiate", _cmd_instantiate, help="explicit table from a shape")
    p.add_argument("--w", type=int, help="value substituted for w")
    operands(p, "shape")

    p = verb("truncate", _cmd_truncate, help="cut a shape to bounded height")
    p.add_argument("shape", nargs="?", default="")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--max-cycle", type=int, default=None)
    p.add_argument("--limit-k", type=int, default=None, help="truncate the k-bounded limit family instead")
    operands(p)

    p = verb("enumerate", _cmd_enumerate, help=f"all classes up to isomorphism on n <= {core.MAX_POINTS} points,"
             " built as multisets of cycles of rooted trees, each as its least table")
    p.add_argument("--n", type=int, required=True, help=f"number of points, 1..{core.MAX_POINTS}")
    p.add_argument("--out")

    p = verb("semilinear", _cmd_semilinear, help="order on the tree above a cyclic element")
    operands(p, "algebra", bound=True)
    p.add_argument("--root", type=int, required=True)

    p = verb("export-dot", _cmd_export_dot, help="digraph form")
    p.add_argument("algebra")
    p.add_argument("--out")

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        # MONOALG_BOUND is read on every call, for every verb, so that a
        # bad value always fails; --bound, when given, overrides it
        defaults = argparse.Namespace(bound=_default_bound())
        args = _parser().parse_args(argv, defaults)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run main() as the whole process: flush stdout, then stderr, and
    leave with os._exit, so that the interpreter frees no table or module
    one object at a time after the answer is written.  argparse's exit
    after --help or a usage error takes the same way out with its code.
    A closed pipe on the closing flush is reported as an error (exit 2).
    Any other exception that main does not catch propagates through the
    normal interpreter exit."""
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # main has reported no error yet; when it has, this is one more sign of it
            print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
