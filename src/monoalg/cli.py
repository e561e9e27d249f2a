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
the default oracle bound (otherwise 8); it and --bound must be at least 1
and at most 9.

run() is the process entry, which `python -m monoalg.cli` and the
`monoalg` script call: it flushes the answer and leaves without the
interpreter's teardown, and a closed pipe exits 2.  main() is the
in-process entry, which returns the exit code; it reads MONOALG_BOUND on
every call.  A call that names a verb is parsed by a parser that holds
that verb alone, built once per verb per process from _VERBS, the one
list of the verbs; a call that names none, and a top-level usage error,
whose usage line lists every verb, by the parser of every verb.  Every
text that argparse prints is the same either way.

Each verb imports only the modules it reads, so a call pays only for
the code it runs: analyze and export-dot read core alone; iso and aut
iso; orbits iso and orbits; check symbolic for a decider, homogeneity
and iso for a search (--oracle, hom-n, phom-n) and all three for pf-uh;
classify all three; decompose, limit, instantiate and truncate
symbolic; enumerate enumeration; semilinear iso and semilinear.  A verb
restates none of their rules: the parser reads its limits from core;
instantiate and truncate count what they would build with
symbolic.instance_size and symbolic.truncated_size before building it;
a table is written by core.to_json or core.to_text and a corpus by
enumeration.corpus_lines, the formats their readers read.
README's Command line section lists the limits that bound each verb's
work.  `check` reads its properties from one table, _PROPERTIES.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import chain, cycle
from operator import getitem
from typing import Callable, NamedTuple

from . import core

MAX_RANDOM_N = 10**6  # the most the CLI builds: points (random:N, instantiate), truncate's entries
AUT_CHUNK = 1 << 16  # the entries `aut` joins into one write

# shape tokens only, with at least one descriptor letter
_SHAPE = re.compile(r"[\dw\[\];,+*\s]*[ZNAB][\dwZNAB\[\];,+*\s]*")


def _bound(text: str) -> int:
    """An oracle bound as given to --bound or MONOALG_BOUND: an integer
    from 1 to core.MAX_BOUND."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    if value > core.MAX_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be at most {core.MAX_BOUND}, got {text!r}: an oracle filters all n! permutations of"
            f" n points, {math.factorial(core.MAX_BOUND)} at n = {core.MAX_BOUND}"
        )
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


def _cmd_instantiate(args) -> int:
    from . import symbolic

    S = symbolic.parse(args.shape)
    if args.w is None or args.w < 1:
        raise ValueError("instantiate needs --w, at least 1")
    n = symbolic.instance_size(S, args.w)
    if n > MAX_RANDOM_N:
        raise ValueError(f"instantiate builds at most {MAX_RANDOM_N} points; {args.shape!r} with w={args.w} has {n}")
    A = symbolic.instantiate(S, args.w)
    print(core.to_json(A) if args.json else core.to_text(A))
    return 0


def _cmd_truncate(args) -> int:
    from . import symbolic

    if args.shape is not None and args.limit_k is not None:
        raise ValueError(f"truncate reads a shape or --limit-k, not both; got {args.shape!r} and --limit-k {args.limit_k}")
    if args.shape is None and args.limit_k is None:
        raise ValueError("truncate reads a shape or --limit-k; got neither")
    S = symbolic.parse(args.shape) if args.limit_k is None else symbolic.fraisse_limit(args.limit_k)
    n = symbolic.truncated_size(S, args.height, args.max_cycle)
    if n > MAX_RANDOM_N:
        cycles = f" and max-cycle {args.max_cycle}" if S.families else ""
        raise ValueError(
            f"truncate builds at most {MAX_RANDOM_N} profiles and level cardinals;"
            f" {symbolic.show(S)!r} to height {args.height}{cycles} has {n}"
        )
    T = symbolic.truncate(S, args.height, max_cycle=args.max_cycle)
    # after truncate's own refusals, so that a bad --max-cycle is named as one
    if args.max_cycle is not None and not S.families:
        raise ValueError(f"--max-cycle applies to a limit family only; {args.shape!r} has none")
    _emit_shape(args, T)
    return 0


def _cmd_enumerate(args) -> int:
    from . import enumeration

    corpus = enumeration.enumerate_up_to_iso(args.n)
    if args.out:
        enumeration.save_corpus(corpus, args.out)
        print(f"wrote {len(corpus.representatives)} classes to {args.out}")
    else:
        sys.stdout.writelines(enumeration.corpus_lines(corpus))
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


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One argument of a verb's parser, as add_argument takes it."""
    return flags, kwargs


_JSON = _arg("--json", action="store_true")
# --bound has no default of its own: main gives it one from MONOALG_BOUND
# on each call, so that one parser serves every call in a process
_BOUND = _arg("--bound", type=_bound, default=argparse.SUPPRESS)

# every verb, in the order its usage line lists them: the handler that
# main calls, its help, and its parser's arguments in declaration order
_VERBS = {
    "analyze": (_cmd_analyze, "structural report", [_arg("algebra"), _JSON]),
    "iso": (_cmd_iso, "isomorphism test", [_arg("left"), _arg("right"), _JSON]),
    "aut": (_cmd_aut, "list automorphisms", [
        _arg("algebra"), _JSON, _BOUND, _arg("--oracle", action="store_true", help="brute-force filter")]),
    "orbits": (_cmd_orbits, "orbit profile", [
        _arg("algebra"), _JSON, _arg("--n", type=int, default=1, help="largest tuple arity")]),
    "check": (_cmd_check, "decide a property", [
        _arg("property", choices=_PROPERTIES), _arg("algebra"), _JSON, _BOUND, _arg("--k", type=int),
        _arg("--oracle", action="store_true", help="definition-level search")]),
    "classify": (_cmd_classify, "full homogeneity lattice report", [_arg("algebra"), _JSON, _BOUND]),
    "decompose": (_cmd_decompose, "symbolic normal form of a UH algebra", [_arg("algebra"), _JSON]),
    "limit": (_cmd_limit, "age-limit family", [
        _arg("--k", type=int, default=None, help="indegree bound; omit for all finite algebras"), _JSON]),
    "instantiate": (_cmd_instantiate, "explicit table from a shape", [
        _arg("--w", type=int, help="the number that w stands for"), _arg("shape"), _JSON]),
    "truncate": (_cmd_truncate, "cut a shape to bounded height", [
        _arg("shape", nargs="?"), _arg("--height", type=int, required=True), _arg("--max-cycle", type=int, default=None),
        _arg("--limit-k", type=int, default=None, help="truncate the k-bounded limit family instead"), _JSON]),
    "enumerate": (_cmd_enumerate, f"all classes up to isomorphism on n <= {core.MAX_POINTS} points,"
                  " built as multisets of cycles of rooted trees, each as its least table", [
        _arg("--n", type=int, required=True, help=f"number of points, 1..{core.MAX_POINTS}"), _arg("--out")]),
    "semilinear": (_cmd_semilinear, "order on the tree above a cyclic element", [
        _arg("algebra"), _JSON, _BOUND, _arg("--root", type=int, required=True)]),
    "export-dot": (_cmd_export_dot, "digraph form", [_arg("algebra"), _arg("--out")]),
}


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError from writing the help; this parser lets
    it through to main, so that help written into a closed pipe is
    reported like any other answer."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser(*verbs: str) -> argparse.ArgumentParser:
    """The parser of the named verbs, or of every verb when none is
    named.  A verb's own parser, and so its help and its usage errors,
    is the same either way; only the top level, which main prints from
    the parser of every verb, lists fewer verbs."""
    parser = _Parser(prog="monoalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in verbs or _VERBS:
        run, summary, arguments = _VERBS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


_parser = functools.cache(build_parser)  # per process: one parser per verb, and one of every verb


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # MONOALG_BOUND is read on every call, for every verb, so that a
        # bad value always fails; --bound, when given, overrides it
        bound = _default_bound()
        # a call that names a verb is read by that verb's parser; one that
        # names none, and a top-level error, whose usage line lists every
        # verb, by the parser of every verb
        parser = _parser(argv[0]) if argv and argv[0] in _VERBS else _parser()
        args, extra = parser.parse_known_args(argv, argparse.Namespace(bound=bound))
        if extra:
            args = _parser().parse_args(argv, argparse.Namespace(bound=bound))
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
