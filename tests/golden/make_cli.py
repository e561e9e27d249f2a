"""The golden CLI transcript: a grid of command lines, each run through
`cli.main` in process, and written to cli.jsonl next to this file as one
JSON object per call: argv, env, exit code, stdout and stderr.
tests/test_golden.py replays every line and compares.

After a change that alters output on purpose, regenerate the file from
the repository root and name every changed line in CHANGES.md:

    PYTHONPATH=src python tests/golden/make_cli.py

Every call runs in a working directory that holds only FILES, with
COLUMNS fixed and MONOALG_BOUND set only where a line's env sets it, so
that no line records a temporary path or a setting of the machine.
argparse's own text (help, usage errors, invalid choices) is left out of
the grid: it comes from the interpreter and differs between versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from monoalg import cli

TRANSCRIPT = Path(__file__).with_name("cli.jsonl")

# the input files every call can read, by name in its working directory
FILES = {
    "table.json": '{"n": 4, "f": [1, 0, 0, 2]}\n',
    "table.txt": "f: 1 2 0 0\n",
    "partial.json": '{"n": 3, "f": [1, null, 1]}\n',
    "broken.json": '{"n": 2, "f": [0, 7]}\n',
}

TABLES = [
    "f: 0", "f: 0 0 0", "f: 1 2 0", "f: 0 0 0 1", "f: 1 0 3 4 2", "f: 1 0 0", '{"n": 3, "f": [1, 2, 0]}',
    "random:6:1", "table.json", "table.txt",
]
PARTIAL = ["f: 1 - 0", "partial.json"]
SHAPES = ["Z3", "A[1;w]", "B[w]", "2*A[3;w,2]+w*B[w]", "Z2 + Z3"]
MALFORMED = [
    "f: 3", "f: 0 x", "f:", "", '{"n": 2, "f": [0]}', '{"n": true, "f": [0]}', "{", "random:5", "random:0:1",
    "random:1000001:1", "missing.json", "broken.json", "A[1;", "Q5",
]

# a loop with ten leaves (10! automorphisms, over the cap of 100 000), and
# A[1;8] next to a rigid 300-point path (8! automorphisms on 309 points)
STAR10 = "f: " + " ".join(["0"] * 11)
A18_PATH = "f: " + " ".join(map(str, [0] * 9 + [9] + list(range(9, 308))))


def grid() -> list[tuple[list[str], dict[str, str]]]:
    """Every call as (argv, env)."""
    calls: list[list[str]] = []

    def json_too(argv: list[str]) -> None:
        calls.extend([argv, argv + ["--json"]])

    # an operand the loader refuses is refused alike with --json: that is
    # shown on analyze alone
    for x in TABLES + PARTIAL + SHAPES:
        for verb in ("analyze", "aut", "orbits", "classify", "decompose"):
            json_too([verb, x])
        json_too(["semilinear", x, "--root", "0"])
        calls.append(["export-dot", x])
    for x in MALFORMED:
        calls.extend([verb, x] for verb in ("analyze", "aut", "orbits", "classify", "decompose", "export-dot"))
        calls.extend([["analyze", x, "--json"], ["semilinear", x, "--root", "0"]])
    for left, right in [
        ("f: 0 0 0", "f: 1 1 1"), ("f: 0 0 0", "f: 0 1 2"), ("f: 1 2 0", '{"n": 3, "f": [2, 0, 1]}'),
        ("f: 1 0 0", "table.json"), ("table.txt", "f: 1 2 0 0"), ("f: 0", "f: 0 0"), ("f: 1 - 0", "f: 1 0 0"),
        ("f: 0", "f: 3"), ("f: 3", "f: 0"), ("Z3", "f: 1 2 0"), ("missing.json", "f: 0"), ("random:7:2", "random:7:3"),
    ]:
        json_too(["iso", left, right])

    for prop in cli._PROPERTIES:
        for x in ["f: 1 0 3 4 2", "f: 0 0 0 1", "f: 1 - 0", "A[2;w,3]", "Z3", "A[1;"]:
            for flags in ([], ["--oracle"], ["--k", "2"], ["--json"]):
                calls.append(["check", prop, x, *flags])
    for argv in (
        ["check", "uh", "f: 0 0 0 0 0 0 0 0 0", "--oracle"], ["check", "uh", "f: 1 0 0", "--oracle", "--bound", "2"],
        ["check", "hom-n", "f: 1 0 0", "--k", "1"], ["check", "hom-n", "f: 1 0 0"], ["check", "phom-n", "f: 1 0 3 2", "--k", "3"],
        ["check", "phom-n", "f: 1 2 0", "--k", "0"], ["check", "omega-cat", "A[2;w,3]", "--json"],
    ):
        json_too(argv)

    for x in ("f: 0 0 0", "f: 1 2 0", "f: 0 0"):
        for n in ("-3", "0", "1", "2", "3", "32", "33", "1000000000"):
            json_too(["orbits", x, "--n", n])
    json_too(["orbits", "f: 0 0", "--n", "13"])
    json_too(["orbits", "f: 0 0", "--n", "14"])
    json_too(["orbits", "random:1000:1", "--n", "3"])
    json_too(["orbits", "random:5000:1", "--n", "2"])

    for x in ("f: 0 0 0 1", "f: 1 2 3 0", "f: 0 0 0 0 0 0 0 0 0", STAR10):
        json_too(["aut", x, "--oracle"])
        json_too(["aut", x, "--oracle", "--bound", "4"])
    for x in (STAR10, A18_PATH, "f: 0 0 0 0 0", "f: 1 0 3 2 5 4"):
        json_too(["aut", x])

    for k in ([], ["--k", "0"], ["--k", "1"], ["--k", "2"], ["--k", "3"], ["--k", "-1"]):
        json_too(["limit", *k])

    for shape in ["Z3", "A[1;w]", "A[2;w,3]", "B[w]", "2*A[3;w,2]+w*B[w]", "A[1;", "", "A[2;w,3]+B[w]"]:
        calls.extend(["instantiate", shape, *w] for w in ([], ["--w", "0"], ["--w", "2"]))
        json_too(["instantiate", shape, "--w", "1"])
    json_too(["instantiate", "A[1;w]", "--w", "1000000"])
    json_too(["instantiate", "w*A[1;w]", "--w", "1001"])

    for shape in ("A[2;1;2]", "A[1;;1]", "B[w]", "Z3", "2*A[3;w,2]+w*B[w]", "A[1;", ""):
        calls.extend(["truncate", shape, "--height", height] for height in ("0", "3"))
        json_too(["truncate", shape, "--height", "1"])
    for k in ("0", "1", "2"):
        for cycle in ([], ["--max-cycle", "3"]):
            json_too(["truncate", "--limit-k", k, "--height", "2", *cycle])
    json_too(["truncate", "A[1;;1]", "--height", "1000000"])
    json_too(["truncate", "--limit-k", "1", "--height", "1000", "--max-cycle", "1000"])
    json_too(["truncate", "--limit-k", "1", "--height", "-1"])
    json_too(["truncate", "--limit-k", "2", "--height", "2", "--max-cycle", "0"])
    json_too(["truncate", "A[1;w]", "--height", "2", "--max-cycle", "-1"])
    json_too(["truncate", "A[1;w]", "--height", "2", "--max-cycle", "3"])
    json_too(["truncate", "--height", "3"])
    json_too(["truncate", "not a shape at all", "--limit-k", "2", "--height", "1", "--max-cycle", "2"])

    for n in ("-1", "0", "1", "2", "3", "4", "5", "13"):
        calls.append(["enumerate", "--n", n])
    calls.append(["enumerate", "--n", "3", "--out", "corpus3.txt"])

    for x in ("f: 0 0 0 1", "f: 1 0 3 2", "f: 0 1 1", "f: 1 0 0 0 0 0 0 0 0 0"):
        for root in ("0", "1", "2", "99"):
            json_too(["semilinear", x, "--root", root])
    calls.append(["export-dot", "f: 1 2 0", "--out", "out.dot"])

    env_calls = [
        (argv, {"MONOALG_BOUND": bound})
        for bound in ("3", "0", "x", "")
        for argv in (["aut", "f: 0 0 0 1", "--oracle"], ["analyze", "f: 0"], ["classify", "f: 1 0 0 0"])
    ]
    return [(argv, {}) for argv in calls] + env_calls


def transcript(calls, workdir) -> list[dict]:
    """Run each (argv, env) call through cli.main in workdir, which is
    given FILES first, and return one record per call."""
    saved_cwd, saved_env = os.getcwd(), dict(os.environ)
    os.chdir(workdir)
    try:
        for name, text in FILES.items():
            Path(name).write_text(text)
        records = []
        for argv, env in calls:
            os.environ.pop("MONOALG_BOUND", None)
            os.environ.update(env, COLUMNS="80")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            records.append({"argv": argv, "env": env, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        return records
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)


def dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        records = transcript(grid(), workdir)
    TRANSCRIPT.write_text("".join(dump(r) + "\n" for r in records))
    print(f"wrote {len(records)} calls to {TRANSCRIPT.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
