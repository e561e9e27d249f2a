"""Command line behaviour: verbs, exit codes, JSON payload schemas, and
the modules each verb loads when run as a program."""

import contextlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import monoalg
from monoalg import cli, homogeneity, iso, orbits, schemas, symbolic
from monoalg.cli import main
from monoalg.core import MAX_POINTS, from_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, verb, *argv):
    code, out, err = run(capsys, verb, *argv, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.BY_VERB[verb])
    return code, payload


def test_analyze(capsys):
    code, payload = run_json(capsys, "analyze", "f: 0 0 0 1")
    assert code == 0
    assert payload["components"] == [[0, 1, 2, 3]]
    assert payload["heights"] == [0, 1, 1, 2]
    assert payload["leaves"] == [2, 3]
    assert payload["min_generating"] == {"leaves": [2, 3], "cycle_choices": []}
    code, out, _ = run(capsys, "analyze", "f: 1 2 0")
    assert code == 0
    assert "cycle sizes: [3]" in out


def test_iso_exit_codes(capsys):
    code, payload = run_json(capsys, "iso", "f: 0 0 0", "f: 1 1 1")
    assert code == 0 and payload == {"isomorphic": True}
    code, payload = run_json(capsys, "iso", "f: 0 0 0", "f: 0 1 2")
    assert code == 1 and payload == {"isomorphic": False}


def test_aut(capsys):
    code, payload = run_json(capsys, "aut", "f: 1 2 3 0")
    assert code == 0
    assert payload["count"] == 4
    assert payload["automorphisms"] == [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    code, oracle = run_json(capsys, "aut", "f: 1 2 3 0", "--oracle")
    assert oracle == payload


def _relabelled_text(shape, seed):
    """The table of `shape` at w = 1 under a random relabelling, as text."""
    table = symbolic.instantiate(symbolic.parse(shape), 1).table
    p = list(range(len(table)))
    random.Random(seed).shuffle(p)
    f = [0] * len(table)
    for x, y in enumerate(table):
        f[p[x]] = p[y]
    return "f: " + " ".join(map(str, f))


MIXED = "f: 8 12 2 2 9 4 12 12 0 5 2 2 12"  # 2*A[1;3] + Z2 + Z3 relabelled: 432 automorphisms of 13 points


@pytest.mark.parametrize(
    "table, flags, chunk_rows",
    [
        pytest.param(MIXED, (), None, id=MIXED),
        pytest.param("f: 0", (), None, id="f: 0"),
        # a chunk smaller than one row still holds one row
        pytest.param("f: 0", (), 0, id="n=1, chunks under a row"),
        # all 432 rows but the last go in chunks; the last is written on its own
        *[pytest.param(MIXED, (), rows, id=f"432 rows, chunks of {rows}") for rows in (430, 431, 432, 433)],
        pytest.param(_relabelled_text("A[1;8]", 8), (), None, id="A[1;8] relabelled"),  # 40 320 rows, 6 chunks
        pytest.param(_relabelled_text("Z300", 3), (), None, id="Z300 relabelled"),  # tuples, above 256 points
        pytest.param("f: 1 0 3 3 2", ("--oracle",), 1, id="oracle, a row per chunk"),
    ],
)
def test_aut_output_is_what_json_and_str_write(capsys, monkeypatch, table, flags, chunk_rows):
    A = from_text(table)
    auts = iso.enumerate_automorphisms(A)
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "AUT_CHUNK", chunk_rows * A.n)
    code, out, _ = run(capsys, "aut", table, *flags, "--json")
    assert code == 0
    assert out == json.dumps({"count": len(auts), "automorphisms": auts}) + "\n"
    code, out, _ = run(capsys, "aut", table, *flags)
    assert code == 0
    assert out == "\n".join(str(list(p)) for p in auts) + "\n"


def test_aut_writes_in_bounded_memory():
    """4*Z3 + A[1;3,2]: 93 312 rows of 22 points, about 7.5 MB of JSON.
    The rows are written a chunk at a time, so the traced peak is mostly
    the automorphisms' byte strings, not the text."""
    A = symbolic.instantiate(symbolic.parse("4*Z3 + A[1;3,2]"), 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        with open(path, "w") as fh:
            json.dump({"n": A.n, "f": list(A.table)}, fh)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert main(["aut", path, "--json"]) == 0  # caches the skeleton and its labelling outside the measure
            tracemalloc.start()
            try:
                assert main(["aut", path, "--json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak < 12 * 2**20


def test_orbits(capsys):
    code, payload = run_json(capsys, "orbits", "f: 0 0 0", "--n", "2")
    assert code == 0
    assert payload == {"profile": [2, 5], "one_orbits": [[0], [1, 2]]}


def test_orbits_labels_once(capsys, monkeypatch):
    """The profile's first labelling also gives the 1-orbit blocks."""
    from monoalg import iso

    calls = []
    label = iso.label
    monkeypatch.setattr(iso, "label", lambda *a: calls.append(a) or label(*a))
    code, out, _ = run(capsys, "orbits", "f: 0 0 0 1 2", "--n", "1")
    assert code == 0 and out == "profile: [3]\none_orbits: [[0], [1, 2], [3, 4]]\n"
    assert len(calls) == 1


def test_orbits_arity_must_be_positive(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "orbits", "f: 0 0 0", "--n", n)
        assert code == 2 and not out and "arity must be positive" in err


def test_orbit_walk_limit_exits_2_quickly(capsys):
    for argv, limit in (
        (["f: 0 0 0", "--n", "50"], f"limit of arity {orbits.MAX_ORBIT_ARITY}"),
        (["random:1000:1", "--n", "3"], f"more than {orbits.MAX_ORBIT_LABELLINGS} labellings"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "orbits", *argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and not out
        assert f"arity {argv[-1]} " in err and limit in err and "orbit walk limit" in err


def test_orbit_walk_on_many_points_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "orbits", "random:5000:1", "--n", "2")
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert f"arity 2 needs more than {orbits.MAX_ORBIT_POINTS} labelled points" in err and "orbit walk limit" in err


def test_check_finite_properties(capsys):
    assert run(capsys, "check", "uh", "f: 1 2 0")[0] == 0
    assert run(capsys, "check", "uh", "f: 1 0 0")[0] == 1
    assert run(capsys, "check", "uh", "f: 1 0 0", "--oracle")[0] == 1
    assert run(capsys, "check", "transitive", "f: 0 0 0")[0] == 1
    assert run(capsys, "check", "phom-n", "f: 1 2 3 4 0", "--k", "1")[0] == 0
    assert run(capsys, "check", "phom-n", "f: 1 2 3 4 0", "--k", "2")[0] == 1
    assert run(capsys, "check", "hom-n", "f: 1 2 0 0", "--k", "2")[0] == 0
    # finite tables satisfy the finiteness-flavoured properties outright
    assert run(capsys, "check", "lf", "f: 0")[0] == 0
    assert run(capsys, "check", "omega-cat", "f: 0")[0] == 0


def test_check_symbolic_properties(capsys):
    code, payload = run_json(capsys, "check", "omega-cat", "B[w]")
    assert code == 1
    assert payload == {"property": "omega_categorical", "holds": False}
    assert run(capsys, "check", "omega-cat", "A[2;w,3]")[0] == 0
    assert run(capsys, "check", "uh", "Z2 + Z3")[0] == 0
    assert run(capsys, "check", "hom", "N + Z2")[0] == 0
    assert run(capsys, "check", "uh", "N + Z2")[0] == 1
    assert run(capsys, "check", "ulf", "A[1;;1]")[0] == 1


def test_check_pseudoforest(capsys):
    assert run(capsys, "check", "pf-uh", "f: 1 0 3 2")[0] == 0
    assert run(capsys, "check", "pf-uh", "f: 1 2 3 4 0")[0] == 1
    code, _, err = run(capsys, "check", "pf-uh", "f: 0 1")
    assert code == 2 and "loop" in err


def test_check_error_paths(capsys):
    code, _, err = run(capsys, "check", "hom-n", "f: 1 2 0")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "check", "hom-n", "B[w]", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "check", "uh", "f: 9 9")
    assert code == 2 and "error:" in err


def test_check_refuses_k_where_no_search_reads_it(capsys):
    """--k is read only by a search with no decider (hom-n and phom-n,
    without --oracle); everywhere else it is refused, not ignored."""
    takes = [name for name, p in cli._PROPERTIES.items() if p.takes_k]
    assert takes == ["hom-n", "phom-n"]
    refusal = f"takes no --k; only {' and '.join(takes)} do\n"
    for argv in (["uh", "f: 1 2 0", "--k", "2"], ["lf", "B[w]", "--k", "0"], ["uh", "f: 1 2 0", "--oracle", "--k", "2"]):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and not out and err == f"error: property {argv[0]!r} {refusal}", argv
    for name in cli._PROPERTIES.keys() - takes:
        code, out, err = run(capsys, "check", name, "f: 1 0", "--k", "1")
        assert code == 2 and not out and err.endswith(refusal), name


@pytest.mark.parametrize("shape", ["Z3", "B[w]"])
def test_pseudoforest_check_refuses_a_shape(capsys, shape):
    code, out, err = run(capsys, "check", "pf-uh", shape)
    assert (code, out, err) == (2, "", "error: property 'pf-uh' does not apply to a symbolic shape\n")


# one call per verb that reads tables only, with a symbolic shape operand
SHAPE_OPERANDS = [
    ["analyze", "Z3"], ["decompose", "Z3"], ["aut", "Z3"], ["iso", "Z3", "Z3"], ["classify", "Z3"],
    ["orbits", "A[1;w]"], ["semilinear", "Z3", "--root", "0"], ["export-dot", "Z3"],
]


@pytest.mark.parametrize("argv", SHAPE_OPERANDS, ids=[argv[0] for argv in SHAPE_OPERANDS])
def test_table_verbs_refuse_a_shape_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {argv[1]!r} is a symbolic shape, not a table;"
        " the verbs that read shapes are check, instantiate and truncate\n"
    )


def test_long_syntax_error_is_quoted_short(capsys):
    code, _, err = run(capsys, "check", "uh", "A[1;" + "1," * 20_000)
    assert code == 2 and "not a shape term" in err and "(40004 characters)" in err
    assert len(err.encode()) < 300


def test_classify(capsys):
    code, payload = run_json(capsys, "classify", "f: 1 0 0")
    assert code == 0
    assert payload == {
        "transitive": False, "ph1": False, "ph2": False, "ph": False,
        "uh": False, "h": False, "h2": False, "h1": True,
    }


def test_symbolic_pipeline(capsys):
    code, out, _ = run(capsys, "decompose", "f: 1 0 3 4 2")
    assert code == 0 and out.strip() == "Z2 + Z3"
    code, _, err = run(capsys, "decompose", "f: 0 0 0 1")
    assert code == 2 and "non-uniform preimage counts" in err
    code, out, _ = run(capsys, "limit", "--k", "2")
    assert code == 0 and out.strip() == "sum_(n>=1) w*A[n;1;2]"
    code, out, _ = run(capsys, "instantiate", "A[1;w,2]", "--w", "3")
    assert code == 0 and out.strip() == "f: 0 0 0 0 1 1 2 2 3 3"
    for w in ([], ["--w", "0"]):
        code, out, err = run(capsys, "instantiate", "A[1;2]", *w)
        assert code == 2 and not out and "--w" in err, w
    code, out, _ = run(capsys, "truncate", "A[2;1;2]", "--height", "3")
    assert code == 0 and out.strip() == "A[2;1,2,2]"
    code, out, _ = run(
        capsys, "truncate", "--limit-k", "2", "--height", "3", "--max-cycle", "2"
    )
    assert code == 0 and out.strip() == "w*A[1;1,2,2] + w*A[2;1,2,2]"


def test_enumerate(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# n=3 count=7"
    assert len(lines) == 8
    target = tmp_path / "c4.txt"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(target))
    assert code == 0 and "wrote 19 classes" in out
    from monoalg.enumeration import load_corpus

    assert len(load_corpus(str(target)).representatives) == 19
    # the corpus format has two writers, stdout and --out, which agree
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0 and out.encode() == target.read_bytes()


def test_enumerate_names_its_limit(capsys):
    code, out, err = run(capsys, "enumerate", "--n", str(MAX_POINTS + 1))
    assert code == 2 and out == ""
    assert f"between 1 and {MAX_POINTS}" in err


def test_semilinear_checks_the_bound_first(capsys):
    table = "f: 0 " + " ".join(map(str, range(9999)))  # a 10^4-point path
    start = time.perf_counter()
    code, _, err = run(capsys, "semilinear", table, "--root", "0")
    assert code == 2 and "tree size 10000 > 8" in err
    assert time.perf_counter() - start < 1


def test_semilinear(capsys):
    code, payload = run_json(capsys, "semilinear", "f: 0 0 0 1", "--root", "0")
    assert code == 0
    assert payload["bottom"] == 0
    assert payload["covers"] == [[1, 0], [2, 0], [3, 1]]
    assert payload["aut_equality"] is True
    code, _, err = run(capsys, "semilinear", "f: 0 0 0 1", "--root", "3")
    assert code == 2 and "not cyclic" in err
    code, out, err = run(capsys, "semilinear", "f: 0 0", "--root", "5")
    assert code == 2 and not out and "element out of range: 5" in err


def test_export_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", "f: 1 2 0")
    assert code == 0
    assert "0 -> 1;" in out and out.startswith("digraph")
    target = tmp_path / "g.dot"
    assert run(capsys, "export-dot", "f: - 0", "--out", str(target))[0] == 0
    assert "1 -> 0;" in target.read_text()


def test_input_forms(capsys, tmp_path):
    json_file = tmp_path / "a.json"
    json_file.write_text('{"n": 3, "f": [1, 2, 0]}')
    assert run(capsys, "check", "uh", str(json_file))[0] == 0
    text_file = tmp_path / "a.txt"
    text_file.write_text("f: 1 0 0\n")
    assert run(capsys, "check", "uh", str(text_file))[0] == 1
    assert run(capsys, "analyze", '{"n": 2, "f": [1, 0]}')[0] == 0
    code, out, _ = run(capsys, "analyze", "random:5:42", "--json")
    assert code == 0 and json.loads(out)["n"] == 5
    # a partial table is refused where a total one is needed
    assert run(capsys, "check", "uh", "f: - 0")[0] == 2


def test_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("MONOALG_BOUND", "3")
    code, _, err = run(capsys, "check", "uh", "f: 1 2 3 0", "--oracle")
    assert code == 2 and "bound" in err
    code, _, _ = run(capsys, "check", "uh", "f: 1 2 3 0", "--oracle", "--bound", "8")
    assert code == 0


def test_bad_bound_env_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("MONOALG_BOUND", "abc")
    code, _, err = run(capsys, "analyze", "f: 0 0")
    assert code == 2 and "MONOALG_BOUND" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bound_below_one_is_refused_when_parsed(capsys, monkeypatch, value):
    monkeypatch.setenv("MONOALG_BOUND", value)
    code, out, err = run(capsys, "classify", "f: 1 0 0")
    assert code == 2 and not out
    assert f"MONOALG_BOUND must be an integer of at least 1, got '{value}'" in err
    monkeypatch.delenv("MONOALG_BOUND")
    for verb in (["classify"], ["aut", "--oracle"], ["check", "uh", "--oracle"]):
        argv = [*verb, "f: 1 0 0", "--bound", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"--bound: must be an integer of at least 1, got '{value}'" in capsys.readouterr().err


def test_bound_of_one_is_a_bound(capsys):
    code, _, err = run(capsys, "aut", "f: 0 0", "--oracle", "--bound", "1")
    assert code == 2 and "bound exceeded: n=2 > 1" in err
    code, out, _ = run(capsys, "aut", "f: 0", "--oracle", "--bound", "1")
    assert code == 0 and out


def test_missing_file_is_named(capsys, tmp_path):
    missing = str(tmp_path / "NoSuchFile.json")
    code, _, err = run(capsys, "check", "uh", missing)
    assert code == 2 and "no such file" in err and "NoSuchFile.json" in err
    code, _, err = run(capsys, "analyze", missing)
    assert code == 2 and "no such file" in err


def test_iso_and_aut_on_a_long_path(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": 3000, "f": [0] + list(range(2999))}))
    code, payload = run_json(capsys, "iso", str(path), str(path))
    assert code == 0 and payload == {"isomorphic": True}
    code, payload = run_json(capsys, "aut", str(path))
    assert code == 0 and payload["count"] == 1


def test_aut_refuses_a_list_over_its_size_limit(capsys, tmp_path):
    """A[1;8]'s 40320 automorphisms next to a rigid 300-point path."""
    path = tmp_path / "a18-path.json"
    path.write_text(json.dumps({"n": 309, "f": [0] * 9 + [9] + list(range(9, 308))}))
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", str(path))
    assert code == 2 and not out
    assert err == "error: 40320 automorphisms on 309 points exceed the limit of 10000000 listed entries\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", ["true", "1.0"])
def test_json_n_must_be_an_integer(capsys, n):
    code, out, err = run(capsys, "analyze", f'{{"n": {n}, "f": [0]}}')
    assert code == 2 and not out
    assert "'n' must be an integer" in err


def test_deeply_nested_json_is_an_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"n":1,"f":' + "[" * 100_000 + "]" * 100_000 + "}")
    code, _, err = run(capsys, "analyze", str(deep))
    assert code == 2 and "nested too deeply" in err


def test_random_input_form_and_size_are_checked(capsys):
    code, _, err = run(capsys, "analyze", "random:5")
    assert code == 2 and "random:N:SEED" in err
    code, _, err = run(capsys, "analyze", "random:1000001:1")
    assert code == 2 and "1000000" in err


def test_check_reads_a_finite_table_through_its_normal_form(capsys):
    # not UH: no normal form, so the shape deciders answer for it
    expected = {
        "uh": False, "hom": False, "phom": False, "transitive": False,
        "omega-cat": True, "lf": True, "ulf": True,
    }
    for prop, holds in expected.items():
        code, payload = run_json(capsys, "check", prop, "f: 0 0 0 1")
        assert code == (0 if holds else 1) and payload["holds"] is holds, prop
    # UH: the same deciders read decompose's normal form Z2 + Z3
    for prop, holds in [("uh", True), ("hom", True), ("phom", False), ("transitive", False), ("ulf", True)]:
        assert run(capsys, "check", prop, "f: 1 0 3 4 2")[0] == (0 if holds else 1), prop


def test_oracle_is_refused_where_there_is_none(capsys):
    """The refusal names a symbolic shape only for a property that has an
    oracle on finite tables (uh), not for one that has none at all."""
    code, out, err = run(capsys, "check", "transitive", "f: 1 2 0", "--oracle")
    assert code == 2 and not out and "'transitive'" in err and "--oracle" in err
    tail = "; it has one for uh and phom on finite tables\n"
    code, out, err = run(capsys, "check", "uh", "Z3", "--oracle")
    assert (code, out, err) == (2, "", f"error: property 'uh' has no --oracle on a symbolic shape{tail}")
    for prop in ("hom-n", "pf-uh"):
        code, out, err = run(capsys, "check", prop, "Z3", "--oracle")
        assert (code, out, err) == (2, "", f"error: property {prop!r} has no --oracle{tail}"), prop


def test_check_reads_every_property_from_one_table(capsys):
    """The usage line, the --oracle refusal and the dispatch all read
    cli._PROPERTIES, so a property written there reaches all three."""
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    usage = capsys.readouterr().out
    assert re.search(r"\{([^}]*)\}", usage).group(1).split(",") == list(cli._PROPERTIES)
    both = [name for name, p in cli._PROPERTIES.items() if p.decider and p.search]
    refusal = f"; it has one for {' and '.join(both)} on finite tables\n"
    for name, p in cli._PROPERTIES.items():
        assert p.decider or p.search, name
        assert p.decider is None or callable(getattr(symbolic, p.decider)), name
        assert p.search is None or callable(getattr(homogeneity, p.search)), name
        code, out, err = run(capsys, "check", name, "f: 1 0", "--oracle")
        if name in both:
            assert code in (0, 1) and out, name
        else:
            assert code == 2 and not out and err.endswith(refusal), name


_card = st.sampled_from([1, 2, 3, "w"])
_instantiable = st.lists(
    st.tuples(_card, st.builds(symbolic.Profile, st.integers(1, 3), st.lists(_card, max_size=3))),
    min_size=1, max_size=3,
).map(symbolic.symbolic)


@given(_instantiable, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_instance_size_is_what_instantiate_builds(S, w):
    assert cli._instance_size(S, w) == symbolic.instantiate(S, w).n


def test_bound_only_on_verbs_with_an_oracle(capsys):
    for argv in (
        ["analyze", "f: 0 0", "--bound", "3"],
        ["orbits", "f: 0 0", "--bound", "-5"],
        ["decompose", "f: 0", "--bound", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--bound" in capsys.readouterr().err


def test_truncate_limit_k_zero_names_the_rule(capsys):
    code, out, err = run(capsys, "truncate", "--limit-k", "0", "--height", "2")
    assert code == 2 and not out and "k must be at least 1" in err


def test_truncate_size_is_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "truncate", "--limit-k", "2", "--height", "1000", "--max-cycle", "3000")
    assert code == 2 and not out
    assert "at most 1000000" in err and "'sum_(n>=1) w*A[n;1;2]' to height 1000 and max-cycle 3000" in err
    code, out, err = run(capsys, "truncate", "A[1;;2]", "--height", "10000000")
    assert code == 2 and not out and "at most 1000000" in err and "'A[1;;2]' to height 10000000" in err
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "truncate", "A[1;2]", "--height", "10000000")
    assert code == 0 and out.strip() == "A[1;2]"


def test_instantiate_size_is_capped(capsys):
    code, out, err = run(capsys, "instantiate", "A[1;w,w,w,w]", "--w", "1000")
    assert code == 2 and not out and "1000000" in err
    code, out, _ = run(capsys, "instantiate", "A[1;w]", "--w", "999999")
    assert code == 0 and out.startswith("f: 0 0")


# one tiny call per verb, with the package modules besides monoalg and
# monoalg.core that it reads
VERB_CALLS = [
    (["analyze", "f: 1 0 0", "--json"], set()),
    (["iso", "f: 0 0 0", "f: 1 1 1", "--json"], {"iso"}),
    (["aut", "f: 1 2 3 0", "--json"], {"iso"}),
    (["orbits", "f: 0 0 0", "--n", "2", "--json"], {"iso", "orbits"}),
    (["check", "uh", "f: 1 2 0", "--json"], {"symbolic"}),
    (["classify", "f: 1 0 0", "--json"], {"homogeneity", "iso", "symbolic"}),
    (["decompose", "f: 1 2 0", "--json"], {"symbolic"}),
    (["limit", "--k", "1", "--json"], {"symbolic"}),
    (["instantiate", "A[1;2]", "--w", "1", "--json"], {"symbolic"}),
    (["truncate", "A[2;1;2]", "--height", "1", "--json"], {"symbolic"}),
    (["enumerate", "--n", "3"], {"enumeration", "iso"}),
    (["semilinear", "f: 0 0 0 1", "--root", "0", "--json"], {"iso", "semilinear"}),
    (["export-dot", "f: 1 2 0"], set()),
]


# the environment a program run needs: the package on its path
PROGRAM_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(monoalg.__file__)))


@pytest.mark.parametrize("argv, modules", VERB_CALLS, ids=[argv[0] for argv, _ in VERB_CALLS])
def test_verb_as_a_program_loads_only_what_it_reads(argv, modules):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "monoalg.cli", *argv],
        capture_output=True, text=True, env=PROGRAM_ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] in schemas.BY_VERB:
        jsonschema.validate(json.loads(proc.stdout), schemas.BY_VERB[argv[0]])
    names = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    if "site" in names:  # what the interpreter loads at start-up is not the CLI's doing
        names = names[names.index("site") + 1:]
    package = {name for name in names if name.split(".")[0] == "monoalg"} - {"monoalg.cli"}
    assert package == {"monoalg", "monoalg.core"} | {f"monoalg.{m}" for m in modules}
    assert "dataclasses" not in names


def test_runtime_is_stdlib_only():
    """Every package module imports with nothing but the standard library.
    -S leaves site-packages off the path and its start-up hooks out of the
    interpreter, so a third-party import fails outright, and any other
    module loaded must be one of the standard library's."""
    script = (
        "import importlib, pkgutil, sys, monoalg\n"
        "for m in pkgutil.iter_modules(monoalg.__path__):\n"
        "    importlib.import_module('monoalg.' + m.name)\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules} - {'__main__'})))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=PROGRAM_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "monoalg" in loaded
    assert loaded - {"monoalg"} <= set(sys.stdlib_module_names)


# cli.run() ends its process with os._exit, so it is run only as a program
PROCESS_CALLS = [argv for argv, _ in VERB_CALLS] + [
    ["aut", "f: 0 0 0 0 0 0 0 0"],  # 5040 rows, more than any buffer holds
    ["enumerate", "--n", "6"],
    ["iso", "f: 0 0 0", "f: 1 0 0"],  # exit 1
    ["analyze", "f: 3"],  # exit 2
]


@pytest.mark.parametrize("argv", PROCESS_CALLS, ids=[" ".join(argv[:2]) for argv in PROCESS_CALLS])
def test_program_answers_as_main_does(capsys, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "monoalg.cli", *argv], capture_output=True, text=True, env=PROGRAM_ENV, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def test_program_calls_cover_every_exit_code(capsys):
    assert {run(capsys, *argv)[0] for argv in PROCESS_CALLS} == {0, 1, 2}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, lines", [(["enumerate", "--n", "9"], 1), (["analyze", "f: 1 0 0"], 0), (["--help"], 0)]
)
def test_a_closed_pipe_exits_2(argv, lines, unbuffered):
    """A reader that takes `lines` lines and closes the pipe: the program
    reports the closed pipe once and exits 2, with no traceback.  A
    buffered short answer meets the closed pipe only on run()'s closing
    flush; an unbuffered one, or a long one, inside main.  The help
    leaves main by argparse's SystemExit, and takes the same way out."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's size cannot be set here")
    env = {k: v for k, v in PROGRAM_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    # one page: enumerate's 47 kB cannot all sit in the pipe when the reader leaves
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    with open(r, "rb") as reader:
        if not lines:
            reader.close()
        with subprocess.Popen([sys.executable, "-m", "monoalg.cli", *argv], stdout=w, stderr=subprocess.PIPE, env=env) as proc:
            os.close(w)
            for _ in range(lines):
                assert reader.readline()
            reader.close()
            _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and err == b"error: [Errno 32] Broken pipe\n"


def test_one_parser_reads_the_bound_env_on_every_call(capsys, monkeypatch):
    """The parser is built once per process, and each main call reads
    MONOALG_BOUND anew."""
    monkeypatch.setenv("MONOALG_BOUND", "3")
    assert run(capsys, "aut", "f: 0 0 0 1", "--oracle") == (2, "", "error: bound exceeded: n=4 > 3\n")
    monkeypatch.setenv("MONOALG_BOUND", "4")
    assert run(capsys, "aut", "f: 0 0 0 1", "--oracle") == (0, "[0, 1, 2, 3]\n", "")
    monkeypatch.setenv("MONOALG_BOUND", "x")
    code, _, err = run(capsys, "aut", "f: 0 0 0 1")
    assert code == 2 and "MONOALG_BOUND must be an integer of at least 1, got 'x'" in err
    assert cli._parser() is cli._parser()
