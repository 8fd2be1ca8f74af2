import gc
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from tracebracket import (fixture_path, fixture_text, parse_biquandle, parse_bracket,
                          parse_diagram, serialize_biquandle, switch_crossing, trivial_biquandle,
                          verify_biquandle)
from tracebracket import diagram as dgmod
from tracebracket.cli import build_parser, main
from tracebracket.rings import ModElement
from tracebracket.search import search_brackets


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def test_invariant_text(capsys):
    rc, out = run(capsys, "invariant", fixture_path("hopf_pos.dgm"),
                  fixture_path("bq2.txt"), fixture_path("br_z7.txt"))
    assert rc == 0
    assert "multiset: {1:2, 3:2}" in out
    assert "poly: 2u + 2u^3" in out


def test_invariant_json_round_trips(capsys):
    rc, out = run(capsys, "--json", "invariant", fixture_path("hopf_pos.dgm"),
                  fixture_path("bq2.txt"), fixture_path("br_z7.txt"))
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"]["multiset"] == {"1": 2, "3": 2}
    assert payload["result"]["polynomial"] == "2u + 2u^3"


# sha256 of the JSON list of [diagram, bracket, exit code, "result"] of
# ``--json invariant`` on every fixture diagram under every shipped bracket,
# as the state sum gave it when each coloring still recomputed the
# diagram's coefficient slots and writhe.
FIXTURE_DIAGRAMS = ["hopf_pos", "trefoil_pos", "trefoil_rii", "unknot0", "unknot_kink_neg",
                    "unknot_kink_pos"]
SHIPPED_BRACKETS = [("bq1", "br_laurent"), ("bq2", "br_z7")] + [("bq3", f"br_z5_{i}")
                                                                  for i in (1, 2, 3, 4)]
PINNED_INVARIANT_SHA = "8d27a4b91c4acbce5d8a620bba0f7db8f46079a852ba60c75540e8f1bdccf8fc"


def test_invariant_output_pinned(capsys):
    rows = []
    for dgm in FIXTURE_DIAGRAMS:
        for bq, br in SHIPPED_BRACKETS:
            rc, out = run(capsys, "--json", "invariant", fixture_path(f"{dgm}.dgm"),
                          fixture_path(f"{bq}.txt"), fixture_path(f"{br}.txt"))
            rows.append([dgm, br, rc, json.loads(out)["result"]])
    assert len(rows) == 36
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_INVARIANT_SHA


def test_colorings_counts(capsys):
    rc, out = run(capsys, "colorings", fixture_path("trefoil_pos.dgm"),
                  "alexander(3,1,2)")
    assert rc == 0
    assert "count: 9" in out


def test_classify_labels(capsys):
    expected = ["adequate", "over", "under", "neither"]
    for i, label in enumerate(expected, start=1):
        rc, out = run(capsys, "classify", fixture_path("bq3.txt"),
                      fixture_path(f"br_z5_{i}.txt"))
        assert rc == 0
        assert out.splitlines()[0] == label
        assert "passthrough: no" in out


def test_classify_names_failing_passthrough_identity(capsys, tmp_path):
    # a bq2/Z5 bracket that the pass-through tangles reject (w = 1)
    witness = tmp_path / "witness.txt"
    witness.write_text("ring mod 5\n1 1 4 4\n2 1 3 4\n")
    rc, out = run(capsys, "classify", fixture_path("bq2.txt"), str(witness))
    assert rc == 0
    assert out.splitlines() == ["neither", "passthrough: no", "over fails at (1,1,2)",
                                "under fails at (1,1,2)",
                                "passthrough fails at A[1,2]^2 B[2,1]^2 = w^4"]
    rc, out = run(capsys, "--json", "classify", fixture_path("bq2.txt"), str(witness))
    assert json.loads(out)["witnesses"][-1] == "passthrough fails at A[1,2]^2 B[2,1]^2 = w^4"


def test_verify_biquandle_pass_and_fail(capsys, tmp_path):
    rc, out = run(capsys, "verify-biquandle", fixture_path("bq3.txt"))
    assert rc == 0 and "pass" in out
    broken = tmp_path / "broken.txt"
    broken.write_text("2\n1 1 2 2\n2 2 1 1\n")
    rc, out = run(capsys, "verify-biquandle", str(broken))
    assert rc == 1
    assert "fails" in out


def test_verify_bracket(capsys, tmp_path):
    rc, out = run(capsys, "verify-bracket", fixture_path("bq2.txt"),
                  fixture_path("br_z7.txt"))
    assert rc == 0
    assert "delta = 1" in out and "w = 3" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("ring mod 7\n1 1 2 2\n1 1 2 3\n")
    rc, out = run(capsys, "verify-bracket", fixture_path("bq2.txt"), str(bad))
    assert rc == 1


def test_verify_bracket_names_a_non_unit_entry(capsys, tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("ring mod 7\n0 6 2 5\n4 1 1 2\n")
    rc, out = run(capsys, "verify-bracket", fixture_path("bq2.txt"), str(zero))
    assert (rc, out) == (1, "unit fails at (1,1): A=0 is not a unit\n")


# sha256 of the stdout of ``search <bq>.txt --mod <n>``, text and --json, run
# in the fixture directory, as the search gave it when each member was still
# built from rows of ring elements.  bq2/Z7 was re-pinned when the
# pass-through condition became the compiled tangle table, which changed
# only its pass-through flags.
PINNED_SEARCH_STDOUT = [
    ("bq2", 7, [], "78b031bf7944e3d5bb733cc0524fc311a0761911dbf57f04d0322fc19380aaa8"),
    ("bq2", 7, ["--json"], "99092c1b26bf5a6728d86877b12f46896364a9030426a6cd55ef28992570b52d"),
    ("bq3", 4, [], "f919568eea942e0a90ffe8ee7d17608088a8f760303a74ca1f73aefd39cf57a9"),
    ("bq3", 4, ["--json"], "b7933beff882b28e0af543deb12b12b58d8b3e8c1a1f58cf8be7b5c177cba996"),
]


@pytest.mark.parametrize("spec, n, mode, digest", PINNED_SEARCH_STDOUT,
                         ids=[f"{spec}-Z{n}{''.join(mode)}" for spec, n, mode, _ in
                              PINNED_SEARCH_STDOUT])
def test_search_stdout_pinned(capsys, monkeypatch, spec, n, mode, digest):
    monkeypatch.chdir(os.path.dirname(fixture_path(f"{spec}.txt")))
    rc, out = run(capsys, *mode, "search", f"{spec}.txt", "--mod", str(n))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_builds_no_ring_element_per_member(capsys, monkeypatch):
    """The search and its printing read int tables: bq2/Z7 has 1296
    members, and the only ring elements made for all of them are the
    phi(7) = 6 units the search enumerates."""
    made = []
    init = ModElement.__init__
    monkeypatch.setattr(ModElement, "__init__",
                        lambda self, ring, value: made.append(value) or init(self, ring, value))
    rc, out = run(capsys, "--json", "search", fixture_path("bq2.txt"), "--mod", "7")
    assert rc == 0 and json.loads(out)["result"]["count"] == 1296
    assert len(made) <= 6


def test_search_finds_bundled_bracket(capsys):
    rc, out = run(capsys, "search", fixture_path("bq2.txt"), "--mod", "7",
                  "--limit", "2000")
    assert rc == 0
    assert "1 6 | 2 5" in out and "4 1 | 1 2" in out


def test_eval_trace_methods(capsys):
    values = set()
    for method in ("recursive", "parity", "statesum"):
        rc, out = run(capsys, "eval-trace", fixture_path("trace_phi.tdg"),
                      fixture_path("bq2.txt"), fixture_path("br_z7.txt"),
                      "--method", method)
        assert rc == 0
        values.add(out.splitlines()[0])
    assert len(values) == 1
    assert "parity[0]: odd" in out and "parity[1]: odd" in out


def test_eval_trace_parity_refuses_knotted_trace_deleted_diagram(capsys, tmp_path):
    # the traceless all-positive trefoil: kink removal leaves every crossing
    tdg = tmp_path / "trefoil.tdg"
    tdg.write_text(fixture_text("trefoil_pos.dgm")
                   + "".join(f"color {e} 1\n" for e in range(1, 7)))
    rc = main(["eval-trace", str(tdg), "trivial(1)", fixture_path("br_laurent.txt"),
               "--method", "parity"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: trace-deleted diagram is not kink-reducible\n"


def test_skein_check(capsys):
    rc, out = run(capsys, "skein-check", fixture_path("trefoil_pos.dgm"),
                  "trivial(1)", fixture_path("br_laurent.txt"))
    assert rc == 0
    assert "all satisfy" in out


def test_skein_check_diagonal_pair_without_fixed_point(capsys):
    # bq2 has no fixed point of under(x, x), but two Hopf colorings read the
    # diagonal pair (x, x) at crossing 0
    rc, out = run(capsys, "skein-check", fixture_path("hopf_pos.dgm"),
                  fixture_path("bq2.txt"), fixture_path("br_z7.txt"))
    assert rc == 0
    assert "checked 2 colorings" in out


def test_missing_file_exit_2(capsys):
    rc = main(["colorings", "nope.dgm", "trivial(1)"])
    assert rc == 2


def test_malformed_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.dgm"
    bad.write_text("+ 1 2 3\n")
    rc = main(["colorings", str(bad), "trivial(1)"])
    assert rc == 2


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out = run(capsys, "invariant", fixture_path("trefoil_pos.dgm"),
                     fixture_path("bq3.txt"), fixture_path("br_z5_1.txt"))
        outs.add(out)
    assert len(outs) == 1


def run_all(capsys, *argv):
    """(exit code, stdout, stderr) of one call; an argparse usage error's
    SystemExit gives its code."""
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_repeat_calls_are_isolated(capsys):
    """A call's output does not depend on the calls before it in the process,
    a usage error, an input error or --json among them."""
    argv = ["colorings", fixture_path("trefoil_pos.dgm"), "alexander(3,1,2)"]
    first = run_all(capsys, *argv)
    assert first[0] == 0 and first[1].endswith("count: 9\n") and first[2] == ""
    usage = run_all(capsys, "colorings", "--no-such-option")
    assert usage[0] == 2 and usage[1] == "" and "usage: tracebracket" in usage[2]
    missing = run_all(capsys, "colorings", "nope.dgm", "trivial(1)")
    assert missing == (2, "", "error: no such file: nope.dgm\n")
    assert run_all(capsys, *argv) == first
    assert json.loads(run_all(capsys, "--json", *argv)[1])["result"]["count"] == 9
    assert run_all(capsys, *argv) == first


# one successful call of each subcommand on bundled fixtures; bq3 is not
# affine, so its colorings come from the depth-first search
EVERY_COMMAND = [
    ["verify-biquandle", fixture_path("bq3.txt")],
    ["verify-bracket", fixture_path("bq2.txt"), fixture_path("br_z7.txt")],
    ["colorings", fixture_path("trefoil_pos.dgm"), fixture_path("bq3.txt")],
    ["invariant", fixture_path("trefoil_pos.dgm"), fixture_path("bq3.txt"),
     fixture_path("br_z5_1.txt")],
    ["classify", fixture_path("bq3.txt"), fixture_path("br_z5_1.txt")],
    ["search", fixture_path("bq2.txt"), "--mod", "5"],
    ["eval-trace", fixture_path("trace_phi.tdg"), fixture_path("bq2.txt"),
     fixture_path("br_z7.txt")],
    ["skein-check", fixture_path("hopf_pos.dgm"), fixture_path("bq2.txt"),
     fixture_path("br_z7.txt")],
]


def test_parser_is_built_once(capsys):
    assert len({argv[0] for argv in EVERY_COMMAND}) == 8
    build_parser.cache_clear()
    for argv in EVERY_COMMAND:
        assert main(argv) == 0
    assert build_parser.cache_info().misses == 1


def test_calls_leave_no_cyclic_garbage():
    """Every successful call frees all it made by reference counting alone,
    so no call leaves work for the cyclic collector."""
    build_parser()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with redirect_stdout(io.StringIO()):
            for argv in EVERY_COMMAND:
                for mode in ([], ["--json"]):
                    assert main(mode + argv) == 0
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def assert_input_error(capsys, argv, expected):
    """Exit 2 with a one-line message naming the problem, no traceback."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_bracket_header_without_ring_kind_exit_2(capsys, tmp_path):
    for name, head in (("ring.txt", "ring"), ("ring_mod.txt", "ring mod")):
        bad = tmp_path / name
        bad.write_text(f"{head}\n1 6 2 5\n4 1 1 2\n")
        assert_input_error(capsys, ["invariant", fixture_path("hopf_pos.dgm"),
                                    fixture_path("bq2.txt"), str(bad)], "ring mod <n>")
        assert_input_error(capsys, ["verify-bracket", fixture_path("bq2.txt"), str(bad)],
                           "ring mod <n>")


def test_loads_are_memoized_per_text(capsys, tmp_path):
    bq_text = fixture_text("bq2.txt")
    bq = parse_biquandle(bq_text)
    assert parse_biquandle(bq_text) is bq
    assert verify_biquandle(bq) is verify_biquandle(bq)
    edited = parse_biquandle(serialize_biquandle(trivial_biquandle(2)))
    assert edited is not bq and edited.under_table == ((0, 0), (1, 1))

    br_text = "ring mod 5\n1 1 4 4\n1 1 4 4\n"
    beta = parse_bracket(br_text, bq)
    assert parse_bracket(br_text, bq) is beta
    edited = parse_bracket(br_text.replace("4", "2"), bq)
    assert edited is not beta and (str(edited.b(0, 0)), str(edited.delta)) == ("2", "0")
    other = parse_bracket(br_text, trivial_biquandle(2))
    assert other is not beta
    assert (beta.bq, other.bq) == (bq, trivial_biquandle(2))

    # errors are not cached: each call reports the malformed file again
    bad = tmp_path / "bad.txt"
    bad.write_text("ring mod 7\n1 6 2\n4 1 1 2\n")
    argv = ["invariant", fixture_path("hopf_pos.dgm"), fixture_path("bq2.txt"), str(bad)]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].count("\n") == 1
    assert "line 2: expected 4 entries, found 3" in errors[0]


def test_inline_biquandle_size_below_one_exit_2(capsys):
    for spec in ("trivial(0)", "trivial(-2)", "alexander(0,1,1)"):
        assert_input_error(capsys, ["colorings", fixture_path("hopf_pos.dgm"), spec],
                           "at least 1")


def test_inline_biquandle_malformed_arguments_exit_2(capsys):
    for spec, form in (("alexander(3,x,2)", "alexander(n,t,s)"),
                       ("alexander()", "alexander(n,t,s)"), ("trivial(x)", "trivial(n)"),
                       ("alexander(3,1_0,2)", "alexander(n,t,s)"),
                       ("trivial(\u0662)", "trivial(n)")):
        assert_input_error(capsys, ["colorings", fixture_path("hopf_pos.dgm"), spec],
                           f"{spec}: expected {form} with integer arguments")


def test_integer_fields_take_ascii_digits_only(capsys, tmp_path):
    # int() alone reads "1_0" as 10
    bq2, br_z7, hopf = (fixture_path(f) for f in ("bq2.txt", "br_z7.txt", "hopf_pos.dgm"))
    bracket, trace = fixture_text("br_z7.txt"), fixture_text("trace_phi.tdg")
    cases = [
        ("loops 1_0\n", lambda f: ["invariant", f, bq2, br_z7], "line 1: expected 'loops k'"),
        ("+ 1_0 2 3 4\n", lambda f: ["invariant", f, bq2, br_z7],
         "line 1: non-integer semiarc id"),
        (bracket.replace("1 6 2 5", "1_0 6 2 5"), lambda f: ["invariant", hopf, bq2, f],
         "line 3: invalid literal for int() with base 10: '1_0'"),
        (bracket.replace("ring mod 7", "ring mod 1_0"), lambda f: ["verify-bracket", bq2, f],
         "line 2: bad modulus '1_0'"),
        ("2\n2 2 2 2\n1 1 1_0 1\n", lambda f: ["verify-biquandle", f],
         "line 3: non-integer entry"),
        (trace.replace("color 6 2", "color 6 0_2"), lambda f: ["eval-trace", f, bq2, br_z7],
         "line 12: expected integers, got '6 0_2'"),
        (trace.replace("source(2,5) 1 1", "source(2,5) 1 1_0"),
         lambda f: ["eval-trace", f, bq2, br_z7], "line 6: expected integers, got '1 1_0'"),
    ]
    for text, argv, expected in cases:
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert_input_error(capsys, argv(str(path)), expected)


def test_integer_options_take_ascii_digits_only(capsys):
    # argparse's type=int would read "1_0", "１０" and " 10" as 10
    bq2, hopf, br = (fixture_path(f) for f in ("bq2.txt", "hopf_pos.dgm", "br_z7.txt"))
    for flag, value in (("--mod", "1_0"), ("--mod", "１０"), ("--mod", " 10"),
                        ("--mod", "abc"), ("--limit", "1_0"), ("--limit", "١"),
                        ("--crossing", "0_0"), ("--crossing", "٠")):
        argv = (["skein-check", hopf, bq2, br, "--crossing", value] if flag == "--crossing"
                else ["search", bq2, "--mod", "5", flag, value])
        assert_input_error(capsys, argv,
                           f"{flag}: invalid literal for int() with base 10: {value!r}")
    rc, out = run(capsys, "search", bq2, "--mod", "+5", "--limit", "2")
    assert rc == 0 and out.endswith("found: 2\n")


def test_biquandle_file_size_below_one_exit_2(capsys, tmp_path):
    for size in ("0", "-1"):
        path = tmp_path / f"size{size}.txt"
        path.write_text(f"{size}\n")
        assert_input_error(capsys, ["verify-biquandle", str(path)], "at least 1")


def test_biquandle_file_failing_axioms_exit_2(capsys, tmp_path):
    # a file that parses but is not a biquandle: under(x, x) != over(x, x)
    broken = tmp_path / "broken.txt"
    broken.write_text("2\n1 1 2 2\n2 2 1 1\n")
    for argv in (["search", str(broken), "--mod", "3"],
                 ["colorings", fixture_path("trefoil_pos.dgm"), str(broken)],
                 ["classify", str(broken), fixture_path("br_z7.txt")]):
        assert_input_error(capsys, argv, "not a biquandle: diagonal fails at (1): 1 != 2")


def test_verify_biquandle_trailing_comments_exit_0(capsys, tmp_path):
    path = tmp_path / "bq2_commented.txt"
    path.write_text("2  # size\n2 2 2 2  # row\n1 1 1 1  # row\n")
    rc, out = run(capsys, "verify-biquandle", str(path))
    assert rc == 0 and "pass" in out


def test_verify_biquandle_reports_failing_file_exit_1(capsys, tmp_path):
    broken = tmp_path / "broken.txt"
    broken.write_text("2\n1 1 2 2\n2 2 1 1\n")
    rc, out = run(capsys, "verify-biquandle", str(broken))
    assert rc == 1
    assert out.splitlines() == ["diagonal fails at (1): 1 != 2",
                                "diagonal fails at (2): 2 != 1"]


def test_verify_biquandle_inline_spec(capsys):
    rc, out = run(capsys, "verify-biquandle", "alexander(3,1,2)")
    assert rc == 0 and out.strip() == "pass"


def test_skein_check_crossing_out_of_range_exit_2(capsys):
    # unknot_kink_pos has one crossing, trefoil_pos three
    for dgm, index in (("unknot_kink_pos.dgm", "5"), ("trefoil_pos.dgm", "-1"),
                       ("trefoil_pos.dgm", "3")):
        assert_input_error(capsys, ["skein-check", fixture_path(dgm), "trivial(1)",
                                    fixture_path("br_laurent.txt"), "--crossing", index],
                           f"--crossing {index} is out of range")


def test_search_limit(capsys):
    rc, out = run(capsys, "search", fixture_path("bq2.txt"), "--mod", "7", "--limit", "0")
    assert rc == 0 and out.strip() == "found: 0"
    assert_input_error(capsys, ["search", fixture_path("bq2.txt"), "--mod", "7",
                                "--limit", "-1"], "--limit -1 is negative")


class ClosedStdout(io.StringIO):
    """A stdout whose reader stops after ``keep`` writes: every later write
    raises BrokenPipeError.  It has no file descriptor."""

    def __init__(self, keep: int):
        super().__init__()
        self.keep = keep

    def write(self, text):
        if self.keep <= 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.keep -= 1
        return super().write(text)


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("keep", [0, 1])
def test_closed_stdout_ends_output_quietly(capsys, monkeypatch, tmp_path, mode, keep):
    broken = tmp_path / "broken.txt"
    broken.write_text("2\n1 1 2 2\n2 2 1 1\n")
    for argv, code in ((["search", "trivial(2)", "--mod", "7"], 0),
                       (["verify-biquandle", str(broken)], 1)):
        stdout = ClosedStdout(keep)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(mode + argv) == code
        assert capsys.readouterr().err == ""
        assert stdout.keep == 0


def test_closed_pipe_is_pointed_at_devnull(capsys, monkeypatch):
    # a pipe whose read end is closed, as when `head` has stopped reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["search", "trivial(2)", "--mod", "7"]) == 0
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        # what is still buffered, and what comes later, flushes quietly
        print("later", file=stdout)
        stdout.flush()
    finally:
        stdout.close()
    assert capsys.readouterr().err == ""


def test_search_invalid_modulus_exit_2(capsys):
    for modulus in ("0", "-3", "1"):
        for limit in ([], ["--limit", "0"], ["--limit", "3"]):
            rc = main(["search", "trivial(2)", "--mod", modulus, *limit])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (2, "", "error: modulus must be at least 2\n")


@pytest.mark.parametrize("spec, n", [("bq2", 5), ("bq3", 3), ("trivial(2)", 5)])
def test_search_cli_renders_the_library(capsys, spec, n):
    """The search CLI prints exactly what search_brackets yields, in JSON
    and in text, for each class filter and limit."""
    if spec.startswith("bq"):
        arg, bq = fixture_path(f"{spec}.txt"), parse_biquandle(fixture_text(f"{spec}.txt"))
    else:
        arg, bq = spec, trivial_biquandle(2)
    for classification in ("any", "over", "adequate"):
        for limit in (None, 3, 0):
            found = [{"A": [[str(e) for e in row] for row in beta.A],
                      "B": [[str(e) for e in row] for row in beta.B],
                      "class": cls.label(), "passthrough": cls.passthrough}
                     for beta, cls in search_brackets(bq, n, classification, limit)]
            payload = {"command": "search", "inputs": {"biquandle": arg, "mod": n},
                       "result": {"count": len(found), "brackets": found}, "witnesses": []}
            text = "".join(
                "".join(f"{' '.join(a)} | {' '.join(b)}\n" for a, b in zip(r["A"], r["B"]))
                + f"class: {r['class']}  passthrough: {'yes' if r['passthrough'] else 'no'}\n\n"
                for r in found) + f"found: {len(found)}\n"
            options = ["--class", classification] + ([] if limit is None else
                                                     ["--limit", str(limit)])
            assert run(capsys, "--json", "search", arg, "--mod", str(n), *options) == \
                (0, json.dumps(payload, sort_keys=True) + "\n")
            assert run(capsys, "search", arg, "--mod", str(n), *options) == (0, text)


def test_each_diagram_job_validates_its_diagram_once(capsys, monkeypatch, tmp_path):
    """A colorings, invariant or skein-check job checks its input diagram
    once (and a skein-check job its switched diagram once), and a malformed
    one still exits 2 naming the file."""
    report = dgmod._validation_report
    checked = []
    monkeypatch.setattr(dgmod, "_validation_report",
                        lambda d: checked.append(d) or report(d))
    hopf, bq2, br = fixture_path("hopf_pos.dgm"), fixture_path("bq2.txt"), fixture_path("br_z7.txt")
    diagram = parse_diagram(fixture_text("hopf_pos.dgm"))
    for argv in (["colorings", hopf, bq2], ["invariant", hopf, bq2, br],
                 ["skein-check", hopf, bq2, br]):
        checked.clear()
        assert run(capsys, *argv)[0] == 0
        assert checked.count(diagram) == 1
        if argv[0] == "skein-check":
            # the switched diagram is made and checked once, not per coloring
            assert checked.count(switch_crossing(diagram, 0)) == 1
    bad = tmp_path / "bad.dgm"
    bad.write_text("+ 1 2 3 4\n+ 1 2 3 4\n")
    problems = dgmod.validate_diagram(parse_diagram(bad.read_text())).problems
    checked.clear()
    assert main(["colorings", str(bad), "trivial(2)"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {'; '.join(problems)}\n"
    assert len(checked) == 1


# trace_phi.tdg with the second crossing's under-output renamed from 4 to 7:
# edge 4 is entered and never left, edge 7 left and never entered
LOOSE_EDGE_TRACE = (fixture_text("trace_phi.tdg").replace("+ 3 6 1 4", "+ 3 6 1 7")
                    + "color 7 2\n")


def test_json_output_is_one_line(capsys):
    bq, br = fixture_path("bq2.txt"), fixture_path("br_z7.txt")
    commands = [["search", bq, "--mod", "5"],
                ["invariant", fixture_path("hopf_pos.dgm"), bq, br],
                ["classify", bq, br],
                ["eval-trace", fixture_path("trace_phi.tdg"), bq, br]]
    for argv in commands:
        rc, out = run(capsys, "--json", *argv)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["command"] == argv[0]


def test_directory_as_file_exit_2(capsys, tmp_path):
    assert_input_error(capsys, ["colorings", str(tmp_path), "trivial(2)"], "Is a directory")
    assert_input_error(capsys, ["verify-biquandle", str(tmp_path)], "Is a directory")


def test_invalid_utf8_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe+ 1 2 1 2\n")
    inputs = [fixture_path("hopf_pos.dgm"), fixture_path("bq2.txt"), fixture_path("br_z7.txt")]
    for i in range(3):
        argv = ["invariant", *inputs[:i], str(bad), *inputs[i + 1:]]
        rc, out, err = run_all(capsys, *argv)
        assert (rc, out, err.count("\n")) == (2, "", 1)
        assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err


def test_eval_trace_malformed_file_exit_2(capsys, tmp_path):
    fixture = fixture_text("trace_phi.tdg")
    kink = "+ 1 2 1 2\ncolor 1 1\ncolor 2 1\n"
    cases = [
        ("color 1\n", "bq2", "expected 'color <edge> <value>'"),
        ("traceA +\n", "bq2", "expected 'traceA (+|-)"),
        (fixture.replace("traceB +", "traceB *"), "bq2", "expected 'traceB (+|-)"),
        (fixture.replace("sink(1,4)", "sunk(1,4)"), "bq2", "expected 'traceB (+|-)"),
        ("color 1 1\n", "bq2", "no crossing or trace uses: [1]"),
        (fixture + "color 7 1\n", "bq2", "no crossing or trace uses: [7]"),
        (fixture.replace("color 6 2", "color 6 3"), "bq2", "color 3 is out of range 1..2"),
        # edge 6 colored three times: the first repeat, line 13, is refused
        (fixture + "color 6 1\ncolor 6 2\n", "bq2", "line 13: edge 6 is colored more than once"),
        (kink + kink.splitlines()[0], "bq1", "edge 1 is used as an input more than once"),
        (LOOSE_EDGE_TRACE, "bq2", "edges with a loose end: [4, 7]"),
    ]
    brackets = {"bq1": "br_laurent.txt", "bq2": "br_z7.txt"}
    for text, bq, expected in cases:
        path = tmp_path / "bad.tdg"
        path.write_text(text)
        assert_input_error(capsys, ["eval-trace", str(path), fixture_path(f"{bq}.txt"),
                                    fixture_path(brackets[bq])], expected)


_FUZZ_TOKENS = ("+", "-", "*", "#", "0", "1", "2", "3", "4", "5", "6", "7", "-1", "99",
                "x", "1.5", "loops", "color", "traceA", "traceB", "ring", "mod", "laurent",
                "A", "-A^2*B^-1", "1>2", "3>4", ">", "sink(1,2)", "source(3,4)", "sink(",
                "source()")
_FUZZ_COMMANDS = {
    "colorings": lambda f: ["colorings", f, fixture_path("bq2.txt")],
    "verify-biquandle": lambda f: ["verify-biquandle", f],
    "verify-bracket": lambda f: ["verify-bracket", fixture_path("bq2.txt"), f],
    "eval-trace": lambda f: ["eval-trace", f, fixture_path("bq2.txt"),
                             fixture_path("br_z7.txt")],
    "invariant-diagram": lambda f: ["invariant", f, fixture_path("bq2.txt"),
                                    fixture_path("br_z7.txt")],
    "invariant-biquandle": lambda f: ["invariant", fixture_path("hopf_pos.dgm"), f,
                                      fixture_path("br_z7.txt")],
    "classify": lambda f: ["classify", f, fixture_path("br_z7.txt")],
    "search": lambda f: ["search", f, "--mod", "3"],
    "skein-check": lambda f: ["skein-check", f, fixture_path("bq2.txt"),
                              fixture_path("br_z7.txt")],
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
       text=st.lists(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=7).map(" ".join),
                     max_size=6).map("\n".join))
def test_parsers_exit_cleanly_on_random_lines(tmp_path_factory, command, text):
    """Every input file gives exit 0, 1 or 2, never an exception, and exit 2
    writes exactly one line to stderr."""
    path = tmp_path_factory.getbasetemp() / "fuzz_input.txt"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(_FUZZ_COMMANDS[command](str(path)))
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().count("\n") == 1
