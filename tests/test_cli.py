import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from tracebracket import fixture_path, fixture_text
from tracebracket.cli import main


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


def test_inline_biquandle_size_below_one_exit_2(capsys):
    for spec in ("trivial(0)", "trivial(-2)", "alexander(0,1,1)"):
        assert_input_error(capsys, ["colorings", fixture_path("hopf_pos.dgm"), spec],
                           "at least 1")


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
