import json

from tracebracket import fixture_path
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
