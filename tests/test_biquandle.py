import itertools
from math import gcd

import pytest

from tracebracket.biquandle import (Biquandle, alexander_biquandle,
                                    biquandle_from_spec, parse_biquandle, parse_int,
                                    serialize_biquandle, trivial_biquandle,
                                    verify_biquandle)
from tracebracket.bracket import parse_bracket_tables
from tracebracket.diagram import parse_diagram
from tracebracket.rings import ModRing
from tracebracket.trace import parse_trace_diagram


def test_fixture_biquandles_verify(bq1, bq2, bq3, a312):
    for bq in (bq1, bq2, bq3, a312):
        assert verify_biquandle(bq).ok


def test_trivial_biquandle_passes():
    for n in (1, 2, 5):
        assert verify_biquandle(trivial_biquandle(n)).ok


def test_diagonal_violation_detected():
    # 0 under 0 = 0 but 0 over 0 = 1, rest identity-ish
    under = [[0, 0], [1, 1]]
    over = [[1, 0], [0, 1]]
    report = verify_biquandle(Biquandle(under, over))
    assert not report.ok
    assert any(v.axiom == "diagonal" and v.witness == (0,) for v in report.violations)


def test_alexander_formulas():
    bq = alexander_biquandle(3, 1, 2)
    for x, y in itertools.product(range(3), repeat=2):
        assert bq.under(x, y) == (x + y) % 3
        assert bq.over(x, y) == (2 * x) % 3


def test_alexander_degenerate_is_trivial():
    assert alexander_biquandle(5, 1, 1).under_table == trivial_biquandle(5).under_table


def test_alexander_rejects_non_units():
    with pytest.raises(ValueError):
        alexander_biquandle(4, 2, 1)
    with pytest.raises(ValueError):
        alexander_biquandle(6, 1, 3)


def test_alexander_always_verifies_exhaustive():
    for n in range(2, 9):
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        for t in units:
            for s in units:
                assert verify_biquandle(alexander_biquandle(n, t, s)).ok, (n, t, s)


def test_exchange_laws_against_literal_reimplementation(bq3, a312):
    # oracle: a from-scratch triple loop with no shared helpers
    for bq in (bq3, a312):
        U = lambda x, y: bq.under_table[x][y]
        O = lambda x, y: bq.over_table[x][y]
        ok = True
        for x in range(bq.n):
            for y in range(bq.n):
                for z in range(bq.n):
                    ok &= U(U(x, y), U(z, y)) == U(U(x, z), O(y, z))
                    ok &= O(U(x, y), U(z, y)) == U(O(x, z), O(y, z))
                    ok &= O(O(x, y), O(z, y)) == O(O(x, z), U(y, z))
        assert ok == verify_biquandle(bq).ok


def test_parse_block_matrix_reading(bq3):
    assert bq3.under_table[0] == (2, 0, 2)          # row 1 = (3, 1, 3), 0-indexed
    assert bq3.over_table == ((2, 2, 2), (1, 1, 1), (0, 0, 0))
    assert verify_biquandle(bq3).ok


def test_serialize_round_trip(bq2, bq3):
    for bq in (bq2, bq3):
        text = serialize_biquandle(bq)
        again = parse_biquandle(text)
        assert again == bq
        assert serialize_biquandle(again) == text


def test_parse_rejects_ragged_rows():
    with pytest.raises(ValueError):
        parse_biquandle("2\n2 2 2\n1 1 1 1\n")
    with pytest.raises(ValueError):
        parse_biquandle("2\n2 2 2 3\n1 1 1 1\n")   # entry out of range


def test_parse_errors_name_file_lines():
    with pytest.raises(ValueError, match="^line 3: expected 4 entries, found 3$"):
        parse_biquandle("# c\n2\n2 2 2\n1 1 1 1\n")
    with pytest.raises(ValueError, match="^line 2: expected the size n"):
        parse_biquandle("# c\nx\n")


BQ2_COMMENTED = """# two-element biquandle: both operations swap 1 and 2
2  # size
2 2 2 2  # row 1: under | over
1 1 1 1# row 2, no space before the comment
"""


def test_parse_trailing_comments(bq2):
    assert parse_biquandle(BQ2_COMMENTED) == bq2


def test_inline_spec():
    assert biquandle_from_spec("alexander(3,1,2)").under(1, 1) == 2
    assert biquandle_from_spec("trivial(4)").n == 4
    assert biquandle_from_spec("somefile.txt") is None


def test_diag_map(bq2, bq3):
    # under(x, x) == over(x, x), and on bq2 and bq3 it is not the identity
    for bq, diag in ((bq2, [1, 0]), (bq3, [2, 1, 0])):
        assert [bq.under(x, x) for x in range(bq.n)] == diag
        assert [bq.over(x, x) for x in range(bq.n)] == diag


def test_parse_int_takes_sign_and_ascii_digits_only(bq2):
    assert [parse_int(t) for t in ("0", "7", "-3", "+12", "007")] == [0, 7, -3, 12, 7]
    for text in ("1_0", "\u0662", " 1", "1 ", "", "-", "1.0", "0x1", "+-1"):
        with pytest.raises(ValueError):
            parse_int(text)
    # each parser reads its integers through it, so non-ASCII digits are errors
    two = "\u0662"    # ARABIC-INDIC DIGIT TWO
    for parse, text, line in (
            (parse_biquandle, f"{two}\n2 2 2 2\n1 1 1 1\n", 1),
            (parse_diagram, f"+ 1 2 {two} 2\n", 1),
            (parse_diagram, f"loops {two}\n", 1),
            (lambda t: parse_bracket_tables(t, bq2), f"ring mod {two}\n", 1),
            (lambda t: parse_bracket_tables(t, bq2), f"ring mod 7\n1 {two} 2 5\n4 1 1 2\n", 2),
            (lambda t: parse_trace_diagram(t, bq2), f"color 1 {two}\n", 1),
            (lambda t: parse_trace_diagram(t, bq2),
             f"traceB + sink(1,{two}) source(2,5) 1 1\n", 1)):
        with pytest.raises(ValueError, match=f"line {line}:"):
            parse(text)
    with pytest.raises(ValueError):
        ModRing(7).parse("1_0")
    with pytest.raises(ValueError):
        biquandle_from_spec(f"trivial({two})")
