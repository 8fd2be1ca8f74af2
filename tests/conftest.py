import pytest

from tracebracket import alexander_biquandle, fixture_text, parse_biquandle, parse_bracket
from tracebracket.diagram import diagram


def _braid_closure(word, strands=2):
    """The closure of a braid word.  At sigma_k (k > 0) the strand at
    position k passes over the one at k + 1, a positive crossing; -k is its
    switch, sigma_k^-1."""
    at = list(range(strands))            # semiarc currently at each position
    rows = []
    for g in word:
        k = abs(g) - 1
        left, right = at[k], at[k + 1]
        fresh = strands + 2 * len(rows)
        at[k], at[k + 1] = fresh, fresh + 1
        if g > 0:
            rows.append((1, right, left, at[k + 1], at[k]))
        else:
            rows.append((-1, left, right, at[k], at[k + 1]))
    close = {s: p for p, s in enumerate(at)}    # top ends join the bottom ones
    ids = sorted({close.get(s, s) for row in rows for s in row[1:]})
    number = {s: i + 1 for i, s in enumerate(ids)}
    return diagram([(row[0], *(number[close.get(s, s)] for s in row[1:]))
                    for row in rows])


@pytest.fixture(scope="session")
def braid_closure():
    return _braid_closure


@pytest.fixture(scope="session")
def bq1():
    return parse_biquandle(fixture_text("bq1.txt"))


@pytest.fixture(scope="session")
def bq2():
    return parse_biquandle(fixture_text("bq2.txt"))


@pytest.fixture(scope="session")
def bq3():
    return parse_biquandle(fixture_text("bq3.txt"))


@pytest.fixture(scope="session")
def a312():
    return alexander_biquandle(3, 1, 2)


@pytest.fixture(scope="session")
def br_z7(bq2):
    return parse_bracket(fixture_text("br_z7.txt"), bq2)


@pytest.fixture(scope="session")
def br_z5(bq3):
    return [parse_bracket(fixture_text(f"br_z5_{i}.txt"), bq3) for i in (1, 2, 3, 4)]


@pytest.fixture(scope="session")
def br_gen(bq1):
    return parse_bracket(fixture_text("br_laurent.txt"), bq1)


@pytest.fixture(scope="session")
def br_z7_bq3(bq3):
    """A bq3 bracket over Z7 with delta = 1 and w = 3: every shipped Z5
    bracket has delta = 0, which hides any error a state sum makes in its
    circle counts.  Its B is not symmetric, so it tells the pair (x, y) from
    (y, x)."""
    return parse_bracket("ring mod 7\n1 1 1 2 2 2\n1 1 1 4 2 4\n1 1 1 2 2 2\n", bq3)
