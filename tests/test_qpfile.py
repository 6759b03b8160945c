import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrs import DimensionMismatch, InvalidProblem, ParseError
from fbrs.oracle import random_strictly_convex_qp
from fbrs.problem import PrimalDualPoint
from fbrs.qpfile import parse_qp, serialize_qp

TOY = """\
FBQP 1
n 1
q 1
H
1.0
f
-1.0
A
1.0
b
0.5
"""


def test_parse_toy():
    problem, x0 = parse_qp(TOY)
    assert problem.n == 1 and problem.q == 1
    assert problem.H[0, 0] == 1.0
    assert problem.f[0] == -1.0
    assert problem.A[0, 0] == 1.0
    assert problem.b[0] == 0.5
    assert x0 is None


def test_parse_with_comments_matches_plain():
    commented = "\n".join(
        ["# a toy problem", "FBQP 1  # header", "", "n 1", "# hessian next", "q 1",
         "H", "1.0", "f", "-1.0", "A", "1.0", "b", "0.5  # trailing comment"]
    )
    plain_p, _ = parse_qp(TOY)
    commented_p, _ = parse_qp(commented)
    assert np.array_equal(plain_p.H, commented_p.H)
    assert np.array_equal(plain_p.b, commented_p.b)


def test_parse_x0_row():
    problem, x0 = parse_qp(TOY + "x0\n0.5 0.5\n")
    assert x0 is not None
    assert x0.z == pytest.approx([0.5])
    assert x0.v == pytest.approx([0.5])


def test_dimension_mismatch_reports_b_line():
    text = TOY.replace("q 1", "q 2").replace("A\n1.0\n", "A\n1.0\n2.0\n")
    with pytest.raises(DimensionMismatch) as excinfo:
        parse_qp(text)
    # the b row is the offending line
    assert "b" in str(excinfo.value) or excinfo.value.line > 0
    lines = text.splitlines()
    assert lines[excinfo.value.line - 1].strip() == "0.5"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_qp("QPLIB 1\nn 1\n")
    with pytest.raises(ParseError):
        parse_qp("FBQP 2\n" + TOY.split("\n", 1)[1])
    with pytest.raises(ParseError):
        parse_qp(TOY.replace("n 1", "n one"))
    with pytest.raises(ParseError):
        parse_qp(TOY.replace("H\n1.0\n", "H\nabc\n"))
    with pytest.raises(ParseError):
        parse_qp(TOY + "garbage\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_qp("FBQP 1\nn 1\nq 1\nH\n1.0\n")  # truncated
    with pytest.raises(DimensionMismatch):
        parse_qp(TOY + "x0\n0.5\n")
    with pytest.raises(ParseError, match="n must be positive, got 0"):
        parse_qp(TOY.replace("n 1", "n 0"))
    # nothing may follow the x0 row
    with pytest.raises(ParseError, match="unexpected content 'x0'") as excinfo:
        parse_qp(TOY + "x0\n0.5 0.0\nx0\n")
    assert excinfo.value.line == 14
    # a section keyword stands alone on its line
    with pytest.raises(ParseError, match="H line must be 'H'"):
        parse_qp(TOY.replace("H\n", "H 7 7\n"))
    with pytest.raises(ParseError, match="f line must be 'f'"):
        parse_qp(TOY.replace("f\n", "f junk\n"))
    with pytest.raises(ParseError, match="x0 line must be 'x0'") as excinfo:
        parse_qp(TOY + "x0 0.5 0.0\n")
    assert excinfo.value.line == 12


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as excinfo:
        parse_qp("FBQP 1\nn 1\nq 1\nH\nnope\n")
    assert excinfo.value.line == 5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), with_point=st.booleans())
def test_round_trip_is_exact(seed, with_point):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    p = random_strictly_convex_qp(n, q, rng)
    x0 = PrimalDualPoint(rng.standard_normal(n), rng.standard_normal(q)) if with_point else None
    text = serialize_qp(p, x0)
    p2, x2 = parse_qp(text)
    assert np.array_equal(p.H, p2.H)
    assert np.array_equal(p.f, p2.f)
    assert np.array_equal(p.A, p2.A)
    assert np.array_equal(p.b, p2.b)
    if with_point:
        assert np.array_equal(x0.z, x2.z)
        assert np.array_equal(x0.v, x2.v)
    else:
        assert x2 is None


def test_serialized_values_survive_awkward_floats():
    p, _ = parse_qp(TOY)
    awkward = PrimalDualPoint([0.1 + 0.2], [1e-301])
    text = serialize_qp(p, awkward)
    _, x2 = parse_qp(text)
    assert x2.z[0] == 0.1 + 0.2
    assert x2.v[0] == 1e-301


def test_serialize_rejects_mismatched_x0():
    # a point of the wrong size would otherwise be written and then fail to parse
    p = random_strictly_convex_qp(2, 1, np.random.default_rng(0))
    with pytest.raises(InvalidProblem, match="x0"):
        serialize_qp(p, PrimalDualPoint.zeros(1, 1))
