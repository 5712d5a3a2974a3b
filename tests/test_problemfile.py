"""Problem file parsing: exactness, defaults, and error reporting."""

from fractions import Fraction

import pytest

from dcverify import RationalVector, nonnegative_orthant, parse_problem
from dcverify.problemfile import ProblemFileError

V = RationalVector.of

MINIMAL = """\
[spaces]
x_dim = 1
y_dim = 1
z_dim = 1

[cone K]
generator = 1

[cone D]
generator = 1

[map F]
poly 0 = 1 2

[map G]

[map H]

[map S]
poly 0 = 1 0

[set C]
lower = -1
upper = 1

[point]
xbar = 0
eps = 0
"""


def patched(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


class TestShippedFiles:
    def test_quartic_instance_contents(self, quartic_quadratic):
        p = quartic_quadratic.problem
        assert (p.x_dim, p.y_dim, p.z_dim) == (1, 2, 2)
        assert p.K == nonnegative_orthant(2) == p.D
        assert p.F.evaluate(V("1/2")) == V("1/16", "1/4")
        assert p.G.evaluate(V(2)) == V(4, 8)
        assert p.H.evaluate(V(0)) == V(0, -1)
        assert p.S.evaluate(V(0)) == V(1, 0)
        assert (p.C.lower, p.C.upper) == (V(-1), V(1))
        assert p.eps == V(0, 0) and p.xbar == V(0)
        (T,) = quartic_quadratic.candidates_T
        (L,) = quartic_quadratic.candidates_L
        assert T.as_vector() == V(0, 0)
        assert L.as_vector() == V(1, 0)
        assert quartic_quadratic.options.grid_points == 101
        assert quartic_quadratic.options.radius == Fraction(1, 2)

    def test_exceptional_instance_contents(self, exceptional_point):
        p = exceptional_point.problem
        assert (p.x_dim, p.y_dim, p.z_dim) == (1, 1, 1)
        assert p.F.evaluate(V(0)) == V(0)
        assert p.F.evaluate(V("-2/3")) == V(-1)
        assert p.G.evaluate(V("1/5")) == V(-2) and p.G.evaluate(V(0)) == V(0)
        assert p.H.evaluate(V(1)) == V(0)
        assert p.S.evaluate(V(1)) == V(1)


class TestParsing:
    def test_minimal_file(self):
        parsed = parse_problem(MINIMAL)
        assert parsed.problem.F.evaluate(V(3)) == V(9)
        assert parsed.candidates_T == [] and parsed.candidates_L == []
        assert parsed.options.grid_points == 101
        assert parsed.options.radius == Fraction(1, 2)

    def test_multi_monomial_and_exception(self):
        text = patched(MINIMAL, "poly 0 = 1 2", "poly 0 = 1 2, -1 1, 1/3 0\nexcept = 1/2 -> 7")
        parsed = parse_problem(text)
        Fmap = parsed.problem.F
        assert Fmap.evaluate(V(1)) == V("1/3")
        assert Fmap.evaluate(V("1/2")) == V(7)

    def test_options_and_corrections(self):
        text = MINIMAL + """
[candidates]
T = 1/2
L = 1

[options]
grid = 11
radius = 1/4
dilation = 1/3 2/3
correction = 1 | 1
correction = 1/2 | 1/4
"""
        parsed = parse_problem(text)
        assert parsed.options.grid_points == 11
        assert parsed.options.radius == Fraction(1, 4)
        assert parsed.options.shears == (Fraction(1, 3), Fraction(2, 3))
        pairs = parsed.correction_pairs()
        assert [(c.alpha, c.beta) for c in pairs] == [(V(1), V(1)), (V("1/2"), V("1/4"))]
        assert parsed.candidates_T[0].as_vector() == V("1/2")

    def test_matrix_operator_rows(self):
        text = patched(MINIMAL, "x_dim = 1", "x_dim = 2")
        text = patched(text, "poly 0 = 1 2", "poly 0 = 1 2 0")
        text = patched(text, "poly 0 = 1 0", "poly 0 = 1 0 0")
        text = patched(text, "lower = -1", "lower = -1 -1")
        text = patched(text, "upper = 1", "upper = 1 1")
        text = patched(text, "xbar = 0", "xbar = 0 0")
        text += "\n[candidates]\nT = 2 3\n"
        parsed = parse_problem(text)
        assert parsed.candidates_T[0].matrix == ((Fraction(2), Fraction(3)),)


class TestErrors:
    def test_eps_outside_cone_named(self):
        text = patched(MINIMAL, "eps = 0", "eps = -1")
        with pytest.raises(ProblemFileError, match="eps not in K"):
            parse_problem(text)

    def test_xbar_outside_box_named(self):
        text = patched(MINIMAL, "xbar = 0", "xbar = 2")
        with pytest.raises(ProblemFileError, match="xbar not in C"):
            parse_problem(text)

    def test_unknown_section_with_line_number(self):
        with pytest.raises(ProblemFileError, match="line 1"):
            parse_problem("[nonsense]\n" + MINIMAL)

    def test_unknown_key_rejected(self):
        text = patched(MINIMAL, "xbar = 0", "xbar = 0\nslack = 3")
        with pytest.raises(ProblemFileError, match="unknown key 'slack'"):
            parse_problem(text)

    def test_decimal_literal_rejected(self):
        text = patched(MINIMAL, "upper = 1", "upper = 0.5")
        with pytest.raises(ProblemFileError, match="p/q"):
            parse_problem(text)

    def test_zero_denominator_rejected_with_line(self):
        text = patched(MINIMAL, "eps = 0", "eps = 1/0")
        with pytest.raises(ProblemFileError, match="line 28: zero denominator"):
            parse_problem(text)

    def test_duplicate_section_rejected(self):
        with pytest.raises(ProblemFileError, match="duplicate"):
            parse_problem(MINIMAL + "\n[point]\nxbar = 0\n")

    def test_repeated_spaces_key_rejected_with_line(self):
        text = patched(MINIMAL, "y_dim = 1", "y_dim = 1\ny_dim = 1")
        with pytest.raises(ProblemFileError, match=r"line 4: duplicate key 'y_dim' in \[spaces\]"):
            parse_problem(text)

    def test_repeated_set_key_rejected_with_line(self):
        text = patched(MINIMAL, "upper = 1", "upper = 1\nupper = 1/2")
        with pytest.raises(ProblemFileError, match=r"line 25: duplicate key 'upper' in \[set C\]"):
            parse_problem(text)

    def test_repeated_point_key_rejected_with_line(self):
        text = patched(MINIMAL, "xbar = 0", "xbar = 0\nxbar = 1/2")
        with pytest.raises(ProblemFileError, match=r"line 28: duplicate key 'xbar' in \[point\]"):
            parse_problem(text)

    def test_repeated_options_key_rejected_with_line(self):
        text = MINIMAL + "\n[options]\ngrid = 11\nradius = 1/4\ngrid = 21\n"
        with pytest.raises(ProblemFileError, match=r"line 33: duplicate key 'grid' in \[options\]"):
            parse_problem(text)

    def test_missing_section_named(self):
        text = MINIMAL.replace("[set C]\nlower = -1\nupper = 1\n", "")
        with pytest.raises(ProblemFileError, match=r"missing required section \[set C\]"):
            parse_problem(text)

    def test_monomial_arity_checked(self):
        text = patched(MINIMAL, "poly 0 = 1 2", "poly 0 = 1 2 3")
        with pytest.raises(ProblemFileError, match="exponents"):
            parse_problem(text)

    def test_byte_order_mark_dropped(self):
        assert parse_problem("\ufeff" + MINIMAL) == parse_problem(MINIMAL)
        # line numbers count the file's lines as without the mark
        with pytest.raises(ProblemFileError, match="^line 6: unknown section"):
            parse_problem("\ufeff" + patched(MINIMAL, "[cone K]", "[cone Q]"))
        # only one mark is dropped
        with pytest.raises(ProblemFileError, match="^line 1: content before"):
            parse_problem("\ufeff\ufeff" + MINIMAL)

    def test_content_before_section_rejected(self):
        with pytest.raises(ProblemFileError, match="before the first section"):
            parse_problem("x_dim = 1\n" + MINIMAL)
