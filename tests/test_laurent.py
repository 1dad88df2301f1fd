from fractions import Fraction

import pytest
from hypothesis import given, seed, strategies as st

from specnet.laurent import MAX_TERMS, FactoredMatrix, LaurentPoly, parse_laurent, solve_rational

GENS = ("s_1", "s_2", "s_3")


def gen(name):
    return LaurentPoly.generator(GENS, name)


def test_basic_arithmetic():
    s1, s2 = gen("s_1"), gen("s_2")
    p = s1 * s2 - 1
    q = p * p
    assert q == s1 ** 2 * s2 ** 2 - 2 * s1 * s2 + 1


def test_inverse_and_units():
    s1 = gen("s_1")
    assert (s1 ** -3) * s1 ** 3 == 1
    with pytest.raises(ValueError):
        (s1 + 1).inverse()


def test_parse_round_trip():
    text = "s_2 - 1/s_1 - 1/s_3 + 1/(s_3^2*s_2)"
    p = parse_laurent(text, GENS)
    s1, s2, s3 = (gen(g) for g in GENS)
    assert p == s2 - s1 ** -1 - s3 ** -1 + s3 ** -2 * s2 ** -1
    assert parse_laurent(str(p), GENS) == p


@pytest.mark.parametrize("text", [
    "s_1 + q_1",  # unknown name
    "1/(s_1 + s_2)",  # divisor of two terms
    "s_1^(1/2)", "s_1^1.5", "s_1^s_2",  # exponent not an integer constant
    "1/2*s_1", "s_1/2", "0.5*s_1", "1/0",  # not integer
    "s_1 + 0*len(open('x','w').write('x') and 'a')", "sin(s_1)", "s_1.conjugate()",
    "s_1.real", "'s_1'", "1j*s_1", "s_1 s_2",  # payload, call, attribute, string
])
def test_parse_rejects_non_laurent_text(text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError):
        parse_laurent(text, GENS)
    assert not (tmp_path / "x").exists()


def test_parse_bounds_expansion():
    """A product or power that may exceed MAX_TERMS terms is refused before
    it is expanded; the largest curve wkb.SpectralCurve accepts still reads."""
    assert len(parse_laurent("(1+z)^%d" % (MAX_TERMS - 1)).terms) == MAX_TERMS
    assert len(parse_laurent("(w+1)^2*(z+1)^128", ring=Fraction).terms) == 3 * 129
    # exponent box 4^6 > MAX_TERMS, but at most C(8, 3) = 56 terms
    assert len(parse_laurent("(a+b+c+d+e+f)^3").terms) == 56
    for text in ("(1+z)^%d" % MAX_TERMS, "(w+z+1)^32", "(w+z+1)^80", "(w+1)^(10**9)",
                 "(1+z)^300*(1+z)^300"):
        with pytest.raises(ValueError, match="more than %d terms" % MAX_TERMS):
            parse_laurent(text, ring=Fraction)
    assert parse_laurent("w^(10**9) - z").terms == {(10 ** 9, 0): 1, (0, 1): -1}


def test_parse_reads_exact_rationals():
    p = parse_laurent("0.1*z^2 - z/3 + 1e-3 + 2^-2", ring=Fraction)
    assert p.gens == ("z",)
    assert p.terms == {(2,): Fraction(1, 10), (1,): Fraction(-1, 3), (0,): Fraction(251, 1000)}


def test_canonical_string_is_sorted():
    p = parse_laurent("1/s_1 + s_1 + s_2^2", GENS)
    assert str(p) == "s_2^2 + s_1 + s_1^-1"


@st.composite
def laurents(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mon = tuple(draw(st.integers(-3, 3)) for _ in GENS)
        terms[mon] = draw(st.integers(-9, 9))
    return LaurentPoly(GENS, terms)


@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(laurents())
def test_string_parse_round_trip(p):
    assert parse_laurent(str(p), GENS) == p


def test_solve_rational():
    sol = solve_rational([[2, 0], [0, 4]], [1, 2])
    assert sol == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    sol = solve_rational([[1, 1]], [3])  # underdetermined: free var -> 0
    assert sol == [Fraction(3), Fraction(0)]


def _gauss_jordan_solve(matrix, rhs):
    """Reference: eliminate the augmented matrix, free variables zero."""
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        solution[c] = rows[i][ncols]
    return solution


@st.composite
def systems(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    matrix = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):  # consistent by construction
        x = [draw(entries) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    else:
        rhs = [draw(entries) for _ in range(nrows)]
    return matrix, rhs


@seed(20261018)
@given(systems())
def test_factored_solve_matches_gauss_jordan(system):
    matrix, rhs = system
    assert solve_rational(matrix, rhs) == _gauss_jordan_solve(matrix, rhs)


def test_factored_matrix_pivots_and_inconsistency():
    factored = FactoredMatrix([[1, 2, 1], [2, 4, 0], [3, 6, 1]])
    assert factored.pivots == [0, 2]  # the middle column is twice the first
    assert factored.solve([1, 2, 3]) is not None
    assert factored.solve([1, 2, 4]) is None
