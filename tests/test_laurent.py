import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, strategies as st

from specnet.laurent import (
    MAX_TERMS,
    FactoredMatrix,
    LaurentPoly,
    _rref,
    parse_laurent,
    solve_rational,
)

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


def test_monomial_checks_its_arity():
    assert LaurentPoly.monomial(GENS, (1, 0, -2), 3) == 3 * gen("s_1") * gen("s_3") ** -2
    with pytest.raises(ValueError, match="monomial arity does not match generators"):
        LaurentPoly.monomial(GENS, (1, 0))


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


def test_solve_rational_rejects_non_integer_entries():
    """Floor division would make a Fraction entry a silent wrong answer."""
    with pytest.raises(TypeError):
        solve_rational([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 5), Fraction(1, 7)]], [1, 1])
    with pytest.raises(TypeError):
        solve_rational([[0.5]], [1])


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


def _fraction_rref(rows):
    """Reference: Gauss-Jordan over Fractions, (pivot columns, reduced row
    echelon form, determinant of a square ``rows``)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        det *= rows[r][c]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b if b else a for a, b in zip(row, rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, rows, det if len(pivots) == len(rows) else Fraction(0)


def fraction_factors(matrix):
    """Reference: ``FactoredMatrix``'s pivots, rows, scale and inverse
    columns from the Fraction elimination, the scale being the lcm of the
    inverse's denominators."""
    pivots, _, _ = _fraction_rref(matrix)
    m, r = len(matrix), len(pivots)
    rows, reduced, _ = _fraction_rref([[row[c] for row in matrix] + [int(j == k) for k in range(r)]
                                       for j, c in enumerate(pivots)])
    scale = math.lcm(*(v.denominator for row in reduced for v in row[m:]))
    inverse_columns = [[int(v * scale) for v in row[m:]] for row in reduced]
    return pivots, rows, scale, list(zip(rows, inverse_columns))


def factors(factored):
    return factored.pivots, factored.rows, factored.scale, factored._inverse_columns


@st.composite
def dependent_matrices(draw):
    """Integer matrices with some rows integer combinations of others, in
    a drawn order; some are square."""
    ncols, rank = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(rank)]
    for _ in range(draw(st.integers(0, 4))):
        mix = [draw(st.integers(-2, 2)) for _ in range(rank)]
        rows.append([sum(a * row[c] for a, row in zip(mix, rows)) for c in range(ncols)])
    return draw(st.permutations(rows))


@seed(20261019)
@given(dependent_matrices())
def test_integer_rref_matches_fraction_reference(matrix):
    """The integer elimination gives the reference's pivots and determinant,
    its rows are the last pivot times the reference's, and ``FactoredMatrix``
    keeps the reference's pivots, rows, least scale and inverse columns."""
    pivots, rows, det = _rref(matrix)
    ref_pivots, ref_rows, ref_det = _fraction_rref(matrix)
    assert (pivots, det) == (ref_pivots, ref_det)
    d = rows[0][pivots[0]] if pivots else 1
    assert rows == [[d * v for v in row] for row in ref_rows]
    assert factors(FactoredMatrix(matrix)) == fraction_factors(matrix)
