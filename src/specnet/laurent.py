"""Exact sparse multivariate Laurent polynomials, their text reader and elimination.

Monomials are exponent vectors over a fixed ordered list of generator names
(e.g. ``s_1, ..., s_l``).  The canonical term order used for printing and
JSON export is degrevlex on exponent vectors, which keeps fixture diffs
byte-stable.
"""

from __future__ import annotations

import ast
import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, Tuple

Monomial = Tuple[int, ...]


def _degrevlex_key(mon: Monomial):
    # Higher total degree first; ties broken by reversed exponent vector,
    # larger last-variable exponent later (standard degrevlex).
    return (-sum(mon), tuple(mon[::-1]))


class LaurentPoly:
    """A Laurent polynomial in ``gens`` with ``int`` coefficients, or
    ``Fraction`` ones for a polynomial read over the rationals."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Tuple[str, ...], terms: Dict[Monomial, int] | None = None):
        self.gens = tuple(gens)
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # ----- constructors -----
    @classmethod
    def zero(cls, gens: Iterable[str]) -> "LaurentPoly":
        return cls(tuple(gens), {})

    @classmethod
    def constant(cls, gens: Iterable[str], c: int) -> "LaurentPoly":
        gens = tuple(gens)
        return cls(gens, {tuple([0] * len(gens)): c})

    @classmethod
    def monomial(cls, gens: Iterable[str], exponents: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        gens, exponents = tuple(gens), tuple(map(int, exponents))
        if len(exponents) != len(gens):
            raise ValueError("monomial arity does not match generators")
        return cls(gens, {exponents: int(coeff)})

    @classmethod
    def generator(cls, gens: Iterable[str], name: str) -> "LaurentPoly":
        gens = tuple(gens)
        exps = [0] * len(gens)
        exps[gens.index(name)] = 1
        return cls(gens, {tuple(exps): 1})

    # ----- ring operations -----
    def _check(self, other: "LaurentPoly"):
        if self.gens != other.gens:
            raise ValueError("generator mismatch: %r vs %r" % (self.gens, other.gens))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.gens, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return LaurentPoly(self.gens, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.gens, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.gens, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return LaurentPoly(self.gens, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.constant(self.gens, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise ValueError("only unit monomials are invertible")
        ((mon, coeff),) = self.terms.items()
        if coeff in (1, -1):
            return LaurentPoly(self.gens, {tuple(-e for e in mon): coeff})
        if isinstance(coeff, int):
            raise ValueError("coefficient %d is not a unit over the integers" % coeff)
        return LaurentPoly(self.gens, {tuple(-e for e in mon): 1 / coeff})

    # ----- predicates / views -----
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: _degrevlex_key(mc[0]))

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.gens, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    # ----- printing / parsing -----
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.gens, mon):
                if e == 0:
                    continue
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            body = "*".join(factors) if factors else "1"
            if coeff == 1:
                term = body
            elif coeff == -1:
                term = "-" + body
            elif factors:
                term = "%d*%s" % (coeff, body)
            else:
                term = str(coeff)
            if parts:
                if term.startswith("-"):
                    parts.append("- " + term[1:])
                else:
                    parts.append("+ " + term)
            else:
                parts.append(term)
        return " ".join(parts)

    __repr__ = __str__


# the reader expands no product or power that may have more terms than this;
# a curve wkb.SpectralCurve accepts has at most 387, (2 + 1) * (128 + 1)
MAX_TERMS = 512


def _check_size(node, count, spans):
    """Refuse to expand ``node``, whose result has at most ``count`` terms
    and exponents in ranges of the widths ``spans()``, when both bounds
    allow more than MAX_TERMS terms."""
    if count > MAX_TERMS and math.prod(span + 1 for span in spans()) > MAX_TERMS:
        raise ValueError("expanding %s may give more than %d terms"
                         % (ast.unparse(node), MAX_TERMS))


def _spans(poly: LaurentPoly):
    return [max(column) - min(column) for column in zip(*poly.terms)]


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: lambda a, b: a * b.inverse()}
_UNARY = {ast.UAdd: lambda a: a, ast.USub: operator.neg}


def parse_laurent(text: str, gens: Iterable[str] | None = None, ring=int) -> LaurentPoly:
    """Read expressions like ``s_2 - 1/s_1 - 1/s_3 + 1/(s_3^2*s_4)``.

    The text may use ``+ - * / ^ **``, unary signs, parentheses, number
    constants and the names in ``gens`` (default: every name in the text,
    sorted).  Exponents must be integer constants and each divisor a single
    term.  Coefficients are in ``ring``: ``int``, where decimals are
    rejected and only -1 and 1 divide, or ``Fraction``, where numbers are
    read exactly as written.  The text is walked as a syntax tree and
    never evaluated.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as err:
        raise ValueError("cannot parse %r: %s" % (text, err.msg))
    if gens is None:
        gens = sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})
    gens = tuple(gens)

    def value(node) -> LaurentPoly:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            left, right = value(node.left), value(node.right)
            if isinstance(node.op, ast.Mult):
                _check_size(node, len(left.terms) * len(right.terms),
                            lambda: map(operator.add, _spans(left), _spans(right)))
            return _BINARY[type(node.op)](left, right)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            power = value(node.right)
            c = power.terms.get((0,) * len(gens), 0)
            if power != LaurentPoly.constant(gens, c) or c != int(c):
                raise ValueError("exponent %s is not an integer constant"
                                 % ast.unparse(node.right))
            base, k = value(node.left), int(c)
            if k > 0:  # a negative power is of one term, or rejected
                _check_size(node, math.comb(k + len(base.terms) - 1, k),
                            lambda: [k * span for span in _spans(base)])
            return base ** k
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](value(node.operand))
        if isinstance(node, ast.Name) and node.id in gens:
            return LaurentPoly.generator(gens, node.id)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # a decimal is read from its text, not from its rounded float
            number = node.value if type(node.value) is int else ast.get_source_segment(source, node)
            return LaurentPoly.constant(gens, ring(number))
        raise ValueError("%r is not a Laurent polynomial in %s: %s"
                         % (text, ", ".join(gens), ast.unparse(node)))

    return value(tree.body)


def discriminant(rows):
    """The w-discriminant of a monic P(z, w) with exact coefficients.

    ``rows`` are the z-coefficient lists, highest first, of w^n .. w^0, with
    rows[0] == [1].  The result is (-1)^(n(n-1)/2) Res_w(P, dP/dw) as
    z-coefficients, highest first: Sylvester determinants at z = 0..D,
    interpolated in Newton form.  The discriminant is a form of degree
    2n - 2 in the coefficients of P, so D = (2n - 2) deg_z P bounds its degree.
    """
    n = len(rows) - 1
    degree = (2 * n - 2) * max(len(row) - 1 for row in rows)
    # rows times L, the lcm of the denominators: the determinants gain L^(2n - 1)
    lcm = math.lcm(*(c.denominator for row in rows for c in row))
    rows = [[int(c * lcm) for c in row] for row in rows]
    divisor = (-1) ** (n * (n - 1) // 2) * lcm ** (2 * n - 1)
    values = []
    for z in range(degree + 1):
        p = [sum(c * z ** k for k, c in enumerate(reversed(row))) for row in rows]
        dp = [(n - i) * c for i, c in enumerate(p[:-1])]
        sylvester = ([[0] * i + p + [0] * (n - 2 - i) for i in range(n - 1)]
                     + [[0] * i + dp + [0] * (n - 1 - i) for i in range(n)])
        values.append(Fraction(_rref(sylvester)[2], divisor))
    for j in range(1, degree + 1):  # divided differences at nodes 0..degree
        for k in range(degree, j - 1, -1):
            values[k] = (values[k] - values[k - 1]) / j
    poly = [values[degree]]
    for k in range(degree - 1, -1, -1):  # poly * (z - k) + values[k]
        poly = [a - k * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += values[k]
    while len(poly) > 1 and poly[0] == 0:
        poly.pop(0)
    return poly


def solve_rational(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    ``matrix`` is a list of integer rows.  Returns one solution as a list of
    Fractions, or None if inconsistent.  Free variables are set to zero.
    """
    factored = FactoredMatrix(matrix)
    solution = factored.solve(rhs)
    return None if solution is None else [Fraction(v) / factored.scale for v in solution]


def _rref(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integers, any
    other entry a TypeError, each division exact: (pivot columns, d times the
    reduced row echelon form, d the last pivot, determinant of a square ``rows``)."""
    rows = [list(map(operator.index, row)) for row in rows]
    pivots = []
    prev, sign = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        p, top = rows[r][c], rows[r]
        for i, f in enumerate([row[c] for row in rows]):
            if i != r:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, rows, sign * prev if len(pivots) == len(rows) else 0


class FactoredMatrix:
    """A fixed matrix factored once for repeated exact solves.

    ``pivots`` are the columns independent of the columns before them and
    ``rows`` rows on which the pivot columns form an invertible block; that
    block's inverse times the integer ``scale`` is kept by columns, one per
    row in ``rows``, and so are the pivot columns.  The entries are
    integers, and so is every step of the set-up and of each solve.
    """

    def __init__(self, matrix):
        self.ncols = len(matrix[0]) if matrix else 0
        self.pivots, _, _ = _rref(matrix)
        self._block_columns = [[row[c] for row in matrix] for c in self.pivots]
        # Gauss-Jordan on [B^T | I], B the pivot columns: its pivots are the
        # rows, and its right half the inverse of their block, transposed
        m, r = len(matrix), len(self.pivots)
        self.rows, reduced, _ = _rref([column + [int(j == k) for k in range(r)]
                                       for j, column in enumerate(self._block_columns)])
        # right half = d * inverse, d the last pivot; g = gcd(d, right half), d's sign
        d = reduced[0][self.rows[0]] if r else 1
        g = math.gcd(d, *(v for row in reduced for v in row[m:])) * (1 if d > 0 else -1)
        self.scale = d // g
        self._inverse_columns = [(i, [v // g for v in row[m:]])
                                 for i, row in zip(self.rows, reduced)]

    def solve(self, rhs):
        """The solution with free variables zero, times ``scale``, or None
        if ``rhs`` is outside the column span (checked exactly).  Pairing
        vectors are sparse, so both products run over nonzeros only."""
        x = [0] * len(self.pivots)
        for i, column in self._inverse_columns:
            if rhs[i]:
                x = [a + rhs[i] * b for a, b in zip(x, column)]
        residual = [value * self.scale for value in rhs]
        for v, column in zip(x, self._block_columns):
            if v:
                residual = [a - v * b for a, b in zip(residual, column)]
        if any(residual):
            return None
        solution = [0] * self.ncols
        for c, v in zip(self.pivots, x):
            solution[c] = v
        return solution
