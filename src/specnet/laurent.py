"""Sparse multivariate Laurent polynomials with exact integer coefficients.

Monomials are exponent vectors over a fixed ordered list of generator names
(e.g. ``s_1, ..., s_l``).  The canonical term order used for printing and
JSON export is degrevlex on exponent vectors, which keeps fixture diffs
byte-stable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Tuple

Monomial = Tuple[int, ...]


def _degrevlex_key(mon: Monomial):
    # Higher total degree first; ties broken by reversed exponent vector,
    # larger last-variable exponent later (standard degrevlex).
    return (-sum(mon), tuple(mon[::-1]))


class LaurentPoly:
    """A Laurent polynomial in ``gens`` with ``int`` coefficients."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Tuple[str, ...], terms: Dict[Monomial, int] | None = None):
        self.gens = tuple(gens)
        clean: Dict[Monomial, int] = {}
        if terms:
            for mon, coeff in terms.items():
                if len(mon) != len(self.gens):
                    raise ValueError("monomial arity does not match generators")
                if coeff:
                    clean[tuple(int(e) for e in mon)] = clean.get(tuple(mon), 0) + int(coeff)
        self.terms = {m: c for m, c in clean.items() if c}

    # ----- constructors -----
    @classmethod
    def zero(cls, gens: Iterable[str]) -> "LaurentPoly":
        return cls(tuple(gens), {})

    @classmethod
    def constant(cls, gens: Iterable[str], c: int) -> "LaurentPoly":
        gens = tuple(gens)
        return cls(gens, {tuple([0] * len(gens)): int(c)})

    @classmethod
    def monomial(cls, gens: Iterable[str], exponents: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        gens = tuple(gens)
        return cls(gens, {tuple(int(e) for e in exponents): int(coeff)})

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

    def __rsub__(self, other):
        return (-self) + other

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
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.constant(self.gens, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise ValueError("only unit monomials are invertible")
        ((mon, coeff),) = self.terms.items()
        if coeff not in (1, -1):
            raise ValueError("coefficient %d is not a unit over the integers" % coeff)
        return LaurentPoly(self.gens, {tuple(-e for e in mon): coeff})

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

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

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


_TOKEN = re.compile(r"\s*([+-]|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|/|\(|\))")


def parse_laurent(text: str, gens: Iterable[str]) -> LaurentPoly:
    """Parse expressions like ``s_2 - 1/s_1 - 1/s_3 + 1/(s_3^2*s_4)``.

    Grammar: sum of terms; a term is a product/quotient of factors; a factor
    is an integer, a generator, optionally with ``^exponent``, or a
    parenthesized product.  Only unit denominators are allowed.
    """
    gens = tuple(gens)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("bad token at %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_atom() -> LaurentPoly:
        tok = take()
        if tok == "(":
            value = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif tok.isdigit():
            value = LaurentPoly.constant(gens, int(tok))
        elif tok in gens:
            value = LaurentPoly.generator(gens, tok)
        else:
            raise ValueError("unknown symbol %r" % tok)
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            exp_tok = take()
            if not exp_tok.isdigit():
                raise ValueError("bad exponent %r" % exp_tok)
            value = value ** (sign * int(exp_tok))
        return value

    def parse_product() -> LaurentPoly:
        value = parse_atom()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_atom()
            value = value * rhs.inverse() if op == "/" else value * rhs
        return value

    def parse_sum() -> LaurentPoly:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        value = parse_product() * sign
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            value = value + parse_product() * sign
        return value

    result = parse_sum()
    if idx != len(tokens):
        raise ValueError("trailing tokens: %r" % tokens[idx:])
    return result


def solve_rational(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    ``matrix`` is a list of rows (lists of int/Fraction).  Returns one
    solution as a list of Fractions, or None if inconsistent.  Free variables
    are set to zero.
    """
    factored = FactoredMatrix(matrix)
    solution = factored.solve(rhs)
    return None if solution is None else [Fraction(v) / factored.scale for v in solution]


def _rref(rows):
    """Gauss-Jordan elimination: (pivot columns, reduced rows)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, rows


class FactoredMatrix:
    """A fixed matrix factored once for repeated exact solves.

    ``pivots`` are the columns independent of the columns before them and
    ``rows`` rows on which the pivot columns form an invertible block;
    ``inverse`` is that block's inverse times the integer ``scale``.  With
    integer entries every solve is integer arithmetic.
    """

    def __init__(self, matrix):
        self.ncols = len(matrix[0]) if matrix else 0
        self.pivots, _ = _rref(matrix)
        self.block = [[row[c] for c in self.pivots] for row in matrix]
        self.rows, _ = _rref(list(zip(*self.block)))
        r = len(self.pivots)
        _, reduced = _rref([self.block[i] + [int(j == k) for k in range(r)]
                            for j, i in enumerate(self.rows)])
        self.scale = math.lcm(*(v.denominator for row in reduced for v in row[r:]))
        self.inverse = [[int(v * self.scale) for v in row[r:]] for row in reduced]

    def solve(self, rhs):
        """The solution with free variables zero, times ``scale``, or None
        if ``rhs`` is outside the column span (checked exactly)."""
        picked = [rhs[i] for i in self.rows]
        x = [sum(a * b for a, b in zip(row, picked)) for row in self.inverse]
        for row, value in zip(self.block, rhs):
            if sum(a * b for a, b in zip(row, x)) != value * self.scale:
                return None
        solution = [0] * self.ncols
        for c, v in zip(self.pivots, x):
            solution[c] = v
        return solution
