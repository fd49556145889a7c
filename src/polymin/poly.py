"""Sparse multivariate polynomials over exact rationals or floats.

Monomials are plain tuples of non-negative integer exponents.  The canonical
term order everywhere in this package is graded lexicographic: compare total
degree first, then the exponent tuples lexicographically (x1 most
significant).  Polynomials map monomials to coefficients and never store
zeros.  Coefficients are `fractions.Fraction` on exact paths and `float` on
numeric paths; conversion between the two domains is always explicit
(`to_float` / `to_fraction`).

All operations are pure and polynomials are treated as immutable after
construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Monomial = tuple  # exponent vector, one entry per variable


class PolyParseError(ValueError):
    """Syntax or range error while parsing polynomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grlex_key(mono: Monomial):
    """Sort key realizing the graded lexicographic order."""
    return (sum(mono), mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def exponents_of_degree(n: int, total: int) -> list[Monomial]:
    """All exponent vectors in n variables with the given total degree."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in exponents_of_degree(n - 1, total - first):
            out.append((first,) + rest)
    return sorted(out)


def monomials_up_to_degree(n: int, d: int) -> list[Monomial]:
    """All monomials of total degree <= d, ascending graded-lex."""
    out: list[Monomial] = []
    for total in range(d + 1):
        out.extend(exponents_of_degree(n, total))
    return out


class Polynomial:
    """Sparse polynomial in ``n`` variables, term map monomial -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None, *, _clean: bool = False):
        if n < 1:
            raise ValueError("variable count must be >= 1")
        self.n = n
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            cleaned = {}
            for mono, coef in terms.items():
                mono = tuple(mono)
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for n={n}")
                if coef != 0:
                    cleaned[mono] = cleaned.get(mono, 0) + coef
                    if cleaned[mono] == 0:
                        del cleaned[mono]
            self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {}, _clean=True)

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        if value == 0:
            return cls.zero(n)
        return cls(n, {(0,) * n: value}, _clean=True)

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for n={n}")
        mono = tuple(1 if i == index else 0 for i in range(n))
        return cls(n, {mono: Fraction(1)}, _clean=True)

    @classmethod
    def from_monomial(cls, n: int, mono: Monomial, coef=Fraction(1)) -> "Polynomial":
        return cls(n, {tuple(mono): coef})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximum total degree over stored terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), 0)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.n, 0)

    def leading_monomial(self) -> Monomial:
        """Graded-lex largest monomial; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def max_abs_coefficient(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.terms.values())

    # -- ring operations ----------------------------------------------

    def _check_same_ring(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check_same_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.n, res, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial(
                self.n, {m: c * other for m, c in self.terms.items()}, _clean=True
            )
        self._check_same_ring(other)
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return Polynomial(self.n, res, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.n, Fraction(1))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    # -- calculus and evaluation ---------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.n:
            raise IndexError(f"variable index {index} out of range for n={self.n}")
        res = {}
        for m, c in self.terms.items():
            e = m[index]
            if e == 0:
                continue
            dm = m[:index] + (e - 1,) + m[index + 1 :]
            res[dm] = res.get(dm, 0) + c * e
        return Polynomial(self.n, res)

    def evaluate(self, point: Sequence):
        """The exact path: term-by-term evaluation, exact when coefficients
        and point are rational.  Float values come from ``exponent_table``."""
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        total = 0
        for m, c in self.terms.items():
            term = c
            for x, e in zip(point, m):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Float values on an (m, n) array of points, off ``exponent_table``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must have shape (m, {self.n})")
        return self.exponent_table()[0](pts)

    def exponent_table(self):
        """The float evaluator: f, its derivatives and its rounding scale off
        one table of f's T terms (exponents E, coefficients c).

        Each value gathers the powers x_j^e of a point from one power table
        and sums c times their products.  Returns the functions
        x -> f(x), for one point or an (m, n) array of points;
        x -> (grad f, Hessian) at one point, from the nonzero terms of the
        first and second derivatives, c e_i x^(e - 1_i) and
        c e_i (e_j - [i = j]) x^(e - 1_i - 1_j), tabulated at its first call;
        and x -> sum |c_m| |x^m|, the scale of rounding error in f(x).
        """
        n = self.n
        E = np.array(list(self.terms), dtype=np.intp).reshape(-1, n)
        c = np.array([float(v) for v in self.terms.values()])
        powers, cols = np.arange(int(E.max(initial=0)) + 1)[:, None], np.arange(n)
        derived = []  # (exponents, coefficients, slots) of the derivative terms

        def monomials(exponents: np.ndarray, x) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.prod((x[..., None, :] ** powers)[..., exponents, cols], axis=-1)

        def value(x):
            v = monomials(E, x) @ c
            return float(v) if v.ndim == 0 else v

        def derivatives(x):
            if not derived:
                identity = np.eye(n, dtype=np.intp)
                E1, c1 = E - identity[:, None], c * E.T                  # [i, t]
                E2 = E1[:, None] - identity[:, None]                     # [i, j, t]
                c2 = c1[:, None] * np.swapaxes(E1, 1, 2)
                at1, at2 = np.nonzero(c1), np.nonzero(c2)
                # grad f's entry i sums into slot i, the Hessian's (i, j)
                # into n + i n + j
                derived.append((np.concatenate([E1[at1], E2[at2]]),
                                np.concatenate([c1[at1], c2[at2]]),
                                np.concatenate([at1[0], n + at2[0] * n + at2[1]])))
            table, coef, slot = derived[0]
            d = np.bincount(slot, weights=coef * monomials(table, x), minlength=n + n * n)
            return d[:n], d[n:].reshape(n, n)

        def magnitude(x):
            v = monomials(E, np.abs(x)) @ np.abs(c)
            return float(v) if v.ndim == 0 else v

        return value, derivatives, magnitude

    # -- domain conversion ----------------------------------------------

    def to_float(self) -> "Polynomial":
        return Polynomial(
            self.n, {m: float(c) for m, c in self.terms.items()}, _clean=True
        )

    def to_fraction(self, max_denominator: int | None = None) -> "Polynomial":
        res = {}
        for m, c in self.terms.items():
            f = Fraction(c) if not isinstance(c, Fraction) else c
            if max_denominator is not None:
                f = f.limit_denominator(max_denominator)
            if f != 0:
                res[m] = f
        return Polynomial(self.n, res, _clean=True)

    # -- text and JSON ----------------------------------------------------

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=reverse)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.sorted_terms():
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(mono)
                if e > 0
            ]
            cs = _coef_str(coef)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = mag + "*" + "*".join(factors)
            else:
                body = mag
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("-" if neg else "+") + body)
        return "".join(parts)

    __str__ = to_string

    def __repr__(self):
        return f"Polynomial({self.n}, {self.to_string()!r})"

    def to_json_dict(self) -> dict:
        """JSON form with exact rational coefficient strings."""
        terms = [
            {"exp": list(m), "coef": str(Fraction(c) if not isinstance(c, Fraction) else c)}
            for m, c in self.sorted_terms(reverse=False)
        ]
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            mono = tuple(int(e) for e in t["exp"])
            terms[mono] = Fraction(t["coef"])
        return cls(n, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        return cls.from_json_dict(json.loads(text))


def _coef_str(coef) -> str:
    if isinstance(coef, Fraction):
        return str(coef)
    if isinstance(coef, int):
        return str(coef)
    return repr(float(coef))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def infer_variable_count(text: str) -> int:
    """Largest variable index mentioned in the text (at least 1)."""
    best, i = 1, 0
    while i < len(text):
        if text[i] == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j > i + 1:
                best = max(best, int(text[i + 1 : j]))
            i = j
        else:
            i += 1
    return best


def parse(text: str, n: int | None = None) -> Polynomial:
    """Parse polynomial text over variables x1..xn with exact coefficients.

    Grammar: terms joined by + or -; each term is a product of factors joined
    by '*'; a factor is a signed integer, decimal (with an exponent as in
    '4.7e-06', so a float polynomial's ``to_string`` parses back to its exact
    values), rational like '3/4', or a variable power 'xK' / 'xK^E'.
    Whitespace is insignificant.
    """
    if n is None:
        n = infer_variable_count(text)
    tokens = _tokenize(text)
    return _Parser(tokens, n, text).parse()


_NUMBER = re.compile(r"[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?")   # digits, one dot, an exponent


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in "0123456789.":
            j = _NUMBER.match(text, i).end()
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable name must be xK with integer K", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n, text):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.text = text

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        result = Polynomial.zero(self.n)
        sign = 1
        kind, _, at = self.peek()
        if kind in "+-":
            sign = -1 if kind == "-" else 1
            self.next()
        elif kind == "end":
            raise PolyParseError("empty polynomial text", at)
        while True:
            result = result + self._term(sign)
            kind, _, at = self.next()
            if kind == "end":
                return result
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                raise PolyParseError(f"expected '+' or '-', found {kind!r}", at)

    def _term(self, sign: int) -> Polynomial:
        coef = Fraction(sign)
        expo = [0] * self.n
        while True:
            coef, expo = self._factor(coef, expo)
            if self.peek()[0] == "*":
                self.next()
            else:
                break
        return Polynomial(self.n, {tuple(expo): coef})

    def _factor(self, coef, expo):
        kind, value, at = self.next()
        if kind == "num":
            num = Fraction(value)
            if self.peek()[0] == "/":
                self.next()
                dkind, dvalue, dat = self.next()
                if dkind != "num" or not dvalue.isdigit():
                    raise PolyParseError("denominator must be an integer", dat)
                den = int(dvalue)
                if den == 0:
                    raise PolyParseError("zero denominator", dat)
                num = num / den
            return coef * num, expo
        if kind == "var":
            if not 1 <= value <= self.n:
                raise PolyParseError(
                    f"variable index {value} out of range 1..{self.n}", at
                )
            power = 1
            if self.peek()[0] == "^":
                self.next()
                pkind, pvalue, pat = self.next()
                if pkind != "num" or not pvalue.isdigit():
                    raise PolyParseError("exponent must be a non-negative integer", pat)
                power = int(pvalue)
            expo = list(expo)
            expo[value - 1] += power
            return coef, expo
        raise PolyParseError(f"expected a coefficient or variable, found {kind!r}", at)


# ---------------------------------------------------------------------------
# Transforms and generators
# ---------------------------------------------------------------------------

def scale_homogeneous(p: Polynomial, alpha, two_d: int | None = None) -> Polynomial:
    """Return f_s(x) = alpha^(-2d) * f(alpha * x).

    Leaves degree-2d coefficients unchanged; a minimizer p* of f maps to
    p*/alpha and the minimum value scales by alpha^(-2d).  ``two_d`` defaults
    to the (even) degree of p.
    """
    if alpha <= 0:
        raise ValueError("scaling factor must be positive")
    if isinstance(alpha, int):
        alpha = Fraction(alpha)  # keep negative powers exact
    if two_d is None:
        two_d = p.degree()
    if two_d % 2 != 0:
        raise ValueError(f"declared degree {two_d} is odd")
    if alpha == 1:
        return p
    res = {}
    for m, c in p.terms.items():
        e = sum(m)
        res[m] = c * alpha ** (e - two_d)
    return Polynomial(p.n, res)


def suggested_scaling(p: Polynomial, two_d: int | None = None) -> float:
    """Preprocessing factor alpha for the homogeneous scaling of p.

    Chosen so every coefficient of the scaled polynomial has magnitude at
    most one: alpha = max over degree-e terms (e < 2d) of |c_e|^(1/(2d-e)).
    This keeps minimizer coordinates and the minimum value of the scaled
    problem at unit order, which is what the SDP and eigenvalue numerics
    need; the factor is echoed in outputs so results stay reproducible.
    """
    if two_d is None:
        two_d = p.degree()
    best = 1.0
    for m, c in p.terms.items():
        e = sum(m)
        if e < two_d and c != 0:
            best = max(best, abs(float(c)) ** (1.0 / (two_d - e)))
    return best


def sum_of_squared_residuals(gs: Sequence[Polynomial]) -> Polynomial:
    """Sum of squares of the given polynomials; non-negative by construction."""
    if not gs:
        raise ValueError("need at least one polynomial")
    n = gs[0].n
    total = Polynomial.zero(n)
    for g in gs:
        if g.n != n:
            raise ValueError("variable count mismatch in residual list")
        total = total + g * g
    return total


@dataclass(frozen=True)
class FamilyParams:
    """Parameters for the random benchmark family of degree 2d in n variables."""

    n: int
    d: int
    K: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.K < 0:
            raise ValueError("need n >= 1, d >= 1, K >= 0")


class SplitMix64:
    """SplitMix64 generator; the fixed PRNG of the instance-file contract.

    state' = state + 0x9E3779B97F4A7C15; output mixes with the standard
    shift-xor-multiply constants.  Integer draws use the rejection-free
    multiply-shift map value = lo + ((r * span) >> 64).
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform_int(self, lo: int, hi: int) -> int:
        span = hi - lo + 1
        return lo + ((self.next_u64() * span) >> 64)


def lower_degree_monomial_count(n: int, two_d: int) -> int:
    """Number of monomials of degree <= 2d-1 in n variables."""
    return math.comb(n + two_d - 1, n)


def random_family_instance(params: FamilyParams) -> Polynomial:
    """Draw sum_i x_i^(2d) + g with integer g-coefficients uniform in [-K, K].

    g runs over all monomials of total degree <= 2d-1, enumerated ascending
    graded-lex, one PRNG draw each; identical seeds give identical instances.
    """
    n, d, K = params.n, params.d, params.K
    rng = SplitMix64(params.seed)
    terms: dict = {}
    for i in range(n):
        mono = tuple(2 * d if j == i else 0 for j in range(n))
        terms[mono] = Fraction(1)
    for mono in monomials_up_to_degree(n, 2 * d - 1):
        c = rng.uniform_int(-K, K)
        if c:
            terms[mono] = Fraction(c)
    return Polynomial(n, terms)
