"""Exact arithmetic for homogeneous multivariate forms over a prime field.

A form of degree d is a dense coefficient vector over the degree-d monomial
basis, with entries in [0, p); the zero form is the all-zero vector of any
declared degree. A basis depends only on the number of variables n, so each
(n, d) has one, shared by every ring whatever its p: an exponent matrix with
rows in descending lexicographic order. Positions have a closed form, the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3). With s_v the degree
of a monomial in x_{v+1}, ..., x_{n-1}, its position is

    sum over v < n - 1 of C(s_v + n - v - 2, n - v - 1),

the term of v counting the monomials that agree with it before x_v and have
a larger power of x_v. Tail sums add like exponents, so the table placing
the products of two bases is this rank of the summed tail sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterable, Sequence

import numpy as np

from .linalg import _mulmod

DEFAULT_PRIME = 32003

# Largest monomial basis built or addressed (degree 82 in 4 variables), far
# above the degree-23 pieces (2600 monomials) that the Hilbert lift of the
# (4,1,3) intersection ideal reaches.
MAX_FORM_DIM = 100_000

# Most entries one dense array of coefficients may hold, 80 MB as float64:
# a dual basis Psi_e of the Hilbert lift, a level of a subset table of
# matforms, or the matrix of a form product (Form.mul_matrix); and the most
# subsets times width a subset-table walk may list. The degree-10 surface at
# its default cutoff 24 needs 2925 x 2365, the (4,1,3) ideal 2600 x 840, and the
# Pfaffians of verify --t 15 --r 1 a level of 9.87M.
MAX_ARRAY_ENTRIES = 100 * MAX_FORM_DIM


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**31 modulus cap."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer(value, label: str) -> int:
    """The one rule for a number from outside, applied by the constructor that
    owns it and names it by label: an int, a numpy integer or an integral float
    (2.0 reads as 2) is an int; a fraction, NaN, inf, a bool, a string or
    anything else is refused with ValueError, "<value> is not an integer (<label>)"."""
    integral = ((isinstance(value, (int, np.integer)) and not isinstance(value, bool))
                or (isinstance(value, float) and value.is_integer()))
    if not integral:
        raise ValueError(f"{value!r} is not an integer ({label})")
    return int(value)


def _dim(nvars: int, degree: int) -> int:
    """Number of degree-d monomials in nvars variables: the one place that
    refuses a basis above MAX_FORM_DIM, before anything of its size exists.
    In one variable, where every basis has one monomial, the degree is capped."""
    if degree < 0:
        return 0
    count = math.comb(degree + nvars - 1, nvars - 1)
    if max(count, degree) > MAX_FORM_DIM:
        raise ValueError(f"degree {degree} too large: {count} monomials in {nvars} variables "
                         f"(the limit is {MAX_FORM_DIM} monomials and degree {MAX_FORM_DIM})")
    return count


@functools.cache
def _exps(nvars: int, degree: int) -> np.ndarray:
    """The degree-d basis, read-only, by stars and bars: bars at c_0 < ... <
    c_{n-2} give e_v = c_v - c_{v-1} - 1. As c_v = e_0 + ... + e_v + v, the
    combinations of bar slots, reversed, are in descending lex order."""
    count = _dim(nvars, degree)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(degree + nvars - 1), nvars - 1)),
        dtype=np.int64, count=count * (nvars - 1)).reshape(count, nvars - 1)
    edges = np.pad(bars[::-1], ((0, 0), (1, 1)), constant_values=(-1, degree + nvars - 1))
    exps = np.diff(edges, axis=1) - 1
    exps.setflags(write=False)
    return exps


@functools.cache
def _rank_table(nvars: int, degree: int) -> np.ndarray:
    """Row v, column s <= d: C(s + n - v - 2, n - v - 1), the rank term of v."""
    _dim(nvars, degree)  # the cap, before the table is allocated
    table = np.array([[math.comb(s + nvars - v - 2, nvars - v - 1) for s in range(degree + 1)]
                      for v in range(nvars - 1)], dtype=np.int64).reshape(nvars - 1, degree + 1)
    table.setflags(write=False)
    return table


def _rank(nvars: int, degree: int, *factors: np.ndarray) -> np.ndarray:
    """Positions in the degree-d basis of the products of the exponent rows
    in `factors`, broadcast against each other, from their summed tail sums."""
    table = _rank_table(nvars, degree)
    tails = [np.cumsum(e[..., :0:-1], axis=-1)[..., ::-1] for e in factors]
    pos = np.zeros(np.broadcast_shapes(*(e.shape[:-1] for e in factors)), dtype=np.int64)
    for v in range(nvars - 1):
        pos += table[v, sum(t[..., v] for t in tails)]
    return pos


@functools.cache
def _mul_index(nvars: int, a: int, b: int) -> np.ndarray:
    table = _rank(nvars, a + b, _exps(nvars, a)[:, None], _exps(nvars, b)[None])
    table.setflags(write=False)
    return table


class PolyRing:
    """Context for F_p[x_0, ..., x_{nvars-1}] restricted to homogeneous pieces,
    p an odd prime below 2**31.

    A ring holds only (p, nvars). Its bases and product tables are the
    module's, one per variable count (module docstring), built on first use.
    """

    def __init__(self, p: int = DEFAULT_PRIME, nvars: int = 4):
        p, nvars = _integer(p, "modulus"), _integer(nvars, "variable count")
        if not (2 < p < 2**31):
            raise ValueError(f"modulus must satisfy 2 < p < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and (self.p, self.nvars) == (other.p, other.nvars)

    def __hash__(self) -> int:
        return hash((self.p, self.nvars))

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, nvars={self.nvars})"

    def dim(self, degree: int) -> int:
        """Dimension of the degree-d piece of the polynomial ring; ValueError
        above MAX_FORM_DIM."""
        return _dim(self.nvars, degree)

    def monomials(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """The degree-d basis as exponent tuples, in descending lexicographic order."""
        return tuple(map(tuple, self.exps(degree).tolist()))

    def exps(self, degree: int) -> np.ndarray:
        """Exponent matrix of the degree-d basis, shape (dim(d), nvars), read-only."""
        return _exps(self.nvars, degree)

    def mul_index(self, a: int, b: int) -> np.ndarray:
        """Read-only table T of shape (dim(a), dim(b)), cached: basis monomial
        i of degree a times basis monomial j of degree b is basis monomial
        T[i, j] of degree a + b. It places every form product (Form.mul_matrix)."""
        return _mul_index(self.nvars, a, b)

    # ---- form constructors ----

    def form(self, degree: int, terms: dict | Iterable = ()) -> Form:
        """Build a form from (exponent vector, coefficient) pairs, summing
        repeated monomials mod p; the degree, exponents and coefficients are
        read by _integer. A degree whose monomial basis exceeds MAX_FORM_DIM
        is refused before anything is allocated."""
        degree = _integer(degree, "degree")
        items = terms.items() if isinstance(terms, dict) else terms
        monos, coefs = [], []
        for mono, coef in items:
            mono = tuple(_integer(e, "exponent") for e in mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} has degree {sum(mono)}, expected {degree}")
            monos.append(mono)
            coefs.append(_integer(coef, "coefficient") % self.p)
        coeffs = np.zeros(self.dim(degree), dtype=np.int64)
        if monos:
            np.add.at(coeffs, _rank(self.nvars, degree, np.array(monos, dtype=np.int64)), coefs)
            coeffs %= self.p
        return Form(self, degree, coeffs)

    def zero(self, degree: int = 0) -> Form:
        return Form(self, degree, np.zeros(self.dim(degree), dtype=np.int64))

    def one(self) -> Form:
        return self.constant(1)

    def constant(self, c: int) -> Form:
        return Form(self, 0, np.array([_integer(c, "coefficient") % self.p], dtype=np.int64))

    def variable(self, i: int) -> Form:
        i = _integer(i, "variable index")
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        coeffs = np.zeros(self.nvars, dtype=np.int64)
        coeffs[i] = 1  # the degree-1 basis is x_0, ..., x_{nvars-1}
        return Form(self, 1, coeffs)

    def monomial(self, exps: Sequence[int], coef: int = 1) -> Form:
        exps = tuple(_integer(e, "exponent") for e in exps)
        return self.form(sum(exps), [(exps, coef)])


class Form:
    """Homogeneous polynomial over F_p, immutable once built.

    coeffs is a read-only int64 vector with one entry in [0, p) per monomial
    of ring.monomials(degree). Use PolyRing.form / .variable / .monomial to
    construct; the raw constructor takes ownership of an already-reduced
    vector.
    """

    __slots__ = ("ring", "degree", "coeffs", "is_zero")

    def __init__(self, ring: PolyRing, degree: int, coeffs: np.ndarray):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        coeffs.setflags(write=False)
        self.ring = ring
        self.degree = degree
        self.coeffs = coeffs
        self.is_zero = not coeffs.any()

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The nonzero coefficients as a fresh {exponent vector: coefficient} map."""
        nz = np.flatnonzero(self.coeffs)
        monos = map(tuple, self.ring.exps(self.degree)[nz].tolist())
        return dict(zip(monos, self.coeffs[nz].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.is_zero and other.is_zero:
            return True  # zero forms compare equal whatever their declared degree
        return self.degree == other.degree and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        if self.is_zero:
            return hash(self.ring)
        return hash((self.ring, self.degree, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for mono, c in self.terms.items():  # the basis order: descending lex
            pos = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(mono) if e)
            bits.append(f"{c}*{pos}" if pos else str(c))
        return " + ".join(bits)

    def __add__(self, other: Form) -> Form:
        if self.ring != other.ring:
            raise ValueError("forms live in different rings")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Form(self.ring, self.degree, (self.coeffs + other.coeffs) % self.ring.p)

    def __neg__(self) -> Form:
        return Form(self.ring, self.degree, -self.coeffs % self.ring.p)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __mul__(self, other) -> Form:
        """A non-form factor is a scalar (scale). Of two forms, the coefficients
        of the factor with fewer monomials times the mul_matrix of the other,
        reduced by _mulmod: exact for every p."""
        if not isinstance(other, Form):
            return self.scale(other)
        if self.ring != other.ring:
            raise ValueError("forms live in different rings")
        ring = self.ring
        if self.is_zero or other.is_zero:
            return ring.zero(self.degree + other.degree)
        small, big = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        acc = _mulmod(small.coeffs[None], big.mul_matrix(small.degree), ring.p)
        return Form(ring, self.degree + other.degree, acc[0].astype(np.int64))

    __rmul__ = __mul__

    def mul_matrix(self, b: int) -> np.ndarray:
        """The matrix of multiplication by this form from R_b to R_{b + degree},
        float64 of shape (dim R_b, dim R_{b + degree}): row i is the form
        times basis monomial i of degree b, placed by mul_index. ValueError,
        before it is allocated, above MAX_ARRAY_ENTRIES entries."""
        ring = self.ring
        rows, cols = ring.dim(b), ring.dim(b + self.degree)
        if rows * cols > MAX_ARRAY_ENTRIES:
            raise ValueError(f"product of degrees {self.degree} and {b} too large: its matrix would "
                             f"be {rows} x {cols} (the limit is {MAX_ARRAY_ENTRIES} entries)")
        out = np.zeros((rows, cols))
        out[np.arange(len(out))[:, None], ring.mul_index(b, self.degree)] = self.coeffs
        return out

    def scale(self, c: int) -> Form:
        c = _integer(c, "scalar") % self.ring.p
        if c == 0:
            return self.ring.zero(self.degree)
        if c == 1:
            return self
        return Form(self.ring, self.degree, self.coeffs * c % self.ring.p)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.ring.nvars:
            raise ValueError(f"point has {len(point)} coordinates, ring has {self.ring.nvars}")
        p = self.ring.p
        exps = self.ring.exps(self.degree)
        vals = self.coeffs
        for v, x in enumerate(_integer(x, "coordinate") for x in point):
            powers = np.array([pow(x, e, p) for e in range(self.degree + 1)], dtype=np.int64)
            vals = vals * powers[exps[:, v]] % p
        return int(vals.sum() % p)


def random_form(degree: int, ring: PolyRing, rng: random.Random) -> Form:
    """Form with an independent uniform F_p coefficient on every degree-d monomial.

    Deterministic for a fixed seed: coefficients are drawn in the canonical
    monomial order of the ring.
    """
    if degree < 1:
        raise ValueError("random forms must have degree >= 1")
    coeffs = np.array([rng.randrange(ring.p) for _ in range(ring.dim(degree))], dtype=np.int64)
    return Form(ring, degree, coeffs)
