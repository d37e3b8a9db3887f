"""Exact arithmetic for homogeneous multivariate forms over a prime field.

A form of degree d is a dense coefficient vector over the ring's degree-d
monomial basis, with entries in [0, p). The zero form is the all-zero vector
of any declared degree. The ring context (modulus, number of variables)
caches the monomial bases per degree and the index tables that place the
product of two basis monomials; form products and the Macaulay-matrix
machinery both build their positions from those tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_PRIME = 32003

Monomial = tuple  # exponent vector, one non-negative entry per variable

# exponents are packed into a single int for fast vectorized index lookups
_CODE_RADIX = 1 << 15


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


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p with an odd modulus below 2**31."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not (2 < self.p < 2**31):
            raise ValueError(f"modulus must satisfy 2 < p < 2**31, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def _gen_monomials(degree: int, nvars: int) -> Iterator[Monomial]:
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _gen_monomials(degree - e, nvars - 1):
            yield (e,) + rest


class PolyRing:
    """Context for F_p[x_0, ..., x_{nvars-1}] restricted to homogeneous pieces.

    Instances cache, per degree, the monomial basis (in a fixed generation
    order), its exponent matrix as a numpy array and the sorted codes used to
    map exponent vectors back to basis positions; and, per pair of degrees,
    the product index table of mul_index.
    """

    def __init__(self, p: int = DEFAULT_PRIME, nvars: int = 4):
        self.field = FieldSpec(p)
        self.p = p
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self._monomials: dict[int, tuple[Monomial, ...]] = {}
        self._exps: dict[int, np.ndarray] = {}
        self._codes: dict[int, np.ndarray] = {}
        self._mul: dict[tuple[int, int], np.ndarray] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and (self.p, self.nvars) == (other.p, other.nvars)

    def __hash__(self) -> int:
        return hash((self.p, self.nvars))

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, nvars={self.nvars})"

    def dim(self, degree: int) -> int:
        """Dimension of the degree-d piece of the polynomial ring."""
        if degree < 0:
            return 0
        return math.comb(degree + self.nvars - 1, self.nvars - 1)

    def monomials(self, degree: int) -> tuple[Monomial, ...]:
        if degree < 0:
            return ()
        got = self._monomials.get(degree)
        if got is None:
            got = tuple(_gen_monomials(degree, self.nvars))
            self._monomials[degree] = got
        return got

    def exps(self, degree: int) -> np.ndarray:
        """Exponent matrix of the degree-d basis, shape (dim(d), nvars)."""
        got = self._exps.get(degree)
        if got is None:
            got = np.array(self.monomials(degree), dtype=np.int64).reshape(-1, self.nvars)
            self._exps[degree] = got
        return got

    def _sorted_codes(self, degree: int) -> np.ndarray:
        """Codes of the degree-d basis in ascending order.

        The basis is generated in descending lexicographic order and the code
        is big-endian in the exponents, so this is the basis order reversed.
        """
        got = self._codes.get(degree)
        if got is None:
            got = self._encode(self.exps(degree))[::-1].copy()
            self._codes[degree] = got
        return got

    def _encode(self, exps: np.ndarray) -> np.ndarray:
        if np.any(exps >= _CODE_RADIX):
            raise ValueError("exponent too large for code table")
        code = np.zeros(exps.shape[:-1], dtype=np.int64)
        for v in range(self.nvars):
            code = code * _CODE_RADIX + exps[..., v]
        return code

    def _positions(self, degree: int, codes: np.ndarray) -> np.ndarray:
        asc = self._sorted_codes(degree)
        return len(asc) - 1 - np.searchsorted(asc, codes)

    def index_of_exps(self, degree: int, exps: np.ndarray) -> np.ndarray:
        """Positions of the given exponent rows in the degree-d basis."""
        return self._positions(degree, self._encode(exps))

    def product_positions(self, a: int, b: int) -> np.ndarray:
        """Table T of shape (dim(a), dim(b)): basis monomial i of degree a times
        basis monomial j of degree b is basis monomial T[i, j] of degree a + b.

        Codes add like exponent vectors (no digit reaches the radix, which
        encoding the degree a + b basis checks), so T is one lookup.
        """
        codes = self._sorted_codes(a)[::-1, None] + self._sorted_codes(b)[None, ::-1]
        return self._positions(a + b, codes)

    def mul_index(self, a: int, b: int) -> np.ndarray:
        """product_positions(a, b), cached: the table behind every form product."""
        got = self._mul.get((a, b))
        if got is None:
            got = self.product_positions(a, b)
            self._mul[(a, b)] = got
        return got

    # ---- form constructors ----

    def form(self, degree: int, terms: dict | Iterable = ()) -> Form:
        """Build a form from (exponent vector, coefficient) pairs, summing
        repeated monomials mod p."""
        items = terms.items() if isinstance(terms, dict) else terms
        monos, coefs = [], []
        for mono, coef in items:
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            if monomial_degree(mono) != degree:
                raise ValueError(f"monomial {mono} has degree {monomial_degree(mono)}, expected {degree}")
            monos.append(mono)
            coefs.append(int(coef) % self.p)
        coeffs = np.zeros(self.dim(degree), dtype=np.int64)
        if monos:
            np.add.at(coeffs, self.index_of_exps(degree, np.array(monos, dtype=np.int64)), coefs)
            coeffs %= self.p
        return Form(self, degree, coeffs)

    def zero(self, degree: int = 0) -> Form:
        return Form(self, degree, np.zeros(self.dim(degree), dtype=np.int64))

    def one(self) -> Form:
        return self.constant(1)

    def constant(self, c: int) -> Form:
        return Form(self, 0, np.array([c % self.p], dtype=np.int64))

    def variable(self, i: int) -> Form:
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        coeffs = np.zeros(self.nvars, dtype=np.int64)
        coeffs[i] = 1  # the degree-1 basis is x_0, ..., x_{nvars-1}
        return Form(self, 1, coeffs)

    def monomial(self, exps: Sequence[int], coef: int = 1) -> Form:
        return self.form(sum(exps), [(tuple(exps), coef)])


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
    def terms(self) -> dict[Monomial, int]:
        """The nonzero coefficients as a fresh {exponent vector: coefficient} map."""
        monos = self.ring.monomials(self.degree)
        nz = np.flatnonzero(self.coeffs)
        return dict(zip([monos[i] for i in nz], self.coeffs[nz].tolist()))

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
        if isinstance(other, int):
            return self.scale(other)
        if self.ring != other.ring:
            raise ValueError("forms live in different rings")
        ring = self.ring
        deg = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return ring.zero(deg)
        # Products are reduced below 2**31 before the scatter-add and each
        # output slot sums at most min(dim a, dim b) of them, so the float64
        # accumulator of bincount stays below 2**53, hence exact, for every
        # p < 2**31 until a factor has 2**22 monomials (a table far too big
        # to build).
        prods = np.multiply.outer(self.coeffs, other.coeffs) % ring.p
        idx = ring.mul_index(self.degree, other.degree)
        acc = np.bincount(idx.ravel(), weights=prods.ravel(), minlength=ring.dim(deg))
        return Form(ring, deg, acc.astype(np.int64) % ring.p)

    __rmul__ = __mul__

    def scale(self, c: int) -> Form:
        c %= self.ring.p
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
        for v, x in enumerate(point):
            powers = np.array([pow(int(x), e, p) for e in range(self.degree + 1)], dtype=np.int64)
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
