"""Closed-form degrees, intersection-count bounds, h-vectors, and resolution shapes.

Everything here is exact integer arithmetic. The binomial convention is
C(n, k) = 0 whenever k < 0, n < 0 or n < k; several of the bounds rely on
vanishing binomials at small arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import _integer


def binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or n < k:
        return 0
    return math.comb(n, k)


def _check_range(t: int, r: int, d: int = 1) -> None:
    if t < 2:
        raise ValueError(f"need t >= 2, got t={t}")
    if not 0 <= r <= t - 1:
        raise ValueError(f"need 0 <= r <= t-1, got r={r} at t={t}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")


def check_construction(t: int, r: int, d: int = 1) -> None:
    """The one rule for the (t, r, d) of a construction pair: t >= 2,
    1 <= r <= t-1 and d >= 1; ValueError otherwise."""
    _check_range(t, r, d)
    if r == 0:
        raise ValueError("r = 0 has no intersection construction")


def bound_linear(t: int, r: int) -> int:
    """Sharp count for curves from linear-entry matrices of sizes t and t-r:
    2*C(t+2-r, 3) + (r-1)*C(t+1-r, 2)."""
    _check_range(t, r)
    return 2 * binom(t + 2 - r, 3) + (r - 1) * binom(t + 1 - r, 2)


def bound_uniform(d: int, t: int, r: int) -> int:
    """Degree-d analogue of bound_linear; reduces to it at d = 1."""
    _check_range(t, r, d)
    return (binom(d * (2 * t - r + 1), 3)
            - (t - r + 1) * binom(d * (t + 1), 3)
            - (t - r) * binom(d * (t - r + 1), 3)
            + (t - r + 1) * binom(d * (t - r), 3)
            + (t - r) * binom(d * t, 3))


def deg_acm(t: int, d: int = 1) -> int:
    """Degree of the determinantal curve of a t x (t+1) matrix of degree-d forms."""
    if t < 1 or d < 1:
        raise ValueError("need t >= 1 and d >= 1")
    return d * d * binom(t + 1, 2)


def h_vector_gorenstein(t: int, r: int) -> tuple[int, ...]:
    """h-vector of the linear-case intersection: 1, 3, 6, ... rising to a flat
    middle of r+1 copies of C(t-r+1, 2), then mirrored; socle degree 2t-r-2."""
    check_construction(t, r)
    s = 2 * t - r - 2
    flat = binom(t - r + 1, 2)
    h = []
    for i in range(s + 1):
        if i <= t - r - 2:
            h.append(binom(i + 2, 2))
        elif i <= t - 1:
            h.append(flat)
        else:
            h.append(h[s - i])
    return tuple(h)


@dataclass(frozen=True)
class BettiShape:
    """Twists and ranks of a graded free resolution of an ideal.

    terms is a sequence of (homological index i, twist a, rank m), meaning a
    summand R(-a)^m at step i, with i running 1..codimension. The alternating
    rank sum must be +-1 for an ideal resolution. The codimension and every
    entry of a term are read by ring._integer.
    """

    codimension: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "codimension", _integer(self.codimension, "codimension"))
        object.__setattr__(self, "terms", tuple(
            (_integer(i, "homological index"), _integer(a, "twist"), _integer(m, "rank"))
            for i, a, m in self.terms))
        for i, a, m in self.terms:
            if not 1 <= i <= self.codimension:
                raise ValueError(f"homological index {i} outside 1..{self.codimension}")
            if m <= 0:
                raise ValueError("ranks must be positive")
        alt = sum((-1) ** i * m for i, _, m in self.terms)
        if abs(alt) != 1:
            raise ValueError(f"alternating rank sum {alt}, expected +-1")

    def step(self, i: int) -> dict[int, int]:
        """Twist -> rank map at homological step i."""
        out: dict[int, int] = {}
        for ii, a, m in self.terms:
            if ii == i:
                out[a] = out.get(a, 0) + m
        return out


def expected_betti(t: int, r: int, d: int = 1) -> BettiShape:
    """Resolution shape of the constructed codimension-3 Gorenstein ideal:
    generators in degrees d(t-r) and dt, syzygies at d(t-r+1) and d(t+1),
    top twist d(2t-r+1)."""
    check_construction(t, r, d)
    return BettiShape(
        codimension=3,
        terms=(
            (1, d * (t - r), t - r + 1),
            (1, d * t, t - r),
            (2, d * (t - r + 1), t - r),
            (2, d * (t + 1), t - r + 1),
            (3, d * (2 * t - r + 1), 1),
        ),
    )


def hilbert_from_resolution(shape: BettiShape) -> tuple[tuple[int, ...], int]:
    """(h-vector, degree) encoded by a resolution shape.

    The numerator N(z) = 1 + sum_i (-1)^i sum_terms m * z^a is divided by
    (1-z)^c, c the shape's codimension; the division must be exact with
    non-negative coefficients, else the shape is inconsistent with a
    Cohen-Macaulay quotient of that codimension.
    """
    top = max(a for _, a, _ in shape.terms)
    num = [0] * (top + 1)
    num[0] = 1
    for i, a, m in shape.terms:
        num[a] += (-1) ** i * m
    coeffs = num
    for _ in range(shape.codimension):
        pref = []
        acc = 0
        for v in coeffs:
            acc += v
            pref.append(acc)
        if pref and pref[-1] != 0:
            raise ValueError("resolution numerator is not divisible by (1-z)^c")
        coeffs = pref[:-1] if pref else []
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(v < 0 for v in coeffs):
        raise ValueError("h-vector from resolution has negative entries")
    h = tuple(coeffs)
    return h, sum(h)
