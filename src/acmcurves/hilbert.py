"""Hilbert functions of graded quotients via Macaulay-matrix ranks.

No Groebner bases anywhere: the degree-d piece of an ideal is the row space
of the matrix whose rows are monomial multiples of the generators, written
against the degree-d monomial basis, and its dimension is an exact rank over
F_p. A certified constant Hilbert function gives the length of a
zero-dimensional scheme; finite differences recover h-vectors.

A certified profile mostly comes from the Artinian reduction: with
l = x_{n-1}, multiplication by l gives
H(d) = S(d) - sum_{e<d} dim((I : l)/I)_e, where S is the running sum of the
Hilbert function H' of R/(I + l), a ring in n - 1 variables. So H' in n - 1
variables and one n-variable rank, where the sum vanishes, give the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import echelon_basis, rank_modp
from .ring import Form, PolyRing


@dataclass(frozen=True)
class IdealPresentation:
    """A homogeneous ideal given by a finite list of nonzero generators."""

    ring: PolyRing
    generators: tuple[Form, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if g.ring != self.ring:
                raise ValueError("generator ring mismatch")
            if g.is_zero:
                raise ValueError("zero generator")
            if g.degree == 0:
                raise ValueError("degree-0 generator would be a unit")


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert-function values of R/I for d = 0..cutoff, plus stabilization data.

    The stabilization fields are set only under a certificate (m, v) from
    hilbert_function: H(d) = H(m) for every d >= m. stabilized_value is H(m),
    the scheme length when R/I is one-dimensional; stabilized_at is the first
    degree of the final flat run of values.
    """

    values: tuple[int, ...]
    cutoff: int
    nvars: int
    stabilized_value: int | None = None
    stabilized_at: int | None = None
    certificate: tuple[int, int] | None = None

    @property
    def stabilized(self) -> bool:
        return self.stabilized_value is not None


def macaulay_matrix(ideal: IdealPresentation, d: int) -> np.ndarray:
    """Rows are m*g for each generator g and each monomial m of degree d - deg g,
    written against the degree-d monomial basis (one column per monomial)."""
    ring = ideal.ring
    gens = [g for g in ideal.generators if g.degree <= d]
    out = np.zeros((sum(ring.dim(d - g.degree) for g in gens), ring.dim(d)), dtype=np.int64)
    row = 0
    for g in gens:
        # built per call: caching these tables, unlike the small product
        # tables of mul_index, raises the peak memory of long sweeps
        idx = ring.product_positions(d - g.degree, g.degree)
        out[np.arange(row, row + len(idx))[:, None], idx] = g.coeffs[None, :]
        row += len(idx)
    return out


def ideal_piece_dim(ideal: IdealPresentation, d: int) -> int:
    """Dimension over F_p of the degree-d graded piece of the ideal."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return rank_modp(macaulay_matrix(ideal, d), ideal.ring.p)


def hilbert_function(ideal: IdealPresentation, cutoff: int | None = None) -> HilbertProfile:
    """Hilbert function of R/I up to the cutoff degree, certified constant
    from a degree m on when possible.

    The default cutoff is the sum of the two largest generator degrees plus 4
    (a lone generator counts twice). A certificate (m, v) says that
    (I + x_v)_m = R_m and (I : x_v)_m = I_m with m >= max(1, top generator
    degree). By the criterion of Bayer and Stillman (Invent. Math. 87, 1987,
    Thm 1.10; Eisenbud, The Geometry of Syzygies, ch. 4) I is then
    m-regular, and as dim R/I <= 1, H(d) = H(m) for all d >= m, so the values
    up to the cutoff are filled in, not ranked. This direction of the theorem
    holds for any linear form, generic or not, over any field: base change to
    the algebraic closure of F_p preserves sums, colons and Hilbert functions.

    The Artinian reduction is tried first. With l = x_{n-1} and H' the
    Hilbert function of R/(I + l), ranked in n - 1 variables,
    H(d) = S(d) - sum_{e<d} dim((I : l)/I)_e, S(d) = H'(0) + ... + H'(d).
    Let m < cutoff be the first e >= max(1, top generator degree) with
    H'(e) = 0; then H' is 0 from m on and S(m + 1) = S(m). One rank proves
    the whole profile: if H(m + 1) = S(m), every (I : l)_e with e <= m equals
    I_e, so H(d) = S(d) for d <= m + 1 and the certificate is (m, n - 1).
    Otherwise (l-torsion in a degree <= m, as in a non-saturated
    presentation; H' never vanishes; or n = 1) every degree is ranked in n
    variables: once m = d - 1 >= max(1, top generator degree) and
    H(m-1) = H(m) = H(m+1), a variable x_v with (I + x_v)_m = R_m gives
    H(m+1) = dim (R/(I : x_v))_m, so H(m) = H(m+1) is (I : x_v)_m = I_m.
    Both ways give the same profile: when the reduction succeeds,
    H(d) - H(d-1) = H'(d), so the sweep would stop at the same m and pass
    x_{n-1} first.
    Without a certificate stabilized_value is None, an explicit non-result.
    """
    degs = sorted((g.degree for g in ideal.generators), reverse=True)
    if cutoff is None:
        cutoff = sum((degs + degs)[:2]) + 4
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    ring = ideal.ring
    low = max([1] + degs[:1])
    if ring.nvars > 1:
        cut = _restrict(ideal, ring.nvars - 1)
        sums: list[int] = []
        for e in range(cutoff):
            sums.append((sums[-1] if sums else 0) + cut.ring.dim(e) - ideal_piece_dim(cut, e))
            if e >= low and sums[e] == sums[e - 1]:
                if ring.dim(e + 1) - ideal_piece_dim(ideal, e + 1) == sums[e]:
                    return _certified(sums, cutoff, ring.nvars, (e, ring.nvars - 1))
                break
    values: list[int] = []
    for d in range(cutoff + 1):
        values.append(ring.dim(d) - ideal_piece_dim(ideal, d))
        m = d - 1
        if m >= low and values[m - 1] == values[m] == values[d]:
            v = _regularity_witness(ideal, m)
            if v is not None:
                return _certified(values[:d], cutoff, ring.nvars, (m, v))
    return HilbertProfile(values=tuple(values), cutoff=cutoff, nvars=ring.nvars)


def _certified(values: list[int], cutoff: int, nvars: int,
               certificate: tuple[int, int]) -> HilbertProfile:
    """The profile from H(0..m) and a certificate (m, v): H(d) = H(m) from
    d = m - 1 on, filled in up to the cutoff."""
    m = certificate[0]
    start = m - 1
    while start and values[start - 1] == values[m]:
        start -= 1
    return HilbertProfile(values=tuple(values) + (values[m],) * (cutoff - m), cutoff=cutoff,
                          nvars=nvars, stabilized_value=values[m], stabilized_at=start,
                          certificate=certificate)


def _restrict(ideal: IdealPresentation, v: int) -> IdealPresentation:
    """The image of I in R/(x_v), a ring in the other n - 1 variables. Setting
    x_v = 0 keeps the coefficients of the monomials free of x_v: in
    descending-lex order they are the basis of the ring in those variables."""
    ring = ideal.ring
    sub = PolyRing(ring.p, ring.nvars - 1)
    restricted = (Form(sub, g.degree, g.coeffs[ring.exps(g.degree)[:, v] == 0])
                  for g in ideal.generators)
    return IdealPresentation(ring=sub, generators=tuple(f for f in restricted if not f.is_zero))


def _regularity_witness(ideal: IdealPresentation, m: int) -> int | None:
    """First v in n-1, ..., 0 with (I + x_v)_m = R_m, or None."""
    ring = ideal.ring
    if ring.nvars == 1:
        return 0  # (I + x_0)_m = R_m for every m >= 1
    for v in reversed(range(ring.nvars)):
        cut = _restrict(ideal, v)
        if ideal_piece_dim(cut, m) == cut.ring.dim(m):
            return v
    return None


def h_vector_from_profile(profile: HilbertProfile, codimension: int) -> tuple[int, ...]:
    """h-vector extracted from a certified Hilbert-function profile by finite
    differences.

    A codimension-c subscheme has a quotient ring of Krull dimension
    nvars - c, so that many difference passes reduce the Hilbert function to
    the Artinian one. Only a profile with a certificate is accepted: without
    one the tail of the values is not known to be final, so no h-vector is
    backed by it. The differenced sequence must end in at least two zeros.
    Negative entries mean the input is not arithmetically Cohen-Macaulay at
    this cutoff (or the presentation is not saturated) and are reported as
    an error.
    """
    ndiff = profile.nvars - codimension
    if ndiff < 0:
        raise ValueError(f"codimension {codimension} exceeds the ambient {profile.nvars} variables")
    if profile.certificate is None:
        raise ValueError(f"profile not certified by degree {profile.cutoff}: no h-vector "
                         "(positive-dimensional, shared component or cutoff too small)")
    seq = list(profile.values)
    for _ in range(ndiff):
        seq = [seq[i] - (seq[i - 1] if i else 0) for i in range(len(seq))]
    if len(seq) < 2 or seq[-1] != 0 or seq[-2] != 0:
        raise ValueError("profile cutoff too small: differences did not reach a flat zero tail")
    neg = [i for i, v in enumerate(seq) if v < 0]
    if neg:
        raise ValueError(f"negative difference at degree {neg[0]}: not ACM at this cutoff")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def minimal_generator_degrees(ideal: IdealPresentation) -> dict[int, int]:
    """Degrees of a minimal generating set, as a {degree: count} map.

    In each degree d the number of new minimal generators is
    dim I_d - dim(R_1 * I_{d-1}). The second term is the dimension of the
    degree-d piece of I_{<d}, the ideal of the generators of degree below d,
    because (I_{<d})_d = R_1 * I_{d-1}. The count can be nonzero only at a
    degree of some input generator, so only those degrees are visited.
    """
    out: dict[int, int] = {}
    for d in sorted({g.degree for g in ideal.generators}):
        lower = IdealPresentation(ring=ideal.ring,
                                  generators=tuple(g for g in ideal.generators if g.degree < d))
        count = ideal_piece_dim(ideal, d) - ideal_piece_dim(lower, d)
        if count:
            out[d] = count
    return out


def graded_piece_spans_equal(a: IdealPresentation, b: IdealPresentation,
                             up_to: int) -> bool:
    """True iff the two generator sets span the same piece in every degree <= up_to.

    I_d is the sum over generator degrees e <= d of R_{d-e} times the
    generators of degree e, so if the pieces agree at every generator degree
    of either set up to up_to, each set's generators of degree e lie in the
    other ideal and the pieces agree in every degree <= up_to. Only those
    degrees are compared, by their reduced row echelon forms: a row space has
    exactly one, so equal forms are equal pieces.
    """
    if a.ring != b.ring:
        raise ValueError("presentations live in different rings")
    p = a.ring.p
    degrees = {g.degree for g in a.generators + b.generators if g.degree <= up_to}
    return all(np.array_equal(echelon_basis(macaulay_matrix(a, d), p),
                              echelon_basis(macaulay_matrix(b, d), p))
               for d in sorted(degrees))
