"""Hilbert functions of graded quotients via Macaulay matrices over F_p.

No Groebner bases anywhere: the degree-d piece of an ideal is the row space
of the matrix whose rows are monomial multiples of the generators, written
against the degree-d monomial basis, and its dimension is an exact rank over
F_p. A certified constant Hilbert function gives the length of a
zero-dimensional scheme; finite differences recover h-vectors.

hilbert_function ranks no such matrix in all n variables. It carries a basis
Psi_e of the dual space I_e^perp = {v : Mac(e) v = 0} (Macaulay's inverse
system), so H(e) = dim I_e^perp, and lifts it degree by degree (the lifting
step of Mourrain, J. Pure Appl. Algebra 117-118, 1997). Let l = x_{n-1} and
(l o v)(w) = v(l w). The rows (l u') g of Mac(e) vanish on v iff the rows
u' g vanish on l o v, so together they say l o v lies in I_{e-1}^perp.
Write v as y on the l-free monomials of degree e and Psi_{e-1} c on the
l-divisible ones (l w <-> w). The other rows, u g with u free of l, split
into F_e on the l-free columns, the Macaulay matrix of I at l = 0 in n - 1
variables (zero rows kept for generators divisible by l), and G_e on the
l-divisible ones. Then I_e^perp is the kernel of K(e) = [F_e | G_e Psi_{e-1}]
under (y, c) -> (y, Psi_{e-1} c), so H(e) = dim R'_e + H(e-1) - rank K(e)
with R' = R/(l). That holds for every ideal, with or without l-torsion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _mulmod, echelon_basis, kernel_lift, rank_modp
from .ring import MAX_ARRAY_ENTRIES, MAX_FORM_DIM, Form, PolyRing, _rank


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
    """Hilbert-function values of R/I for d = 0..cutoff, and the certificate
    (m, v) from hilbert_function that proves H(d) = H(m) for every d >= m,
    or None.

    Everything else is read off those: cutoff is the last degree of values;
    under a certificate, stabilized_value is H(m), the scheme length when R/I
    is one-dimensional, stabilized_at the first degree of the flat run of
    values through m, the final one, and codimension nvars - 1 when H(m) > 0
    and nvars when H(m) = 0, as H constant means dim R/I <= 1.
    """

    values: tuple[int, ...]
    nvars: int
    certificate: tuple[int, int] | None = None

    @property
    def cutoff(self) -> int:
        return len(self.values) - 1

    @property
    def stabilized(self) -> bool:
        return self.certificate is not None

    @property
    def stabilized_value(self) -> int | None:
        return None if self.certificate is None else self.values[self.certificate[0]]

    @property
    def stabilized_at(self) -> int | None:
        if self.certificate is None:
            return None
        start = self.certificate[0]
        while start and self.values[start - 1] == self.values[start]:
            start -= 1
        return start

    @property
    def codimension(self) -> int | None:
        return None if self.certificate is None else self.nvars - (self.stabilized_value > 0)


def macaulay_matrix(ideal: IdealPresentation, d: int) -> np.ndarray:
    """Rows are m*g for each generator g and each monomial m of degree d - deg g,
    written against the degree-d monomial basis (one column per monomial):
    the int64 stack of the matrices g.mul_matrix(d - deg g)."""
    ring = ideal.ring
    blocks = [g.mul_matrix(d - g.degree) for g in ideal.generators if g.degree <= d]
    return np.concatenate([np.zeros((0, ring.dim(d)))] + blocks, dtype=np.int64, casting="unsafe")


def ideal_piece_dim(ideal: IdealPresentation, d: int) -> int:
    """Dimension over F_p of the degree-d graded piece of the ideal."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return rank_modp(macaulay_matrix(ideal, d), ideal.ring.p)


def hilbert_function(ideal: IdealPresentation, cutoff: int | None = None) -> HilbertProfile:
    """Hilbert function of R/I up to the cutoff degree, certified constant
    from a degree m on when possible.

    The default cutoff is the sum of the two largest generator degrees plus 4
    (a lone generator counts twice). A cutoff above MAX_FORM_DIM, the largest
    degree of a form, is refused with ValueError before any lift, as the
    values up to the cutoff are stored. Each value is H(e) = dim I_e^perp, from
    a dual basis lifted degree by degree (module docstring): with l = x_{n-1}
    and R' = R/(l), I_e^perp is the kernel of K(e) = [F_e | G_e Psi_{e-1}],
    so H(e) = dim R'_e + H(e-1) - rank K(e). The pivots of K(e) in the
    Psi_{e-1} block number T(e-1) = dim((I : l)/I)_{e-1}, so the lift is a
    column selection of Psi_{e-1} plus a product with only T(e-1) columns.
    Psi_e holds dim R_e x H(e) entries, more than Mac(e) when H(e) > dim I_e,
    as for a hypersurface of high degree; points and curves are far below.
    Memory is that of Psi_{e-1} and Psi_e plus K(e): K(e) is assembled one
    generator at a time and freed before Psi_e is allocated. A degree
    where Psi_e could hold more than MAX_ARRAY_ENTRIES is refused with
    ValueError before its lift.

    A certificate (m, v) says that (I + x_v)_m = R_m and (I : x_v)_m = I_m
    with m >= max(1, top generator degree). By the criterion of Bayer and
    Stillman (Invent. Math. 87, 1987, Thm 1.10; Eisenbud, The Geometry of
    Syzygies, ch. 4) I is then m-regular, and as dim R/I <= 1, H(d) = H(m)
    for all d >= m, so the values up to the cutoff are filled in, not
    computed. This direction of the theorem holds for any linear form,
    generic or not, over any field: base change to the algebraic closure of
    F_p preserves sums, colons and Hilbert functions. The sweep looks for
    one once m = d - 1 >= max(1, top generator degree) and
    H(m-1) = H(m) = H(m+1): a variable x_v with (I + x_v)_m = R_m, one rank
    in n - 1 variables, gives H(m+1) = dim (R/(I : x_v))_m, so H(m) = H(m+1)
    is (I : x_v)_m = I_m.
    Without a certificate stabilized_value is None, an explicit non-result.
    """
    degs = sorted((g.degree for g in ideal.generators), reverse=True)
    if cutoff is None:
        cutoff = sum((degs + degs)[:2]) + 4
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if cutoff > MAX_FORM_DIM:
        raise ValueError(f"cutoff {cutoff} too large: no form has degree above "
                         f"MAX_FORM_DIM = {MAX_FORM_DIM}")
    ring = ideal.ring
    low = max([1] + degs[:1])
    values: list[int] = []
    psi = np.zeros((0, 0))
    for d in range(cutoff + 1):
        psi = _lift(ideal, d, psi)
        values.append(psi.shape[1])
        m = d - 1
        if m >= low and values[m - 1] == values[m] == values[d]:
            v = _regularity_witness(ideal, m)
            if v is not None:
                values[d:] = [values[m]] * (cutoff - m)
                return HilbertProfile(tuple(values), ring.nvars, (m, v))
    return HilbertProfile(tuple(values), ring.nvars)


def _lift(ideal: IdealPresentation, e: int, psi: np.ndarray) -> np.ndarray:
    """Psi_e from Psi_{e-1} (module docstring): a basis of I_e^perp, one
    vector per column, over the degree-e monomials in _lift_order.
    ValueError when Psi_e could hold more than MAX_ARRAY_ENTRIES entries."""
    ring = ideal.ring
    col = _lift_order(ring, e)
    ny = len(col) - len(psi)
    if len(col) * (ny + psi.shape[1]) > MAX_ARRAY_ENTRIES:
        raise ValueError(f"degree {e} too large for the Hilbert lift: Psi_{e} could hold "
                         f"{len(col)} x {ny + psi.shape[1]} entries (the limit is "
                         f"{MAX_ARRAY_ENTRIES})")
    # K(e) reaches kernel_lift as its only reference, so it is freed before
    # Psi_e is allocated
    return kernel_lift(_assemble(ideal, e, psi, col), ny, psi, ring.p)


def _assemble(ideal: IdealPresentation, e: int, psi: np.ndarray, col: np.ndarray) -> np.ndarray:
    """K(e) = [F_e | G_e Psi_{e-1}], one generator at a time: the rows u*g of
    Mac(e) with u free of l are built in float64 over the columns col (their
    positions once per generator degree k), multiplied by Psi_{e-1} and
    dropped before the next generator's, so no [F_e | G_e] of more than one
    generator exists.

    A row u*g reaches only part of Psi_{e-1}: u m has the power of l of the
    monomial m of degree k, so the l-divisible column l w it meets has w of
    l-power below k. In lift order those w are the first
    dim R_{e-1} - dim R_{e-1-k} rows of Psi_{e-1}, so the rows of degree k
    are built that wide and multiplied by that prefix only: for the
    (4,1,3) intersection ideal, e = 23, the rows of one degree-9 generator are 120 x 2040 and
    meet 1740 of the 2300 rows of Psi_22, where the four together over every
    column were 480 x 2600. Small temporaries matter beyond their own bytes:
    the heap they leave behind after a lift stays resident. That is why these
    rows are placed here and not cut from Form.mul_matrix: the full matrix of
    one degree-9 generator there is 680 x 2600 (14 MB), not 120 x 2040."""
    ring = ideal.ring
    gens: dict[int, list[np.ndarray]] = {}
    for g in ideal.generators:
        if g.degree <= e:
            gens.setdefault(g.degree, []).append(g.coeffs)
    free = {k: ring.exps(e - k)[ring.exps(e - k)[:, -1] == 0] for k in gens}
    ny = len(col) - len(psi)
    out = np.empty((sum(len(free[k]) * len(cs) for k, cs in gens.items()), ny + psi.shape[1]))
    row = 0
    for k, cs in gens.items():
        # column of u times monomial j of degree k, u free of l
        idx = col[_rank(ring.nvars, e, free[k][:, None], ring.exps(k)[None])]
        at = np.arange(len(idx))[:, None]
        reach = len(psi) - ring.dim(e - 1 - k)
        for c in cs:
            fg = np.zeros((len(idx), ny + reach))
            fg[at, idx] = c[None, :]
            out[row:row + len(fg), :ny] = fg[:, :ny]
            out[row:row + len(fg), ny:] = _mulmod(fg[:, ny:], psi[:reach], ring.p)
            row += len(fg)
    return out


def _lift_order(ring: PolyRing, d: int) -> np.ndarray:
    """Position of each degree-d monomial when they are sorted stably by their
    power of l: the l-free ones first, then l times the degree d - 1
    monomials in this same order, the order of the rows of Psi_{d-1}."""
    return np.argsort(np.argsort(ring.exps(d)[:, -1], kind="stable"))


def _restrict(ideal: IdealPresentation, v: int) -> IdealPresentation:
    """The image of I in R/(x_v), a ring in the other n - 1 variables. Setting
    x_v = 0 keeps the coefficients of the monomials free of x_v: in
    descending-lex order they are the basis of the ring in those variables."""
    ring = ideal.ring
    sub = PolyRing(ring.p, ring.nvars - 1)
    restricted = (Form(sub, g.degree, g.coeffs[ring.exps(g.degree)[:, v] == 0])
                  for g in ideal.generators)
    return IdealPresentation(ring=sub, generators=tuple(f for f in restricted if not f.is_zero))


def _sections(ideal: IdealPresentation):
    """(v, the image of I in R/(x_v)) for v = n-1, ..., 0: the order in which
    coordinates are tried, by _regularity_witness and artinian_reduction."""
    return ((v, _restrict(ideal, v)) for v in reversed(range(ideal.ring.nvars)))


def _regularity_witness(ideal: IdealPresentation, m: int) -> int | None:
    """First v in n-1, ..., 0 with (I + x_v)_m = R_m, or None."""
    if ideal.ring.nvars == 1:
        return 0  # (I + x_0)_m = R_m for every m >= 1
    return next((v for v, cut in _sections(ideal) if ideal_piece_dim(cut, m) == cut.ring.dim(m)),
                None)


def artinian_reduction(ideal: IdealPresentation,
                       degree: int) -> tuple[int, IdealPresentation, HilbertProfile] | None:
    """First v in n-1, ..., 0 with (I + x_v)_degree = R_degree, as
    (v, J, profile of J up to degree), where J is the image of I in
    R/(x_v), a ring in n - 1 >= 1 variables; None if no coordinate has it.

    Such a v says V(I) misses the hyperplane x_v = 0, so V(I) is finite.
    When R/I is moreover Cohen-Macaulay of dimension 1, x_v is a
    nonzerodivisor on it: the values of the profile are then the h-vector
    of R/I, and J has the minimal generator degrees of I. Each section is
    measured by hilbert_function, in n - 1 variables."""
    for v, cut in _sections(ideal):
        profile = hilbert_function(cut, degree)
        if profile.values[degree] == 0:
            return v, cut, profile
    return None


def h_vector_from_profile(profile: HilbertProfile) -> tuple[int, ...]:
    """h-vector extracted from a certified Hilbert-function profile by finite
    differences.

    Only a profile with a certificate is accepted: without one the tail of
    the values is not known to be final, so no h-vector is backed by it. The
    certificate fixes the codimension (HilbertProfile.codimension), and a
    quotient ring of Krull dimension nvars - codimension takes that many
    difference passes to reach the Artinian Hilbert function. The
    differenced sequence then ends in at least two zeros, as H is constant
    from m - 1 to the cutoff >= m + 1. Negative entries mean the input is
    not arithmetically Cohen-Macaulay at this cutoff (or the presentation is
    not saturated) and are reported as an error.
    """
    if profile.certificate is None:
        raise ValueError(f"profile not certified by degree {profile.cutoff}: no h-vector "
                         "(positive-dimensional, shared component or cutoff too small)")
    seq = list(profile.values)
    for _ in range(profile.nvars - profile.codimension):
        seq = [seq[i] - (seq[i - 1] if i else 0) for i in range(len(seq))]
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
