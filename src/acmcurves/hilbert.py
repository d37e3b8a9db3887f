"""Hilbert functions of graded quotients via Macaulay-matrix ranks.

No Groebner bases anywhere: the degree-d piece of an ideal is the row space
of the matrix whose rows are monomial multiples of the generators, written
against the degree-d monomial basis, and its dimension is an exact rank over
F_p. Stabilization of the quotient's Hilbert function certifies the length
of a zero-dimensional scheme; finite differences recover h-vectors.
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

    def max_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert-function values of R/I for d = 0..cutoff, plus stabilization data.

    stabilized_value is set once three consecutive equal values appear; for a
    presentation whose quotient is one-dimensional (a zero-dimensional
    projective scheme) that value is the scheme length, recorded as degree.
    """

    values: tuple[int, ...]
    cutoff: int
    nvars: int
    stabilized_value: int | None = None
    stabilized_at: int | None = None
    h_vector: tuple[int, ...] | None = None
    degree: int | None = None

    @property
    def stabilized(self) -> bool:
        return self.stabilized_value is not None


def macaulay_matrix(ideal: IdealPresentation, d: int) -> np.ndarray:
    """Rows are m*g for each generator g and each monomial m of degree d - deg g,
    written against the degree-d monomial basis (one column per monomial)."""
    ring = ideal.ring
    ncols = ring.dim(d)
    blocks = []
    for g in ideal.generators:
        k = d - g.degree
        if k < 0:
            continue
        # built per call: caching these tables, unlike the small product
        # tables of mul_index, raises the peak memory of long sweeps
        idx = ring.product_positions(k, g.degree)
        block = np.zeros((len(idx), ncols), dtype=np.int64)
        block[np.arange(len(idx))[:, None], idx] = g.coeffs[None, :]
        blocks.append(block)
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(blocks)


def ideal_piece_dim(ideal: IdealPresentation, d: int) -> int:
    """Dimension over F_p of the degree-d graded piece of the ideal."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if all(g.degree > d for g in ideal.generators):
        return 0
    return rank_modp(macaulay_matrix(ideal, d), ideal.ring.p)


def hilbert_function(ideal: IdealPresentation, cutoff: int,
                     stop_at_stabilization: bool = False) -> HilbertProfile:
    """Hilbert function of R/I up to the cutoff degree.

    Stabilization is detected as three consecutive equal values. With
    stop_at_stabilization the scan ends right there and the profile's cutoff
    reflects the degrees actually computed. A profile that never stabilizes
    comes back with stabilized_value None; callers treat that as an explicit
    non-result, not an error.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    ring = ideal.ring
    values: list[int] = []
    stab_at = None
    for d in range(cutoff + 1):
        values.append(ring.dim(d) - ideal_piece_dim(ideal, d))
        if stab_at is None and d >= 2 and values[-1] == values[-2] == values[-3]:
            stab_at = d - 2
            if stop_at_stabilization:
                break
    stab_value = values[stab_at] if stab_at is not None else None
    return HilbertProfile(
        values=tuple(values),
        cutoff=len(values) - 1,
        nvars=ring.nvars,
        stabilized_value=stab_value,
        stabilized_at=stab_at,
        degree=stab_value,
    )


def h_vector_from_profile(profile: HilbertProfile, codimension: int) -> tuple[int, ...]:
    """h-vector extracted from a Hilbert-function profile by finite differences.

    A codimension-c subscheme has a quotient ring of Krull dimension
    nvars - c, so that many difference passes reduce the Hilbert function to
    the Artinian one. Requires the profile to reach the flat tail: the
    differenced sequence must end in at least two zeros. Negative entries
    mean the input is not arithmetically Cohen-Macaulay at this cutoff (or
    the presentation is not saturated) and are reported as an error.
    """
    ndiff = profile.nvars - codimension
    if ndiff < 0:
        raise ValueError(f"codimension {codimension} exceeds the ambient {profile.nvars} variables")
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
    dim I_d - dim(R_1 * I_{d-1}); the second term is the rank of all
    single-variable shifts of an echelon basis of the previous piece. The
    scan stops at the largest input generator degree, past which no new
    minimal generators can occur.
    """
    ring = ideal.ring
    p = ring.p
    out: dict[int, int] = {}
    basis = np.zeros((0, ring.dim(0)), dtype=np.int64)
    for d in range(1, ideal.max_degree() + 1):
        shifted = _shift_basis(ring, basis, d - 1)
        basis_shift = echelon_basis(shifted, p) if shifted.size else shifted.reshape(0, ring.dim(d))
        dim_shift = basis_shift.shape[0]
        gens_d = [g.coeffs for g in ideal.generators if g.degree == d]
        if gens_d:
            stacked = np.vstack([basis_shift, np.array(gens_d, dtype=np.int64)])
            basis = echelon_basis(stacked, p)
        else:
            basis = basis_shift
        count = basis.shape[0] - dim_shift
        if count:
            out[d] = count
    return out


def _shift_basis(ring: PolyRing, basis: np.ndarray, d_from: int) -> np.ndarray:
    """Rows of basis (degree d_from) multiplied by every variable, in degree d_from + 1."""
    k = basis.shape[0]
    ncols = ring.dim(d_from + 1)
    if k == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    out = np.zeros((ring.nvars * k, ncols), dtype=np.int64)
    shifts = ring.mul_index(1, d_from)  # row v: multiplication by x_v
    for v in range(ring.nvars):
        out[v * k:(v + 1) * k, shifts[v]] = basis
    return out


def graded_piece_spans_equal(a: IdealPresentation, b: IdealPresentation,
                             up_to: int) -> bool:
    """True iff the two generator sets span the same piece in every degree <= up_to."""
    if a.ring != b.ring:
        raise ValueError("presentations live in different rings")
    p = a.ring.p
    for d in range(up_to + 1):
        ma = macaulay_matrix(a, d)
        mb = macaulay_matrix(b, d)
        ra = rank_modp(ma, p)
        rb = rank_modp(mb, p)
        if ra != rb:
            return False
        if ra and rank_modp(np.vstack([ma, mb]), p) != ra:
            return False
    return True
