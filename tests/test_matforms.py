import itertools
import os
import random
import resource
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import acmcurves

from acmcurves import matforms
from acmcurves.construct import build_uniform_pair, skew_matrix_G
from acmcurves.linalg import _mulmod
from acmcurves.matforms import (FormMatrix, SkewFormMatrix,
                                determinant, maximal_minors, minor, pfaffian,
                                principal_pfaffians)
from acmcurves.ring import Form, PolyRing, random_form


@pytest.fixture
def ring():
    return PolyRing()


def twisted_cubic(ring):
    x = [ring.variable(i) for i in range(4)]
    return FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])


def naive_det(ring, grid):
    """Cofactor expansion along the first row; the independent oracle."""
    k = len(grid)
    if k == 1:
        return grid[0][0]
    total = None
    for j in range(k):
        sub = [[row[c] for c in range(k) if c != j] for row in grid[1:]]
        term = grid[0][j] * naive_det(ring, sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def random_matrix(ring, rows, cols, d, rng):
    return FormMatrix(ring, [[random_form(d, ring, rng) for _ in range(cols)]
                             for _ in range(rows)])


# the large prime takes the 16-bit limb path of the exact products
PRIMES = [32003, 2147483629]


def graded_matrix(ring, row_deg, col_deg, rng, zeros=0.0, zero_col=None):
    """Random matrix with entry (i, j) of degree row_deg[i] + col_deg[j]; a
    share `zeros` of the entries, and column zero_col, are zero."""
    deg = [[a + b for b in col_deg] for a in row_deg]
    ent = [[ring.zero(d) if j == zero_col or rng.random() < zeros else random_form(d, ring, rng)
            for j, d in enumerate(row)] for row in deg]
    return FormMatrix(ring, ent, deg)


def graded_skew(ring, weights, d, rng, zeros=0.0):
    """Random skew matrix with entry (i, j) of degree weights[i] + weights[j] + d."""
    size = len(weights)
    return SkewFormMatrix.from_upper(ring, size, {
        (i, j): (ring.zero() if rng.random() < zeros
                 else random_form(weights[i] + weights[j] + d, ring, rng))
        for i in range(size) for j in range(i + 1, size)})


class TestMinor:
    def test_1x1_minor_is_entry(self, ring):
        m = twisted_cubic(ring)
        assert minor(m, [1], [2]) == m.entry(1, 2)

    def test_2x2_cofactor(self, ring):
        x = [ring.variable(i) for i in range(4)]
        m = FormMatrix(ring, [[x[0], x[1]], [x[1], x[2]]])
        assert minor(m, [0, 1], [0, 1]) == x[0] * x[2] - x[1] * x[1]

    def test_duplicated_column_vanishes(self, ring):
        x = [ring.variable(i) for i in range(4)]
        m = FormMatrix(ring, [[x[0], x[0], x[1]], [x[2], x[2], x[3]], [x[1], x[1], x[0]]])
        assert minor(m, [0, 1, 2], [0, 1, 2]).is_zero

    def test_out_of_range(self, ring):
        with pytest.raises(ValueError):
            minor(twisted_cubic(ring), [0, 1], [0, 5])

    def test_non_square_selection(self, ring):
        with pytest.raises(ValueError):
            minor(twisted_cubic(ring), [0], [0, 1])


class TestMaximalMinors:
    def test_twisted_cubic_minors(self, ring):
        x = [ring.variable(i) for i in range(4)]
        got = maximal_minors(twisted_cubic(ring))
        expected = [x[1] * x[3] - x[2] * x[2],
                    x[0] * x[3] - x[1] * x[2],
                    x[0] * x[2] - x[1] * x[1]]
        for g, e in zip(got, expected):
            assert g == e or g == -e

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_count_and_degree(self, ring, t):
        m = random_matrix(ring, t, t + 1, 1, random.Random(t))
        mm = maximal_minors(m)
        assert len(mm) == t + 1
        assert all(f.degree == t for f in mm)

    def test_non_graded_matrix_rejected(self, ring):
        # minor {0, 1} gets x0*x2 and x1^2*x1: grouping terms by degree must
        # not merge them into a form of mixed degree
        x = [ring.variable(i) for i in range(4)]
        m = FormMatrix(ring, [[x[0], x[1] * x[1], x[2]], [x[1], x[2], x[3]]])
        with pytest.raises(ValueError, match="degree mismatch"):
            maximal_minors(m)

    def test_more_columns_than_a_mask_holds_rejected(self, ring):
        zero = ring.zero(1)
        m = FormMatrix(ring, [[zero] * 65 for _ in range(64)])
        with pytest.raises(ValueError, match="at most 63"):
            maximal_minors(m)

    def test_shape_check(self, ring):
        with pytest.raises(ValueError):
            maximal_minors(random_matrix(ring, 2, 4, 1, random.Random(0)))

    def test_agrees_with_cofactor_oracle(self):
        """Values against cofactor expansion, and every declared degree (a
        zero minor's too) against the degree matrix."""
        zero_minors = 0
        for p in PRIMES:
            ring = PolyRing(p)
            rng = random.Random(11)
            cases = [graded_matrix(ring, [0] * t, [1] * (t + 1), rng) for t in (1, 2, 3, 4, 5)]
            cases += [graded_matrix(ring, [0] * t, [1] * (t + 1), rng, zeros=0.3)
                      for t in (2, 3, 4, 4)]
            cases += [graded_matrix(ring, [0, 0, 0], [1] * 4, rng, zero_col=1),
                      graded_matrix(ring, [0, 0], [3, 2, 1], rng),  # ex-mixed's degrees
                      graded_matrix(ring, [0, 1, 2], [1, 2, 1, 3], rng),
                      graded_matrix(ring, [0, 1, 2], [1, 2, 1, 3], rng, zeros=0.3)]
            for m in cases:
                t = m.rows
                mm = maximal_minors(m)
                for dropped in range(t + 1):
                    cols = [c for c in range(t + 1) if c != dropped]
                    grid = [[m.entry(i, j) for j in cols] for i in range(t)]
                    assert mm[dropped] == naive_det(ring, grid)
                    assert mm[dropped].degree == sum(m.degree_matrix[i][cols[i]]
                                                     for i in range(t))
                    zero_minors += mm[dropped].is_zero
        assert zero_minors >= 6

    def test_column_scaling_multilinearity(self, ring):
        rng = random.Random(12)
        m = random_matrix(ring, 3, 4, 1, rng)
        s = 1234
        scaled = FormMatrix(ring, [[m.entry(i, j).scale(s) if j == 1 else m.entry(i, j)
                                    for j in range(4)] for i in range(3)])
        base = maximal_minors(m)
        got = maximal_minors(scaled)
        for dropped in range(4):
            expect = base[dropped] if dropped == 1 else base[dropped].scale(s)
            assert got[dropped] == expect


@pytest.mark.parametrize("p", [33554393, 33554467])
def test_float_sums_on_either_side_of_the_exactness_bound(p, monkeypatch):
    """The last level of a 2 x 3 linear matrix has 2 terms per target, each a
    product over dim R_1 = 4 residue pairs, so linalg._float_exact(8, p)
    decides it: true just below 2**25, where each target is one float64 sum
    reduced once, and false just above, where _mulmod reduces each product."""
    reduced = []
    monkeypatch.setattr(matforms, "_mulmod", lambda x, y, p: reduced.append(x) or _mulmod(x, y, p))
    ring = PolyRing(p)
    rng = random.Random(p)
    for _ in range(20):
        m = random_matrix(ring, 2, 3, 1, rng)
        for dropped, got in enumerate(maximal_minors(m)):
            cols = [c for c in range(3) if c != dropped]
            assert got == naive_det(ring, [[m.entry(i, j) for j in cols] for i in range(2)])
    assert bool(reduced) == (p > 2**25)


@pytest.mark.parametrize("p", PRIMES)
def test_tables_make_no_form_products(p, monkeypatch):
    pair = build_uniform_pair(4, 2, 1, random.Random(16), ring=PolyRing(p))
    g = skew_matrix_G(pair)
    expect = maximal_minors(pair.m_big), principal_pfaffians(g)

    def refuse(self, other):
        raise AssertionError("Form product inside a batched subset table")

    monkeypatch.setattr(Form, "__mul__", refuse)
    monkeypatch.setattr(Form, "__rmul__", refuse)
    assert (maximal_minors(pair.m_big), principal_pfaffians(g)) == expect


def rank_one_rows(ring, rows, cols, rng):
    """c_i * v_j: nonzero constants c_i times linear forms v_j."""
    c = [rng.randrange(1, ring.p) for _ in range(rows)]
    v = [random_form(1, ring, rng) for _ in range(cols)]
    return [[v[j].scale(c[i]) for j in range(cols)] for i in range(rows)]


def rank_two_skew(ring, size, rng):
    """S_ij = u_i * v_j - u_j * v_i: nonzero constants u_i, linear forms v_j."""
    u = [rng.randrange(1, ring.p) for _ in range(size)]
    v = [random_form(1, ring, rng) for _ in range(size)]
    return SkewFormMatrix.from_upper(ring, size, {
        (i, j): v[j].scale(u[i]) - v[i].scale(u[j]) for i in range(size) for j in range(i + 1, size)})


class TestCancellingTables:
    """Subsets whose terms all cancel stay in their level as zero forms of
    their degree, and later levels build on them."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_two_principal_pfaffians_are_cubic_zeros(self, p):
        pfs = principal_pfaffians(rank_two_skew(PolyRing(p), 7, random.Random(17)))
        assert len(pfs) == 7
        assert all(f.is_zero and f.degree == 3 for f in pfs)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_two_pfaffian_is_a_cubic_zero(self, p):
        pf = pfaffian(rank_two_skew(PolyRing(p), 6, random.Random(18)))
        assert pf.is_zero and pf.degree == 3

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("t", [3, 4])
    def test_rank_one_maximal_minors_keep_their_degree(self, p, t):
        ring = PolyRing(p)
        mm = maximal_minors(FormMatrix(ring, rank_one_rows(ring, t, t + 1, random.Random(t))))
        assert len(mm) == t + 1
        assert all(f.is_zero and f.degree == t for f in mm)


class TestDeterminant:
    def test_matches_oracle_random(self, ring):
        rng = random.Random(13)
        for k in (2, 3, 4):
            m = random_matrix(ring, k, k, 1, rng)
            assert determinant(m) == naive_det(ring, m.entries)

    def test_non_square(self, ring):
        with pytest.raises(ValueError):
            determinant(random_matrix(ring, 2, 3, 1, random.Random(0)))

    def test_1x1_is_entry(self, ring):
        x = ring.variable(2)
        assert determinant(FormMatrix(ring, [[x]])) == x

    @pytest.mark.parametrize("p", PRIMES)
    def test_mixed_row_degrees_match_oracle(self, p):
        ring = PolyRing(p)
        m = graded_matrix(ring, [3, 2, 1], [0, 0, 0], random.Random(17))
        det = determinant(m)
        assert det == naive_det(ring, m.entries)
        assert det.degree == 6 and not det.is_zero

    @pytest.mark.parametrize("zero_row", [0, 1, 2])
    def test_zero_row_gives_zero(self, ring, zero_row):
        rng = random.Random(18)
        m = graded_matrix(ring, [1, 1, 1], [0, 0, 0], rng)
        ent = [list(row) for row in m.entries]
        ent[zero_row] = [ring.zero(1)] * 3
        det = determinant(FormMatrix(ring, ent, m.degree_matrix))
        assert det.is_zero and det.degree == 3

    def test_non_graded_rejected(self, ring):
        # x0*x3 has degree 2 and x1^2*x2 degree 3: no single degree to sum in
        x = [ring.variable(i) for i in range(4)]
        with pytest.raises(ValueError, match="degree mismatch"):
            determinant(FormMatrix(ring, [[x[0], x[1] * x[1]], [x[2], x[3]]]))


class TestDegreeMatrix:
    def test_all_linear(self, ring):
        m = random_matrix(ring, 3, 4, 1, random.Random(1))
        assert m.degree_matrix == ((1,) * 4,) * 3

    def test_mixed_degree_grid(self, ring):
        rng = random.Random(2)
        ent = [[random_form(d, ring, rng) for d in (3, 2, 1)] for _ in range(2)]
        m = FormMatrix(ring, ent, [[3, 2, 1], [3, 2, 1]])
        assert m.degree_matrix == ((3, 2, 1), (3, 2, 1))

    def test_transpose_relation(self, ring):
        m = random_matrix(ring, 2, 3, 2, random.Random(3))
        mt = m.transpose()
        expect = tuple(tuple(m.degree_matrix[i][j] for i in range(2)) for j in range(3))
        assert mt.degree_matrix == expect

    def test_zero_entry_keeps_slot(self, ring):
        x0 = ring.variable(0)
        m = FormMatrix(ring, [[x0, ring.zero(3)]], [[1, 3]])
        assert m.degree_matrix == ((1, 3),)

    def test_degree_slot_mismatch_rejected(self, ring):
        x0 = ring.variable(0)
        with pytest.raises(ValueError):
            FormMatrix(ring, [[x0]], [[2]])

    @pytest.mark.parametrize("degrees", [[[1, 1]], [[1], [1]], [[1, 1], [1, 1], [1, 1]], []],
                             ids=["short", "ragged", "long", "empty"])
    def test_degree_matrix_shape_mismatch_rejected(self, ring, degrees):
        x0, x1 = ring.variable(0), ring.variable(1)
        with pytest.raises(ValueError, match="shape"):
            FormMatrix(ring, [[x0, x1], [x1, x0]], degrees)


@pytest.mark.parametrize("build,match", [
    (lambda ring, x: FormMatrix(ring, []), "non-empty"),
    (lambda ring, x: FormMatrix(ring, [[]]), "non-empty"),
    (lambda ring, x: FormMatrix(ring, [[x, x], [x]]), "ragged rows"),
    (lambda ring, x: FormMatrix(ring, [[x, PolyRing(101).variable(0)]]), "entry ring mismatch"),
    (lambda ring, x: FormMatrix(ring, [[x, ring.zero(1)]], [[1, 1.5]]), "1.5 is not an integer"),
    (lambda ring, x: FormMatrix(ring, [[x, ring.zero(1)]], [[1, "2"]]), "'2' is not an integer"),
    (lambda ring, x: FormMatrix(ring, [[x, ring.zero(1)]], [[True, 1]]), "True is not an integer"),
    (lambda ring, x: SkewFormMatrix(ring, [[ring.zero(), x]]), "must be square"),
    (lambda ring, x: SkewFormMatrix(ring, [[x]]), "diagonal entry \\(0,0\\)"),
    (lambda ring, x: SkewFormMatrix.from_upper(ring, 2, {(1, 0): x}), "need i < j"),
    (lambda ring, x: SkewFormMatrix.from_upper(ring, 2, {(0, 1): x}).with_entry(1, 1, x),
     "need i < j"),
    # pairs outside the matrix once raised IndexError, or wrapped around
    (lambda ring, x: SkewFormMatrix.from_upper(ring, 3, {(0, 5): x}),
     "index pair \\(0, 5\\) outside 0..2"),
    (lambda ring, x: SkewFormMatrix.from_upper(ring, 3, {(-1, 2): x}),
     "index pair \\(-1, 2\\) outside 0..2"),
    (lambda ring, x: SkewFormMatrix.from_upper(ring, 3, {(0, 1): x}).with_entry(0, 7, x),
     "index pair \\(0, 7\\) outside 0..2"),
    (lambda ring, x: minor(twisted_cubic(ring), [0, 0], [0, 1]), "repeated index"),
    (lambda ring, x: minor(twisted_cubic(ring), [0, 0], [1, 1]), "repeated index"),
])
def test_refusals(ring, build, match):
    with pytest.raises(ValueError, match=match):
        build(ring, ring.variable(0))


@pytest.mark.parametrize("p", PRIMES)
def test_selections_agree_with_minors_of_the_copied_submatrix(p):
    """_minors on every (rows, columns) selection of sizes 1-4, against
    minor on the copied submatrix: k(k+1)/2 is odd for k = 1, 2 and even for
    k = 3, 4, so both signs of the bordered Pfaffian are met. Column 5 is
    zero, and every minor keeps the degree of its slots, a zero one too."""
    ring = PolyRing(p)
    m = graded_matrix(ring, [0, 1, 0, 2, 1], [1, 2, 1, 1, 2, 1], random.Random(56),
                      zeros=0.2, zero_col=5)
    zero_minors = 0
    for k in range(1, 5):
        selections = [(rs, cs) for rs in itertools.combinations(range(5), k)
                      for cs in itertools.combinations(range(6), k)]
        for (rs, cs), got in zip(selections, matforms._minors(m, selections), strict=True):
            assert got == minor(m, rs, cs)
            assert got.degree == sum(m.degree_matrix[i][j] for i, j in zip(rs, cs))
            zero_minors += got.is_zero
    assert zero_minors > 100


def test_small_minor_of_a_large_matrix_answers(ring):
    # minor copies its selection: a table over the whole 40 x 40 matrix would
    # need 80-bit masks
    m = random_matrix(ring, 40, 40, 1, random.Random(40))
    got = minor(m, [3, 37], [0, 39])
    assert got == m.entry(3, 0) * m.entry(37, 39) - m.entry(3, 39) * m.entry(37, 0)


def test_empty_minor_is_one_and_odd_pfaffian_is_zero(ring):
    assert minor(twisted_cubic(ring), [], []) == ring.one()
    g = SkewFormMatrix.from_upper(ring, 3, {(0, 1): ring.variable(0)})
    assert pfaffian(g).is_zero


class TestSkewAndPfaffian:
    def test_skewness_validated(self, ring):
        x0 = ring.variable(0)
        good = SkewFormMatrix.from_upper(ring, 2, {(0, 1): x0})
        assert good.entry(1, 0) == -x0
        with pytest.raises(ValueError):
            SkewFormMatrix(ring, [[ring.zero(), x0], [x0, ring.zero()]])

    def test_skew_matrix_is_a_form_matrix(self, ring):
        g = graded_skew(ring, [0, 1, 0, 2], 1, random.Random(3), zeros=0.3)
        assert isinstance(g, FormMatrix) and g.rows == g.cols == g.size == 4
        assert g.degree_matrix == tuple(tuple(e.degree for e in row) for row in g.entries)
        empty = SkewFormMatrix(ring, [])
        assert empty.size == 0 and pfaffian(empty) == ring.one()

    def test_pfaffian_2x2_convention(self, ring):
        a = random_form(1, ring, random.Random(5))
        g = SkewFormMatrix.from_upper(ring, 2, {(0, 1): a})
        assert pfaffian(g) == a

    def test_size3_principal_pfaffians(self, ring):
        rng = random.Random(6)
        a, b, c = (random_form(1, ring, rng) for _ in range(3))
        g = SkewFormMatrix.from_upper(ring, 3, {(0, 1): a, (0, 2): b, (1, 2): c})
        assert principal_pfaffians(g) == [c, -b, a]

    def test_principal_count_matches_size(self, ring):
        rng = random.Random(7)
        upper = {(i, j): random_form(1, ring, rng) for i in range(5) for j in range(i + 1, 5)}
        g = SkewFormMatrix.from_upper(ring, 5, upper)
        assert len(principal_pfaffians(g)) == 5

    def test_non_graded_skew_matrix_rejected(self, ring):
        # Pf(0..3) = a01*a23 - a02*a13 + a03*a12 has terms of degrees 2, 3, 2
        x = [ring.variable(i) for i in range(4)]
        upper = {(0, 1): x[0], (2, 3): x[1], (0, 2): x[0] * x[0], (1, 3): x[1],
                 (0, 3): x[2], (1, 2): x[3]}
        upper.update({(i, 4): x[3] for i in range(4)})
        g = SkewFormMatrix.from_upper(ring, 5, upper)
        with pytest.raises(ValueError, match="degree mismatch"):
            principal_pfaffians(g)

    def test_even_size_rejected_for_principal(self, ring):
        g = SkewFormMatrix.from_upper(ring, 2, {(0, 1): ring.variable(0)})
        with pytest.raises(ValueError):
            principal_pfaffians(g)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_pfaffian_squares_to_determinant(self, ring, size):
        rng = random.Random(size)
        for _ in range(3):
            upper = {(i, j): random_form(1, ring, rng)
                     for i in range(size) for j in range(i + 1, size)}
            g = SkewFormMatrix.from_upper(ring, size, upper)
            pf = pfaffian(g)
            det = determinant(FormMatrix(ring, g.entries))
            assert pf * pf == det

    def test_odd_determinant_vanishes(self, ring):
        rng = random.Random(10)
        upper = {(i, j): random_form(1, ring, rng) for i in range(3) for j in range(i + 1, 3)}
        g = SkewFormMatrix.from_upper(ring, 3, upper)
        assert determinant(FormMatrix(ring, g.entries)).is_zero

    def test_principal_pfaffians_match_first_row_reference(self):
        """The production table expands each row set along its highest row;
        check its output against a plain first-row expansion."""

        def reference_pf(entries, subset):
            if not subset:
                return ring.one()
            s0 = subset[0]
            total = None
            for pos in range(1, len(subset)):
                e = entries[s0][subset[pos]]
                if e.is_zero:
                    continue
                rest = tuple(x for x in subset[1:] if x != subset[pos])
                term = e * reference_pf(entries, rest)
                if (pos + 1) % 2:
                    term = -term
                total = term if total is None else total + term
            return total if total is not None else ring.zero()

        for p in PRIMES:
            ring = PolyRing(p)
            rng = random.Random(14)
            cases = [graded_skew(ring, [0] * size, 1, rng) for size in (1, 3, 5, 7)]
            cases += [graded_skew(ring, [0] * size, 1, rng, zeros=0.3) for size in (5, 7, 7)]
            cases += [graded_skew(ring, [0, 1, 0, 2, 1], 1, rng),
                      graded_skew(ring, [1, 0, 2, 0, 1, 1, 0], 1, rng, zeros=0.2)]
            # the skew_matrix_G layout: a zero lower-right block, and upper-left
            # entries of degree (r+1)d against d in the upper-right block
            cases += [skew_matrix_G(build_uniform_pair(t, r, d, rng, ring=ring))
                      for t, r, d in ((3, 1, 1), (4, 1, 1), (4, 2, 1), (3, 1, 2))]
            # a zero last row and column: every row set holding row 6 gets no
            # term at its first expansion step
            x = [ring.variable(v) for v in range(4)]
            cases.append(SkewFormMatrix.from_upper(ring, 7, {
                (i, j): x[(i + 2 * j) % 4].scale(i + j + 1)
                for i in range(6) for j in range(i + 1, 6)}))
            for g in cases:
                got = principal_pfaffians(g)
                full = tuple(range(g.size))
                for i in full:
                    ref = reference_pf(g.entries, tuple(x for x in full if x != i))
                    if i % 2:
                        ref = -ref
                    assert got[i] == ref


def test_generic_35x35_principal_pfaffians_refused_before_they_grow():
    """The walk counts the row sets it lists and refuses the table once they,
    times the 35 rows, pass MAX_ARRAY_ENTRIES; run in a child whose address
    space is capped at 2 GiB, so a table that grows instead fails the test,
    not the host."""
    def cap_memory():
        limit = 2 * 1024**3
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    script = textwrap.dedent("""
        import random
        from acmcurves.matforms import SkewFormMatrix, principal_pfaffians
        from acmcurves.ring import PolyRing, random_form
        ring, rng = PolyRing(), random.Random(35)
        g = SkewFormMatrix.from_upper(ring, 35, {(i, j): random_form(1, ring, rng)
                                                 for i in range(35) for j in range(i + 1, 35)})
        try:
            principal_pfaffians(g)
        except ValueError as exc:
            print(exc)
    """)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(acmcurves.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", script], env=env, preexec_fn=cap_memory,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("subset table level ")
    assert time.monotonic() - started < 20
