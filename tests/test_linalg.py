import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evencob import linalg
from evencob.cobordism import SurfaceObject, empty_surface, identity, pull_back, push_forward
from evencob.errors import DimensionMismatchError
from evencob.linalg import (
    RationalMatrix,
    Subspace,
    _preimage_of_columns,
    _times_transpose,
    canonical_basis,
    cokernel,
    image,
    kernel,
    map_subspace,
    preimage,
)
from oracles import (
    bench_oracle,
    calls_to,
    combination,
    matrix_rows,
    oracle_contains,
    oracle_image,
    oracle_inverse,
    oracle_product,
    oracle_rref,
    oracle_solve,
    oracle_span,
    reference_rref_violation,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, min_rows=0, min_cols=0):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    return RationalMatrix(data, cols=cols)


@st.composite
def subspaces(draw, ambient=None, max_dim=5):
    n = ambient if ambient is not None else draw(st.integers(0, max_dim))
    count = draw(st.integers(0, n + 1))
    vectors = [[draw(rationals) for _ in range(n)] for _ in range(count)]
    return canonical_basis(vectors, n)


@st.composite
def subspace_pairs(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    return draw(subspaces(ambient=n)), draw(subspaces(ambient=n))


def span(vectors, n):
    return canonical_basis(vectors, n)


def columns_of(m):
    return [m.column(j) for j in range(m.cols)]


class TestCanonicalBasis:
    def test_scaling_normalized(self):
        assert span([(2, 0)], 2).basis == RationalMatrix([[1, 0]])

    def test_dependent_rows_collapse(self):
        s = span([(1, 1), (2, 2)], 2)
        assert s.dim == 1
        assert s.basis == RationalMatrix([[1, 1]])

    def test_empty_span(self):
        s = span([], 3)
        assert s.dim == 0
        assert s == Subspace.zero(3)

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(DimensionMismatchError):
            canonical_basis([(1, 0), (1, 0, 0)], 2)

    @given(subspaces())
    def test_idempotent(self, s):
        assert canonical_basis(s.basis_rows(), s.ambient_dim) == s


class TestSum:
    def test_spanning_lines(self):
        assert span([(1, 0)], 2) + span([(0, 1)], 2) == Subspace.full(2)

    def test_idempotent(self):
        a = span([(1, 2, 0), (0, 5, 1)], 3)
        assert a + a == a

    def test_disjoint_coordinates(self):
        s = span([(1, 0, 0, 0)], 4) + span([(0, 0, 1, 0)], 4)
        assert s.dim == 2

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            span([(1, 0)], 2) + span([(1, 0, 0)], 3)


class TestIntersect:
    def test_transverse_lines(self):
        assert span([(1, 0)], 2).intersect(span([(0, 1)], 2)) == Subspace.zero(2)

    def test_full_meets_line(self):
        line = span([(1, 0)], 2)
        assert Subspace.full(2).intersect(line) == line

    def test_skew_lines(self):
        assert span([(1, 1)], 2).intersect(span([(1, 0)], 2)) == Subspace.zero(2)

    @given(subspace_pairs())
    def test_dimension_formula(self, pair):
        a, b = pair
        assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


def test_dimension_formula_large_campaign():
    # module invariant: dim(A+B) + dim(A^B) = dim A + dim B over 1000 pairs
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(0, 6)
        a = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        b = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


class TestKernel:
    def test_zero_map(self):
        assert kernel(RationalMatrix.zeros(2, 2)) == Subspace.full(2)

    def test_identity(self):
        assert kernel(RationalMatrix.identity(3)) == Subspace.zero(3)

    def test_row_vector(self):
        assert kernel(RationalMatrix([[1, 1]])) == span([(1, -1)], 2)

    def test_no_rows(self):
        assert kernel(RationalMatrix((), cols=4)) == Subspace.full(4)


class TestImage:
    def test_identity(self):
        assert image(RationalMatrix.identity(3)) == Subspace.full(3)

    def test_zero(self):
        assert image(RationalMatrix.zeros(3, 2)) == Subspace.zero(3)

    def test_column_scaling(self):
        assert image(RationalMatrix.from_columns([(2, 4)])) == span([(1, 2)], 2)


class TestPreimage:
    def test_identity_map(self):
        b = span([(1, 2, 0)], 3)
        assert preimage(RationalMatrix.identity(3), b) == b

    def test_zero_map(self):
        b = span([(1, 0)], 2)
        assert preimage(RationalMatrix.zeros(2, 3), b) == Subspace.full(3)

    def test_projection(self):
        # e -> e, f -> 0 and target span{e}: everything lands inside
        f = RationalMatrix([[1, 0], [0, 0]])
        assert preimage(f, span([(1, 0)], 2)) == Subspace.full(2)

    def test_contains_kernel(self):
        f = RationalMatrix([[1, 2, 3], [0, 1, 1]])
        b = span([(1, 1)], 2)
        assert preimage(f, b).contains_subspace(kernel(f))

    @given(matrices(), st.data())
    def test_preimage_of_image_intersection(self, f, data):
        b = data.draw(subspaces(ambient=f.rows))
        assert preimage(f, image(f).intersect(b)) == preimage(f, b)


class TestCokernel:
    def test_identity(self):
        dim, proj = cokernel(RationalMatrix.identity(5))
        assert dim == 0 and proj.rows == 0 and proj.cols == 5

    def test_zero_map(self):
        dim, proj = cokernel(RationalMatrix.zeros(3, 2))
        assert dim == 3 and proj == RationalMatrix.identity(3)

    def test_inclusion_of_first_axis(self):
        dim, proj = cokernel(RationalMatrix([[1], [0]]))
        assert dim == 1
        assert proj == RationalMatrix([[0, 1]])

    @given(matrices())
    def test_projection_laws(self, f):
        dim, proj = cokernel(f)
        assert dim == f.rows - f.rank()
        assert proj @ f == RationalMatrix.zeros(dim, f.cols)
        assert proj.rank() == dim


class TestIsSymmetric:
    # denominators up to 12, so the rows of one matrix have different denominators
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=12)

    @given(st.integers(0, 5), st.integers(0, 5), st.booleans(), st.data())
    def test_matches_the_entries(self, rows, cols, symmetrize, data):
        data_rows = [[data.draw(self.entries) for _ in range(cols)] for _ in range(rows)]
        m = RationalMatrix(data_rows, cols=cols)
        if symmetrize and rows == cols:
            m = m + m.transpose()
        entries = matrix_rows(m)
        expected = rows == cols and all(
            entries[i][j] == entries[j][i] for i in range(rows) for j in range(cols)
        )
        assert m.is_symmetric() == expected

    def test_fixtures(self):
        half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
        assert RationalMatrix([[1, half], [half, third]]).is_symmetric()
        assert not RationalMatrix([[0, half], [quarter, 0]]).is_symmetric()
        assert not RationalMatrix([[0, 1], [-1, 0]]).is_symmetric()
        assert not RationalMatrix([[1, 2]]).is_symmetric()
        assert RationalMatrix.zeros(0, 0).is_symmetric()
        assert not RationalMatrix.zeros(0, 2).is_symmetric()


class TestMatrixBasics:
    def test_solve_prefers_zero_free_variables(self):
        m = RationalMatrix([[1, 1]])
        assert m.solve(RationalMatrix([[5]])) == RationalMatrix([[5], [0]])

    def test_solve_inconsistent(self):
        m = RationalMatrix([[1], [0]])
        assert m.solve(RationalMatrix([[0], [1]])) is None

    def test_inverse_round_trip(self):
        m = RationalMatrix([[1, 2], [3, 5]])
        assert m @ m.inverse() == RationalMatrix.identity(2)

    def test_inverse_of_singular(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 1], [1, 1]]).inverse()

    def test_float_rejected(self):
        # every entry point coerces through as_fraction, Fraction fast path or not
        builders = [
            lambda: RationalMatrix([[0.5]]),
            lambda: RationalMatrix([[Fraction(1), 2.0]]),
            lambda: RationalMatrix.from_columns([(1, 0.5)]),
            lambda: RationalMatrix.identity(2).apply((Fraction(1), 0.5)),
            lambda: canonical_basis([(Fraction(1), 0.5)], 2),
            lambda: Subspace.full(2).contains((0.5, Fraction(1))),
        ]
        for build in builders:
            with pytest.raises(TypeError, match="refusing float"):
                build()

    def test_map_subspace(self):
        rot = RationalMatrix([[0, -1], [1, 0]])
        assert map_subspace(rot, span([(1, 0)], 2)) == span([(0, 1)], 2)

    @given(matrices(), st.data())
    def test_map_subspace_matches_per_row_apply(self, f, data):
        sub = data.draw(subspaces(ambient=f.cols))
        expected = oracle_image(matrix_rows(f), matrix_rows(sub.basis), f.rows)
        assert matrix_rows(map_subspace(f, sub).basis) == expected

    @given(matrices(min_rows=1, min_cols=1))
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    @given(matrices(), st.data())
    def test_solve_sound_and_complete(self, f, data):
        rhs = tuple(data.draw(rationals) for _ in range(f.rows))
        solution = f.solve(RationalMatrix.from_columns([rhs], rows=f.rows))
        if solution is None:
            assert not oracle_contains(columns_of(f), f.rows, [rhs])
        else:
            assert f.apply(solution.column(0)) == rhs


# entries the integer elimination must handle: zeros, small rationals with
# mixed denominators, and integers and fractions of 60 bits and more
rref_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(2**60, 2**66),
    st.integers(-(2**66), -(2**60)),
    st.builds(Fraction, st.integers(-(2**66), 2**66), st.integers(2**60, 2**62)),
)


@st.composite
def rref_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    data = [[draw(rref_entries) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        # a duplicate of a drawn row, or a zero row, at a drawn position
        extra = list(draw(st.sampled_from(data))) if data and draw(st.booleans()) else [0] * cols
        data.insert(draw(st.integers(0, len(data))), extra)
    return RationalMatrix(data, cols=cols)


class TestRrefOracle:
    @staticmethod
    def check(m):
        red, pivots = m.rref()
        assert (matrix_rows(red), list(pivots)) == oracle_rref(matrix_rows(m), m.cols)
        assert all(type(x) is Fraction for x in red.entries)
        assert m.rank() == len(pivots)

    @given(rref_matrices())
    def test_matches_reference(self, m):
        self.check(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        self.check(RationalMatrix.zeros(rows, cols))

    def test_zero_and_duplicate_rows(self):
        row = [Fraction(1, 3), Fraction(2, 5), 2**64 + 1]
        self.check(RationalMatrix([[0, 0, 0], row, [0, 0, 0], row]))

    @given(rref_matrices(), st.data())
    def test_rank_counts_the_pivots_of_rref(self, m, data):
        # rank runs only the forward pass: a zero column, at a drawn position,
        # must not be taken for a pivot, nor a row left dependent on the pivot
        # row just above it
        at = data.draw(st.integers(0, m.cols))
        rows = [list(m.row(i)) for i in range(m.rows)]
        padded = RationalMatrix([r[:at] + [0] + r[at:] for r in rows], cols=m.cols + 1)
        doubled = RationalMatrix([r for r in rows for _ in range(2)], cols=m.cols)
        for x in (padded, doubled):
            assert x.rank() == len(x.rref()[1])


class TestSubspaceConstructor:
    """Subspace(M) keeps the nonzero rows of the RREF of any spanning matrix M."""

    @given(rref_matrices(), st.data())
    def test_canonicalizes_any_spanning_matrix(self, m, data):
        sub = Subspace(m)
        assert reference_rref_violation(sub.basis) is None
        assert matrix_rows(sub.basis) == oracle_span(matrix_rows(m), m.cols)
        assert sub.ambient_dim == m.cols
        assert Subspace(sub.basis) == sub
        # the same span: rows permuted, each scaled by a nonzero rational, one zero row added
        rows = [m.row(i) for i in data.draw(st.permutations(range(m.rows)))]
        scales = [data.draw(rationals.filter(bool)) for _ in rows]
        rows = [tuple(c * x for x in row) for c, row in zip(scales, rows)]
        rows.insert(data.draw(st.integers(0, len(rows))), (Fraction(0),) * m.cols)
        assert Subspace(RationalMatrix(rows, cols=m.cols)) == sub

    def test_validator_names_non_canonical_bases(self):
        assert reference_rref_violation(RationalMatrix([[1, 0], [0, 0]])) == "row 1 is zero"
        assert reference_rref_violation(RationalMatrix([[2, 0]])) == "pivot of row 0 is not 1"
        assert Subspace(RationalMatrix([[0, 2], [3, 0], [0, 0]])) == Subspace.full(2)


@st.composite
def systems(draw):
    """A matrix and right-hand sides, each f @ x for a drawn x or an arbitrary vector."""
    f = draw(matrices())
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = [draw(rationals) for _ in range(f.cols)]
            columns.append(combination(x, columns_of(f), f.rows))
        else:
            columns.append(tuple(draw(rationals) for _ in range(f.rows)))
    return f, columns


class TestLinearSystemOracles:
    @staticmethod
    def check_solve(f, columns):
        expected = [oracle_solve(matrix_rows(f), f.cols, c) for c in columns]
        for c, e in zip(columns, expected):
            one = f.solve(RationalMatrix.from_columns([c], rows=f.rows))
            assert (list(one.column(0)) if one is not None else None) == e
        got = f.solve(RationalMatrix.from_columns(columns, rows=f.rows))
        if None in expected:
            assert got is None
        else:
            assert [list(got.column(j)) for j in range(got.cols)] == expected

    @given(systems())
    def test_solve_matches_reference_column_by_column(self, system):
        self.check_solve(*system)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_solve_empty_shapes(self, shape):
        rows, cols = shape
        f = RationalMatrix([[i + j for j in range(cols)] for i in range(rows)], cols=cols)
        self.check_solve(f, [])
        self.check_solve(f, [(0,) * rows])
        if rows:
            self.check_solve(f, [(0,) * rows, (1,) * rows])

    def test_solve_rhs_row_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RationalMatrix([[1, 2]]).solve(RationalMatrix.zeros(2, 1))

    @given(st.integers(0, 4).flatmap(lambda n: matrices(n, n, n, n)))
    def test_inverse_matches_reference(self, m):
        expected = oracle_inverse(matrix_rows(m))
        if expected is None:
            with pytest.raises(ValueError, match="matrix is not invertible"):
                m.inverse()
        else:
            assert matrix_rows(m.inverse()) == expected

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]]]
    )
    def test_inverse_of_singular_matches_reference(self, rows):
        m = RationalMatrix(rows)
        assert oracle_inverse(matrix_rows(m)) is None
        with pytest.raises(ValueError, match="matrix is not invertible"):
            m.inverse()

    def test_inverse_of_non_square(self):
        with pytest.raises(DimensionMismatchError, match="only square matrices can be inverted"):
            RationalMatrix([[1, 2]]).inverse()

    @given(subspaces(), st.data())
    def test_contains_matches_reference(self, sub, data):
        n = sub.ambient_dim
        outside = tuple(data.draw(rationals) for _ in range(n))
        rows = matrix_rows(sub.basis)
        inside = combination([data.draw(rationals) for _ in rows], rows, n)
        for v in (outside, inside):
            assert sub.contains(v) == oracle_contains(rows, n, [v])
        assert oracle_contains(rows, n, [inside])

    @given(st.integers(0, 5), st.data())
    def test_contains_subspace_matches_reference(self, n, data):
        a, b = data.draw(subspaces(ambient=n)), data.draw(subspaces(ambient=n))
        for big, small in ((a, b), (b, a), (a + b, b), (a, a.intersect(b))):
            expected = oracle_contains(matrix_rows(big.basis), n, small.basis_rows())
            assert big.contains_subspace(small) == expected


@st.composite
def entry_matrices(draw, rows, cols):
    """A rows x cols matrix of int and Fraction entries with mixed denominators."""
    entries = st.one_of(st.integers(-5, 5), rref_entries)
    return RationalMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)


@st.composite
def products(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(entry_matrices(rows, inner)), draw(entry_matrices(inner, cols))


# (rows, inner, cols) with a zero dimension, and a product with mixed
# denominators whose first row is (8/15, -1/18, 2)
EMPTY_SHAPES = [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0), (3, 0, 0)]
MIXED_FIRST_ROW = (Fraction(8, 15), Fraction(-1, 18), Fraction(2))


def shaped_pair(rows, inner, cols):
    a = RationalMatrix(
        [[Fraction(i + 1, j + 2) for j in range(inner)] for i in range(rows)], cols=inner
    )
    return a, RationalMatrix([[j - i for j in range(cols)] for i in range(inner)], cols=cols)


def mixed_pair():
    a = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [0, 0], [2**70, Fraction(-5, 7)]])
    return a, RationalMatrix([[Fraction(2, 3), 0, 4], [Fraction(3, 5), Fraction(-1, 6), 0]])


class TestProductOracle:
    @staticmethod
    def check(a, b):
        product = a @ b
        assert matrix_rows(product) == oracle_product(matrix_rows(a), matrix_rows(b), b.cols)
        assert all(type(x) is Fraction for x in product.entries)

    @given(products())
    def test_matches_reference(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_empty_shapes(self, shape):
        a, b = shaped_pair(*shape)
        self.check(a, b)
        assert (a @ b) == RationalMatrix.zeros(a.rows, b.cols)

    def test_mixed_denominators(self):
        a, b = mixed_pair()
        self.check(a, b)
        assert (a @ b).row(0) == MIXED_FIRST_ROW

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="cannot multiply 1x2 by 1x2"):
            RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])


@st.composite
def transpose_products(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(entry_matrices(rows, inner)), draw(entry_matrices(cols, inner))


class TestTimesTranspose:
    """A @ B^T from B's rows agrees with building the transpose first."""

    @staticmethod
    def check(a, b):
        # row i of A @ B^T pairs a_i with each row of B
        product = _times_transpose(a, b)
        expected = [bench_oracle.apply(matrix_rows(b), r) for r in matrix_rows(a)]
        assert matrix_rows(product) == expected
        assert product == a @ b.transpose()
        assert (product.rows, product.cols) == (a.rows, b.rows)

    @given(transpose_products())
    def test_matches_product_with_transpose(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_empty_shapes(self, shape):
        a, b = shaped_pair(*shape)
        self.check(a, b.transpose())
        assert _times_transpose(a, b.transpose()) == RationalMatrix.zeros(a.rows, b.cols)

    def test_mixed_denominators(self):
        a, b = mixed_pair()
        self.check(a, b.transpose())
        assert _times_transpose(a, b.transpose()).row(0) == MIXED_FIRST_ROW

    def test_shape_mismatch(self):
        with pytest.raises(
            DimensionMismatchError, match="cannot multiply 1x2 by the transpose of 1x3"
        ):
            _times_transpose(RationalMatrix([[1, 2]]), RationalMatrix([[1, 2, 3]]))


class TestColumnBlock:
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_matches_the_entries_read_back(self, rows, cols, data):
        m = data.draw(entry_matrices(rows, cols))
        start = data.draw(st.integers(0, cols))
        stop = data.draw(st.integers(start, cols))
        block = m._column_block(start, stop)
        expected = RationalMatrix([m.row(i)[start:stop] for i in range(rows)], cols=stop - start)
        assert block == expected

    def test_rows_return_to_lowest_terms(self):
        m = RationalMatrix([[Fraction(1, 2), 1, 3], [Fraction(1, 6), Fraction(1, 3), 0]])
        assert m._column_block(1, 3) == RationalMatrix([[1, 3], [Fraction(1, 3), 0]])


class TestCanonicalConstructors:
    """Bases built canonical by construction equal the ones Subspace computes."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_zero_and_full(self, n):
        zero, full = Subspace.zero(n), Subspace.full(n)
        assert zero == Subspace(RationalMatrix((), cols=n)) == Subspace(zero.basis)
        assert full == Subspace(RationalMatrix.identity(n)) == Subspace(full.basis)
        assert (zero.dim, full.dim, zero.ambient_dim, full.ambient_dim) == (0, n, n, n)


@st.composite
def entry_subspace_pairs(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    a, b = (draw(entry_matrices(draw(st.integers(0, n + 1)), n)) for _ in range(2))
    return Subspace(a), Subspace(b)


class TestIntersectOracle:
    @given(st.one_of(subspace_pairs(), entry_subspace_pairs()))
    def test_random_pairs_match_reference(self, pair):
        a, b = pair
        expected = bench_oracle.intersection(
            matrix_rows(a.basis), matrix_rows(b.basis), a.ambient_dim
        )
        assert matrix_rows(a.intersect(b).basis) == expected
        assert matrix_rows(b.intersect(a).basis) == expected

    @given(st.one_of(subspace_pairs(), entry_subspace_pairs()))
    def test_nested_pairs_match_reference(self, pair):
        # a subspace meets anything containing it in itself
        a, b = pair
        n = a.ambient_dim
        for inner, outer in ((a, a + b), (Subspace.zero(n), a), (a, Subspace.full(n))):
            assert inner.intersect(outer) == outer.intersect(inner) == inner

    @given(st.one_of(subspace_pairs(), entry_subspace_pairs()))
    def test_result_is_already_canonical(self, pair):
        # the right halves that the one rref starts in the right half are kept
        # as they come out, and a contained operand is returned as it is
        a, b = pair
        meet = a.intersect(b)
        assert meet == Subspace(meet.basis)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="ambient dimensions differ: 2 vs 3"):
            Subspace.full(2).intersect(Subspace.full(3))

    @pytest.mark.parametrize(
        "a, b",
        [
            # B's RREF rows are (2, 1, 0)/2 and (0, 0, 1): A's row (3, 0, -4)/3
            # is reduced with s = 2, and the meet is a line
            (span([(2, 1, 0), (0, 0, 3)], 3), span([(3, 1, 1), (0, 1, 5)], 3)),
            (span([(2, 1, 0), (0, 0, 3)], 3), span([(4, 2, 7)], 3)),
            # the first operand is the larger, so the two swap roles
            (
                span([(1, 0, 0, 2), (0, 3, 1, 0), (1, 1, 1, 1)], 4),
                span([(2, 1, 0, 0), (0, 0, 5, 1)], 4),
            ),
        ],
    )
    def test_explicit_pairs_match_reference(self, a, b):
        n = a.ambient_dim
        expected = bench_oracle.intersection(matrix_rows(a.basis), matrix_rows(b.basis), n)
        assert matrix_rows(a.intersect(b).basis) == matrix_rows(b.intersect(a).basis) == expected
        assert expected  # each pair meets in at least a line

    def test_contained_operand_is_the_meet(self):
        big = span([(2, 1, 0, 0), (0, 0, 3, 1), (1, 0, 0, Fraction(1, 7))], 4)
        small = span([(4, 2, 3, 1)], 4)
        assert big.contains_subspace(small)
        assert big.intersect(small) == small.intersect(big) == small
        assert matrix_rows(small.basis) == bench_oracle.intersection(
            matrix_rows(big.basis), matrix_rows(small.basis), 4
        )


class TestSumOracle:
    @given(st.one_of(subspace_pairs(), entry_subspace_pairs()))
    def test_random_pairs_match_reference(self, pair):
        a, b = pair
        expected = oracle_span(matrix_rows(a.basis) + matrix_rows(b.basis), a.ambient_dim)
        for total in (a + b, b + a):
            assert matrix_rows(total.basis) == expected
            assert total == Subspace(total.basis)

    @given(st.one_of(subspace_pairs(), entry_subspace_pairs()))
    def test_contained_operand_gives_the_other(self, pair):
        a, b = pair
        zero, meet = Subspace.zero(a.ambient_dim), a.intersect(b)
        assert zero + a == a + zero == a
        assert a + meet == meet + a == a

    def test_complementary_planes_fill_the_space(self):
        p = span([(1, 2, 0, 0), (0, 1, 3, 0)], 4)
        q = span([(0, 0, 1, 5), (7, 0, 0, 1)], 4)
        rows = matrix_rows(p.basis) + matrix_rows(q.basis)
        assert matrix_rows((p + q).basis) == oracle_span(rows, 4)
        assert p + q == q + p == Subspace.full(4)

    def test_lines_with_denominators_span_a_plane(self):
        u = span([(Fraction(1, 2), 0, Fraction(1, 3), 0)], 4)
        v = span([(0, Fraction(2, 3), 1, Fraction(1, 5))], 4)
        rows = matrix_rows(u.basis) + matrix_rows(v.basis)
        assert matrix_rows((u + v).basis) == matrix_rows((v + u).basis) == oracle_span(rows, 4)
        assert (u + v).dim == 2


@st.composite
def preimage_cases(draw):
    """A map with mixed denominators and a target: random, zero or full."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    f = draw(st.one_of(matrices(rows, cols, rows, cols), entry_matrices(rows, cols)))
    target = draw(
        st.one_of(
            subspaces(ambient=rows),
            st.builds(Subspace, entry_matrices(draw(st.integers(0, rows + 1)), rows)),
            st.just(Subspace.zero(rows)),
            st.just(Subspace.full(rows)),
        )
    )
    return f, target


def oracle_preimage(f, target):
    return bench_oracle.preimage(matrix_rows(f), matrix_rows(target.basis), f.cols)


class TestPreimageOracle:
    """One kernel of [f | span] agrees with the kernel of the target's constraints after f."""

    @given(preimage_cases())
    def test_matches_reference(self, case):
        f, target = case
        assert matrix_rows(preimage(f, target).basis) == oracle_preimage(f, target)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)])
    def test_empty_and_extreme_shapes(self, shape):
        rows, cols = shape
        f = RationalMatrix([[Fraction(i - j, j + 1) for j in range(cols)] for i in range(rows)], cols=cols)
        for target in (Subspace.zero(rows), Subspace.full(rows), image(f)):
            assert matrix_rows(preimage(f, target).basis) == oracle_preimage(f, target)
        assert preimage(f, Subspace.zero(rows)) == kernel(f)
        assert preimage(f, Subspace.full(rows)) == Subspace.full(cols)

    @given(preimage_cases(), st.data())
    def test_dependent_spanning_columns(self, case, data):
        # the columns handed over may repeat and scale each other
        f, target = case
        rows = target.basis_rows()
        picks = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        scales = [data.draw(st.sampled_from([1, -2, Fraction(1, 3)])) for _ in picks]
        columns = [tuple(c * x for x in r) for c, r in zip(scales, picks)] + list(rows)
        span = RationalMatrix.from_columns(columns, rows=f.rows)
        assert matrix_rows(_preimage_of_columns(f, span).basis) == oracle_preimage(f, target)

    def test_target_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="target lives in dimension 3, map lands in 2"):
            preimage(RationalMatrix.zeros(2, 2), Subspace.full(3))


class TestKernelOracle:
    """The kernel is the canonical basis of the null space, as it comes out of its
    one elimination: no second pass makes it so."""

    @staticmethod
    def check(f):
        k = kernel(f)
        expected = oracle_span(bench_oracle.nullspace(matrix_rows(f), f.cols), f.cols)
        assert matrix_rows(k.basis) == expected
        assert reference_rref_violation(k.basis) is None
        assert k == Subspace(k.basis)  # the stored rows are in lowest terms

    @given(
        st.one_of(
            matrices(),
            matrices(max_rows=6, max_cols=7),
            st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
                lambda shape: entry_matrices(*shape)
            ),
        )
    )
    def test_matches_reference(self, f):
        self.check(f)

    @given(st.one_of(matrices(), matrices(max_rows=6, max_cols=7)))
    def test_runs_one_elimination(self, f):
        with pytest.MonkeyPatch.context() as patch:
            calls = calls_to(patch, RationalMatrix, "rref")
            kernel(f)
        assert [m.cols for (m,) in calls] == [f.cols]

    @pytest.mark.parametrize(
        "f",
        [
            RationalMatrix((), cols=0),
            RationalMatrix((), cols=4),
            RationalMatrix([[], [], []], cols=0),
            RationalMatrix.zeros(2, 3),
            RationalMatrix.identity(3),
            RationalMatrix([[2, 1, 0], [0, 3, 1], [1, 0, 5]]),
            RationalMatrix([[1, 2, 0, 3], [0, 0, 1, 4]]),
            RationalMatrix([[1, 0], [0, 1], [1, 1]]),
            RationalMatrix([["1/2", "1/3", "1/5"], ["2/7", 0, "-1/9"]]),
            RationalMatrix([["1/2", "1/3", "1/5", 0], ["1", "2/3", "2/5", 0]]),
            RationalMatrix([[0, 0, "3/4", 1], [0, 0, 0, "-2/3"]]),
        ],
        ids=[
            "0x0", "no-rows", "no-columns", "zero", "identity", "full-rank",
            "full-row-rank", "full-column-rank", "rational", "dependent-rationals",
            "leading-zero-columns",
        ],
    )
    def test_edge_cases(self, f):
        self.check(f)


class TestTrustedConstructor:
    """Rows the library builds itself skip coercion (`TestCanonicalRows` checks
    they are canonical on every route); the public constructor still coerces."""

    def test_public_constructor_still_checks(self):
        with pytest.raises(TypeError, match="refusing float"):
            RationalMatrix([[1, Fraction(1, 2)], [0.5, 1]])
        with pytest.raises(ValueError, match="matrix rows have unequal lengths"):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(ValueError, match="declared 3 columns but rows have 2"):
            RationalMatrix([[1, 2]], cols=3)
        assert RationalMatrix([[1, Fraction(1, 2)]]) == RationalMatrix([["1", "1/2"]])


def _written(x: Fraction, scale: int) -> object:
    """x as the constructor may be given it: an int, a string, or an unreduced string."""
    if scale == 0:
        return int(x) if x.denominator == 1 else x
    if scale == 1:
        return str(x)
    return f"{x.numerator * scale}/{x.denominator * scale}"


@st.composite
def written_matrices(draw, rows, cols):
    """A matrix from ints, Fractions and reduced or unreduced strings with a common factor."""
    scale = draw(st.integers(0, 4))
    factor = draw(st.sampled_from([1, 2, 6, Fraction(1, 3), Fraction(-5, 4)]))
    entries = st.one_of(st.integers(-4, 4), rref_entries)
    data = [[draw(entries) * factor for _ in range(cols)] for _ in range(rows)]
    return RationalMatrix([[_written(x, scale) for x in row] for row in data], cols=cols)


def _routes(a, b):
    """Matrices built from two same-shape matrices by every route the library has."""
    built = [
        a, a @ b.transpose(), b @ a.transpose(), a + b, b + a, a - b, b - a, -a, -(-a),
        a.transpose(), a.transpose().transpose(), a.hstack(b), a.vstack(b), a.rref()[0],
        kernel(a).basis, kernel(b).basis, cokernel(a)[1], cokernel(b)[1],
        Subspace(a).basis, (Subspace(a) + Subspace(b)).basis,
        Subspace(a).intersect(Subspace(b)).basis, Subspace(b).intersect(Subspace(a)).basis,
        RationalMatrix.identity(a.cols), RationalMatrix.zeros(a.rows, a.cols),
    ]
    for x in (a.solve(b), a.solve(a)):
        if x is not None:
            built.append(x)
    square = a @ a.transpose()
    if square.rank() == square.rows:
        built += [square.inverse(), square.inverse().inverse()]
    return built


class TestCanonicalRows:
    """Structural equality is entry equality on every route a matrix can take.

    Each stored row is an integer row over one positive denominator in lowest
    terms; a single route that left a row unreduced would make equal matrices
    compare unequal, and with them equal subspaces and frozen values.
    """

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda shape: st.tuples(written_matrices(*shape), written_matrices(*shape))
        )
    )
    def test_equality_is_entry_equality(self, pair):
        built = _routes(*pair)
        rebuilt = [RationalMatrix([m.row(i) for i in range(m.rows)], cols=m.cols) for m in built]
        keyed = [(m, (m.rows, m.cols, m.entries)) for m in built + rebuilt]
        for x, kx in keyed:
            for y, ky in keyed:
                assert (x == y) == (kx == ky)
                if x == y:
                    assert hash(x) == hash(y)

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda shape: st.tuples(written_matrices(*shape), written_matrices(*shape))
        )
    )
    def test_readers_return_fractions(self, pair):
        for m in _routes(*pair):
            values = list(m.entries)
            for i in range(m.rows):
                values += m.row(i) + tuple(m[i, j] for j in range(m.cols))
            for j in range(m.cols):
                values += m.column(j)
            assert all(type(x) is Fraction for x in values)

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_constructor_reads_back_what_it_was_given(self, rows, cols, data):
        values = [[data.draw(rref_entries) for _ in range(cols)] for _ in range(rows)]
        scale = data.draw(st.integers(0, 4))
        m = RationalMatrix([[_written(x, scale) for x in row] for row in values], cols=cols)
        assert [list(m.row(i)) for i in range(rows)] == values
        assert m == RationalMatrix(values, cols=cols)
        assert hash(m) == hash(RationalMatrix(values, cols=cols))

    def test_unreduced_inputs_agree(self):
        m = RationalMatrix([["2/4", "6/8", 0], [Fraction(3), "9/3", "-0/5"]])
        assert m == RationalMatrix([[Fraction(1, 2), Fraction(3, 4), 0], [3, 3, 0]])
        assert m.row(0) == (Fraction(1, 2), Fraction(3, 4), Fraction(0))
        assert RationalMatrix([[2, 4]]) @ RationalMatrix([["1/2"], ["1/4"]]) == RationalMatrix([[2]])
        assert Subspace(RationalMatrix([["2/3", "4/3"], [1, 2]])).basis == RationalMatrix([[1, 2]])
        # the RREF row (1, 2, 3/2) gives the kernel rows (-2, 1, 0) and (-3/2, 0, 1)
        expected = RationalMatrix([[-2, 1, 0], ["-3/2", 0, 1]])
        assert cokernel(RationalMatrix([[2], [4], [3]])) == (2, expected)
        assert RationalMatrix([[2, 4, 3]]).solve(RationalMatrix([[4]])) == RationalMatrix([[2], [0], [0]])


def identities(n):
    """The shared n x n identity, and one built entry by entry from written
    fractions: both are recognized as the identity."""
    built = RationalMatrix([["2/2" if i == j else "0/3" for j in range(n)] for i in range(n)], cols=n)
    return RationalMatrix.identity(n), built


@st.composite
def identity_cases(draw):
    """An identity of size n (0 included) and a matrix with n columns, of 0 to 5 rows."""
    n = draw(st.integers(0, 5))
    eye = draw(st.sampled_from(identities(n)))
    return eye, draw(entry_matrices(draw(st.integers(0, 5)), n))


@st.composite
def full_rank_spans(draw, n):
    """The whole of Q^n, spanned by a triangular matrix with a nonzero diagonal,
    its rows shuffled, plus dependent rows."""
    diagonal = st.sampled_from([1, -2, Fraction(3, 5)])
    rows = [
        [draw(rref_entries) if j > i else draw(diagonal) if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    if rows:
        rows += [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=2))]
    return Subspace(RationalMatrix(draw(st.permutations(rows)), cols=n))


class TestIdentityAndWholeSpace:
    """The identity map and the whole space give the values the general code
    computes, without running it."""

    def test_identity_is_built_once_per_size(self):
        for n in (0, 1, 4):
            assert RationalMatrix.identity(n) is RationalMatrix.identity(n)
        assert all(eye._is_identity() for n in range(5) for eye in identities(n))
        not_identities = [
            RationalMatrix.zeros(2, 2),
            RationalMatrix([[1, 0], [0, 2]]),
            RationalMatrix([[0, 1], [1, 0]]),
            RationalMatrix([[1, 0, 0], [0, 1, 0]]),
            RationalMatrix([[1, 0], [0, 1], [0, 0]]),
            RationalMatrix([[1, Fraction(1, 2)], [0, 1]]),
        ]
        assert not any(m._is_identity() for m in not_identities)

    @given(identity_cases())
    def test_identity_factor_of_a_product(self, case):
        eye, m = case
        rows = matrix_rows(m)
        # m is k x n: it is the right factor of I_k and the left factor of I_n
        left = RationalMatrix.identity(m.rows)
        assert matrix_rows(left @ m) == oracle_product(matrix_rows(left), rows, m.cols) == rows
        assert matrix_rows(m @ eye) == oracle_product(rows, matrix_rows(eye), eye.cols) == rows
        assert left @ m == m @ eye == m

    @given(identity_cases())
    def test_identity_factor_of_a_product_with_a_transpose(self, case):
        eye, m = case
        # m is k x n: m I^T = m, and I (m^T) = m^T
        as_right = _times_transpose(m, eye)
        assert matrix_rows(as_right) == [bench_oracle.apply(matrix_rows(eye), r) for r in matrix_rows(m)]
        assert as_right == m
        left = RationalMatrix.identity(m.cols)
        as_left = _times_transpose(left, m)
        assert matrix_rows(as_left) == [bench_oracle.apply(matrix_rows(m), r) for r in matrix_rows(left)]
        assert as_left == m.transpose()
        assert (as_left.rows, as_left.cols) == (m.cols, m.rows)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_identity_factor_in_empty_shapes(self, shape):
        rows, cols = shape
        m = RationalMatrix([[Fraction(i - j, j + 1) for j in range(cols)] for i in range(rows)], cols=cols)
        for eye in identities(cols):
            assert m @ eye == m == _times_transpose(m, eye)
            assert _times_transpose(eye, m) == m.transpose()
        for eye in identities(rows):
            assert eye @ m == m
        with pytest.raises(DimensionMismatchError, match=f"cannot multiply {rows}x{cols} by"):
            m @ RationalMatrix.identity(cols + 1)
        with pytest.raises(DimensionMismatchError, match="by the transpose of"):
            _times_transpose(RationalMatrix.identity(cols + 1), m)

    @given(st.integers(0, 5), st.data())
    def test_preimage_under_the_identity(self, n, data):
        eye = data.draw(st.sampled_from(identities(n)))
        span = data.draw(entry_matrices(n, data.draw(st.integers(0, 5))))
        target = Subspace(span.transpose())
        expected = bench_oracle.preimage(matrix_rows(eye), matrix_rows(target.basis), n)
        assert matrix_rows(_preimage_of_columns(eye, span).basis) == expected
        assert preimage(eye, target) == target

    def test_preimage_shape_mismatch(self):
        for f in (RationalMatrix.identity(2), RationalMatrix([[1, 2], [3, 4]])):
            with pytest.raises(DimensionMismatchError, match="columns of length 3 for a map into 2"):
                _preimage_of_columns(f, RationalMatrix.zeros(3, 1))

    @given(st.integers(0, 5), st.data())
    def test_meet_and_sum_with_the_whole_space(self, n, data):
        a = data.draw(st.one_of(subspaces(ambient=n), full_rank_spans(n)))
        whole = data.draw(st.one_of(st.just(Subspace.full(n)), full_rank_spans(n)))
        rows_a, rows_whole = matrix_rows(a.basis), matrix_rows(whole.basis)
        meet = bench_oracle.intersection(rows_a, rows_whole, n)
        assert matrix_rows(a.intersect(whole).basis) == matrix_rows(whole.intersect(a).basis) == meet
        assert a.intersect(whole) == whole.intersect(a) == a
        total = oracle_span(rows_a + rows_whole, n)
        assert matrix_rows((a + whole).basis) == matrix_rows((whole + a).basis) == total
        assert a + whole == whole + a == Subspace.full(n)


class TestIdentityAndWholeSpaceCostNothing:
    """Counts of the work the identity and the whole space skip."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_identity_factor_runs_no_product_loop(self, n):
        m = RationalMatrix([[Fraction(i + 1, j + 2) for j in range(n)] for i in range(2)], cols=n)
        with pytest.MonkeyPatch.context() as patch:
            calls = calls_to(patch, RationalMatrix, "_product")
            for eye in identities(n):
                m @ eye
                _times_transpose(m, eye)
                _times_transpose(eye, m)
            for eye in identities(2):
                eye @ m
            assert calls == []
            m @ m.transpose()
            assert len(calls) == 1

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_image_under_the_identity_is_the_subspace(self, n):
        rng = random.Random(n)
        drawn = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(2)]
        for eye in identities(n):
            for sub in (Subspace.zero(n), Subspace.full(n), span(drawn, n)):
                expected = oracle_image(matrix_rows(eye), matrix_rows(sub.basis), n)
                with pytest.MonkeyPatch.context() as patch:
                    eliminations = calls_to(patch, RationalMatrix, "rref")
                    assert map_subspace(eye, sub) is sub
                assert eliminations == []
                assert matrix_rows(sub.basis) == expected

    def test_preimage_under_the_identity_runs_one_elimination(self):
        span = RationalMatrix([[1, 2], [Fraction(1, 3), 0], [0, 5]])
        for eye in identities(3):
            with pytest.MonkeyPatch.context() as patch:
                calls = calls_to(patch, RationalMatrix, "rref")
                _preimage_of_columns(eye, span)
            assert len(calls) == 1

    def test_preimage_runs_one_elimination(self):
        # the kernel of [f | span] is one elimination, and its rows that lead
        # in f's columns, cut to them, are the preimage's canonical basis
        rng = random.Random(7)
        cases = []
        for rows, cols, width in ((3, 4, 2), (4, 3, 1), (2, 5, 0), (3, 3, 3), (4, 4, 2)):
            f = RationalMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
            entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width)] for _ in range(rows)]
            span = RationalMatrix(entries, cols=width)
            cases.append((f, span))
        for f, span in cases:
            expected = bench_oracle.preimage(matrix_rows(f), matrix_rows(span.transpose()), f.cols)
            with pytest.MonkeyPatch.context() as patch:
                calls = calls_to(patch, RationalMatrix, "rref")
                result = _preimage_of_columns(f, span)
            assert len(calls) == 1
            assert matrix_rows(result.basis) == oracle_span(expected, f.cols)
            assert reference_rref_violation(result.basis) is None

    @pytest.mark.parametrize("n", [2, 4])
    def test_whole_space_meets_and_sums_without_reduction(self, n):
        a = span([[Fraction(1, j + 1) for j in range(n)]], n)
        whole = Subspace.full(n)
        with pytest.MonkeyPatch.context() as patch:
            reductions = calls_to(patch, linalg, "_reduce")
            eliminations = calls_to(patch, RationalMatrix, "rref")
            assert a.intersect(whole) is a and whole.intersect(a) is a
            assert a + whole is whole and whole + a is whole
        assert reductions == eliminations == []

    def test_carry_through_a_cylinder_is_the_lagrangian_itself(self):
        # both inclusions of identity(surface) are the identity, so carrying
        # through it returns the subspace given, with no elimination
        from evencob.symplectic import random_lagrangian

        cases = [(empty_surface(), Subspace.zero(0))]
        for genera, seed in (((1,), 0), ((2,), 3), ((1, 1), 5)):
            surface = SurfaceObject(genera, random_lagrangian(sum(genera), seed))
            cases.append((surface, surface.lagrangian))
            cases.append((surface, random_lagrangian(sum(genera), seed + 1)))
        cylinders = [(identity(surface), lag) for surface, lag in cases]
        with pytest.MonkeyPatch.context() as patch:
            eliminations = calls_to(patch, RationalMatrix, "rref")
            for m, lag in cylinders:
                assert push_forward(m, lag) is lag and pull_back(m, lag) is lag
                with pytest.raises(DimensionMismatchError, match="surface has dimension"):
                    push_forward(m, Subspace.zero(lag.ambient_dim + 1))
        assert eliminations == []


class TestIntersectionFromTheForwardPass:
    """`intersect` runs the forward pass only, and canonicalizes nothing but the meet."""

    @staticmethod
    def pairs(seeds, contain_radical):
        from evencob.sampling import random_subspace_pair

        for seed in seeds:
            space, a, b = random_subspace_pair(seed, 3, contain_radical=contain_radical)
            if not a.contains_subspace(b) and not b.contains_subspace(a):
                yield space, a, b

    def test_transverse_pair_runs_no_rref(self):
        from evencob.symplectic import random_lagrangian

        cases = [(span([(1, 0)], 2), span([(0, 1)], 2))]
        for g in (1, 2, 3):
            cases += [(random_lagrangian(g, seed), random_lagrangian(g, seed + 1)) for seed in range(6)]
        cases += [(a, b) for _, a, b in self.pairs(range(40), contain_radical=False)]
        transverse = []
        for a, b in cases:
            n = a.ambient_dim
            meet = bench_oracle.intersection(matrix_rows(a.basis), matrix_rows(b.basis), n)
            if a.dim and b.dim and not meet:
                transverse.append((a, b))
        assert len(transverse) >= 15
        with pytest.MonkeyPatch.context() as patch:
            eliminations = calls_to(patch, RationalMatrix, "rref")
            meets = [a.intersect(b) for a, b in transverse]
        assert eliminations == []
        assert all(m == Subspace.zero(a.ambient_dim) for m, (a, _) in zip(meets, transverse))

    def test_meet_that_is_the_radical_runs_one_rref_on_its_own_rows(self):
        cases = []
        for space, a, b in self.pairs(range(100), contain_radical=True):
            radical = space.radical()
            if radical.dim and a.intersect(b) == radical:
                cases.append((a, b, radical))
        assert len(cases) >= 8
        for a, b, radical in cases:
            with pytest.MonkeyPatch.context() as patch:
                eliminations = calls_to(patch, RationalMatrix, "rref")
                meet = a.intersect(b)
            assert meet == radical
            assert [m.rows for (m,) in eliminations] == [radical.dim]
