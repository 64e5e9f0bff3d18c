import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evencob.errors import DimensionMismatchError
from evencob.linalg import (
    RationalMatrix,
    Subspace,
    canonical_basis,
    cokernel,
    image,
    kernel,
    map_subspace,
    preimage,
)
from oracles import (
    reference_combine_rows,
    reference_contains,
    reference_inverse,
    reference_map_subspace,
    reference_rref,
    reference_rref_violation,
    reference_solve,
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
        assert map_subspace(f, sub) == reference_map_subspace(f, sub)

    @given(matrices(min_rows=1, min_cols=1))
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    @given(matrices(), st.data())
    def test_solve_sound_and_complete(self, f, data):
        rhs = tuple(data.draw(rationals) for _ in range(f.rows))
        solution = f.solve(RationalMatrix.from_columns([rhs], rows=f.rows))
        if solution is None:
            assert not reference_contains(image(f), rhs)
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
        assert (red, pivots) == reference_rref(m)
        assert all(type(x) is Fraction for x in red.entries)

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


class TestSubspaceConstructor:
    """Subspace(M) keeps the nonzero rows of the RREF of any spanning matrix M."""

    @given(rref_matrices(), st.data())
    def test_canonicalizes_any_spanning_matrix(self, m, data):
        sub = Subspace(m)
        assert reference_rref_violation(sub.basis) is None
        red, pivots = reference_rref(m)
        assert sub.basis == RationalMatrix(
            tuple(red.row(i) for i in range(len(pivots))), cols=m.cols
        )
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
            columns.append(reference_combine_rows(x, f.transpose()))
        else:
            columns.append(tuple(draw(rationals) for _ in range(f.rows)))
    return f, columns


class TestLinearSystemOracles:
    @staticmethod
    def check_solve(f, columns):
        expected = [reference_solve(f, c) for c in columns]
        for c, e in zip(columns, expected):
            one = f.solve(RationalMatrix.from_columns([c], rows=f.rows))
            assert (one.column(0) if one is not None else None) == e
        got = f.solve(RationalMatrix.from_columns(columns, rows=f.rows))
        if None in expected:
            assert got is None
        else:
            assert got == RationalMatrix.from_columns(expected, rows=f.cols)

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
        try:
            expected = reference_inverse(m)
        except ValueError:
            with pytest.raises(ValueError, match="matrix is not invertible"):
                m.inverse()
        else:
            assert m.inverse() == expected

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]]]
    )
    def test_inverse_of_singular_matches_reference(self, rows):
        m = RationalMatrix(rows)
        for invert in (m.inverse, lambda: reference_inverse(m)):
            with pytest.raises(ValueError, match="matrix is not invertible"):
                invert()

    def test_inverse_of_non_square(self):
        with pytest.raises(DimensionMismatchError, match="only square matrices can be inverted"):
            RationalMatrix([[1, 2]]).inverse()

    @given(subspaces(), st.data())
    def test_contains_matches_reference(self, sub, data):
        n = sub.ambient_dim
        outside = tuple(data.draw(rationals) for _ in range(n))
        inside = reference_combine_rows([data.draw(rationals) for _ in range(sub.dim)], sub.basis)
        for v in (outside, inside):
            assert sub.contains(v) == reference_contains(sub, v)
        assert reference_contains(sub, inside)

    @given(st.integers(0, 5), st.data())
    def test_contains_subspace_matches_reference(self, n, data):
        a, b = data.draw(subspaces(ambient=n)), data.draw(subspaces(ambient=n))
        for big, small in ((a, b), (b, a), (a + b, b), (a, a.intersect(b))):
            expected = all(reference_contains(big, r) for r in small.basis_rows())
            assert big.contains_subspace(small) == expected
