import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from evencob.errors import DimensionMismatchError, NonSkewFormError
from evencob.linalg import RationalMatrix, Subspace, canonical_basis, map_subspace
from evencob.sampling import _random_space, _random_unimodular, random_subspace_pair
from evencob.symplectic import (
    DEFAULT_WALK_LENGTH,
    SymplecticSpace,
    beta0,
    beta1,
    preserves_standard_form,
    random_lagrangian,
    random_symplectic,
    standard_surface_space,
    symplectic_generators,
)
from oracles import (
    matrix_rows,
    oracle_is_lagrangian,
    reference_random_symplectic,
    reference_skew_violation,
    reference_symplectic_generators,
)

GENUS_ONE = standard_surface_space((1,))
SPAN_E = canonical_basis([(1, 0)], 2)
SPAN_F = canonical_basis([(0, 1)], 2)


class TestEvaluate:
    def test_standard_pairing(self):
        assert GENUS_ONE.evaluate((1, 0), (0, 1)) == 1

    def test_skew(self):
        assert GENUS_ONE.evaluate((0, 1), (1, 0)) == -1

    def test_isotropy_of_any_vector(self):
        for v in ((1, 0), (0, 1), (3, -2)):
            assert GENUS_ONE.evaluate(v, v) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            GENUS_ONE.evaluate((1, 0, 0), (0, 1))


class TestAnnihilator:
    def test_lagrangian_line(self):
        assert GENUS_ONE.annihilator(SPAN_E) == SPAN_E

    def test_full_space_nondegenerate(self):
        assert GENUS_ONE.annihilator(Subspace.full(2)) == Subspace.zero(2)

    def test_zero_form(self):
        space = SymplecticSpace(RationalMatrix.zeros(2, 2))
        assert space.annihilator(SPAN_E) == Subspace.full(2)
        assert space.radical() == Subspace.full(2)


class TestLagrangianPredicate:
    def test_diagonal_line(self):
        assert GENUS_ONE.is_lagrangian(canonical_basis([(1, 1)], 2))

    def test_full_space_is_not(self):
        assert not GENUS_ONE.is_lagrangian(Subspace.full(2))

    def test_genus_two_standard(self):
        space = standard_surface_space((2,))
        lag = canonical_basis([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
        assert space.is_lagrangian(lag)


    def test_dimension_mismatch(self):
        with pytest.raises(
            DimensionMismatchError, match="subspace of ambient 3 in a space of dimension 2"
        ):
            GENUS_ONE.is_lagrangian(Subspace.full(3))

    def test_radical_is_cached(self):
        degenerate = RationalMatrix.block_diag(GENUS_ONE.gram, RationalMatrix.zeros(1, 1))
        space = SymplecticSpace(degenerate)
        assert space.radical() is space.radical()
        assert space.radical() == space.annihilator(Subspace.full(3))
        with pytest.raises(DimensionMismatchError, match="subspace of ambient 2"):
            space.annihilator(Subspace.full(2))


def _draw_family(family: str, seed: int):
    """A space from `_random_space`, a subspace of the named family and the
    answer where the family decides it; None when the space has no such subspace.

    The subspace is built in the padded coordinates, where the form is the
    standard one on the first 2g coordinates and zero on the last pad ones, and
    then carried into the drawn space.
    """
    rng = random.Random(seed)
    genus, pad, space, inverse_change = _random_space(rng, 3, pad_choices=(0, 1, 1, 2))
    n = space.dim

    def unit(c):
        return tuple(int(i == c) for i in range(n))

    def small_vector():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))

    lagrangian = [r + (0,) * pad for r in random_lagrangian(genus, rng).basis_rows()]
    radical = [unit(2 * genus + k) for k in range(pad)]
    rows, expected = lagrangian + radical, None
    if family == "lagrangian":
        expected = True
    elif family == "isotropic-short":
        del rows[rng.randrange(len(rows))]
        expected = False
    elif family == "radical-swapped":
        if pad == 0:
            return None
        v = small_vector()
        rows[len(lagrangian) + rng.randrange(pad)] = v if any(v[: 2 * genus]) else unit(0)
    elif family == "non-isotropic":
        if len(rows) < 2:
            return None
        # x = J s_j pairs with row j to |s_j|^2 > 0, so x lies outside the
        # isotropic span of the other rows and the dimension stays
        j = rng.randrange(len(lagrangian))
        i = rng.choice([i for i in range(len(rows)) if i != j])
        surface = standard_surface_space((genus,)).gram.apply(rows[j][: 2 * genus])
        rows[i] = surface + (0,) * pad
        expected = False
    else:
        rows = [small_vector() for _ in range(rng.randint(0, n + 1))]
    sub = canonical_basis(rows, n)
    return space, sub if inverse_change is None else map_subspace(inverse_change, sub), expected


LAGRANGIAN_FAMILIES = ("lagrangian", "isotropic-short", "radical-swapped", "non-isotropic", "random")


class TestLagrangianOracle:
    """The rank test agrees with comparing a subspace with its annihilator."""

    @given(st.sampled_from(LAGRANGIAN_FAMILIES), st.integers(0, 2**32))
    def test_matches_reference_on_degenerate_spaces(self, family, seed):
        drawn = _draw_family(family, seed)
        assume(drawn is not None)
        space, sub, expected = drawn
        answer = space.is_lagrangian(sub)
        assert answer == oracle_is_lagrangian(matrix_rows(space.gram), matrix_rows(sub.basis))
        assert expected is None or answer == expected
        if answer:
            assert sub.contains_subspace(space.radical())

    @pytest.mark.parametrize("family", LAGRANGIAN_FAMILIES)
    def test_every_family_is_drawn(self, family):
        drawn = [d for d in (_draw_family(family, seed) for seed in range(40)) if d]
        assert len(drawn) >= 10
        assert any(space.radical().dim for space, _, _ in drawn)


class TestStandardSpace:
    def test_genus_one(self):
        assert GENUS_ONE.dim == 2
        assert GENUS_ONE.gram == RationalMatrix([[0, 1], [-1, 0]])

    def test_empty(self):
        assert standard_surface_space(()).dim == 0

    def test_two_components(self):
        space = standard_surface_space((1, 1))
        assert space.dim == 4
        expected = RationalMatrix.block_diag(GENUS_ONE.gram, GENUS_ONE.gram)
        assert space.gram == expected

    def test_betti_helpers(self):
        assert beta0((1, 2)) == 2
        assert beta1((1, 2)) == 6

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            standard_surface_space((-1,))


def test_skew_validation_names_entry():
    with pytest.raises(NonSkewFormError, match=r"gram\[0\]\[1\]"):
        SymplecticSpace(RationalMatrix([[0, 1], [1, 0]]))


def _near_skew(n: int, seed: int, changes: int) -> RationalMatrix:
    """A skew n x n gram with entries p/q, then `changes` entries moved."""
    rng = random.Random(seed)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
            gram[i][j], gram[j][i] = x, -x
    for _ in range(changes if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        gram[i][j] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 5]))
    return RationalMatrix(gram, cols=n)


def _skew_message(gram: RationalMatrix) -> str | None:
    try:
        SymplecticSpace(gram)
    except NonSkewFormError as exc:
        return str(exc)
    return None


@given(st.integers(0, 6), st.integers(0, 2**32), st.integers(0, 3))
def test_skew_scan_matches_the_rescan(n, seed, changes):
    # the same verdict, and the same first (i, j) with i <= j in the message
    gram = _near_skew(n, seed, changes)
    assert _skew_message(gram) == reference_skew_violation(gram)


@pytest.mark.parametrize(
    "bad, first",
    [
        ([(1, 1), (0, 3)], "gram[0][3] != -gram[3][0]"),
        ([(2, 0), (1, 1)], "gram[0][2] != -gram[2][0]"),
        ([(3, 3), (2, 3)], "gram[2][3] != -gram[3][2]"),
        ([(3, 3)], "gram[3][3] != -gram[3][3]"),
    ],
)
def test_skew_scan_names_the_first_entry(bad, first):
    gram = [[Fraction(0)] * 4 for _ in range(4)]
    for i, j in bad:
        gram[i][j] = Fraction(1, 3)
    assert _skew_message(RationalMatrix(gram)) == first == reference_skew_violation(
        RationalMatrix(gram)
    )


class TestRandomSymplectic:
    def test_length_zero_is_identity(self):
        assert random_symplectic(2, 99, 0) == RationalMatrix.identity(4)

    def test_first_generator_is_the_rotation(self):
        gens = symplectic_generators(1)
        assert gens[0] == RationalMatrix([[0, -1], [1, 0]])

    def test_generator_count(self):
        # g rotations + 2g transvections + g(g-1) mixing maps
        assert len(symplectic_generators(3)) == 3 + 6 + 6

    def test_preserves_form(self):
        for g in (1, 2, 3):
            j = standard_surface_space((g,)).gram
            for seed in range(5):
                a = random_symplectic(g, seed)
                assert a.transpose() @ j @ a == j

    def test_deterministic(self):
        assert random_symplectic(2, 5) == random_symplectic(2, 5)

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            random_symplectic(0, 1)


class TestColumnOperations:
    @pytest.mark.parametrize("g", range(1, 6))
    def test_generators_match_dense_oracle(self, g):
        dense = tuple(RationalMatrix(m) for m in reference_symplectic_generators(g))
        assert symplectic_generators(g) == dense

    @pytest.mark.parametrize("g", range(1, 6))
    def test_every_generator_preserves_the_form(self, g):
        # the proof that every walk preserves the form, and so that
        # random_lagrangian's image of span{e_i} is Lagrangian: a generator
        # touches at most two handles, so genus 5 shows every pattern, and
        # products of form-preserving matrices preserve the form
        for k, a in enumerate(symplectic_generators(g)):
            assert preserves_standard_form(columns(a)), k

    @pytest.mark.parametrize("g", range(1, 5))
    def test_walk_matches_dense_product(self, g):
        for seed in range(50):
            for length in (0, 1, 5, 20):
                expected = reference_random_symplectic(g, seed, length)
                assert random_symplectic(g, seed, length) == expected


def columns(m):
    return [m.column(j) for j in range(m.cols)]


class TestPreservesStandardForm:
    def test_rational_symplectic_accepted(self):
        scaling = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
        a = RationalMatrix.block_diag(scaling, RationalMatrix.identity(2))
        assert preserves_standard_form(columns(a))

    def test_empty_matrix_accepted(self):
        assert preserves_standard_form([])

    def test_form_breaking_shear_rejected(self):
        # e_1 -> e_1 + e_2 alone: the image of e_1 now pairs with f_2
        shear = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
        assert not preserves_standard_form(columns(shear))

    def test_accepts_integer_columns(self):
        assert preserves_standard_form([(0, 1), (-1, 0)])
        assert not preserves_standard_form([(1, 1), (0, 2)])

    @given(st.integers(1, 3), st.integers(0, 10**6), st.data())
    def test_agrees_with_dense_product(self, g, seed, data):
        a = [list(random_symplectic(g, seed, 6).row(i)) for i in range(2 * g)]
        if data.draw(st.booleans()):  # perturb one entry, usually breaking the form
            i, j = data.draw(st.integers(0, 2 * g - 1)), data.draw(st.integers(0, 2 * g - 1))
            a[i][j] += data.draw(st.fractions(-2, 2, max_denominator=3))
        a = RationalMatrix(a)
        j_form = standard_surface_space((g,)).gram
        assert preserves_standard_form(columns(a)) == (a.transpose() @ j_form @ a == j_form)


class TestRandomLagrangian:
    def test_length_zero_is_standard(self):
        assert random_lagrangian(2, 3, 0) == canonical_basis(
            [(1, 0, 0, 0), (0, 0, 1, 0)], 4
        )

    def test_single_rotation_moves_e_to_f(self):
        # find a seed whose first draw picks generator 0, the rotation
        count = len(symplectic_generators(1))
        seed = next(s for s in range(100) if random.Random(s).randrange(count) == 0)
        assert random_lagrangian(1, seed, 1) == SPAN_F

    def test_always_lagrangian(self):
        for g in (1, 2, 3):
            space = standard_surface_space((g,))
            for seed in range(8):
                assert space.is_lagrangian(random_lagrangian(g, seed))

    def test_walk_length_default(self):
        assert DEFAULT_WALK_LENGTH == 20

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_is_the_image_under_the_dense_walk(self, g):
        # the integer walk of random_symplectic, with the same draws
        for seed in range(6):
            for length in (0, 1, 5, 20):
                walk = reference_random_symplectic(g, seed, length)
                expected = canonical_basis([walk.column(2 * i) for i in range(g)], 2 * g)
                assert random_lagrangian(g, seed, length) == expected
                shared, alone = random.Random(seed), random.Random(seed)
                random_lagrangian(g, shared, length)
                random_symplectic(g, alone, length)
                assert shared.getstate() == alone.getstate()

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError, match="need at least one handle"):
            random_lagrangian(0, 1)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def skew_space_with_pair(draw, max_dim=5):
    """An arbitrary (often degenerate, possibly odd-dimensional) skew space
    with two random subspaces."""
    n = draw(st.integers(0, max_dim))
    raw = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    m = RationalMatrix(raw, cols=n)
    space = SymplecticSpace(m - m.transpose())

    def draw_subspace():
        count = draw(st.integers(0, n))
        return canonical_basis(
            [[draw(rationals) for _ in range(n)] for _ in range(count)], n
        )

    return space, draw_subspace(), draw_subspace()


class TestAnnihilatorIdentitiesHypothesis:
    @given(skew_space_with_pair())
    def test_sum_identity(self, data):
        space, a, b = data
        assert space.annihilator(a + b) == space.annihilator(a).intersect(
            space.annihilator(b)
        )

    @given(skew_space_with_pair())
    def test_intersection_identity_after_adding_the_radical(self, data):
        space, a, b = data
        radical = space.radical()
        a, b = a + radical, b + radical
        assert space.annihilator(a.intersect(b)) == space.annihilator(a) + space.annihilator(b)

    @given(skew_space_with_pair())
    def test_double_annihilator_contains(self, data):
        space, a, _ = data
        assert space.annihilator(space.annihilator(a)).contains_subspace(a)


class TestAnnihilatorIdentities:
    def test_sum_identity_unrestricted(self):
        for seed in range(200):
            space, a, b = random_subspace_pair(seed, 3)
            lhs = space.annihilator(a + b)
            rhs = space.annihilator(a).intersect(space.annihilator(b))
            assert lhs == rhs, seed

    def test_intersection_identity_with_radical(self):
        for seed in range(200):
            space, a, b = random_subspace_pair(seed, 3, contain_radical=True)
            lhs = space.annihilator(a.intersect(b))
            rhs = space.annihilator(a) + space.annihilator(b)
            assert lhs == rhs, seed

    def test_intersection_identity_degenerate_counterexample(self):
        # radical span{z}, psi(x, y) = 1: A = span{x}, A' = span{x+z} gives
        # Ann(A ^ A') = V but Ann(A) + Ann(A') = span{x, z}
        space = SymplecticSpace(RationalMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
        a = canonical_basis([(1, 0, 0)], 3)
        b = canonical_basis([(1, 0, 1)], 3)
        lhs = space.annihilator(a.intersect(b))
        rhs = space.annihilator(a) + space.annihilator(b)
        assert lhs == Subspace.full(3)
        assert rhs == canonical_basis([(1, 0, 0), (0, 0, 1)], 3)
        assert lhs != rhs
        # the restriction hypothesis indeed fails here
        assert not b.contains_subspace(space.radical())


class TestLagrangianStructure:
    def test_lagrangians_contain_the_radical(self):
        rng = random.Random(11)
        for seed in range(100):
            space, a, b = random_subspace_pair(seed, 3)
            for sub in (a, b):
                if space.is_lagrangian(sub):
                    assert sub.contains_subspace(space.radical())

    def test_radical_extension_is_lagrangian(self):
        # pad genus-1 with a 1-dim radical: span{e} + radical is Lagrangian
        gram = RationalMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        space = SymplecticSpace(gram)
        lag = canonical_basis([(1, 0, 0), (0, 0, 1)], 3)
        assert space.is_lagrangian(lag)
        assert lag.contains_subspace(space.radical())

    def test_equal_dimensions_and_parity(self):
        from evencob.sampling import random_lagrangian_pair

        for seed in range(150):
            space, a, b = random_lagrangian_pair(seed, 3)
            assert a.dim == b.dim
            assert ((a + b).dim - a.intersect(b).dim) % 2 == 0
            if space.radical().dim == 0:
                assert 2 * a.dim == space.dim


def _product_vanishes(space: SymplecticSpace, sub: Subspace) -> bool:
    return (sub.basis @ space.gram @ sub.basis.transpose()) == RationalMatrix.zeros(sub.dim, sub.dim)


class TestIsotropyOnNumerators:
    """The isotropy test on numerators agrees with B G B^T == 0 over the rationals."""

    @given(st.sampled_from(LAGRANGIAN_FAMILIES), st.integers(0, 2**32))
    def test_matches_the_product_on_degenerate_spaces(self, family, seed):
        drawn = _draw_family(family, seed)
        assume(drawn is not None)
        space, sub, _ = drawn
        assert space._is_isotropic(sub) == _product_vanishes(space, sub)

    def test_both_answers_are_drawn(self):
        answers = {True: 0, False: 0}
        for family in LAGRANGIAN_FAMILIES:
            for seed in range(30):
                drawn = _draw_family(family, seed)
                if drawn is not None:
                    space, sub, _ = drawn
                    answer = space._is_isotropic(sub)
                    assert answer == _product_vanishes(space, sub)
                    answers[answer] += 1
        assert min(answers.values()) >= 20

    @pytest.mark.parametrize("i, j", [(i, j) for j in range(4) for i in range(j)])
    def test_each_pair_of_basis_rows_is_tested(self, i, j):
        # a form that pairs only e_i with e_j: the full space is isotropic iff
        # that one entry of B G B^T is skipped
        gram = [[0] * 4 for _ in range(4)]
        gram[i][j], gram[j][i] = Fraction(1, 3), Fraction(-1, 3)
        space = SymplecticSpace(RationalMatrix(gram))
        assert not space._is_isotropic(Subspace.full(4))
        rest = canonical_basis([[int(c == k) for c in range(4)] for k in range(4) if k != i], 4)
        assert space._is_isotropic(rest)

    @given(skew_space_with_pair())
    def test_matches_the_product_with_rational_grams(self, data):
        space, a, b = data
        # a cap Ann(a) is isotropic; a, b and their sum usually are not
        for sub in (a, b, a + b, a.intersect(space.annihilator(a)), space.radical()):
            assert space._is_isotropic(sub) == _product_vanishes(space, sub)


def test_sampled_lagrangians_are_the_mapped_padded_walk(monkeypatch):
    # each Lagrangian is drawn with one elimination, and is what the walk's
    # canonical basis gave beside the radical's identity block, mapped by the
    # inverse of the drawn coordinate change
    from evencob import sampling

    draw_space, draw_change, seen = sampling._random_space, sampling._random_unimodular, {}

    def unimodular(n, rng):
        pair = draw_change(n, rng)
        seen["change"] = pair[0]
        return pair

    def padded_space(rng, genus_max):
        seen["space"] = draw_space(rng, genus_max, pad_choices=(1, 2, 3))
        seen["rng"] = random.Random()
        seen["rng"].setstate(rng.getstate())
        return seen["space"]

    monkeypatch.setattr(sampling, "_random_unimodular", unimodular)
    monkeypatch.setattr(sampling, "_random_space", padded_space)
    for seed in range(40):
        space, lags = sampling._random_lagrangians(seed, 3, 3)
        genus, pad, drawn, _ = seen["space"]
        assert drawn is space and pad in (1, 2, 3)
        inverse = seen["change"].inverse()
        for lag in lags:
            walked = random_lagrangian(genus, seen["rng"])
            padded = Subspace(RationalMatrix.block_diag(walked.basis, RationalMatrix.identity(pad)))
            assert lag == map_subspace(inverse, padded), seed
            assert space.is_lagrangian(lag), seed


@pytest.mark.parametrize("n", range(2, 11))
def test_unimodular_change_comes_with_its_inverse(n):
    # the inverse is built from the reversed steps, with no elimination
    for seed in range(100):
        change, inverse = _random_unimodular(n, random.Random(seed))
        assert inverse == change.inverse(), seed
        assert change @ inverse == RationalMatrix.identity(n), seed
