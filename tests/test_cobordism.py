import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evencob import cobordism, symplectic
from evencob.cobordism import (
    CobordismMorphism,
    _boundary_kernel,
    SurfaceObject,
    compose,
    empty_surface,
    epsilon,
    identity,
    inverse_pseudo_cylinder,
    is_even,
    is_pseudo_cylinder,
    pseudo_cylinder,
    pull_back,
    push_forward,
    validate,
)
from evencob.errors import (
    DimensionMismatchError,
    GeneraMismatchError,
    LagrangianMismatchError,
    NotAPseudoCylinderError,
    NotLagrangianError,
)
from evencob.generators import (
    ATOM_KINDS,
    GeneratorSpec,
    cap,
    disjoint_union,
    handlebody,
    random_even_morphism,
    twisted_cylinder,
)
from evencob.linalg import (
    RationalMatrix,
    Subspace,
    _preimage_of_columns,
    _times_transpose,
    canonical_basis,
    cokernel,
    kernel,
)
from evencob.maslov import LagrangianTriple, dim_sum_parity
from evencob.sampling import (
    random_abstract_even_pair,
    random_abstract_morphism,
    random_even_chain,
    random_even_pair,
)
from evencob.symplectic import (
    SymplecticSpace,
    _symplectic_inverse,
    random_lagrangian,
    random_symplectic,
)
from evencob.values import replace
from oracles import bench_oracle, calls_to, matrix_rows, oracle_image, reference_is_pseudo_cylinder

SPAN_E = canonical_basis([(1, 0)], 2)
SPAN_F = canonical_basis([(0, 1)], 2)
TORUS_E = SurfaceObject((1,), SPAN_E)
ROT = RationalMatrix([[0, -1], [1, 0]])


def boundary_images(m):
    """The images of the source and target Lagrangians in the body's H1, by the oracle."""
    return tuple(
        oracle_image(matrix_rows(j), matrix_rows(surface.lagrangian.basis), m.h1_dim)
        for j, surface in ((m.j_src_h1, m.source), (m.j_tgt_h1, m.target))
    )


def standard_lagrangian(g):
    return canonical_basis(
        [tuple(1 if c == 2 * i else 0 for c in range(2 * g)) for i in range(g)], 2 * g
    )


class TestSurfaceObject:
    def test_validates_lagrangian(self):
        with pytest.raises(NotLagrangianError):
            SurfaceObject((1,), Subspace.full(2))

    def test_empty_surface(self):
        empty = empty_surface()
        assert empty.beta0 == 0 and empty.beta1 == 0 and empty.is_empty

    def test_betti_numbers(self):
        assert TORUS_E.beta0 == 1 and TORUS_E.beta1 == 2

    def test_genus_that_is_not_an_int_is_refused(self):
        with pytest.raises(TypeError, match=r"a genus must be an int, got 1.9 \(float\)"):
            SurfaceObject((1.9,), SPAN_E)


class TestIdentity:
    def test_torus(self):
        m = identity(TORUS_E)
        assert m.weight == 0
        assert m.h1_dim == 2 and m.h0_dim == 1
        assert m.j_src_h1 == RationalMatrix.identity(2)
        assert m.j_tgt_h1 == RationalMatrix.identity(2)

    def test_empty(self):
        m = identity(empty_surface())
        assert m.h1_dim == 0 and m.h0_dim == 0
        assert validate(m) == []

    def test_validates(self):
        assert validate(identity(TORUS_E)) == []


class TestPseudoCylinder:
    def test_record_fields(self):
        c = pseudo_cylinder(TORUS_E, SPAN_F, 3)
        assert c.weight == 3
        assert c.source.lagrangian == SPAN_E and c.target.lagrangian == SPAN_F
        assert is_pseudo_cylinder(c)

    def test_same_lagrangian_weight_zero_equals_identity(self):
        assert pseudo_cylinder(TORUS_E, SPAN_E, 0) == identity(TORUS_E)

    def test_genus_two(self):
        g2 = SurfaceObject((2,), standard_lagrangian(2))
        lag_f = canonical_basis([(0, 1, 0, 0), (0, 0, 0, 1)], 4)
        c = pseudo_cylinder(g2, lag_f, 1)
        assert validate(c) == []

    def test_rejects_non_lagrangian(self):
        with pytest.raises(NotLagrangianError):
            pseudo_cylinder(TORUS_E, Subspace.full(2), 0)


class TestInversePseudoCylinder:
    def test_swaps_ends_and_negates_weight(self):
        c = pseudo_cylinder(TORUS_E, SPAN_F, 5)
        inv = inverse_pseudo_cylinder(c)
        assert inv.weight == -5
        assert inv.source.lagrangian == SPAN_F and inv.target.lagrangian == SPAN_E

    def test_identity_is_self_inverse(self):
        m = identity(TORUS_E)
        assert inverse_pseudo_cylinder(m) == m

    def test_rejects_non_cylinders(self):
        with pytest.raises(NotAPseudoCylinderError):
            inverse_pseudo_cylinder(handlebody(1, SPAN_E, 0))

    def test_composition_with_inverse_is_trivial(self):
        c = pseudo_cylinder(TORUS_E, SPAN_F, 5)
        inv = inverse_pseudo_cylinder(c)
        for left, right in ((c, inv), (inv, c)):
            loop = compose(left, right)
            assert loop.weight == 0
            assert loop.h1_dim == 2 and loop.h0_dim == 1
            for lag in (SPAN_E, SPAN_F, canonical_basis([(1, 1)], 2)):
                assert push_forward(loop, lag) == lag


CYLINDERS = {
    "identity": lambda: identity(TORUS_E),
    "pseudo_cylinder": lambda: pseudo_cylinder(TORUS_E, SPAN_F, 3),
    "twisted_cylinder": lambda: twisted_cylinder(TORUS_E, ROT, SPAN_F, 1),
}


class TestOneRecordPerCylinder:
    """Each cylinder, and each pseudo-cylinder test, builds one record."""

    @pytest.mark.parametrize("kind", CYLINDERS)
    def test_a_cylinder_is_one_record(self, monkeypatch, kind):
        records = calls_to(monkeypatch, CobordismMorphism, "__init__")
        cylinder = CYLINDERS[kind]()
        assert len(records) == 1 and records[0][0] is cylinder

    def test_the_pseudo_cylinder_test_builds_one_record(self, monkeypatch):
        cylinder, twisted = CYLINDERS["pseudo_cylinder"](), CYLINDERS["twisted_cylinder"]()
        records = calls_to(monkeypatch, CobordismMorphism, "__init__")
        assert is_pseudo_cylinder(cylinder) and not is_pseudo_cylinder(twisted)
        assert len(records) == 2
        # surfaces of different types are refused before any record is built
        assert not is_pseudo_cylinder(handlebody(1, SPAN_E, 0))
        assert len(records) == 3

    def test_the_inverse_is_one_record_after_the_test(self, monkeypatch):
        cylinder = CYLINDERS["pseudo_cylinder"]()
        records = calls_to(monkeypatch, CobordismMorphism, "__init__")
        inverse = inverse_pseudo_cylinder(cylinder)
        # one record compared by is_pseudo_cylinder, then the inverse itself
        assert len(records) == 2 and records[1][0] is inverse


PERTURBATIONS = ("none", "entry", "h1-row", "h0-row", "weight", "target")


def _atom_record(kind: str, genera: tuple[int, ...], seed: int, length: int):
    """An even record of an atom kind; handlebodies and caps take one component."""
    genera = genera[:1] if kind in ("handlebody", "cap") else genera
    return random_even_morphism(GeneratorSpec(kind, genera=genera, twist_length=length), seed)


def _perturbed(m: CobordismMorphism, how: str, rng: random.Random) -> CobordismMorphism:
    if how == "entry":
        names = [n for n in ("j_src_h1", "j_tgt_h1", "j_src_h0", "j_tgt_h0")
                 if getattr(m, n).rows and getattr(m, n).cols]
        if not names:
            return m
        name = rng.choice(names)
        mat = getattr(m, name)
        rows = [list(mat.row(i)) for i in range(mat.rows)]
        rows[rng.randrange(mat.rows)][rng.randrange(mat.cols)] += rng.choice([-1, 1])
        return replace(m, **{name: RationalMatrix(rows)})
    if how in ("h1-row", "h0-row"):
        h = how[:2]
        src, tgt = getattr(m, f"j_src_{h}"), getattr(m, f"j_tgt_{h}")
        return replace(
            m,
            **{
                f"{h}_dim": getattr(m, f"{h}_dim") + 1,
                f"j_src_{h}": src.vstack(RationalMatrix.zeros(1, src.cols)),
                f"j_tgt_{h}": tgt.vstack(RationalMatrix.zeros(1, tgt.cols)),
            },
        )
    if how == "weight":
        return replace(m, weight=m.weight + 1)
    if how == "target" and m.target.beta1:
        genus = sum(m.target.genera)
        lag = random_lagrangian(genus, rng.getrandbits(32))
        return replace(m, target=SurfaceObject(m.target.genera, lag))
    return m


class TestIsPseudoCylinder:
    """The comparison with the untwisted cylinder agrees with the field-by-field test."""

    @given(
        st.sampled_from(ATOM_KINDS),
        st.sampled_from([(0,), (1,), (2,), (1, 1), (0, 2)]),
        st.integers(0, 2**32),
        st.sampled_from([0, 1, 20]),
        st.sampled_from(PERTURBATIONS),
    )
    def test_matches_the_field_by_field_test(self, kind, genera, seed, length, how):
        m = _perturbed(_atom_record(kind, genera, seed, length), how, random.Random(seed))
        assert is_pseudo_cylinder(m) == reference_is_pseudo_cylinder(m)

    @given(st.integers(0, 10**6), st.sampled_from(PERTURBATIONS))
    def test_matches_on_abstract_and_composed_records(self, seed, how):
        m1, m2 = random_even_pair(seed, 2)
        for m in (m1, m2, compose(m1, m2), random_abstract_morphism(seed, 3)):
            m = _perturbed(m, how, random.Random(seed))
            assert is_pseudo_cylinder(m) == reference_is_pseudo_cylinder(m)

    def test_both_answers_are_drawn(self):
        answers = {True: 0, False: 0}
        for seed in range(60):
            kind = ATOM_KINDS[seed % len(ATOM_KINDS)]
            how = PERTURBATIONS[seed % len(PERTURBATIONS)]
            m = _perturbed(_atom_record(kind, (1,), seed, seed % 2), how, random.Random(seed))
            answer = reference_is_pseudo_cylinder(m)
            assert is_pseudo_cylinder(m) == answer
            answers[answer] += 1
        assert min(answers.values()) >= 15


class TestPushPull:
    def test_identity_cylinder(self):
        m = identity(TORUS_E)
        assert push_forward(m, SPAN_F) == SPAN_F
        assert pull_back(m, SPAN_F) == SPAN_F

    def test_twisted_cylinder_acts_by_the_twist(self):
        m = twisted_cylinder(TORUS_E, ROT, SPAN_F, 0)
        assert push_forward(m, SPAN_E) == SPAN_F
        assert pull_back(m, SPAN_F) == SPAN_E

    def test_handlebody_kernel(self):
        m = handlebody(1, SPAN_E, 0)
        assert push_forward(m, Subspace.zero(0)) == SPAN_F

    def test_cap_kernel(self):
        m = cap(1, SPAN_E, 0)
        assert pull_back(m, Subspace.zero(0)) == SPAN_F

    def test_dimension_errors_name_the_surface(self):
        m = handlebody(1, SPAN_E, 0)
        with pytest.raises(DimensionMismatchError) as exc:
            push_forward(m, SPAN_E)
        assert str(exc.value) == "subspace of ambient 2, source surface has dimension 0"
        with pytest.raises(DimensionMismatchError) as exc:
            pull_back(m, Subspace.zero(0))
        assert str(exc.value) == "subspace of ambient 0, target surface has dimension 2"

    def test_matches_preimage_of_image_oracle(self):
        # push_forward and pull_back run one kernel; the oracle maps the
        # subspace row by row, then takes two kernels
        records = [sphere_tube(3), bent_cylinder(2), handlebody(1, SPAN_E, 0), cap(1, SPAN_E, 0)]
        for seed in range(20):
            records += [*random_even_pair(seed), random_abstract_morphism(seed, 3)]
        for m in records + [reversed_morphism(m) for m in records]:
            src_image, tgt_image = boundary_images(m)
            pushed = push_forward(m, m.source.lagrangian)
            pulled = pull_back(m, m.target.lagrangian)
            j_src, j_tgt = matrix_rows(m.j_src_h1), matrix_rows(m.j_tgt_h1)
            assert matrix_rows(pushed.basis) == bench_oracle.preimage(j_tgt, src_image, m.target.beta1)
            assert matrix_rows(pulled.basis) == bench_oracle.preimage(j_src, tgt_image, m.source.beta1)

    def test_lagrangian_outputs_on_random_even_morphisms(self):
        # push_forward and pull_back do not check their output, so this is
        # the proof for the records both samplers draw
        for seed in range(20):
            for m in (*random_even_pair(seed), *random_abstract_even_pair(seed)):
                assert validate(m) == []
                out = push_forward(m, m.source.lagrangian)
                assert m.target.space.is_lagrangian(out)
                back = pull_back(m, m.target.lagrangian)
                assert m.source.space.is_lagrangian(back)


class TestEpsilon:
    def test_one_sided(self):
        assert epsilon(handlebody(1, SPAN_E, 0)) == 1

    def test_two_sided(self):
        assert epsilon(identity(TORUS_E)) == 0

    def test_empty_both_sides(self):
        assert epsilon(identity(empty_surface())) == 0


class TestIsEven:
    def test_identity_cylinder_terms(self):
        report = is_even(identity(TORUS_E))
        assert sum(report.term_breakdown.values()) == 6
        assert report.parity_rhs == 0 and report.weight_parity == 0
        assert report.is_even

    def test_handlebody_terms(self):
        report = is_even(handlebody(1, SPAN_E, 1))
        assert sum(report.term_breakdown.values()) == 5
        assert report.is_even

    def test_pseudo_cylinder_is_odd(self):
        report = is_even(pseudo_cylinder(TORUS_E, SPAN_F, 0))
        assert not report.is_even
        assert report.parity_rhs == 1

    def test_report_consistency(self):
        report = is_even(handlebody(2, standard_lagrangian(2), 0))
        assert report.is_even == (report.parity_rhs == report.weight_parity)

    def test_cylinder_parity_shortcut(self):
        # for cylinders the expression collapses to beta1/2 + dim(l + l')
        rng = random.Random(5)
        for g in (1, 2, 3):
            for trial in range(20):
                lag1 = random_lagrangian(g, rng)
                lag2 = random_lagrangian(g, rng)
                w = rng.randint(-3, 3)
                c = pseudo_cylinder(SurfaceObject((g,), lag1), lag2, w)
                shortcut = (g + (lag1 + lag2).dim) % 2
                assert is_even(c).is_even == (w % 2 == shortcut)


    @given(st.integers(0, 10**6))
    def test_lagrangian_span_matches_sum_of_images(self, seed):
        m1, m2 = random_even_pair(seed, 2)
        for m in (m1, m2, compose(m1, m2), random_abstract_morphism(seed, 3)):
            src_image, tgt_image = boundary_images(m)
            span = is_even(m).term_breakdown["lagrangian_span"]
            assert span == bench_oracle.rank(src_image + tgt_image, m.h1_dim)


class TestValidate:
    def test_generators_validate(self):
        assert validate(handlebody(2, standard_lagrangian(2), 1)) == []
        assert validate(cap(1, SPAN_E, 0, ROT)) == []
        assert validate(twisted_cylinder(TORUS_E, ROT, SPAN_F, 2)) == []

    def test_zero_target_map_violates(self):
        bad = CobordismMorphism(
            empty_surface(),
            TORUS_E,
            0,
            1,
            1,
            RationalMatrix.zeros(1, 0),
            RationalMatrix.zeros(1, 2),
            RationalMatrix.zeros(1, 0),
            RationalMatrix.identity(1),
        )
        issues = validate(bad)
        assert len(issues) == 1
        assert "not Lagrangian" in issues[0] and "2" in issues[0]

    def test_bad_h0_column_violates(self):
        bad = replace(identity(TORUS_E), j_tgt_h0=RationalMatrix([[2]]))
        issues = validate(bad)
        assert any("standard basis" in msg for msg in issues)


class TestCompose:
    def test_weight_formula_without_correction(self):
        # mu vanishes when two of the three middle Lagrangians coincide
        c1 = pseudo_cylinder(TORUS_E, SPAN_F, 1)
        c2 = pseudo_cylinder(SurfaceObject((1,), SPAN_F), SPAN_F, 1)
        assert compose(c1, c2).weight == 2

    def test_middle_genera_mismatch(self):
        with pytest.raises(GeneraMismatchError):
            compose(handlebody(1, SPAN_E, 0), cap(2, standard_lagrangian(2), 0))

    def test_middle_lagrangian_mismatch(self):
        with pytest.raises(LagrangianMismatchError):
            compose(handlebody(1, SPAN_E, 0), cap(1, SPAN_F, 0))

    def test_sphere_cross_circle_model(self):
        glued = compose(handlebody(1, SPAN_E, 1), cap(1, SPAN_E, 1))
        assert glued.weight == 2
        assert glued.h1_dim == 1 and glued.h0_dim == 1
        assert is_even(glued).is_even
        assert validate(glued) == []

    def test_three_sphere_model(self):
        glued = compose(handlebody(1, SPAN_E, 0), cap(1, SPAN_E, 0, ROT))
        assert glued.h1_dim == 0 and glued.h0_dim == 1

    def test_weight_formula_with_nonzero_correction(self):
        # kernels span{f} and span{e} against middle Lagrangian span{e+f}:
        # the correction term is mu(span f, span e+f, span e) = -1
        span_ef = canonical_basis([(1, 1)], 2)
        glued = compose(handlebody(1, span_ef, 0), cap(1, span_ef, 0, ROT))
        assert glued.weight == 1
        assert glued.h1_dim == 0 and glued.h0_dim == 1
        assert is_even(glued).is_even

    def test_left_identity_reproduces_the_record(self):
        for seed in range(10):
            m, _ = random_even_pair(seed)
            assert compose(identity(m.source), m) == m

    def test_right_identity_preserves_invariants(self):
        for seed in range(10):
            m, _ = random_even_pair(seed)
            composed = compose(m, identity(m.target))
            assert composed.weight == m.weight
            assert composed.h1_dim == m.h1_dim and composed.h0_dim == m.h0_dim
            assert push_forward(composed, m.source.lagrangian) == push_forward(
                m, m.source.lagrangian
            )
            assert is_even(composed).is_even == is_even(m).is_even

    def test_pushforward_functorial_on_random_pairs(self):
        for seed in range(15):
            m1, m2 = random_even_pair(seed)
            composite = compose(m1, m2)
            via_parts = push_forward(m2, push_forward(m1, m1.source.lagrangian))
            assert push_forward(composite, m1.source.lagrangian) == via_parts

    def test_pullback_functorial_on_random_pairs(self):
        for seed in range(15):
            m1, m2 = random_even_pair(seed)
            composite = compose(m1, m2)
            via_parts = pull_back(m1, pull_back(m2, m2.target.lagrangian))
            assert pull_back(composite, m2.target.lagrangian) == via_parts

    def test_composites_of_validated_records_validate(self):
        for seed in range(20):
            m1, m2 = random_even_pair(seed)
            assert validate(compose(m1, m2)) == []

    @pytest.mark.parametrize(
        "sampler", [random_even_pair, random_abstract_even_pair], ids=["built", "abstract"]
    )
    def test_gluing_along_the_empty_surface_is_disjoint_union(self, sampler):
        pairs = [sampler(seed, 3) for seed in range(200)]
        along_empty = [(m1, m2) for m1, m2 in pairs if m1.target.is_empty]
        assert len(along_empty) >= 10
        for m1, m2 in along_empty:
            assert compose(m1, m2) == disjoint_union(m1, m2)

    def test_fixtures_glued_along_the_empty_surface_are_disjoint_unions(self):
        closed = compose(handlebody(1, SPAN_E, 1), cap(1, SPAN_E, 1))
        fixtures = [
            (cap(1, SPAN_E, 1, ROT), handlebody(2, standard_lagrangian(2), 0)),
            (closed, handlebody(1, SPAN_F, -1)),
            (cap(2, standard_lagrangian(2), 3), closed),
            (closed, closed),
            (identity(empty_surface()), identity(empty_surface())),
        ]
        for m1, m2 in fixtures:
            glued = compose(m1, m2)
            assert glued == disjoint_union(m1, m2)
            assert glued.weight == m1.weight + m2.weight
            assert validate(glued) == []


def reversed_morphism(m):
    """The same body read backwards: ends swapped, weight kept."""
    return CobordismMorphism(
        m.target, m.source, m.weight, m.h1_dim, m.h0_dim,
        m.j_tgt_h1, m.j_src_h1, m.j_tgt_h0, m.j_src_h0,
    )


def sphere_tube(components=2):
    """A 3-ball with holes: the empty surface to `components` spheres in one body."""
    spheres = SurfaceObject((0,) * components, Subspace.zero(0))
    return CobordismMorphism(
        empty_surface(), spheres, 0, 0, 1,
        RationalMatrix((), cols=0), RationalMatrix((), cols=0),
        RationalMatrix([[]], cols=0), RationalMatrix([[1] * components]),
    )


def bent_cylinder(g):
    """Sigma_g x I from the empty surface to two copies of Sigma_g.

    The second copy is the reversed end, so H1 of the body maps into it by
    R: e_i -> e_i, f_i -> -f_i, and j_tgt_h1 = [I | R].
    """
    n = 2 * g
    rows = [
        [int(i == j) for j in range(n)] + [(-1) ** i * int(i == j) for j in range(n)]
        for i in range(n)
    ]
    lagrangian = canonical_basis(
        [[int(c == 2 * i) for c in range(2 * n)] for i in range(n)], 2 * n
    )
    return CobordismMorphism(
        empty_surface(), SurfaceObject((g, g), lagrangian), 0, n, 1,
        RationalMatrix([[]] * n, cols=0), RationalMatrix(rows),
        RationalMatrix([[]], cols=0), RationalMatrix([[1, 1]]),
    )


class TestGluingAlongDisconnectedSurfaces:
    """Closed 3-manifolds glued along several components: ker(alpha0) has k0 > 0.

    Each body component meets the middle surface more than once, so H1 of the
    glued manifold gains k0 loops beyond coker(alpha1).  Values were recorded
    before the integer-row rewrite of the kernel and cokernel rows, and those
    of #k(S^2 x S^1) before the single-kernel preimage in push_forward.
    """

    def test_pieces_validate(self):
        for m in (sphere_tube(), *(bent_cylinder(g) for g in (1, 2, 3))):
            assert validate(m) == []
            assert validate(reversed_morphism(m)) == []

    def test_sphere_cross_circle_from_two_tubes(self):
        tube = sphere_tube()
        glued = compose(tube, reversed_morphism(tube))
        assert (glued.h1_dim, glued.h0_dim, glued.weight) == (1, 1, 0)
        assert is_even(tube).is_even and is_even(reversed_morphism(tube)).is_even
        assert is_even(glued).is_even

    @pytest.mark.parametrize("k, tube_even, reverse_even", [(2, True, False), (3, True, True)])
    def test_connected_sum_of_sphere_cross_circles(self, k, tube_even, reverse_even):
        # k + 1 spheres glued pairwise: k0 = k, on H1 blocks of width zero.
        # The reversed tube has k + 1 source components; its oddness for even
        # k is carried into the composite, as the evenness defect is additive.
        tube = sphere_tube(k + 1)
        back = reversed_morphism(tube)
        glued = compose(tube, back)
        assert (glued.h1_dim, glued.h0_dim, glued.weight) == (k, 1, 0)
        assert (is_even(tube).is_even, is_even(back).is_even) == (tube_even, reverse_even)
        assert is_even(glued).is_even == reverse_even
        assert validate(tube) == validate(back) == validate(glued) == []

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_surface_cross_circle_from_bent_cylinders(self, g):
        m = bent_cylinder(g)
        glued = compose(m, reversed_morphism(m))
        assert (glued.h1_dim, glued.h0_dim, glued.weight) == (2 * g + 1, 1, 0)
        assert is_even(m).is_even == (g % 2 == 0)
        assert is_even(glued).is_even
        assert validate(glued) == []


class TestEvenClosure:
    def test_even_pairs_compose_even(self):
        for seed in range(60):
            m1, m2 = random_even_pair(seed)
            assert is_even(m1).is_even and is_even(m2).is_even
            assert is_even(compose(m1, m2)).is_even, seed

    def test_even_cylinder_absorption(self):
        # composing an even morphism with an even pseudo-cylinder on either
        # side stays even
        rng = random.Random(17)
        for trial in range(200):
            m, _ = random_even_pair(rng.getrandbits(32))

            def even_cylinder_onto(lagrangian, obj):
                base = pseudo_cylinder(obj, lagrangian, 0)
                if is_even(base).is_even:
                    return base
                return replace(base, weight=1)

            if not m.source.is_empty:
                g = sum(m.source.genera)
                fresh = random_lagrangian(g, rng) if g else Subspace.zero(0)
                pre_obj = SurfaceObject(m.source.genera, fresh)
                pre = even_cylinder_onto(m.source.lagrangian, pre_obj)
                assert is_even(pre).is_even
                assert is_even(compose(pre, m)).is_even, trial
            if not m.target.is_empty:
                g = sum(m.target.genera)
                fresh = random_lagrangian(g, rng) if g else Subspace.zero(0)
                post = even_cylinder_onto(fresh, m.target)
                assert is_even(post).is_even
                assert is_even(compose(m, post)).is_even, trial

    def test_inverse_of_even_pseudo_cylinder_is_even(self):
        rng = random.Random(23)
        for trial in range(50):
            g = rng.randint(1, 3)
            obj = SurfaceObject((g,), random_lagrangian(g, rng))
            c = pseudo_cylinder(obj, random_lagrangian(g, rng), rng.randint(-3, 3))
            if not is_even(c).is_even:
                c = replace(c, weight=c.weight + 1)
            assert is_even(inverse_pseudo_cylinder(c)).is_even, trial


def test_weight_associativity_sample():
    for seed in range(25):
        m1, m2, m3 = random_even_chain(seed, 3)
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        assert left.weight == right.weight, seed
        assert (left.h1_dim, left.h0_dim) == (right.h1_dim, right.h0_dim)


def carried_by_elimination(m, lagrangian, forward):
    """push_forward (or pull_back) as the preimage of the carried columns."""
    j_start, j_end = (m.j_src_h1, m.j_tgt_h1) if forward else (m.j_tgt_h1, m.j_src_h1)
    return _preimage_of_columns(j_end, _times_transpose(j_start, lagrangian.basis))


def glued_h1_by_elimination(m1, m2):
    """d1 and the two H1 maps of the composite, from the cokernel of [J1; -J2]
    and its projection, before the k0 zero rows."""
    d1, q1 = cokernel(m1.j_tgt_h1.vstack(-m2.j_src_h1))
    n = m1.h1_dim
    return d1, q1._column_block(0, n) @ m1.j_src_h1, q1._column_block(n, q1.cols) @ m2.j_tgt_h1


def assert_fast_paths_agree(m1, m2):
    """Each product through an invertible end equals the elimination it
    replaces, on both pieces and on their composite."""
    glued = compose(m1, m2)
    for m in (m1, m2, glued):
        src, tgt = m.source.lagrangian, m.target.lagrangian
        assert push_forward(m, src) == carried_by_elimination(m, src, forward=True)
        assert pull_back(m, tgt) == carried_by_elimination(m, tgt, forward=False)
        assert _boundary_kernel(m) == kernel(m.j_src_h1.hstack(m.j_tgt_h1))
    if not m1.target.is_empty:
        d1, j_src, j_tgt = glued_h1_by_elimination(m1, m2)
        k0 = glued.h1_dim - d1
        assert glued.j_src_h1 == j_src.vstack(RationalMatrix.zeros(k0, j_src.cols))
        assert glued.j_tgt_h1 == j_tgt.vstack(RationalMatrix.zeros(k0, j_tgt.cols))
    return glued


def is_fast(m):
    """The record's target end has an inverse and is not the identity."""
    return m._forward is not None and not m.j_tgt_h1._is_identity()


def twisted(genera, twist, seed):
    """A twisted cylinder between drawn Lagrangians on a connected surface."""
    rng = random.Random(seed)
    g = sum(genera)
    source = SurfaceObject(genera, random_lagrangian(g, rng))
    return twisted_cylinder(source, twist, random_lagrangian(g, rng), 0)


# diag(2, 1/2) on the first handle preserves the form with rational entries
RATIONAL_TWIST = RationalMatrix(
    [[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
)


def rescaled_cylinder(obj):
    """A cylinder whose body basis is scaled by 2: both end maps are 2I, square
    and invertible but not symplectic, and the record validates."""
    n, n0 = obj.beta1, obj.beta0
    two = RationalMatrix([[2 * int(i == j) for j in range(n)] for i in range(n)])
    eye0 = RationalMatrix.identity(n0)
    return CobordismMorphism(obj, obj, 0, n, n0, two, two, eye0, eye0)


@pytest.fixture
def form_tests(monkeypatch):
    """The form tests the certificate runs, one (columns, den) per test."""
    return calls_to(monkeypatch, symplectic, "preserves_standard_form")


@pytest.fixture
def end_certificates(monkeypatch):
    """The end maps a record certifies, one (map,) per call; a twist check
    does not reach cobordism's reference to the certificate."""
    return calls_to(monkeypatch, cobordism, "_symplectic_inverse")


class TestInvertibleEnds:
    """Carries, H1 gluing and validate's boundary kernel through an end that
    is square and preserves the form take products; every other end takes
    the elimination.  Each fast path is compared with the elimination it
    replaces."""

    @given(
        seed=st.integers(0, 2**32),
        genus_max=st.sampled_from([3, 4]),
        sampler=st.sampled_from([random_even_pair, random_abstract_even_pair]),
    )
    def test_sampled_pairs(self, seed, genus_max, sampler):
        assert_fast_paths_agree(*sampler(seed, genus_max))

    def test_sampled_pairs_take_every_path(self):
        kinds = Counter()
        for seed in range(120):
            m1, m2 = random_even_pair(seed, 4)
            assert_fast_paths_agree(m1, m2)
            j = m1.j_tgt_h1
            if j.rows != j.cols:
                kinds["rectangular"] += 1
            elif m1._forward is None:
                kinds["square, no inverse"] += 1
            else:
                kinds["identity" if j._is_identity() else "inverse"] += 1
        assert set(kinds) == {"rectangular", "square, no inverse", "identity", "inverse"}

    def test_genus_eight_twisted_chain(self):
        spec = GeneratorSpec("twisted_cylinder")
        m = random_even_morphism(GeneratorSpec("twisted_cylinder", genera=(8,)), 0)
        for seed in range(1, 8):
            step = random_even_morphism(spec, seed, source=m.target)
            assert is_fast(m)
            m = assert_fast_paths_agree(m, step)
        assert validate(m) == [] and m.h1_dim == 16

    def test_rational_symplectic_end(self):
        m = twisted((2,), RATIONAL_TWIST, 3)
        half = Fraction(1, 2)
        assert m.j_tgt_h1 == RationalMatrix(
            [[half, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert m._forward == RATIONAL_TWIST  # the source end is the identity
        after = twisted_cylinder(m.target, random_symplectic(2, 5), random_lagrangian(2, 9), 1)
        for m2 in (after, cap(2, m.target.lagrangian, 0), identity(m.target)):
            assert validate(assert_fast_paths_agree(m, m2)) == []
        assert_fast_paths_agree(handlebody(2, m.source.lagrangian, 0), m)

    def test_square_end_that_is_not_symplectic_takes_the_elimination(self, form_tests):
        m = rescaled_cylinder(SurfaceObject((2,), random_lagrangian(2, 4)))
        assert validate(m) == []
        assert m._forward is None and m._backward is None
        assert len(form_tests) == 2
        after = twisted_cylinder(m.target, random_symplectic(2, 6), random_lagrangian(2, 7), 0)
        for m2 in (after, identity(m.target)):
            assert validate(assert_fast_paths_agree(m, m2)) == []
        assert_fast_paths_agree(handlebody(2, m.source.lagrangian, 0), m)

    def test_rectangular_ends_are_not_tested(self, monkeypatch):
        monkeypatch.setattr(symplectic, "preserves_standard_form", None)
        m = handlebody(2, random_lagrangian(2, 1), 0)
        assert m._forward is None and m._backward is None
        assert _symplectic_inverse(RationalMatrix.zeros(2, 4)) is None

    @given(g=st.integers(1, 4), seed=st.integers(0, 2**32))
    def test_inverse_of_a_symplectic_end(self, g, seed):
        a = random_symplectic(g, seed)
        inverse = _symplectic_inverse(a)
        assert inverse @ a == a @ inverse == RationalMatrix.identity(2 * g)
        assert _symplectic_inverse(a + a) is None  # invertible, but 2A scales the form by 4

    def test_identity_end_is_its_own_inverse(self, monkeypatch):
        monkeypatch.setattr(symplectic, "preserves_standard_form", None)
        eye = RationalMatrix.identity(4)
        assert _symplectic_inverse(eye) is eye

    def test_each_end_is_tested_once_per_record(self, end_certificates, form_tests):
        m1 = twisted((2,), random_symplectic(2, 1), 0)
        m2 = twisted_cylinder(m1.target, random_symplectic(2, 2), random_lagrangian(2, 3), 0)
        assert end_certificates == [] and len(form_tests) == 2  # the two twist checks
        assert validate(m1) == [] and end_certificates == [(m1.j_tgt_h1,)]
        compose(m1, m2)  # m1's target end again, and m2's source end, the identity
        validate(m1)
        push_forward(m1, m1.source.lagrangian)
        assert end_certificates == [(m1.j_tgt_h1,), (m2.j_src_h1,)]
        assert len(form_tests) == 3  # the identity needs no form test
        validate(replace(m1))  # a copy is a new record
        assert end_certificates == [(m1.j_tgt_h1,), (m2.j_src_h1,), (m1.j_tgt_h1,)]
        assert len(form_tests) == 4

    def test_each_transfer_is_computed_once_per_record(self, monkeypatch):
        calls = calls_to(monkeypatch, cobordism, "_transfer")
        m1 = twisted((2,), random_symplectic(2, 1), 0)
        m2 = twisted_cylinder(m1.target, random_symplectic(2, 2), random_lagrangian(2, 3), 0)
        for _ in range(2):
            validate(m1)
            push_forward(m1, m1.source.lagrangian)
            pull_back(m1, m1.target.lagrangian)
            compose(m1, m2)  # m1's forward transfer again, and m2's backward one
        assert calls == [
            (m1.j_src_h1, m1.j_tgt_h1),
            (m1.j_tgt_h1, m1.j_src_h1),
            (m2.j_tgt_h1, m2.j_src_h1),
        ]

    def test_a_cached_transfer_carries_with_no_product(self, monkeypatch):
        m = twisted((2,), random_symplectic(2, 1), 0)
        src, tgt = m.source.lagrangian, m.target.lagrangian
        carried = push_forward(m, src), pull_back(m, tgt)  # fills both caches
        assert carried == (carried_by_elimination(m, src, True), carried_by_elimination(m, tgt, False))
        products = calls_to(monkeypatch, RationalMatrix, "__matmul__")
        assert (push_forward(m, src), pull_back(m, tgt)) == carried
        assert products == []

    def test_glued_source_map_is_the_product_through_the_inverse(self):
        checked = 0
        for seed in range(60):
            for sampler in (random_even_pair, random_abstract_even_pair):
                m1, m2 = sampler(seed, 4)
                if m1.target.is_empty or m1._forward is None:
                    continue
                expected = (m2.j_src_h1 @ m1.j_tgt_h1.inverse()) @ m1.j_src_h1
                glued = compose(m1, m2)
                k0 = glued.h1_dim - m2.h1_dim
                assert glued.j_src_h1 == expected.vstack(RationalMatrix.zeros(k0, expected.cols))
                checked += 1
        assert checked >= 10

    def test_equality_hash_and_replace_ignore_the_cache(self):
        m = twisted((2,), random_symplectic(2, 1), 0)
        space = SymplecticSpace(m.source.space.gram)  # filled by the triple's Lagrangian tests
        triple = LagrangianTriple(space, m.source.lagrangian, m.target.lagrangian, m.source.lagrangian)
        fresh = replace(m)
        assert validate(m) == []
        pull_back(m, m.target.lagrangian)
        dim_sum_parity(triple)
        caches = [
            (m, fresh, ("_forward", "_backward")),
            (triple, replace(triple), ("_lattice",)),
            (space, replace(space), ("_radical_dim", "_gram_rows", "_pairing")),
        ]
        for record, copy, names in caches:
            assert all(name in vars(record) and name not in vars(copy) for name in names)
            assert record == copy and hash(record) == hash(copy)
            assert not any(name.startswith("_") for name in record._fields)
        assert "_forward" not in vars(replace(m, weight=1))
