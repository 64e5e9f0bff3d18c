import pytest

from evencob.cobordism import (
    SurfaceObject,
    compose,
    empty_surface,
    epsilon,
    identity,
    is_even,
    pseudo_cylinder,
    push_forward,
    validate,
)
from evencob.errors import DimensionMismatchError, GeneratorSpecError, NotSymplecticError
from evencob.generators import (
    GeneratorSpec,
    build_from_objects,
    cap,
    disjoint_union,
    format_generator_spec,
    handlebody,
    parse_generator_spec,
    random_even_morphism,
    twisted_cylinder,
)
from evencob.linalg import RationalMatrix, Subspace, canonical_basis
from evencob.sampling import random_abstract_morphism, random_even_pair

SPAN_E = canonical_basis([(1, 0)], 2)
SPAN_F = canonical_basis([(0, 1)], 2)
TORUS_E = SurfaceObject((1,), SPAN_E)
ROT = RationalMatrix([[0, -1], [1, 0]])


def standard_lagrangian(g):
    return canonical_basis(
        [tuple(1 if c == 2 * i else 0 for c in range(2 * g)) for i in range(g)], 2 * g
    )


class TestTwistedCylinder:
    def test_identity_twist_is_pseudo_cylinder(self):
        assert twisted_cylinder(TORUS_E, RationalMatrix.identity(2), SPAN_F, 3) == (
            pseudo_cylinder(TORUS_E, SPAN_F, 3)
        )

    def test_rotation_acts(self):
        m = twisted_cylinder(TORUS_E, ROT, SPAN_F, 0)
        assert push_forward(m, SPAN_E) == SPAN_F

    def test_always_validates(self):
        from evencob.symplectic import random_symplectic

        for seed in range(10):
            twist = random_symplectic(2, seed)
            obj = SurfaceObject((2,), standard_lagrangian(2))
            m = twisted_cylinder(obj, twist, standard_lagrangian(2), seed)
            assert validate(m) == []

    def test_rejects_non_symplectic(self):
        with pytest.raises(NotSymplecticError) as exc:
            twisted_cylinder(TORUS_E, RationalMatrix([[2, 0], [0, 2]]), SPAN_F, 0)
        assert str(exc.value) == "twist does not preserve the surface form"

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError) as exc:
            twisted_cylinder(TORUS_E, RationalMatrix.identity(4), SPAN_F, 0)
        assert str(exc.value) == "twist is 4x4, surface needs 2x2"


class TestHandlebody:
    def test_weight_one_is_even(self):
        assert is_even(handlebody(1, SPAN_E, 1)).is_even

    def test_weight_zero_is_odd(self):
        assert not is_even(handlebody(1, SPAN_E, 0)).is_even

    def test_genus_two_kernel(self):
        m = handlebody(2, standard_lagrangian(2), 0)
        kernel_lag = canonical_basis([(0, 1, 0, 0), (0, 0, 0, 1)], 4)
        assert push_forward(m, Subspace.zero(0)) == kernel_lag

    def test_epsilon(self):
        assert epsilon(handlebody(1, SPAN_E, 0)) == 1


class TestCap:
    def test_plain_kernel(self):
        from evencob.cobordism import pull_back

        assert pull_back(cap(1, SPAN_E, 0), Subspace.zero(0)) == SPAN_F

    def test_rotated_kernel(self):
        from evencob.cobordism import pull_back

        assert pull_back(cap(1, SPAN_E, 0, ROT), Subspace.zero(0)) == SPAN_E

    def test_validates(self):
        assert validate(cap(2, standard_lagrangian(2), 1)) == []

    def test_rejects_non_symplectic_pre_twist(self):
        with pytest.raises(NotSymplecticError) as exc:
            cap(1, SPAN_E, 0, RationalMatrix([[2, 0], [0, 2]]))
        assert str(exc.value) == "pre_twist does not preserve the surface form"

    def test_rejects_wrong_pre_twist_shape(self):
        with pytest.raises(DimensionMismatchError) as exc:
            cap(1, SPAN_E, 0, RationalMatrix.identity(4))
        assert str(exc.value) == "pre_twist is 4x4, surface needs 2x2"


class TestDoubles:
    def test_genus_g_double_betti(self):
        for g in range(1, 5):
            lag = standard_lagrangian(g)
            double = compose(handlebody(g, lag, 0), cap(g, lag, 0))
            assert double.h1_dim == g and double.h0_dim == 1, g


class TestDisjointUnion:
    def test_block_structure(self):
        u = disjoint_union(handlebody(1, SPAN_E, 1), handlebody(1, SPAN_E, 1))
        assert u.source.is_empty
        assert u.target.genera == (1, 1)
        assert u.h1_dim == 2 and u.h0_dim == 2
        assert u.weight == 2
        assert validate(u) == []

    def test_union_with_empty_morphism(self):
        m = handlebody(1, SPAN_E, 1)
        u = disjoint_union(m, identity(empty_surface()))
        assert u.weight == m.weight
        assert u.h1_dim == m.h1_dim and u.h0_dim == m.h0_dim
        assert u.target.genera == (1,)

    def test_epsilon_is_not_additive(self):
        # each handlebody has epsilon 1, but so does their union
        m = handlebody(1, SPAN_E, 1)
        u = disjoint_union(m, m)
        assert epsilon(m) == 1 and epsilon(u) == 1


class TestGeneratorSpecText:
    @pytest.mark.parametrize(
        "text",
        [
            "identity genus=1",
            "pseudo_cylinder genus=1 weight=3",
            "twisted_cylinder genera=[1,2] twist_seed=5",
            "twisted_cylinder genus=2 twist_seed=5 twist_length=7",
            "handlebody genus=2 weight=-1",
            "cap genus=1",
            "composite(handlebody genus=1 weight=1, cap genus=1 weight=1)",
            "disjoint_union(handlebody genus=1, handlebody genus=2)",
            "composite(handlebody genus=1, pseudo_cylinder genus=1, cap genus=1)",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_generator_spec(text)
        assert parse_generator_spec(format_generator_spec(spec)) == spec

    def test_unknown_kind(self):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec("mystery genus=1")

    def test_unknown_parameter(self):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec("cap genus=1 color=3")

    def test_trailing_tokens(self):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec("cap genus=1) extra")

    @pytest.mark.parametrize(
        "text",
        [
            "handlebody genus=-1",
            "pseudo_cylinder genera=[-1]",
            "twisted_cylinder genera=[1,-1]",
            "composite(handlebody genus=1, cap genus=-1)",
        ],
    )
    def test_negative_genus_rejected(self, text):
        with pytest.raises(GeneratorSpecError, match="genera must be non-negative"):
            parse_generator_spec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "twisted_cylinder genus=1 twist_length=-1",
            "cap genus=2 twist_seed=3 twist_length=-5",
        ],
    )
    def test_negative_twist_length_rejected(self, text):
        with pytest.raises(GeneratorSpecError, match="twist_length must be non-negative"):
            parse_generator_spec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "handlebody genera=[1_0]",
            "pseudo_cylinder genera=[ +1 ]",
            "twisted_cylinder genera=[1, +2]",
            "twisted_cylinder genera=[1,--2]",
            "pseudo_cylinder genera=[1.0]",
            "pseudo_cylinder genera=[1 2]",
            "pseudo_cylinder genera=[1,,2]",
        ],
    )
    def test_list_elements_outside_the_grammar_rejected(self, text):
        with pytest.raises(GeneratorSpecError, match="bad integer list"):
            parse_generator_spec(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("handlebody genus=1 genera=[2]", "genera"),
            ("handlebody genera=[2] genus=1", "genus"),
            ("handlebody genus=1 genus=2", "genus"),
            ("handlebody genus=1 weight=1 weight=2", "weight"),
            ("cap genus=1 twist_seed=1 twist_seed=1", "twist_seed"),
            ("twisted_cylinder genus=1 twist_length=2 twist_length=3", "twist_length"),
            ("composite(handlebody genus=1, cap genus=1 weight=1 weight=3)", "weight"),
        ],
    )
    def test_repeated_parameter_rejected(self, text, key):
        with pytest.raises(GeneratorSpecError) as exc:
            parse_generator_spec(text)
        assert str(exc.value) == f"generator parameter {key!r} sets a value already given"

    def test_list_elements_may_carry_whitespace(self):
        assert parse_generator_spec("twisted_cylinder genera=[ 1 , 2 ]").genera == (1, 2)

    def test_zero_twist_length_accepted(self):
        assert parse_generator_spec("twisted_cylinder genus=1 twist_length=0").twist_length == 0

    @pytest.mark.parametrize(
        "text",
        [
            "handlebody genus=33",
            "twisted_cylinder genera=[16,17]",
            "composite(handlebody genus=20, cap genus=13)",
            "disjoint_union(handlebody genus=16, handlebody genus=16, handlebody genus=1)",
        ],
    )
    def test_genera_past_the_text_limit_rejected(self, text):
        with pytest.raises(GeneratorSpecError) as exc:
            parse_generator_spec(text)
        assert str(exc.value) == "genera add up to 33, at most 32 allowed"

    def test_twist_length_past_the_limit_rejected(self):
        with pytest.raises(GeneratorSpecError) as exc:
            parse_generator_spec("cap genus=1 twist_seed=3 twist_length=1001")
        assert str(exc.value) == "twist_length must be at most 1000, got 1001"

    @pytest.mark.parametrize(
        "text",
        [
            "twisted_cylinder genus=32 twist_length=1000",
            "composite(handlebody genus=16, cap genus=16 twist_length=1000)",
            "disjoint_union(handlebody genera=[16], handlebody genera=[16])",
        ],
    )
    def test_sizes_at_the_limits_accepted(self, text):
        assert parse_generator_spec(text) is not None

    def test_limits_bound_text_not_plans(self):
        # sampled plans are built in memory, not read from text
        spec = GeneratorSpec("twisted_cylinder", genera=(40,), twist_length=2000)
        assert spec.genera == (40,) and spec.twist_length == 2000

    def test_combo_needs_children(self):
        with pytest.raises(GeneratorSpecError):
            GeneratorSpec("composite", children=(GeneratorSpec("cap", genera=(1,)),))


class TestRandomEvenMorphism:
    def test_deterministic(self):
        spec = parse_generator_spec("composite(handlebody genus=1, cap genus=1)")
        assert random_even_morphism(spec, 7) == random_even_morphism(spec, 7)

    def test_always_even_and_valid(self):
        specs = [
            "pseudo_cylinder genus=1",
            "twisted_cylinder genus=2",
            "handlebody genus=1",
            "composite(handlebody genus=2, pseudo_cylinder genus=2, cap genus=2)",
            "disjoint_union(handlebody genus=1, handlebody genus=1)",
        ]
        for text in specs:
            for seed in range(5):
                m = random_even_morphism(parse_generator_spec(text), seed)
                assert is_even(m).is_even
                assert validate(m) == []

    def test_cylinder_shape_weight_parity_matches_formula(self):
        # for cylinders evenness pins the weight to beta1/2 + dim(l + l') mod 2
        spec = parse_generator_spec("pseudo_cylinder genus=1")
        for seed in range(10):
            m = random_even_morphism(spec, seed)
            expected = (1 + (m.source.lagrangian + m.target.lagrangian).dim) % 2
            assert m.weight % 2 == expected

    def test_inconsistent_chain_rejected(self):
        spec = parse_generator_spec("composite(handlebody genus=1, handlebody genus=1)")
        with pytest.raises(GeneratorSpecError):
            random_even_morphism(spec, 0)

    def test_random_pairs_validate(self):
        for seed in range(10):
            m1, m2 = random_even_pair(seed)
            assert validate(m1) == [] and validate(m2) == []


class TestAbstractRecords:
    def test_always_validate(self):
        for seed in range(25):
            assert validate(random_abstract_morphism(seed)) == []

    def test_deterministic(self):
        assert random_abstract_morphism(3) == random_abstract_morphism(3)


class TestBuildFromObjects:
    def test_handlebody_from_declared_target(self):
        spec = parse_generator_spec("handlebody weight=1")
        m = build_from_objects(spec, empty_surface(), TORUS_E)
        assert m == handlebody(1, SPAN_E, 1)

    def test_cap_with_twist_seed_is_deterministic(self):
        spec = parse_generator_spec("cap weight=2 twist_seed=5")
        m1 = build_from_objects(spec, TORUS_E, empty_surface())
        m2 = build_from_objects(spec, TORUS_E, empty_surface())
        assert m1 == m2 and m1.weight == 2

    def test_pseudo_cylinder_takes_both_lagrangians(self):
        spec = parse_generator_spec("pseudo_cylinder weight=3")
        target = SurfaceObject((1,), SPAN_F)
        m = build_from_objects(spec, TORUS_E, target)
        assert m == pseudo_cylinder(TORUS_E, SPAN_F, 3)

    def test_composite_rejected_in_files(self):
        spec = parse_generator_spec("composite(handlebody genus=1, cap genus=1)")
        with pytest.raises(GeneratorSpecError):
            build_from_objects(spec, empty_surface(), empty_surface())

    def test_genera_consistency_checked(self):
        spec = parse_generator_spec("pseudo_cylinder genus=2")
        with pytest.raises(GeneratorSpecError) as exc:
            build_from_objects(spec, TORUS_E, TORUS_E)
        assert str(exc.value) == "pseudo_cylinder expects source genera (2,), object has (1,)"

    @pytest.mark.parametrize(
        "text, source, target, message",
        [
            ("cap genus=2", TORUS_E, empty_surface(), "cap expects source genera"),
            ("handlebody genus=2", empty_surface(), TORUS_E, "handlebody expects target genera"),
        ],
        ids=["cap", "handlebody"],
    )
    def test_genera_mismatch_names_the_checked_end(self, text, source, target, message):
        with pytest.raises(GeneratorSpecError) as exc:
            build_from_objects(parse_generator_spec(text), source, target)
        assert str(exc.value) == f"{message} (2,), object has (1,)"
