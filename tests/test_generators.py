import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evencob.cobordism import (
    SurfaceObject,
    compose,
    empty_surface,
    epsilon,
    evened,
    identity,
    is_even,
    pseudo_cylinder,
    push_forward,
    validate,
)
from evencob import symplectic
from evencob.cli import main
from evencob.errors import DimensionMismatchError, GeneratorSpecError, NotSymplecticError
from evencob.generators import (
    MAX_TEXT_WORK,
    GeneratorSpec,
    build_from_objects,
    cap,
    check_text_work,
    disjoint_union,
    format_generator_spec,
    handlebody,
    parse_generator_spec,
    _union_object,
    random_even_morphism,
    text_work,
    twisted_cylinder,
)
from evencob.linalg import RationalMatrix, Subspace, canonical_basis, kernel, map_subspace
from evencob.sampling import (
    random_abstract_even_pair,
    random_abstract_morphism,
    random_even_pair,
    random_shape,
)
from evencob.symplectic import SymplecticSpace, random_lagrangian, random_symplectic
from evencob.values import replace
from oracles import bench_oracle, calls_to, oracle_preserves_form

SPAN_E = canonical_basis([(1, 0)], 2)
SPAN_F = canonical_basis([(0, 1)], 2)
TORUS_E = SurfaceObject((1,), SPAN_E)
ROT = RationalMatrix([[0, -1], [1, 0]])


def standard_lagrangian(g):
    return canonical_basis(
        [tuple(1 if c == 2 * i else 0 for c in range(2 * g)) for i in range(g)], 2 * g
    )


def _accepted(build, *args) -> bool:
    try:
        build(*args)
    except NotSymplecticError:
        return False
    return True


def _drawn_twist(g: int, seed: int, rational: bool, off: bool) -> RationalMatrix:
    """A genus-g twist from a walk; with rational entries when asked (a scaling
    e_h -> a e_h, f_h -> f_h / a between two walks preserves the form); and,
    when asked, with one entry moved, which usually breaks the form."""
    rng = random.Random(seed)
    if not g:
        return RationalMatrix.identity(0)
    twist = random_symplectic(g, rng.getrandbits(32), rng.randrange(13))
    if rational:
        a = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(g)]
        scale = RationalMatrix(
            [[(a[i // 2] if i % 2 == 0 else 1 / a[i // 2]) if i == j else 0
              for j in range(2 * g)] for i in range(2 * g)]
        )
        twist = twist @ scale @ random_symplectic(g, rng.getrandbits(32), 4)
    rows = [list(twist.row(i)) for i in range(2 * g)]
    if off:
        i, j = rng.randrange(2 * g), rng.randrange(2 * g)
        rows[i][j] += Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3]))
    return RationalMatrix(rows)


def _oracle_symplectic(genera, twist: RationalMatrix) -> bool:
    columns = [twist.column(j) for j in range(twist.cols)]
    return oracle_preserves_form(bench_oracle.standard_gram(genera), columns)


class TestTwistedCylinder:
    def test_identity_twist_is_pseudo_cylinder(self):
        assert twisted_cylinder(TORUS_E, RationalMatrix.identity(2), SPAN_F, 3) == (
            pseudo_cylinder(TORUS_E, SPAN_F, 3)
        )

    def test_rotation_acts(self):
        m = twisted_cylinder(TORUS_E, ROT, SPAN_F, 0)
        assert push_forward(m, SPAN_E) == SPAN_F

    def test_always_validates(self):
        for seed in range(10):
            twist = random_symplectic(2, seed)
            obj = SurfaceObject((2,), standard_lagrangian(2))
            m = twisted_cylinder(obj, twist, standard_lagrangian(2), seed)
            assert validate(m) == []

    def test_rejects_non_symplectic(self):
        with pytest.raises(NotSymplecticError) as exc:
            twisted_cylinder(TORUS_E, RationalMatrix([[2, 0], [0, 2]]), SPAN_F, 0)
        assert str(exc.value) == "twist does not preserve the surface form"

    @given(
        st.sampled_from([(0,), (1,), (2,), (3,), (1, 1), (1, 2)]),
        st.integers(0, 2**32),
        st.booleans(),
        st.booleans(),
    )
    def test_form_check_matches_the_product(self, genera, seed, rational, off):
        # the oracle pairs the twist's columns under the surface form
        g = sum(genera)
        obj = SurfaceObject(genera, standard_lagrangian(g))
        twist = _drawn_twist(g, seed, rational, off)
        expected = _oracle_symplectic(genera, twist)
        assert _accepted(twisted_cylinder, obj, twist, obj.lagrangian, 0) == expected
        if len(genera) == 1:
            assert _accepted(cap, g, obj.lagrangian, 0, twist) == expected

    def test_form_check_draws_both_answers(self):
        answers = {True: 0, False: 0}
        for seed in range(40):
            g = 1 + seed % 3
            obj = SurfaceObject((g,), standard_lagrangian(g))
            twist = _drawn_twist(g, seed, seed % 4 < 2, seed % 2 == 0)
            answer = _oracle_symplectic((g,), twist)
            assert _accepted(twisted_cylinder, obj, twist, obj.lagrangian, 0) == answer
            answers[answer] += 1
        assert min(answers.values()) >= 15

    def test_target_map_is_the_inverse_twist(self):
        # -J A^T J against the inverse from elimination, on walks of genus 1-4,
        # lengths 0-60 and two-component genera
        rng = random.Random(13)
        for genera in ((1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3)):
            g = sum(genera)
            obj = SurfaceObject(genera, standard_lagrangian(g))
            for length in (0, 1, 2, 5, 20, 60):
                twist = random_symplectic(g, rng.getrandbits(32), length)
                m = twisted_cylinder(obj, twist, obj.lagrangian, 0)
                assert m.j_tgt_h1 == twist.inverse()
                assert m.j_tgt_h1 @ twist == RationalMatrix.identity(2 * g)

    def test_target_map_with_rational_twists(self):
        # e_h -> a e_h, f_h -> f_h / a preserves the form; between two walks
        # it gives twists with mixed denominators
        rng = random.Random(17)
        for genera in ((1,), (2,), (1, 1), (3,)):
            g = sum(genera)
            obj = SurfaceObject(genera, standard_lagrangian(g))
            for _ in range(6):
                a = [Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 7])) for _ in range(g)]
                scale = RationalMatrix(
                    [[(a[i // 2] if i % 2 == 0 else 1 / a[i // 2]) if i == j else 0
                      for j in range(2 * g)] for i in range(2 * g)]
                )
                twist = (
                    random_symplectic(g, rng.getrandbits(32), 8)
                    @ scale
                    @ random_symplectic(g, rng.getrandbits(32), 8)
                )
                m = twisted_cylinder(obj, twist, obj.lagrangian, 0)
                assert m.j_tgt_h1 == twist.inverse()
                assert validate(m) == []

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

    def test_union_object_is_already_canonical(self):
        rng = random.Random(19)
        objects = [empty_surface(), SurfaceObject((0,), Subspace.zero(0))]
        objects += [SurfaceObject((g,), random_lagrangian(g, rng)) for g in (1, 2, 3)]
        for a in objects:
            for b in objects:
                union = _union_object(a, b).lagrangian
                assert union == Subspace(union.basis)
                assert union.basis == Subspace(union.basis).basis
                assert union.dim == a.lagrangian.dim + b.lagrangian.dim

    def test_epsilon_is_not_additive(self):
        # each handlebody has epsilon 1, but so does their union
        m = handlebody(1, SPAN_E, 1)
        u = disjoint_union(m, m)
        assert epsilon(m) == 1 and epsilon(u) == 1


CAP = GeneratorSpec("cap")


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mystery genus=1", "unknown generator kind 'mystery'"),
            ("cap genus=1 color=3", "unknown generator parameter 'color'"),
            ("cap genus=1) extra", "trailing tokens in generator text: [')', 'extra']"),
            ("cap genus=1 ]", "cannot tokenize generator text at ' ]'"),
            ("cap genus=", "unexpected end of generator text"),
            ("composite(cap genus)", "expected '=', found ')'"),
            ("cap genera=1", "genera expects a bracketed list like [1,2]"),
            ("composite(cap genus=1)", "composite needs at least two children"),
        ],
        ids=[
            "unknown-kind",
            "unknown-parameter",
            "trailing-tokens",
            "untokenizable",
            "cut-short",
            "no-equals",
            "genera-not-a-list",
            "one-child",
        ],
    )
    def test_text_outside_the_grammar_is_an_input_error(self, capsys, text, message):
        with pytest.raises(GeneratorSpecError) as exc:
            parse_generator_spec(text)
        assert str(exc.value) == message
        code = main(["gen", "--spec", text])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("cap", {"children": (CAP, CAP)}, "cap takes no children"),
            (
                "composite",
                {"genera": (1,), "children": (CAP, CAP)},
                "composite takes only children",
            ),
            ("mystery", {}, "unknown generator kind 'mystery'"),
        ],
        ids=["atom-with-children", "combination-with-genera", "unknown-kind"],
    )
    def test_spec_kind_errors(self, kind, fields, message):
        with pytest.raises(GeneratorSpecError) as exc:
            GeneratorSpec(kind, **fields)
        assert str(exc.value) == message

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

    def test_negative_genus_in_a_spec_keeps_its_error(self):
        with pytest.raises(GeneratorSpecError, match=r"genera must be non-negative, got \(1, -2\)"):
            GeneratorSpec("handlebody", genera=[1, -2])

    @pytest.mark.parametrize(
        "genera", [(2.5,), (1.0,), ("\u0661",), ("2",), (False,)],
        ids=["float", "integral-float", "arabic-indic-text", "text", "bool"],
    )
    def test_genus_that_is_not_an_int_is_refused(self, genera):
        # int() would truncate 2.5 to 2 and read the Arabic-Indic one as 1
        with pytest.raises(TypeError, match="a genus must be an int, got"):
            GeneratorSpec("handlebody", genera=genera)

    def test_genera_become_a_tuple(self):
        assert GeneratorSpec("handlebody", genera=[2]).genera == (2,)

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
            "pseudo_cylinder genera=[\u0661]",
            "twisted_cylinder genera=[1,\uff12]",
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

    @pytest.mark.parametrize(
        "text",
        [
            "pseudo_cylinder genera=[" + ",".join(["0"] * 257) + "]",
            "twisted_cylinder genera=[" + ",".join(["0"] * 256 + ["1"]) + "]",
            "disjoint_union(identity genera=[" + ",".join(["0"] * 200) + "], "
            "identity genera=[" + ",".join(["0"] * 57) + "])",
        ],
    )
    def test_components_past_the_limit_rejected(self, text):
        with pytest.raises(GeneratorSpecError) as exc:
            parse_generator_spec(text)
        assert str(exc.value) == "genera have 257 components, at most 256 allowed"

    @pytest.mark.parametrize(
        "text",
        [
            "pseudo_cylinder genera=[" + ",".join(["0"] * 256) + "]",
            "disjoint_union(identity genera=[" + ",".join(["0"] * 200) + "], "
            "identity genera=[" + ",".join(["0"] * 56) + "])",
        ],
    )
    def test_components_at_the_limit_accepted(self, text):
        spec = parse_generator_spec(text)
        assert sum(len(c.genera) for c in (spec.children or (spec,))) == 256

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


class TestTextWork:
    @pytest.mark.parametrize(
        "text, work",
        [
            # G = 2: one atom of 20 steps costs 4 * (20 + 20)
            ("twisted_cylinder genus=2", 160),
            # G = 1, walks of 20, 100 and 20 steps: (20 + 20) + (20 + 120) + (20 + 140)
            ("composite(handlebody genus=1, twisted_cylinder twist_length=100, cap)", 340),
            # a union's children are built apart: 4 * (20 + 20) + 9 * (20 + 20)
            ("disjoint_union(handlebody genus=2, handlebody genus=3)", 4 * 40 + 9 * 40),
            ("pseudo_cylinder genera=[0,0,0]", 0),
        ],
    )
    def test_the_estimate(self, text, work):
        assert text_work(parse_generator_spec(text)) == work

    def test_sampled_plans_are_within_the_budget(self):
        rng = random.Random(5)
        for genus_max in (1, 2, 3, 4):
            for _ in range(500):
                assert text_work(random_shape(rng, None, genus_max)) <= MAX_TEXT_WORK

    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_a_union_costs_what_its_children_cost(self, seed, genus_max):
        rng = random.Random(seed)
        a, b = random_shape(rng, None, genus_max), random_shape(rng, None, genus_max)
        union = GeneratorSpec("disjoint_union", children=(a, b))
        assert text_work(union) == text_work(a) + text_work(b)

    def test_refusal_is_a_spec_error(self):
        check_text_work(parse_generator_spec("twisted_cylinder genus=32 twist_length=1000"))
        chain = "composite(twisted_cylinder genus=32" + ", twisted_cylinder" * 39 + ")"
        with pytest.raises(GeneratorSpecError, match="asks for about 17612800 units of work"):
            check_text_work(parse_generator_spec(chain))


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

    @pytest.mark.parametrize("genus_max", range(1, 5))
    def test_pairs_validate_through_the_source_path(self, genus_max):
        # the proof that the sampler's records are realizable: m2 is drawn on
        # m1's target through `source=`, and 25 seeds draw every genus up to
        # the cap as well as empty ends
        drawn = set()
        for seed in range(25):
            m1, m2 = random_abstract_even_pair(seed, genus_max)
            assert m2.source == m1.target
            assert validate(m1) == validate(m2) == [], seed
            drawn |= {m1.source.genera, m1.target.genera, m2.target.genera}
        assert drawn == {()} | {(g,) for g in range(1, genus_max + 1)}


def _handle_swap(src_handles: int, n: int) -> RationalMatrix:
    """The permutation matrix swapping e_h and f_h in the first src_handles handles."""
    rows = [[0] * n for _ in range(n)]
    for h in range(src_handles):
        rows[2 * h][2 * h + 1] = rows[2 * h + 1][2 * h] = 1
    for c in range(2 * src_handles, n):
        rows[c][c] = 1
    return RationalMatrix(rows)


@pytest.mark.parametrize("genus_max", range(1, 5))
def test_abstract_boundary_kernel_is_the_swapped_walk(monkeypatch, genus_max):
    # the boundary kernel, read off the record as ker(j_src_h1 | j_tgt_h1), is
    # the walked standard Lagrangian with e_h and f_h swapped in every source
    # handle
    from evencob import sampling

    walk, seen = sampling._lagrangian_rows, {}

    def rows(g, rng, *args):
        seen["rng"] = random.Random()
        seen["rng"].setstate(rng.getstate())
        return walk(g, rng, *args)

    monkeypatch.setattr(sampling, "_lagrangian_rows", rows)
    ends = set()
    for seed in range(200):
        seen.clear()
        m = random_abstract_morphism(seed, genus_max)
        boundary_kernel = kernel(m.j_src_h1.hstack(m.j_tgt_h1))
        src, total = sum(m.source.genera), sum(m.source.genera) + sum(m.target.genera)
        ends.add((src > 0, total > src))
        if total == 0:
            assert "rng" not in seen and boundary_kernel.basis == Subspace.zero(0).basis
            continue
        standard = random_lagrangian(total, seen["rng"])
        expected = map_subspace(_handle_swap(src, 2 * total), standard)
        assert boundary_kernel.basis == expected.basis, seed
    assert ends == {(False, False), (False, True), (True, False), (True, True)}


def test_evened_is_even_for_both_weight_parities():
    # the proof that random_even_morphism and the abstract pairs are even:
    # evenness constrains only the weight parity, which evened fixes
    built = [m for seed in range(10) for m in random_even_pair(seed)]
    records = built + [random_abstract_morphism(seed, 3) for seed in range(10)]
    for m in records:
        for shift in (0, 1):
            shifted = replace(m, weight=m.weight + shift)
            fixed = evened(shifted)
            assert is_even(fixed).is_even
            assert fixed.weight - shifted.weight in (0, 1)
            assert replace(fixed, weight=m.weight) == m


def _drawn_by_hand(kind: str, seed: int):
    """A genus-2 atom with nothing given, drawn in the documented order."""
    rng = random.Random(seed)
    if kind == "handlebody":
        return handlebody(2, random_lagrangian(2, rng), rng.randrange(-4, 5))
    source = SurfaceObject((2,), random_lagrangian(2, rng))
    if kind == "identity":
        return identity(source)
    if kind == "pseudo_cylinder":
        return pseudo_cylinder(source, random_lagrangian(2, rng), rng.randrange(-4, 5))
    if kind == "twisted_cylinder":
        twist = random_symplectic(2, rng.getrandbits(32))
        return twisted_cylinder(source, twist, random_lagrangian(2, rng), rng.randrange(-4, 5))
    weight = rng.randrange(-4, 5)
    return cap(2, source.lagrangian, weight, random_symplectic(2, rng.getrandbits(32)))


@pytest.mark.parametrize(
    "kind", ["identity", "pseudo_cylinder", "twisted_cylinder", "handlebody", "cap"]
)
def test_atoms_draw_in_the_documented_order(kind):
    # the order of draws is the seed contract: reordering them changes every record
    spec = GeneratorSpec(kind, genera=(2,))
    for seed in range(4):
        assert random_even_morphism(spec, seed) == evened(_drawn_by_hand(kind, seed))


GENUS_TWO = SurfaceObject((2,), random_lagrangian(2, 1))
GENUS_TWO_OTHER = SurfaceObject((2,), random_lagrangian(2, 2))


@pytest.fixture
def check_calls(monkeypatch):
    """The Lagrangian and twist tests run while the fixture is live, by name."""
    return {
        "is_lagrangian": calls_to(monkeypatch, SymplecticSpace, "is_lagrangian"),
        "preserves_standard_form": calls_to(monkeypatch, symplectic, "preserves_standard_form"),
    }


class TestBuildFromObjects:
    @pytest.mark.parametrize(
        "text, source, target",
        [
            ("identity", GENUS_TWO, GENUS_TWO),
            ("pseudo_cylinder weight=1", GENUS_TWO, GENUS_TWO_OTHER),
            ("twisted_cylinder", GENUS_TWO, GENUS_TWO_OTHER),
            ("twisted_cylinder twist_seed=7", GENUS_TWO, GENUS_TWO_OTHER),
            ("handlebody weight=1", empty_surface(), GENUS_TWO),
            ("cap", GENUS_TWO, empty_surface()),
            ("cap twist_seed=7", GENUS_TWO, empty_surface()),
        ],
        ids=[
            "identity",
            "pseudo_cylinder",
            "twisted_cylinder",
            "twisted_cylinder-seeded",
            "handlebody",
            "cap",
            "cap-seeded",
        ],
    )
    def test_given_objects_and_walk_twists_are_not_tested_again(
        self, check_calls, text, source, target
    ):
        # the objects' Lagrangians were tested when they were built, and the
        # walk preserves the form by construction
        m = build_from_objects(parse_generator_spec(text), source, target)
        assert check_calls == {"is_lagrangian": [], "preserves_standard_form": []}
        assert (m.source, m.target) == (source, target)

    def test_public_constructors_test_what_they_are_passed(self, check_calls):
        # and the counters see both tests, so the empty counts above are not vacuous
        twist = random_symplectic(2, 7)
        for build in (
            lambda: twisted_cylinder(GENUS_TWO, twist, GENUS_TWO_OTHER.lagrangian, 0),
            lambda: cap(2, GENUS_TWO.lagrangian, 0, twist),
        ):
            for calls in check_calls.values():
                calls.clear()
            build()
            assert all(check_calls.values())

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
