import pytest

from evencob.errors import (
    DimensionMismatchError,
    FileSyntaxError,
    GeneratorSpecError,
    NonSkewFormError,
    NotLagrangianError,
    UnknownNameError,
)
from evencob.formats import (
    Pipeline,
    parse_pipeline,
    parse_rational,
    parse_scenario,
    pipeline_for_morphism,
    serialize_pipeline,
    serialize_scenario,
)
from evencob.generators import disjoint_union, handlebody
from evencob.linalg import canonical_basis
from evencob.sampling import random_even_pair
from evencob.symplectic import standard_surface_space

GENUS_ONE_SSF = """\
# genus-1 standard form with the transverse triple
form 2
0 1
-1 0
subspace L1 1
1 0
subspace L2 1
0 1
subspace L3 1
1 1
triple L1 L2 L3
"""

HANDLEBODY_CAP_CBF = """\
object E genera
lagrangian 0
object T genera 1
lagrangian 1
1 0
morphism H E T weight 1 h1 1 h0 1
jsrc_h1
jtgt_h1
1 0
jsrc_h0
jtgt_h0
1
generator K T E cap weight=1
"""


class TestScenarioParsing:
    def test_genus_one_fixture(self):
        s = parse_scenario(GENUS_ONE_SSF)
        assert s.space == standard_surface_space((1,))
        assert set(s.named_subspaces) == {"L1", "L2", "L3"}
        assert s.queries == (("L1", "L2", "L3"),)

    def test_empty_file_is_valid(self):
        s = parse_scenario("")
        assert s.space.dim == 0
        assert not s.named_subspaces and not s.queries

    def test_comments_and_blank_lines_ignored(self):
        s = parse_scenario("# nothing\n\nform 1\n0  # trailing comment\n")
        assert s.space.dim == 1

    def test_non_skew_form_names_entry(self):
        text = "form 2\n0 1\n1 0\n"
        with pytest.raises(NonSkewFormError, match=r"line 1: .*gram\[0\]\[1\]"):
            parse_scenario(text)

    def test_dangling_triple_name(self):
        text = GENUS_ONE_SSF + "triple L1 L2 MISSING\n"
        with pytest.raises(UnknownNameError, match="MISSING"):
            parse_scenario(text)

    def test_wrong_row_width_is_dimension_error(self):
        text = "form 2\n0 1\n-1 0\nsubspace A 1\n1 0 0\n"
        with pytest.raises(DimensionMismatchError):
            parse_scenario(text)

    def test_unknown_statement(self):
        with pytest.raises(FileSyntaxError, match="line 1"):
            parse_scenario("surface 2\n")

    def test_duplicate_form(self):
        with pytest.raises(FileSyntaxError, match="duplicate"):
            parse_scenario("form 1\n0\nform 1\n0\n")

    def test_subspace_before_form(self):
        with pytest.raises(FileSyntaxError, match="before the form"):
            parse_scenario("subspace A 0\n")

    def test_float_tokens_rejected(self):
        with pytest.raises(FileSyntaxError):
            parse_scenario("form 1\n0.5\n")

    def test_dependent_rows_are_canonicalized(self):
        text = "form 2\n0 1\n-1 0\nsubspace A 2\n1 0\n2 0\n"
        s = parse_scenario(text)
        assert s.named_subspaces["A"].dim == 1


class TestScenarioRoundTrip:
    def test_fixture_round_trip(self):
        s = parse_scenario(GENUS_ONE_SSF)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_empty_round_trip(self):
        s = parse_scenario("")
        assert parse_scenario(serialize_scenario(s)) == s

    def test_rational_entries_round_trip(self):
        text = "form 2\n0 2/3\n-2/3 0\nsubspace A 1\n1 -5/7\n"
        s = parse_scenario(text)
        assert parse_scenario(serialize_scenario(s)) == s


class TestPipelineParsing:
    def test_fixture(self):
        p = parse_pipeline(HANDLEBODY_CAP_CBF)
        assert set(p.objects) == {"E", "T"}
        assert [e.name for e in p.entries] == ["H", "K"]
        assert p.entries[0].morphism == handlebody(1, canonical_basis([(1, 0)], 2), 1)

    def test_undeclared_object(self):
        text = "object E genera\nlagrangian 0\ngenerator K T E cap\n"
        with pytest.raises(UnknownNameError, match="T"):
            parse_pipeline(text)

    def test_non_lagrangian_object(self):
        text = "object T genera 1\nlagrangian 2\n1 0\n0 1\n"
        with pytest.raises(NotLagrangianError, match="line 1"):
            parse_pipeline(text)

    def test_block_order_enforced(self):
        text = (
            "object E genera\nlagrangian 0\nobject T genera 1\nlagrangian 1\n1 0\n"
            "morphism H E T weight 1 h1 1 h0 1\njtgt_h1\n1 0\n"
        )
        with pytest.raises(FileSyntaxError, match="jsrc_h1"):
            parse_pipeline(text)

    def test_morphism_shape_mismatch(self):
        text = (
            "object E genera\nlagrangian 0\nobject T genera 1\nlagrangian 1\n1 0\n"
            "morphism H E T weight 1 h1 2 h0 1\njsrc_h1\njtgt_h1\n1 0\njsrc_h0\njtgt_h0\n1\n"
        )
        with pytest.raises(DimensionMismatchError):
            parse_pipeline(text)

    def test_duplicate_object_name(self):
        text = "object E genera\nlagrangian 0\nobject E genera\nlagrangian 0\n"
        with pytest.raises(FileSyntaxError, match="duplicate"):
            parse_pipeline(text)

    def test_non_composable_chain_rejected(self):
        from evencob.errors import LagrangianMismatchError

        text = (
            "object E genera\nlagrangian 0\n"
            "object T genera 1\nlagrangian 1\n1 0\n"
            "object U genera 1\nlagrangian 1\n0 1\n"
            "generator H E T handlebody weight=1\n"
            "generator K U E cap weight=1\n"
        )
        with pytest.raises(LagrangianMismatchError, match="line 10"):
            parse_pipeline(text)

    def test_genera_chain_mismatch_rejected(self):
        from evencob.errors import GeneraMismatchError

        text = (
            "object E genera\nlagrangian 0\n"
            "object T genera 1\nlagrangian 1\n1 0\n"
            "object G2 genera 2\nlagrangian 2\n1 0 0 0\n0 0 1 0\n"
            "generator H E T handlebody weight=1\n"
            "generator K G2 E cap weight=1\n"
        )
        with pytest.raises(GeneraMismatchError):
            parse_pipeline(text)


class TestPipelineRoundTrip:
    def test_fixture_round_trip(self):
        p = parse_pipeline(HANDLEBODY_CAP_CBF)
        assert parse_pipeline(serialize_pipeline(p)) == p

    def test_random_morphisms_round_trip(self):
        from evencob.formats import PipelineEntry

        for seed in range(6):
            m1, m2 = random_even_pair(seed)
            objects = {"a": m1.source, "b": m1.target, "c": m2.target}
            p = Pipeline(
                objects,
                (PipelineEntry("m1", "a", "b", m1), PipelineEntry("m2", "b", "c", m2)),
            )
            assert parse_pipeline(serialize_pipeline(p)) == p

    def test_multi_component_round_trip(self):
        u = disjoint_union(
            handlebody(1, canonical_basis([(1, 0)], 2), 1),
            handlebody(2, canonical_basis([(1, 0, 0, 0), (0, 0, 1, 0)], 4), 0),
        )
        p = pipeline_for_morphism(u)
        assert parse_pipeline(serialize_pipeline(p)) == p


class TestParserRobustness:
    # mutated input must parse or raise a package error, never crash otherwise

    def _mutations(self, text, rng, count):
        lines = text.splitlines()
        for _ in range(count):
            mutated = list(lines)
            op = rng.randrange(4)
            idx = rng.randrange(len(mutated))
            if op == 0:
                del mutated[idx]
            elif op == 1:
                mutated.insert(idx, rng.choice(["garbage", "form x", "1 2 3", "triple A", ""]))
            elif op == 2:
                mutated[idx] = mutated[idx].replace("1", rng.choice(["x", "1.5", "-", "9"]), 1)
            else:
                mutated[idx], mutated[idx - 1] = mutated[idx - 1], mutated[idx]
            yield "\n".join(mutated) + "\n"

    def test_scenario_mutations(self):
        import random

        from evencob.errors import EvencobError

        rng = random.Random(2024)
        for mutated in self._mutations(GENUS_ONE_SSF, rng, 300):
            try:
                parse_scenario(mutated)
            except EvencobError:
                pass

    def test_pipeline_mutations(self):
        import random

        from evencob.errors import EvencobError

        rng = random.Random(2025)
        for mutated in self._mutations(HANDLEBODY_CAP_CBF, rng, 300):
            try:
                parse_pipeline(mutated)
            except EvencobError:
                pass


def test_parse_rational_accepts_only_exact_tokens():
    from fractions import Fraction

    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-4/5") == Fraction(-4, 5)
    for bad in ("1.5", "1/0", "1e3", "/2", "x"):
        with pytest.raises(FileSyntaxError):
            parse_rational(bad)


@pytest.mark.parametrize("token", ["--2", "\u00b2", "-", "+2", "2_0", "2.0"])
@pytest.mark.parametrize(
    "template",
    ["form {}\n", "object E genera {}\nlagrangian 0\n", "object E genera\nlagrangian {}\n"],
    ids=["form", "genus", "lagrangian"],
)
def test_malformed_counts_are_syntax_errors(template, token):
    text = template.format(token)
    parse = parse_scenario if text.startswith("form") else parse_pipeline
    with pytest.raises(FileSyntaxError) as exc:
        parse(text)
    assert str(exc.value).startswith("line ")
    assert f"must be an integer, found {token!r}" in str(exc.value)


@pytest.mark.parametrize("token", ["2", "02", "\u0662"])
def test_count_tokens_keep_their_value(token):
    assert parse_scenario(f"form {token}\n0 1\n-1 0\n").space.dim == 2
    text = f"object T genera {token}\nlagrangian 2\n1 0 0 0\n0 0 1 0\n"
    assert parse_pipeline(text).objects["T"].genera == (2,)


def test_negative_count_is_rejected():
    with pytest.raises(FileSyntaxError, match="line 1: form dimension must be non-negative"):
        parse_scenario("form -3\n")


@pytest.mark.parametrize("token", ["1_0", "+1", "--1", "-", "1.0", "\u00b2"])
def test_malformed_weights_are_syntax_errors(token):
    text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight {token} h1")
    with pytest.raises(FileSyntaxError) as exc:
        parse_pipeline(text)
    assert str(exc.value) == f"line 6: weight must be an integer, found {token!r}"


@pytest.mark.parametrize("token, value", [("1", 1), ("-3", -3), ("0", 0), ("07", 7), ("-\u0662", -2)])
def test_weight_tokens_keep_their_value(token, value):
    text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight {token} h1")
    pipeline = parse_pipeline(text)
    assert pipeline.entries[0].morphism.weight == value
    assert parse_pipeline(serialize_pipeline(pipeline)) == pipeline


@pytest.mark.parametrize("params", ["weight=1 weight=3", "genus=1 genera=[1]"])
def test_repeated_generator_parameter_names_its_line(params):
    text = HANDLEBODY_CAP_CBF.replace("cap weight=1", f"cap {params}")
    with pytest.raises(GeneratorSpecError) as exc:
        parse_pipeline(text)
    assert str(exc.value).startswith("line 13: generator parameter ")
    assert str(exc.value).endswith(" sets a value already given")


@pytest.mark.parametrize("genera", ["33", "16 17", "1 0 32"])
def test_object_genera_past_the_limit_rejected(genera):
    text = "object E genera\nlagrangian 0\n" + f"object A genera {genera}\nlagrangian 0\n"
    with pytest.raises(FileSyntaxError) as exc:
        parse_pipeline(text)
    assert str(exc.value) == "line 3: genera add up to 33, at most 32 allowed"


@pytest.mark.parametrize("genera", ["32", "16 16"])
def test_object_genera_at_the_limit_accepted(genera):
    # span{f_1..f_32} of the standard form
    rows = [" ".join("1" if c == 2 * i + 1 else "0" for c in range(64)) for i in range(32)]
    text = "\n".join([f"object A genera {genera}", "lagrangian 32", *rows]) + "\n"
    assert parse_pipeline(text).objects["A"].genera == tuple(map(int, genera.split()))


BODY_ONLY_CBF = """\
object E genera
lagrangian 0
morphism m E E weight 0 h1 {h1} h0 {h0}
jsrc_h1
jtgt_h1
jsrc_h0
jtgt_h0
"""


@pytest.mark.parametrize("label", ["h1", "h0"])
def test_body_dimension_past_the_limit_rejected(label):
    dims = {"h1": 0, "h0": 0, label: 257}
    with pytest.raises(FileSyntaxError) as exc:
        parse_pipeline(BODY_ONLY_CBF.format(**dims))
    assert str(exc.value) == f"line 3: {label} dimension must be at most 256, found 257"


def test_body_dimensions_at_the_limit_accepted():
    morphism = parse_pipeline(BODY_ONLY_CBF.format(h1=256, h0=256)).entries[0].morphism
    assert (morphism.h1_dim, morphism.h0_dim) == (256, 256)


def test_generator_text_limits_name_the_line():
    text = HANDLEBODY_CAP_CBF.replace("cap weight=1", "cap weight=1 twist_length=1001")
    with pytest.raises(GeneratorSpecError) as exc:
        parse_pipeline(text)
    assert str(exc.value) == "line 13: twist_length must be at most 1000, got 1001"
