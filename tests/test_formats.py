from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evencob import formats
from evencob.cli import main
from evencob.cobordism import CobordismMorphism, empty_surface
from evencob.errors import (
    DimensionMismatchError,
    EvencobError,
    FileSyntaxError,
    GeneratorSpecError,
    NonSkewFormError,
    NotLagrangianError,
    UnknownNameError,
)
from evencob.formats import (
    MAX_NUMBER_DIGITS,
    Pipeline,
    _read_row,
    parse_pipeline,
    parse_rational,
    parse_scenario,
    pipeline_for_morphism,
    serialize_pipeline,
    serialize_scenario,
)
from evencob.generators import disjoint_union, handlebody, parse_generator_spec
from evencob.linalg import RationalMatrix, Subspace, canonical_basis
from evencob.sampling import random_even_pair
from evencob.symplectic import random_lagrangian, standard_surface_space
from oracles import BENCH, calls_to, reference_parse_rational

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


ONE_OBJECT_CBF = "object T genera 1\nlagrangian 1\n1 0\n"
ONE_MORPHISM_CBF = ONE_OBJECT_CBF + "morphism m T T weight 0 h1 1 h0 1\njsrc_h1\n1 0\n"

# files each reader refuses, with the full message, which `maslov --in`
# (.ssf) or `even --in` (.cbf) prints with exit 2; a file that ends inside a
# statement names its last non-empty line
MALFORMED_FILES = {
    "ssf-form-usage": ("form\n", "line 1: usage: form <n>"),
    "ssf-subspace-usage": ("form 0\nsubspace A\n", "line 2: usage: subspace <name> <rows>"),
    "ssf-duplicate-subspace": (
        "form 0\nsubspace A 0\nsubspace A 0\n",
        "line 3: duplicate subspace name 'A'",
    ),
    "ssf-end-in-form": (
        "form 2\n0 1\n\n# the second row is missing\n",
        "line 2: unexpected end of file, expected a form row",
    ),
    "ssf-end-in-subspace": (
        "form 2\n0 1\n-1 0\nsubspace A 1\n",
        "line 4: unexpected end of file, expected a row of subspace A",
    ),
    "cbf-object-usage": ("object E\n", "line 1: usage: object <name> genera <g1> <g2> ..."),
    "cbf-morphism-usage": (
        ONE_OBJECT_CBF + "morphism m T T weight 0\n",
        "line 4: usage: morphism <name> <src> <dst> weight <w> h1 <n> h0 <m>",
    ),
    "cbf-generator-usage": (
        ONE_OBJECT_CBF + "generator g T T\n",
        "line 4: usage: generator <name> <src> <dst> <generator text>",
    ),
    "cbf-end-before-lagrangian": (
        "object T genera 1\n",
        "line 1: unexpected end of file, expected lagrangian",
    ),
    "cbf-end-in-lagrangian": (
        "object T genera 1\nlagrangian 1\n",
        "line 2: unexpected end of file, expected a lagrangian row of T",
    ),
    "cbf-end-before-block": (
        ONE_MORPHISM_CBF,
        "line 6: unexpected end of file, expected jtgt_h1",
    ),
    "cbf-end-in-block": (
        ONE_MORPHISM_CBF + "jtgt_h1\n",
        "line 7: unexpected end of file, expected a row of jtgt_h1",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_files_are_line_numbered_input_errors(capsys, tmp_path, case):
    text, message = MALFORMED_FILES[case]
    kind = case.partition("-")[0]
    parse, command = (parse_scenario, "maslov") if kind == "ssf" else (parse_pipeline, "even")
    with pytest.raises(EvencobError) as exc:
        parse(text)
    assert str(exc.value) == message
    path = tmp_path / f"malformed.{kind}"
    path.write_text(text)
    code = main([command, "--in", str(path)])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("token", ["\u0661", "-\u0661", "\u0661/2", "1/\u0662", "\uff19"])
def test_rationals_take_ascii_digits_only(token):
    # other scripts' decimal digits would otherwise read "0 \u0661" as "0 1"
    with pytest.raises(FileSyntaxError) as exc:
        parse_scenario(f"form 2\n0 {token}\n-1 0\n")
    assert str(exc.value) == f"line 2: not a rational (p/q or integer): {token!r}"


@pytest.mark.parametrize("token", ["--2", "\u00b2", "-", "+2", "2_0", "2.0", "\u0662"])
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


@pytest.mark.parametrize("token", ["2", "02"])
def test_count_tokens_keep_their_value(token):
    assert parse_scenario(f"form {token}\n0 1\n-1 0\n").space.dim == 2
    text = f"object T genera {token}\nlagrangian 2\n1 0 0 0\n0 0 1 0\n"
    assert parse_pipeline(text).objects["T"].genera == (2,)


def test_negative_count_is_rejected():
    with pytest.raises(FileSyntaxError, match="line 1: form dimension must be non-negative"):
        parse_scenario("form -3\n")


@pytest.mark.parametrize("token", ["1_0", "+1", "--1", "-", "1.0", "\u00b2", "-\u0662"])
def test_malformed_weights_are_syntax_errors(token):
    text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight {token} h1")
    with pytest.raises(FileSyntaxError) as exc:
        parse_pipeline(text)
    assert str(exc.value) == f"line 6: weight must be an integer, found {token!r}"


@pytest.mark.parametrize("token, value", [("1", 1), ("-3", -3), ("0", 0), ("07", 7)])
def test_weight_tokens_keep_their_value(token, value):
    text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight {token} h1")
    pipeline = parse_pipeline(text)
    assert pipeline.entries[0].morphism.weight == value
    assert parse_pipeline(serialize_pipeline(pipeline)) == pipeline


def _not_an_integer(token: str) -> tuple[str, str]:
    return token, f"weight must be an integer, found {token!r}"


# ASCII digits, other-script digits (rejected), signs, junk and the digit bound
INTEGER_TOKENS = {
    "ascii": ("7", 7),
    "negative": ("-3", -3),
    "leading-zeros": ("007", 7),
    "arabic-indic": _not_an_integer("\u0661\u0662"),
    "arabic-indic-negative": _not_an_integer("-\u0662"),
    "fullwidth": _not_an_integer("\uff19"),
    "1000-digits": ("9" * 1000, int("9" * 1000)),
    "double-minus": _not_an_integer("--1"),
    "plus": _not_an_integer("+1"),
    "underscore": _not_an_integer("1_0"),
    "superscript": _not_an_integer("\u00b2"),
    "letters": _not_an_integer("abc"),
    "1001-digits": ("9" * 1001, "weight has 1001 digits, at most 1000 allowed"),
    "negative-1001-digits": ("-" + "9" * 1001, "weight has 1001 digits, at most 1000 allowed"),
}


@pytest.mark.parametrize("case", sorted(INTEGER_TOKENS))
def test_both_grammars_read_an_integer_token_alike(case):
    """The same value, or the same message after the file's line prefix."""
    token, expected = INTEGER_TOKENS[case]
    try:
        from_text = parse_generator_spec(f"cap genus=1 weight={token}").weight
    except GeneratorSpecError as exc:
        from_text = str(exc)
    try:
        text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight {token} h1")
        from_file = parse_pipeline(text).entries[0].morphism.weight
    except FileSyntaxError as exc:
        from_file = str(exc).removeprefix("line 6: ")
    assert from_text == from_file == expected


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


SPHERES_CBF = "object E genera\nlagrangian 0\nobject S genera {}\nlagrangian 0\n"


def test_object_components_past_the_limit_rejected():
    with pytest.raises(FileSyntaxError) as exc:
        parse_pipeline(SPHERES_CBF.format(" ".join(["0"] * 257)))
    assert str(exc.value) == "line 3: genera have 257 components, at most 256 allowed"


def test_object_components_at_the_limit_accepted():
    pipeline = parse_pipeline(SPHERES_CBF.format(" ".join(["0"] * 256)))
    assert pipeline.objects["S"].genera == (0,) * 256


def _spheres_generator(count: int) -> str:
    spheres = ",".join(["0"] * count)
    return SPHERES_CBF.format(" ".join(["0"] * 256)) + (
        f"generator g S S pseudo_cylinder genera=[{spheres}]\n"
    )


def test_generator_components_past_the_limit_name_the_line():
    with pytest.raises(GeneratorSpecError) as exc:
        parse_pipeline(_spheres_generator(257))
    assert str(exc.value) == "line 5: genera have 257 components, at most 256 allowed"


def test_generator_components_at_the_limit_accepted():
    morphism = parse_pipeline(_spheres_generator(256)).entries[0].morphism
    assert morphism.source.genera == (0,) * 256


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


def _body_only_morphism(h1, h0):
    e = empty_surface()
    blocks = (RationalMatrix.zeros(h1, 0),) * 2 + (RationalMatrix.zeros(h0, 0),) * 2
    return CobordismMorphism(e, e, 0, h1, h0, *blocks)


@pytest.mark.parametrize("label", ["h1", "h0"])
def test_body_dimension_past_the_limit_not_written(label):
    # the writer refuses what the reader refuses, and what it writes reads back
    dims = {"h1": 256, "h0": 256, label: 257}
    with pytest.raises(EvencobError) as exc:
        serialize_pipeline(pipeline_for_morphism(_body_only_morphism(**dims)))
    assert str(exc.value) == f"the {label} dimension of entry 'm' is 257, at most 256 allowed"
    at_limit = pipeline_for_morphism(_body_only_morphism(256, 256))
    assert parse_pipeline(serialize_pipeline(at_limit)) == at_limit


def test_generator_text_limits_name_the_line():
    text = HANDLEBODY_CAP_CBF.replace("cap weight=1", "cap weight=1 twist_length=1001")
    with pytest.raises(GeneratorSpecError) as exc:
        parse_pipeline(text)
    assert str(exc.value) == "line 13: twist_length must be at most 1000, got 1001"


LONG_NUMBER_SSF = "form 2\n0 1\n-1 0\nsubspace L 1\n{} 0\n"


@pytest.mark.parametrize(
    "text, parse, message",
    [
        (LONG_NUMBER_SSF.format("9" * 5000), parse_scenario, "line 5: an integer has 5000 digits"),
        (
            LONG_NUMBER_SSF.format("1/1" + "0" * 4300),
            parse_scenario,
            "line 5: a denominator has 4301 digits",
        ),
        ("form " + "9" * 5000 + "\n", parse_scenario, "line 1: form dimension has 5000 digits"),
        (
            HANDLEBODY_CAP_CBF.replace("weight 1 h1", "weight " + "9" * 5000 + " h1"),
            parse_pipeline,
            "line 6: weight has 5000 digits",
        ),
        (LONG_NUMBER_SSF.format("9" * 1001), parse_scenario, "line 5: an integer has 1001 digits"),
        (
            LONG_NUMBER_SSF.format("-1" + "0" * 1000 + "/3"),
            parse_scenario,
            "line 5: a numerator has 1001 digits",
        ),
    ],
    ids=["entry", "denominator", "form", "weight", "entry-1001", "numerator-1001"],
)
def test_numbers_past_the_digit_limit_rejected(text, parse, message):
    with pytest.raises(FileSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"{message}, at most {MAX_NUMBER_DIGITS} allowed"


def test_numbers_at_the_digit_limit_accepted():
    from fractions import Fraction

    limit = "9" * MAX_NUMBER_DIGITS
    other = limit[:-1] + "8"
    assert parse_rational(f"-{limit}/{other}") == Fraction(-int(limit), int(other))
    assert parse_scenario("form " + "0" * (MAX_NUMBER_DIGITS - 1) + "2\n0 1\n-1 0\n").space.dim == 2
    scenario = parse_scenario(LONG_NUMBER_SSF.format(f"{limit}/7"))
    assert scenario.named_subspaces["L"].dim == 1
    text = HANDLEBODY_CAP_CBF.replace("weight 1 h1", f"weight -{limit} h1")
    assert parse_pipeline(text).entries[0].morphism.weight == -int(limit)


# decimal digits in four scripts: int() and Fraction() read them all, a file only ASCII
_DIGITS = "0123456789٠١٢٩０１９०१९"


@st.composite
def _digit_runs(draw):
    # short runs, and runs at and around the digit limit
    length = draw(st.one_of(st.integers(0, 5), st.sampled_from([999, 1000, 1001])))
    head = draw(st.text(alphabet=_DIGITS, max_size=min(length, 4)))
    return head + draw(st.sampled_from(_DIGITS)) * (length - len(head))


@st.composite
def _number_tokens(draw):
    token = draw(st.sampled_from(["", "", "+", "-", "+-", "--"])) + draw(_digit_runs())
    if draw(st.booleans()):
        # a denominator may not start with 0 or a digit outside ASCII
        token += "/" + draw(st.sampled_from("1234567890١")) + draw(_digit_runs())
    junk = draw(st.sampled_from(["", "", "", "", ".", "e", "_", "x", " ", "\n", "/"]))
    at = draw(st.integers(0, len(token)))
    return token[:at] + junk + token[at:]


def _read_outcome(reader, token):
    try:
        return "value", reader(token, 7)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)


@settings(max_examples=400)
@given(_number_tokens())
def test_parse_rational_matches_the_fraction_reader(token):
    assert _read_outcome(parse_rational, token) == _read_outcome(reference_parse_rational, token)


@pytest.mark.parametrize(
    "token",
    [
        "0", "-0", "+0", "-0/7", "0/3", "007", "-007/014", "6/4", "-6/4", "+6/4", "12/36",
        "٣/٦", "1/1٠", "-９９/3", "०१", "5\n", "5/10\n",
        "9" * 1000, "9" * 1001, "1/" + "9" * 1000, "1/" + "9" * 1001,
        "-" + "9" * 1000 + "/" + "7" * 1000, "-" + "9" * 1001 + "/7", "7/" + "1" + "0" * 1000,
        "1/0", "1/01", "1/١", "1.5", "1e3", "/2", "", "+-1", "1_0", " 1", "1 ", "²",
    ],
)
def test_parse_rational_fixtures_match_the_fraction_reader(token):
    assert _read_outcome(parse_rational, token) == _read_outcome(reference_parse_rational, token)


# integers with and without a sign, at and past the digit limit, and the
# near misses around them
_LONG = "7" * MAX_NUMBER_DIGITS
SIGNED_INTEGER_TOKENS = [
    "0", "007", "-0", "+5", "-", "--2", "5-", "٣", "1_0", "3/0", "3/06", "-4/6",
    _LONG, "-" + _LONG, _LONG + "7", "-" + _LONG + "7",
]


@pytest.mark.parametrize(
    "token",
    SIGNED_INTEGER_TOKENS,
    ids=[t if len(t) < 10 else f"{t[0]}...{len(t)}" for t in SIGNED_INTEGER_TOKENS],
)
def test_integer_tokens_match_the_fraction_reader(token):
    outcome = _read_outcome(parse_rational, token)
    assert outcome == _read_outcome(reference_parse_rational, token)
    assert outcome[0] == "value" or outcome[0] is FileSyntaxError


@given(
    st.one_of(
        _number_tokens(),
        st.from_regex(r"-?[0-9]{1,12}", fullmatch=True),
        st.text(alphabet="-+/0123456789٣_ ", max_size=8),
    )
)
def test_short_tokens_match_the_fraction_reader(token):
    assert _read_outcome(parse_rational, token) == _read_outcome(reference_parse_rational, token)


@st.composite
def _numerals(draw, longest: int = MAX_NUMBER_DIGITS + 1):
    """A token of the file grammar's shape, an optional sign, digits and
    perhaps / and digits that do not start with 0, each part short or of 999
    digits or more, up to `longest`: past the digit bound by default."""

    def part(first: str) -> str:
        lengths = st.sampled_from([1, 2, 3, 5, 999, 1000, 1001]).filter(lambda n: n <= longest)
        length = draw(lengths)
        digits = st.text(alphabet="0123456789", max_size=min(length - 1, 4))
        return (draw(st.sampled_from(first)) + draw(digits)).ljust(length, "7")

    token = draw(st.sampled_from(["", "", "-", "+"])) + part("0123456789")
    if draw(st.booleans()):
        token += "/" + part("123456789")
    return token


# each malformed shape a row token can take: digits outside ASCII, an
# underscore, a denominator that is 0, starts with 0 or is signed, an empty
# part, a second slash, a sign alone and no number at all
MALFORMED_TOKENS = [
    "\u0663", "-\u0661/2", "1/\u0662", "\uff19", "\u00b2", "1_0", "1/2_0", "1/0", "-3/0",
    "1/05", "1/+2", "1/-2", "/2", "-/2", "1/", "-1/", "1/2/3", "/", "+", "-", "+-1", "--1",
    "1.5", "1e3", "x", "0x10", "9" * 1001, "1/" + "9" * 1001, "-" + "1" * 1001 + "/3",
]

_malformed = st.one_of(
    st.sampled_from(MALFORMED_TOKENS),
    # the file reader's own token fuzz, as one whitespace-free token
    _number_tokens().filter(lambda t: t.split() == [t]),
)


@st.composite
def _one_bad_token(draw):
    """Short well-formed tokens and one spoilt token among them, digits with
    a spoiler between them, so that the whole-line check for that spoiler
    alone stands between the token and ``int()``."""
    digits = st.text(alphabet="0123456789", min_size=1, max_size=3)
    spoiler = st.sampled_from(["/0", "/+", "/-", "_", "\u0663", "+", ".", "/"])
    bad = draw(st.sampled_from(["", "-"])) + draw(digits) + draw(spoiler) + draw(digits)
    tokens = draw(st.lists(_numerals(longest=5), max_size=6))
    tokens.insert(draw(st.integers(0, len(tokens))), bad)
    return tokens


@st.composite
def _long_valid_rows(draw):
    """Rows longer than the digit bound in characters, every token well-formed
    and within the bound: two or more tokens, one with a 999- or 1000-digit part."""
    tokens = draw(st.lists(_numerals(longest=5), min_size=1, max_size=6))
    long = draw(_numerals(longest=MAX_NUMBER_DIGITS).filter(lambda t: len(t) >= 999))
    tokens.insert(draw(st.integers(0, len(tokens))), long)
    return tokens


def _token_by_token(tokens: list[str], line: int) -> tuple[tuple[int, ...], int]:
    """The row as integers over the lcm of its denominators, each token read
    by `reference_parse_rational`, which raises the first token's error."""
    values = [reference_parse_rational(t, line) for t in tokens]
    den = lcm(*[x.denominator for x in values])
    return tuple(int(x * den) for x in values), den


@settings(max_examples=400)
@given(
    st.one_of(
        st.lists(st.one_of(_numerals(), _malformed), min_size=1, max_size=8),
        _one_bad_token(),
        _long_valid_rows(),
    )
)
# one digit past the bound in a line of two tokens, and a token one character
# past it whose digits are within it
@example(["1", "9" * (MAX_NUMBER_DIGITS + 1)])
@example(["2/3", "1/" + "9" * (MAX_NUMBER_DIGITS + 1)])
@example(["-" + "9" * MAX_NUMBER_DIGITS, "1/3"])
def test_a_row_reads_as_its_tokens_do(tokens):
    assert _read_outcome(_read_row, tokens) == _read_outcome(_token_by_token, tokens)


def test_corpus_rows_are_read_in_one_pass(monkeypatch):
    # no token of a committed benchmark file needs the per-token reader
    rows = calls_to(monkeypatch, formats, "_read_row")
    ratios = calls_to(monkeypatch, formats, "_read_ratio")
    corpus = sorted((BENCH / "corpus").iterdir())
    for path in corpus:
        parse = parse_scenario if path.suffix == ".ssf" else parse_pipeline
        parse(path.read_text())
    assert {p.suffix for p in corpus} == {".ssf", ".cbf"} and rows and ratios == []
    # the recorder sees the per-token reader where a row needs it
    with pytest.raises(FileSyntaxError):
        parse_scenario("form 2\n0 1/2_0\n-1 0\n")
    assert ratios == [("0", 2), ("1/2_0", 2)]


@st.composite
def _spelled(draw, x: Fraction) -> str:
    """One way a file may write x: not in lowest terms, padded, signed."""
    k = draw(st.integers(1, 4))
    num, den = abs(x.numerator) * k, x.denominator * k
    sign = "-" if x < 0 else draw(st.sampled_from(["", "+", "-"] if x == 0 else ["", "+"]))
    numerator = "0" * draw(st.integers(0, 2)) + str(num)
    if den == 1 and draw(st.booleans()):
        return sign + numerator
    return f"{sign}{numerator}/{den}"


_entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _written_rows(draw, rows: int, cols: int, entries=_entries):
    """Fraction rows and their text lines, each entry spelled its own way."""
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    lines = [" ".join(draw(_spelled(x)) for x in row) for row in data]
    return data, lines


@given(st.integers(0, 4), st.data())
def test_parsed_form_equals_the_public_constructor(n, data):
    upper, _ = data.draw(_written_rows(n, n))
    skew = [
        [upper[i][j] if i < j else -upper[j][i] if i > j else 0 for j in range(n)]
        for i in range(n)
    ]
    lines = [" ".join(data.draw(_spelled(x)) for x in row) for row in skew]
    scenario = parse_scenario("\n".join([f"form {n}", *lines]) + "\n")
    assert scenario.space.gram == RationalMatrix(skew, cols=n)


@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_parsed_subspace_equals_the_public_constructor(n, k, data):
    # a row of width zero has no line to be written on, so n starts at 1
    rows, lines = data.draw(_written_rows(k, n))
    form = [" ".join("0" for _ in range(n))] * n
    text = "\n".join([f"form {n}", *form, f"subspace A {k}", *lines]) + "\n"
    expected = Subspace(RationalMatrix(rows, cols=n))
    assert parse_scenario(text).named_subspaces["A"] == expected


@given(st.integers(1, 2), st.integers(0, 50), st.data())
def test_parsed_lagrangian_equals_the_public_constructor(g, seed, data):
    lag = random_lagrangian(g, seed)
    scales = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    # each basis row scaled, then combinations of them: the rows span the Lagrangian
    factors = data.draw(st.lists(scales, min_size=g, max_size=g))
    rows = [[c * x for x in lag.basis.row(i)] for i, c in enumerate(factors)]
    for _ in range(data.draw(st.integers(0, 2))):
        coeffs = [data.draw(_entries) for _ in range(g)]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(2 * g)])
    lines = [" ".join(data.draw(_spelled(Fraction(x))) for x in row) for row in rows]
    text = "\n".join([f"object A genera {g}", f"lagrangian {len(rows)}", *lines]) + "\n"
    lagrangian = parse_pipeline(text).objects["A"].lagrangian
    assert lagrangian == Subspace(RationalMatrix(rows, cols=2 * g)) == lag


@given(st.integers(1, 2), st.integers(0, 3), st.data())
def test_parsed_morphism_blocks_equal_the_public_constructor(g, h1, data):
    standard = random_lagrangian(g, 0, length=0).basis
    text = [f"object A genera {g}", f"lagrangian {g}"]
    text += [" ".join(map(str, standard.row(i))) for i in range(g)]
    text.append(f"morphism m A A weight 0 h1 {h1} h0 1")
    expected = []
    shapes = (("jsrc_h1", h1, 2 * g), ("jtgt_h1", h1, 2 * g), ("jsrc_h0", 1, 1), ("jtgt_h0", 1, 1))
    for label, rows, cols in shapes:
        data_rows, lines = data.draw(_written_rows(rows, cols))
        text += [label, *lines]
        expected.append(RationalMatrix(data_rows, cols=cols))
    m = parse_pipeline("\n".join(text) + "\n").entries[0].morphism
    assert [m.j_src_h1, m.j_tgt_h1, m.j_src_h0, m.j_tgt_h0] == expected
