import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evencob import campaigns
from evencob.campaigns import CheckOutcome
from evencob.cli import build_parser, main
from evencob.cobordism import compose, validate
from evencob.errors import InvalidTripleError
from evencob.formats import parse_pipeline, serialize_pipeline
from evencob.generators import MAX_NESTING
from evencob.sampling import random_even_pair
from test_golden import CHECK_CE, CLOSURE_CE, EXPECTED, FAULTS, RUNS

GENUS_ONE_SSF = """\
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

# a handlebody, then a record whose boundary kernel is not Lagrangian
UNREALIZABLE_CBF = """\
object E genera
lagrangian 0
object A genera 1
lagrangian 1
1 0
generator h E A handlebody genus=1
morphism m A A weight 0 h1 1 h0 1
jsrc_h1
0 0
jtgt_h1
1 0
jsrc_h0
1
jtgt_h0
1
"""

UNREALIZABLE_ERROR = (
    "error: line 7: entry 'm' is not realizable: boundary kernel is not Lagrangian: "
    "dimension 3, a Lagrangian has dimension 2\n"
)

REPORT_KEYS = {"schema_version", "command", "params", "status", "results", "counterexample"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--output", "json")
    return code, json.loads(out)


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triple.ssf"
    path.write_text(GENUS_ONE_SSF)
    return str(path)


@pytest.fixture
def pipeline_file(tmp_path):
    path = tmp_path / "pipe.cbf"
    path.write_text(HANDLEBODY_CAP_CBF)
    return str(path)


class TestMaslovCommand:
    def test_fixture_values(self, capsys, triple_file):
        code, report = run_json(capsys, "maslov", "--in", triple_file)
        assert code == 0
        assert set(report) == REPORT_KEYS
        (result,) = report["results"]
        assert result["maslov_index"] == -1
        assert result["parity"] == 1
        assert result["parity_prediction"] == 1
        assert result["annihilator_dim"] == 0
        assert result["dim_sum_parity"] == [0, 0]

    def test_non_lagrangian_triple_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ssf"
        bad.write_text(
            "form 2\n0 1\n-1 0\nsubspace A 2\n1 0\n0 1\n"
            "subspace B 1\n1 0\nsubspace C 1\n0 1\ntriple A B C\n"
        )
        assert main(["maslov", "--in", str(bad)]) == 2

    def test_missing_file(self, capsys):
        assert main(["maslov", "--in", "does-not-exist.ssf"]) == 2


class TestCheckCommand:
    def test_small_campaigns_hold(self, capsys):
        for theorem in ("parity", "dim-sum", "annihilator", "pair-dims", "ann-identities"):
            code, report = run_json(
                capsys, "check", "--theorem", theorem, "--trials", "8", "--seed", "3"
            )
            assert code == 0, theorem
            assert report["status"] == "holds"
            assert set(report) == REPORT_KEYS

    def test_check_on_scenario_file(self, capsys, triple_file):
        code, report = run_json(capsys, "check", "--theorem", "parity", "--in", triple_file)
        assert code == 0
        assert report["status"] == "holds"
        assert report["results"][0]["holds"] is True

    def test_pair_theorem_on_scenario_file(self, capsys, triple_file):
        code, report = run_json(
            capsys, "check", "--theorem", "ann-identities", "--in", triple_file
        )
        assert code == 0
        # three subspaces means three unordered pairs
        assert len(report["results"]) == 3

    def test_pair_dims_skips_non_lagrangian_pairs(self, capsys, tmp_path):
        path = tmp_path / "plane.ssf"
        path.write_text(GENUS_ONE_SSF + "subspace P 2\n1 0\n0 1\n")
        code, report = run_json(capsys, "check", "--theorem", "pair-dims", "--in", str(path))
        assert code == 0
        # the full plane P is not Lagrangian, so no pair with P is checked
        assert [r["instance"] for r in report["results"]] == ["L1 L2", "L1 L3", "L2 L3"]

    def test_deterministic_json(self, capsys):
        args = ("check", "--theorem", "parity", "--seed", "7", "--trials", "25")
        code1, out1 = run(capsys, *args, "--output", "json")
        code2, out2 = run(capsys, *args, "--output", "json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestComposeCommand:
    def test_handlebody_cap_fixture(self, capsys, pipeline_file):
        code, report = run_json(capsys, "compose", "--in", pipeline_file)
        assert code == 0
        (result,) = report["results"]
        assert result["weight"] == 2
        assert result["beta1"] == 1
        assert result["beta0"] == 1
        assert result["even"] is True
        assert result["violations"] == []

    def test_empty_pipeline_is_input_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.cbf"
        empty.write_text("")
        assert main(["compose", "--in", str(empty)]) == 2

    def test_non_composable_pipeline_is_input_error(self, capsys, tmp_path):
        text = (
            "object E genera\nlagrangian 0\n"
            "object T genera 1\nlagrangian 1\n1 0\n"
            "object U genera 1\nlagrangian 1\n0 1\n"
            "generator H E T handlebody weight=1\n"
            "generator K U E cap weight=1\n"
        )
        path = tmp_path / "mismatch.cbf"
        path.write_text(text)
        assert main(["compose", "--in", str(path)]) == 2

    def test_unrealizable_record_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "unrealizable.cbf"
        path.write_text(UNREALIZABLE_CBF)
        code = main(["compose", "--in", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", UNREALIZABLE_ERROR)

    def test_unrealizable_record_rejected_without_asserts(self, tmp_path):
        # the rejection must not depend on assert statements, which -O strips
        path = tmp_path / "unrealizable.cbf"
        path.write_text(UNREALIZABLE_CBF)
        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]),
        )
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "evencob", "compose", "--in", str(path)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        for done in runs:
            assert (done.returncode, done.stdout, done.stderr) == (2, "", UNREALIZABLE_ERROR)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--spec", "handlebody genus=1"],
        ["gen", "--spec", "twisted_cylinder genus=8 twist_length=1000"],
        ["check", "--theorem", "parity", "--trials", "2"],
    ],
)
def test_closed_stdout_keeps_exit_code(argv):
    # the reader is gone before the command writes: no traceback, no exit 1
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "evencob", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (main(argv), "")


class TestEvenCommand:
    def test_unrealizable_record_reports_violations(self, capsys, tmp_path):
        path = tmp_path / "unrealizable.cbf"
        path.write_text(UNREALIZABLE_CBF)
        code, report = run_json(capsys, "even", "--in", str(path))
        assert code == 0
        assert [r["violations"] for r in report["results"]] == [
            [],
            ["boundary kernel is not Lagrangian: dimension 3, a Lagrangian has dimension 2"],
        ]

    def test_reports_each_morphism(self, capsys, pipeline_file):
        code, report = run_json(capsys, "even", "--in", pipeline_file)
        assert code == 0
        assert [r["name"] for r in report["results"]] == ["H", "K"]
        assert all(r["even"] for r in report["results"])
        for r in report["results"]:
            assert set(r["terms"]) == {
                "lagrangian_span",
                "beta1_body",
                "beta0_body",
                "beta0_source",
                "half_beta1_target",
                "epsilon",
            }


class TestGenCommand:
    def test_builds_even_morphism(self, capsys):
        code, report = run_json(
            capsys, "gen", "--spec", "pseudo_cylinder genus=2", "--seed", "4"
        )
        assert code == 0
        (result,) = report["results"]
        assert result["even"] is True
        assert result["violations"] == []

    def test_emitted_pipeline_reparses(self, capsys, tmp_path):
        code, report = run_json(
            capsys,
            "gen",
            "--spec",
            "composite(handlebody genus=1, cap genus=1)",
            "--seed",
            "11",
        )
        assert code == 0
        text = report["results"][0]["pipeline"]
        path = tmp_path / "generated.cbf"
        path.write_text(text)
        code2, report2 = run_json(capsys, "even", "--in", str(path))
        assert code2 == 0
        assert report2["results"][0]["even"] is True

    def test_deterministic(self, capsys):
        args = ("gen", "--spec", "twisted_cylinder genus=1", "--seed", "9")
        _, out1 = run(capsys, *args, "--output", "json")
        _, out2 = run(capsys, *args, "--output", "json")
        assert out1 == out2

    def test_bad_spec_is_input_error(self, capsys):
        assert main(["gen", "--spec", "nonsense genus=1"]) == 2


    def test_sizes_at_the_limits_accepted(self, capsys):
        code, out = run(capsys, "gen", "--spec", "twisted_cylinder genus=1 twist_length=1000")
        assert code == 0 and out.startswith("gen: ok")
        code, out = run(capsys, "gen", "--spec", "composite(handlebody genus=16, cap genus=16)")
        assert code == 0 and out.startswith("gen: ok")


class TestClosureCommand:
    def test_small_campaign_holds(self, capsys):
        code, report = run_json(capsys, "closure", "--trials", "6", "--seed", "2")
        assert code == 0
        assert report["status"] == "holds"
        (result,) = report["results"]
        assert result["pairs_checked"] == 6
        abstract = result["abstract_records"]
        assert abstract["even"] + abstract["odd"] == 6


# a falsifiable statement per instance shape: two of the subspaces meet, or
# the composite's weight is even
FALSE_STATEMENTS = {
    "triple": lambda triple: CheckOutcome(triple.l1.intersect(triple.l2).dim > 0, {}),
    "pair": lambda space, a, b: CheckOutcome(a.intersect(b).dim > 0, {}),
    "morphism-pair": lambda m1, m2: CheckOutcome(compose(m1, m2).weight % 2 == 0, None),
}


@pytest.mark.parametrize("name", list(campaigns.THEOREMS))
def test_counterexample_round_trip(capsys, tmp_path, monkeypatch, name):
    # no registered theorem can fail, so a falsifiable statement takes its
    # name; the file written for the failure must replay to the same failure
    theorem = campaigns.THEOREMS[name]
    falsifiable = replace(theorem, evaluate=FALSE_STATEMENTS[theorem.arity])
    monkeypatch.setitem(campaigns.THEOREMS, name, falsifiable)
    closure = theorem.arity == "morphism-pair"
    out_path = tmp_path / ("ce.cbf" if closure else "ce.ssf")
    argv = ["closure"] if closure else ["check", "--theorem", name]
    code, report = run_json(
        capsys, *argv, "--trials", "50", "--seed", "0", "--counterexample-out", str(out_path)
    )
    assert (code, report["status"]) == (1, "counterexample")
    assert report["counterexample"]["pipeline" if closure else "scenario"] == out_path.read_text()
    if closure:
        code, replay = run_json(capsys, "compose", "--in", str(out_path))
        assert code == 0 and replay["results"][0]["weight"] % 2 == 1
    else:
        code, replay = run_json(capsys, "check", "--theorem", name, "--in", str(out_path))
        assert (code, replay["status"]) == (1, "counterexample")
        assert [r["holds"] for r in replay["results"]] == [False]


# Runs the command in argv[3:] with one statement made false and exits with its
# code; argv[1] is the -O level the caller asked for, argv[2] names the fault.
UNDER_FAULT = """
import sys
from dataclasses import replace
from evencob import campaigns, cli, maslov, sampling
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit("not running at the requested -O level")
fault, sample = sys.argv[2], sampling.random_even_pair
def pair(seed, genus_max):
    m1, m2 = sample(seed, genus_max)
    if fault == "odd":
        return replace(m1, weight=m1.weight + 1), m2
    return replace(m1, j_src_h0=m1.j_src_h0 + m1.j_src_h0), m2
if fault == "index":
    campaigns.maslov_index = lambda triple: maslov.maslov_index(triple) + 1
else:
    sampling.random_even_pair = pair
sys.exit(cli.main(sys.argv[3:]))
"""

FAULTED_RUNS = {
    # the index is off by one, so its parity never matches the formula
    "parity": ("index", ["check", "--theorem", "parity"], "ce.ssf"),
    # every sampled m1 is odd, so its composite is
    "closure-odd": ("odd", ["closure"], "ce.cbf"),
    # an H0 column of m1 is twice a basis vector when m1 has a source: m1 is
    # not realizable, and compose must not be what notices
    "closure-unrealizable": ("unrealizable", ["closure"], "ce.cbf"),
}


@pytest.mark.parametrize("name", sorted(FAULTED_RUNS))
def test_false_statement_reported_alike_under_python_O(tmp_path, name):
    fault, command, out_name = FAULTED_RUNS[name]
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    argv = [*command, "--trials", "6", "--seed", "0", "--counterexample-out", out_name]
    runs = []
    for level in (0, 1):
        cwd = tmp_path / f"level{level}"
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, *["-O"] * level, "-c", UNDER_FAULT, str(level), fault, *argv],
            cwd=cwd,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=300,
        )
        written = cwd / out_name
        runs.append((done.returncode, done.stdout, written.exists() and written.read_text()))
        assert done.stderr == ""
    assert runs[0][0] == 1 and runs[0][2]
    assert runs[1] == runs[0]


def test_closure_rejects_an_unrealizable_record_without_raising():
    m1, m2 = random_even_pair(0)
    assert m1.source.beta0 and m2.target.beta0
    broken = replace(m1, j_src_h0=m1.j_src_h0 + m1.j_src_h0)
    assert validate(broken)
    for pair in ((broken, m2), (m1, replace(m2, j_tgt_h0=m2.j_tgt_h0 + m2.j_tgt_h0))):
        assert campaigns.evaluate_closure(*pair) == CheckOutcome(False, None)
    assert campaigns.evaluate_closure(m1, m2).holds


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["check", "--theorem", "parity", "--bogus"]) == 2

    def test_text_output_default(self, capsys, triple_file):
        code, out = run(capsys, "maslov", "--in", triple_file)
        assert code == 0
        assert "maslov_index=-1" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--theorem", "parity", "--genus-max", "0"],
            ["closure", "--genus-max", "0"],
            ["check", "--theorem", "parity", "--trials", "-3"],
            ["closure", "--trials", "-3"],
        ],
    )
    def test_out_of_range_campaign_size_is_input_error(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"argument {argv[-2]}: must be at least" in err

    @pytest.mark.parametrize("command", [["check", "--theorem", "parity"], ["closure"]])
    def test_genus_cap_above_text_bound_is_input_error(self, capsys, command):
        # an unbounded cap let one trial draw a surface of any genus and run without end
        code = main(command + ["--genus-max", "33", "--trials", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"evencob {command[0]}: error: argument --genus-max: must be at most 32, got 33"
        ]

    @pytest.mark.parametrize(
        "command, sampler, error, message, shown",
        [
            (["check", "--theorem", "parity"], "random_triple", RuntimeError, "sampler broke",
             "sampler broke"),
            # the closure report's abstract tally runs outside the evaluator
            (["closure"], "random_abstract_even_pair", RuntimeError, "two\nlines", "two lines"),
            # a campaign reads nothing but flags, so even an EvencobError is a bug
            (["check", "--theorem", "parity"], "random_triple", InvalidTripleError, "not one",
             "not one"),
            (["closure"], "random_abstract_even_pair", InvalidTripleError, "not one", "not one"),
        ],
        ids=["parity", "closure", "parity-library-error", "closure-library-error"],
    )
    def test_internal_failure_is_exit_3(
        self, capsys, monkeypatch, command, sampler, error, message, shown
    ):
        # a bug is not a counterexample (1) and not bad input (2), and it
        # shows no traceback
        from evencob import sampling

        def broken(*args):
            raise error(message)

        monkeypatch.setattr(sampling, sampler, broken)
        code = main([*command, "--trials", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == f"error: internal error: {error.__name__}: {shown}\n"

    @pytest.mark.parametrize("command", [["check", "--theorem", "parity"], ["closure"]])
    def test_genus_cap_at_text_bound_runs(self, capsys, command):
        code, report = run_json(capsys, *command, "--genus-max", "32", "--trials", "1")
        assert (code, report["status"]) == (0, "holds")
        assert report["params"]["genus_max"] == 32


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["maslov", "--in"],
            "form --2\n",
            "error: line 1: form dimension must be an integer, found '--2'\n",
        ),
        (
            ["compose", "--in"],
            "object E genera --1\nlagrangian 0\n",
            "error: line 1: genus must be an integer, found '--1'\n",
        ),
        (
            ["even", "--in"],
            "object E genera \u00b2\nlagrangian 0\n",
            "error: line 1: genus must be an integer, found '\u00b2'\n",
        ),
        (
            ["gen", "--spec", "handlebody genus=-1"],
            None,
            "error: genera must be non-negative, got (-1,)\n",
        ),
        (
            ["gen", "--spec", "pseudo_cylinder genera=[-1]"],
            None,
            "error: genera must be non-negative, got (-1,)\n",
        ),
        (
            ["gen", "--spec", "twisted_cylinder genera=[1,-1]"],
            None,
            "error: genera must be non-negative, got (1, -1)\n",
        ),
        (
            ["gen", "--spec", "twisted_cylinder genus=1 twist_length=-1"],
            None,
            "error: twist_length must be non-negative, got -1\n",
        ),
        (
            ["gen", "--spec", "composite(handlebody genus=20, cap genus=13)"],
            None,
            "error: genera add up to 33, at most 32 allowed\n",
        ),
        (
            ["gen", "--spec", "twisted_cylinder genus=1 twist_length=1001"],
            None,
            "error: twist_length must be at most 1000, got 1001\n",
        ),
        (
            ["compose", "--in"],
            "object E genera\nlagrangian 0\nobject A genera 16 17\nlagrangian 0\n",
            "error: line 3: genera add up to 33, at most 32 allowed\n",
        ),
        (
            ["even", "--in"],
            "object E genera\nlagrangian 0\nmorphism m E E weight 0 h1 257 h0 0\n",
            "error: line 3: h1 dimension must be at most 256, found 257\n",
        ),
        (
            ["gen", "--spec"],
            None,
            "error: genera have 257 components, at most 256 allowed\n",
        ),
        (
            ["even", "--in"],
            "object a genera " + " ".join(["0"] * 257) + "\nlagrangian 0\n"
            "generator g a a identity\n",
            "error: line 1: genera have 257 components, at most 256 allowed\n",
        ),
        (
            ["maslov", "--in"],
            "form 2\n0 1\n-1 0\nsubspace L 1\n" + "9" * 5000 + " 0\n",
            "error: line 5: an integer has 5000 digits, at most 1000 allowed\n",
        ),
        (
            ["maslov", "--in"],
            "form 2\n0 1\n-1 0\nsubspace L 1\n1/1" + "0" * 4300 + " 0\n",
            "error: line 5: a denominator has 4301 digits, at most 1000 allowed\n",
        ),
        (
            ["maslov", "--in"],
            "form " + "9" * 5000 + "\n",
            "error: line 1: form dimension has 5000 digits, at most 1000 allowed\n",
        ),
        (
            ["even", "--in"],
            HANDLEBODY_CAP_CBF.replace("weight 1 h1", "weight " + "9" * 5000 + " h1"),
            "error: line 6: weight has 5000 digits, at most 1000 allowed\n",
        ),
    ],
    ids=[
        "maslov-form",
        "compose-genus",
        "even-genus",
        "gen-handlebody",
        "gen-pseudo-cylinder",
        "gen-twisted-cylinder",
        "gen-twist-length",
        "gen-genus-limit",
        "gen-twist-length-limit",
        "compose-genus-limit",
        "even-h1-limit",
        "gen-component-limit",
        "even-component-limit",
        "maslov-long-entry",
        "maslov-long-denominator",
        "maslov-long-form",
        "even-long-weight",
    ],
)
def test_malformed_numbers_are_input_errors(capsys, tmp_path, argv, text, message):
    if argv == ["gen", "--spec"]:
        argv = argv + ["pseudo_cylinder genera=[" + ",".join(["0"] * 257) + "]"]
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = argv + [str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", message)


def test_component_count_at_the_bound_runs(capsys, tmp_path):
    # 256 genus-0 components, the most the text may declare
    spheres = ",".join(["0"] * 256)
    code, report = run_json(capsys, "gen", "--spec", f"pseudo_cylinder genera=[{spheres}]")
    assert code == 0
    assert report["results"][0]["source_genera"] == [0] * 256
    assert report["results"][0]["even"] is True
    path = tmp_path / "spheres.cbf"
    path.write_text(
        "object a genera " + " ".join(["0"] * 256) + "\nlagrangian 0\ngenerator g a a identity\n"
    )
    code, report = run_json(capsys, "even", "--in", str(path))
    assert code == 0
    assert (report["results"][0]["beta0"], report["results"][0]["even"]) == (256, True)


def test_one_process_runs_match_fresh_processes(capsys):
    # main shares one parser across calls; each run must print what a fresh process prints
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    runs = [
        (["check", "--theorem", "parity", "--trials", "-3"], 2),
        (["check", "--theorem", "parity", "--trials", "3"], 0),
        (["gen", "--spec", "handlebody genus=1"], 0),
    ]
    for argv, code in runs:
        assert main(argv) == code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "evencob", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert (fresh.returncode, fresh.stdout) == (code, out)
    assert build_parser() is build_parser()


UNREADABLE_INPUTS = {
    "directory": (lambda path: path.mkdir(), "error: [Errno 21] Is a directory: '{}'\n"),
    "non-utf8": (
        lambda path: path.write_bytes(b"form 2\n\xff\xfe\n"),
        "error: '{}' is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 7: "
        "invalid start byte\n",
    ),
    "missing": (lambda path: None, "error: [Errno 2] No such file or directory: '{}'\n"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_INPUTS))
@pytest.mark.parametrize(
    "argv",
    [["maslov"], ["check", "--theorem", "parity"], ["compose"], ["even"]],
    ids=["maslov", "check", "compose", "even"],
)
def test_unreadable_input_is_input_error(capsys, tmp_path, argv, kind):
    make, message = UNREADABLE_INPUTS[kind]
    path = tmp_path / "input"
    make(path)
    code = main(argv + ["--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", message.format(path))


UNWRITABLE_OUTPUTS = {
    "directory": (lambda path: path.mkdir(parents=True), "[Errno 21] Is a directory"),
    "below-a-file": (lambda path: path.parent.write_text(""), "[Errno 20] Not a directory"),
    "missing-parent": (lambda path: None, "[Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("kind", sorted(UNWRITABLE_OUTPUTS))
@pytest.mark.parametrize(
    "argv, fault",
    [(CHECK_CE, "parity"), (CLOSURE_CE, "closure")],
    ids=["check", "closure"],
)
def test_unwritable_counterexample_out_is_input_error(
    capsys, tmp_path, monkeypatch, argv, fault, kind
):
    make, reason = UNWRITABLE_OUTPUTS[kind]
    path = tmp_path / "parent" / "ce"
    make(path)
    FAULTS[fault](monkeypatch)
    code = main(argv + ["--counterexample-out", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {reason}: {str(path)!r}\n")


# the survey's table for --trials 20 --genus-max 2, which fills several bins
SURVEY_TABLE = """\
genus  trials   agree  degenerate  index histogram
    1      20      20           6  -1:16 1:4
    2      20      20           7  -2:2 -1:3 0:6 1:8 2:1
"""


def test_parity_survey_script_runs():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    script = root / "scripts" / "parity_survey.py"
    done = subprocess.run(
        [sys.executable, str(script), "--trials", "20", "--genus-max", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == SURVEY_TABLE


# objects for one-line pipeline files: E empty, T and U genus 1 with different
# Lagrangians, S genus 2, P two genus-1 components
PLAN_OBJECTS = """\
object E genera
lagrangian 0
object T genera 1
lagrangian 1
1 0
object U genera 1
lagrangian 1
0 1
object S genera 2
lagrangian 2
1 0 0 0
0 0 1 0
object P genera 1 1
lagrangian 2
1 0 0 0
0 0 1 0
"""
PLAN_LINE = PLAN_OBJECTS.count("\n") + 1

# every error _build and build_from_objects raise, reached from `gen --spec`
# text or from a `generator <name> <src> <dst> <text>` line, whichever can
# write the condition: a file gives every atom its objects and admits no
# combination, and a plan draws a target that fits its source
INVALID_PLANS = {
    "gen-disjoint-union-in-context": (
        "composite(handlebody genus=1, disjoint_union(cap genus=1, handlebody genus=1))",
        "disjoint_union cannot inherit a source object",
    ),
    "gen-no-genera": (
        "twisted_cylinder weight=1",
        "twisted_cylinder without context needs explicit genera",
    ),
    "gen-handlebody-no-genera": (
        "composite(identity genera=[], handlebody)",
        "handlebody without context needs explicit genera",
    ),
    "gen-genera-differ-from-context": (
        "composite(handlebody genus=1, cap genus=2)",
        "cap expects source genera (2,), object has (1,)",
    ),
    "gen-identity-weight": ("identity genus=1 weight=1", "identity has weight zero by definition"),
    "gen-handlebody-after-a-surface": (
        "composite(handlebody genus=1, handlebody genus=1)",
        "handlebody needs the empty surface as source",
    ),
    "gen-handlebody-components": (
        "handlebody genera=[1,1]",
        "handlebody needs a single-component target",
    ),
    "gen-cap-components": (
        "composite(pseudo_cylinder genera=[1,1], cap)",
        "cap needs a single-component source",
    ),
    "cbf-composite": (
        "E E composite(handlebody genus=1, cap genus=1)",
        "composite is not allowed in pipeline files; declare the pieces as separate entries",
    ),
    "cbf-disjoint-union": (
        "T T disjoint_union(cap genus=1, handlebody genus=1)",
        "disjoint_union is not allowed in pipeline files; declare the pieces as separate entries",
    ),
    "cbf-source-genera": (
        "T T pseudo_cylinder genus=2",
        "pseudo_cylinder expects source genera (2,), object has (1,)",
    ),
    "cbf-target-genera": (
        "E T handlebody genus=2",
        "handlebody expects target genera (2,), object has (1,)",
    ),
    "cbf-identity-ends": ("T U identity", "identity needs equal source and target objects"),
    "cbf-identity-weight": ("T T identity weight=1", "identity has weight zero by definition"),
    "cbf-pseudo-cylinder-ends": (
        "T E pseudo_cylinder",
        "pseudo_cylinder needs equal genera on both ends",
    ),
    "cbf-twisted-cylinder-ends": (
        "T S twisted_cylinder",
        "twisted_cylinder needs equal genera on both ends",
    ),
    "cbf-handlebody-source": ("T T handlebody", "handlebody needs the empty surface as source"),
    "cbf-handlebody-components": ("E P handlebody", "handlebody needs a single-component target"),
    "cbf-cap-target": ("T T cap", "cap needs the empty surface as target"),
    "cbf-cap-components": ("P E cap", "cap needs a single-component source"),
}


def run_generator_text(tmp_path, route, text):
    """main's exit code for `gen --spec text` (route "gen"), or for a file of
    PLAN_OBJECTS and the line `generator g text` under `compose --in`."""
    if route == "gen":
        return main(["gen", "--spec", text])
    path = tmp_path / "plan.cbf"
    path.write_text(PLAN_OBJECTS + f"generator g {text}\n")
    return main(["compose", "--in", str(path)])


@pytest.mark.parametrize("case", sorted(INVALID_PLANS))
def test_invalid_plans_are_input_errors(capsys, tmp_path, case):
    route = case.partition("-")[0]
    text, message = INVALID_PLANS[case]
    code = run_generator_text(tmp_path, route, text)
    out, err = capsys.readouterr()
    prefix = "" if route == "gen" else f"line {PLAN_LINE}: "
    assert (code, out, err) == (2, "", f"error: {prefix}{message}\n")


NUMBERED_ATOMS = {
    "weight": "pseudo_cylinder genus=1 weight=N",
    "negative-weight": "pseudo_cylinder genus=1 weight=-N",
    "twist-seed": "twisted_cylinder genus=1 twist_seed=N",
    "genera": "pseudo_cylinder genera=[N]",
}


@pytest.mark.parametrize("route, ends", [("gen", ""), ("cbf", "T T ")], ids=["gen", "cbf"])
@pytest.mark.parametrize("case", ["weight", "negative-weight", "twist-seed"])
def test_generator_integers_of_1000_digits_run(capsys, tmp_path, route, ends, case):
    text = ends + NUMBERED_ATOMS[case].replace("N", "9" * 1000)
    code = run_generator_text(tmp_path, route, text)
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("digits", [1001, 4300])
@pytest.mark.parametrize("route, ends", [("gen", ""), ("cbf", "T T ")], ids=["gen", "cbf"])
@pytest.mark.parametrize("case", sorted(NUMBERED_ATOMS))
def test_longer_generator_integers_are_input_errors(capsys, tmp_path, route, ends, case, digits):
    # 4300-digit weights used to parse, then sum past str()'s limit on output
    text = ends + NUMBERED_ATOMS[case].replace("N", "9" * digits)
    code = run_generator_text(tmp_path, route, text)
    out, err = capsys.readouterr()
    key = text.rpartition(" ")[2].partition("=")[0]
    message = f"{key} has {digits} digits, at most 1000 allowed"
    prefix = "" if route == "gen" else f"line {PLAN_LINE}: "
    assert (code, out, err) == (2, "", f"error: {prefix}{message}\n")


def nested(depth: int) -> str:
    """A closed plan whose composites nest depth deep."""
    inner = "handlebody genus=1" + ", twisted_cylinder)" * (depth - 1)
    return "composite(" * depth + inner + ", cap)"


@pytest.mark.parametrize("route, ends", [("gen", ""), ("cbf", "E E ")], ids=["gen", "cbf"])
def test_nesting_past_the_bound_is_an_input_error(capsys, tmp_path, route, ends):
    prefix = "" if route == "gen" else f"line {PLAN_LINE}: "
    code = run_generator_text(tmp_path, route, ends + nested(MAX_NESTING))
    out, err = capsys.readouterr()
    if route == "gen":
        assert (code, err) == (0, "")
    else:  # parsed; a file then refuses any composite
        message = "composite is not allowed in pipeline files; declare the pieces"
        assert (code, out, err) == (2, "", f"error: {prefix}{message} as separate entries\n")
    # deeper text, closed or not, used to be a RecursionError traceback and exit 1
    for text in (nested(MAX_NESTING + 1), "composite(" * 1200):
        code = run_generator_text(tmp_path, route, ends + text)
        out, err = capsys.readouterr()
        message = f"generator text nests {MAX_NESTING + 1} deep, at most {MAX_NESTING} allowed"
        assert (code, out, err) == (2, "", f"error: {prefix}{message}\n")


# gluing is checked by the function compose runs; the reader names the entry
GLUE_ERRORS = {
    "genera": (
        "generator a E T handlebody genus=1\ngenerator c S S identity\n",
        "entry 'c': cannot glue target genera (1,) to source genera (2,)",
    ),
    "lagrangians": (
        "generator a E T handlebody genus=1\ngenerator c U U identity\n",
        "entry 'c': middle surfaces agree on genera but carry different Lagrangians",
    ),
}


@pytest.mark.parametrize("command", ["even", "compose"])
@pytest.mark.parametrize("case", sorted(GLUE_ERRORS))
def test_unglued_entries_are_input_errors(capsys, tmp_path, command, case):
    lines, message = GLUE_ERRORS[case]
    path = tmp_path / "unglued.cbf"
    path.write_text(PLAN_OBJECTS + lines)
    code = main([command, "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: line {PLAN_LINE + 1}: {message}\n")


def twist_chain(atoms: int) -> str:
    """A composite of genus-1 twisted cylinders with the longest walks."""
    rest = ", twisted_cylinder twist_length=1000" * (atoms - 1)
    return f"composite(twisted_cylinder genus=1 twist_length=1000{rest})"


def weight_pair(digits: str) -> str:
    return f"composite(pseudo_cylinder genus=1 weight={digits}, pseudo_cylinder weight={digits})"


# a built morphism can hold numbers longer than any its text wrote
UNWRITABLE = {
    # past str()'s own limit: this was a ValueError traceback and exit 1
    "twists-76": (twist_chain(76), "a number in jsrc_h1 of entry 'm'"),
    # about 1360 digits: this was written, and the reader refused it
    "twists-25": (twist_chain(25), "a number in jsrc_h1 of entry 'm'"),
    # two 1000-digit weights add up to 1001 digits
    "weights": (weight_pair("9" * 1000), "the weight of entry 'm'"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_numbers_the_reader_refuses_are_not_written(capsys, case):
    text, what = UNWRITABLE[case]
    code = main(["gen", "--spec", text])
    out, err = capsys.readouterr()
    message = f"error: {what} has more than 1000 digits, at most 1000 allowed\n"
    assert (code, out, err) == (2, "", message)


def test_a_written_weight_of_1000_digits_reads_back(capsys, tmp_path):
    code, report = run_json(capsys, "gen", "--spec", weight_pair("4" + "9" * 999))
    assert code == 0
    (result,) = report["results"]
    assert len(str(abs(result["weight"]))) == 1000
    path = tmp_path / "generated.cbf"
    path.write_text(result["pipeline"])
    code, reread = run_json(capsys, "even", "--in", str(path))
    assert code == 0
    assert reread["results"][0]["weight"] == result["weight"]
    assert serialize_pipeline(parse_pipeline(result["pipeline"])) == result["pipeline"]


@st.composite
def texts_near_the_bounds(draw):
    """Generator text with walks of up to 1000 steps, weights of up to 1001
    digits and up to 80 atoms, starting at genus 1 or from a handlebody."""

    def params(kind):
        # a few weights, so that most long chains get past the text bounds
        out = ""
        if kind != "identity" and draw(st.integers(0, 7)) == 0:
            digits = draw(st.one_of(st.integers(1, 1001), st.sampled_from([999, 1000, 1001])))
            sign = draw(st.sampled_from(["", "-"]))
            out += f" weight={sign}{draw(st.sampled_from('123456789'))}{'9' * (digits - 1)}"
        if kind == "twisted_cylinder" and draw(st.booleans()):
            length = draw(st.one_of(st.integers(0, 1000), st.just(1000)))
            out += f" twist_length={length}"
        return out

    kinds = st.sampled_from(["pseudo_cylinder", "twisted_cylinder", "twisted_cylinder", "identity"])
    first = draw(st.sampled_from(["handlebody", "pseudo_cylinder", "twisted_cylinder"]))
    atoms = [f"{first} genus=1{params(first)}"]
    for _ in range(draw(st.one_of(st.integers(0, 79), st.just(79)))):
        kind = draw(kinds)
        atoms.append(f"{kind}{params(kind)}")
    if len(atoms) < 80 and draw(st.booleans()):
        atoms.append(f"cap{params('cap')}")
    return atoms[0] if len(atoms) == 1 else f"composite({', '.join(atoms)})"


@settings(max_examples=10)
@example(text=twist_chain(76), seed=0)
@example(text=twist_chain(25), seed=0)
@example(text=weight_pair("9" * 1000), seed=0)
@given(text=texts_near_the_bounds(), seed=st.integers(0, 2**32))
def test_what_gen_writes_the_reader_reads(text, seed):
    # exit 2 with one error line, or a pipeline that reads back to itself
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["gen", "--spec", text, "--seed", str(seed), "--output", "json"])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert (code, err.getvalue()) == (0, "")
    pipeline = json.loads(out.getvalue())["results"][0]["pipeline"]
    assert serialize_pipeline(parse_pipeline(pipeline)) == pipeline


READ_BACK = ("weight", "beta1", "beta0", "even", "parity_rhs", "terms", "violations")


def assert_even_reads_back(capsys, tmp_path, result):
    """`even --in` on a gen result's pipeline reports what gen reported."""
    path = tmp_path / "generated.cbf"
    path.write_text(result["pipeline"])
    code, report = run_json(capsys, "even", "--in", str(path))
    assert code == 0
    (reread,) = report["results"]
    assert {k: reread[k] for k in READ_BACK} == {k: result[k] for k in READ_BACK}


GEN_REPORTS = sorted(run for run in RUNS if run.startswith("gen-") and run.endswith(".json"))


@pytest.mark.parametrize("run", GEN_REPORTS)
def test_golden_gen_pipelines_read_back(capsys, tmp_path, run):
    (result,) = json.loads(json.loads(EXPECTED.read_text())[run]["stdout"])["results"]
    assert_even_reads_back(capsys, tmp_path, result)


BOUND_TEXTS = {
    "genus-32": "twisted_cylinder genus=32",
    "components-256": "pseudo_cylinder genera=[" + ",".join(["0"] * 256) + "]",
    "nesting-100": nested(MAX_NESTING),
}


@pytest.mark.parametrize("case", sorted(BOUND_TEXTS))
def test_texts_at_the_bounds_read_back(capsys, tmp_path, case):
    code, report = run_json(capsys, "gen", "--spec", BOUND_TEXTS[case])
    assert code == 0
    (result,) = report["results"]
    assert_even_reads_back(capsys, tmp_path, result)
