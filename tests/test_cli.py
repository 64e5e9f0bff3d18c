import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from evencob import campaigns, sampling
from evencob.campaigns import CheckOutcome
from evencob.cli import main
from test_golden import CHECK_CE, CLOSURE_CE, FAULTS

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

    def test_counterexample_path(self, capsys, tmp_path, monkeypatch):
        # no true theorem can fail, so inject a falsifiable one behind an
        # existing name and watch the full counterexample flow
        broken = replace(
            campaigns.THEOREMS["parity"],
            evaluate=lambda triple: CheckOutcome(triple.l1.intersect(triple.l2).dim > 0, {}),
        )
        monkeypatch.setitem(campaigns.THEOREMS, "parity", broken)
        out_path = tmp_path / "ce.ssf"
        code, report = run_json(
            capsys,
            "check",
            "--theorem",
            "parity",
            "--trials",
            "50",
            "--seed",
            "0",
            "--counterexample-out",
            str(out_path),
        )
        assert code == 1
        assert report["status"] == "counterexample"
        assert out_path.exists()
        assert report["counterexample"]["scenario"] == out_path.read_text()
        # the emitted file replays standalone and still fails
        code2, report2 = run_json(
            capsys, "check", "--theorem", "parity", "--in", str(out_path)
        )
        assert code2 == 1
        assert report2["status"] == "counterexample"


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

    def test_counterexample_path(self, capsys, tmp_path, monkeypatch):
        # even pairs provably compose even, so sneak an odd morphism into the
        # sampled pair to drive the reporting flow
        from evencob.sampling import random_even_pair

        def odd_pair(seed, genus_max):
            m1, m2 = random_even_pair(seed, genus_max)
            return replace(m1, weight=m1.weight + 1), m2

        monkeypatch.setattr(sampling, "random_even_pair", odd_pair)
        out_path = tmp_path / "bad.cbf"
        code, report = run_json(
            capsys,
            "closure",
            "--trials",
            "4",
            "--seed",
            "0",
            "--counterexample-out",
            str(out_path),
        )
        assert code == 1
        assert report["status"] == "counterexample"
        assert out_path.exists()
        # the emitted pipeline replays standalone: its composite is odd
        code2, report2 = run_json(capsys, "compose", "--in", str(out_path))
        assert code2 == 0
        assert report2["results"][0]["even"] is False


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
    ],
)
def test_malformed_numbers_are_input_errors(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = argv + [str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", message)


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


def test_parity_survey_script_runs():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    script = root / "scripts" / "parity_survey.py"
    done = subprocess.run(
        [sys.executable, str(script), "--trials", "2", "--genus-max", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
