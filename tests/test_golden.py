"""Golden gate: CLI runs compared byte for byte with recorded expectations.

Each case runs `evencob.cli.main` in a scratch directory holding the fixture
files, and compares stdout, stderr, the exit code and every file the run
writes with `tests/golden/expected.json`.  Paths in the argv are relative, so
the reports do not depend on where the suite runs.  The counterexample cases
inject a fault, because no true theorem yields a counterexample.
"""

import json
from pathlib import Path

import pytest

from evencob import campaigns, sampling
from evencob.campaigns import CheckOutcome
from evencob.cli import main
from evencob.values import replace

EXPECTED = Path(__file__).parent / "golden" / "expected.json"

# every theorem `check --in` can replay, so a new one without entries here fails
THEOREMS = tuple(name for name, entry in campaigns.THEOREMS.items() if entry.read is not None)

FIXTURES = {
    "genus1.ssf": "form 2\n0 1\n-1 0\nsubspace L1 1\n1 0\nsubspace L2 1\n0 1\n"
    "subspace L3 1\n1 1\ntriple L1 L2 L3\n",
    # the genus-1 triple next to the full plane P, which is not Lagrangian
    "plane.ssf": "form 2\n0 1\n-1 0\nsubspace L1 1\n1 0\nsubspace L2 1\n0 1\n"
    "subspace L3 1\n1 1\nsubspace P 2\n1 0\n0 1\ntriple L1 L2 L3\n",
    "bad.ssf": "form 2\n0 1\n-1 0\nsubspace A 2\n1 0\n0 1\n"
    "subspace B 1\n1 0\nsubspace C 1\n0 1\ntriple A B C\n",
    # a composable chain: explicit records, twist-seeded generators and a
    # two-component surface
    "chain.cbf": "object E genera\nlagrangian 0\n"
    "object T genera 1\nlagrangian 1\n1 0\n"
    "object U genera 1 1\nlagrangian 2\n1 0 0 0\n0 0 1 0\n"
    "object V genera 1 1\nlagrangian 2\n0 1 0 0\n0 0 1 1\n"
    "morphism H E T weight 1 h1 1 h0 1\njsrc_h1\njtgt_h1\n1 0\njsrc_h0\njtgt_h0\n1\n"
    "generator C T T twisted_cylinder weight=2 twist_seed=3\n"
    "generator K T E cap weight=1 twist_seed=5\n"
    "morphism HH E U weight 0 h1 2 h0 2\njsrc_h1\njtgt_h1\n1 0 0 0\n0 0 1 0\n"
    "jsrc_h0\njtgt_h0\n1 0\n0 1\n"
    "generator P U V pseudo_cylinder weight=1\n"
    "generator W V V twisted_cylinder twist_seed=8 twist_length=5\n"
    "morphism KK V E weight 1 h1 2 h0 2\njsrc_h1\n1 0 0 0\n0 0 1 0\njtgt_h1\n"
    "jsrc_h0\n1 0\n0 1\njtgt_h0\n",
    # a form entry written with an Arabic-Indic digit, which the readers refuse
    "other-digit.ssf": "form 2\n0 \u0661\n-1 0\n",
}

GEN_SPECS = {
    "identity": "identity genus=2",
    "pseudo-cylinder": "pseudo_cylinder genus=1",
    "twisted-cylinder": "twisted_cylinder genera=[1,1]",
    "handlebody": "handlebody genus=2",
    "cap": "cap genus=1",
    "composite": "composite(handlebody genus=1, twisted_cylinder genus=1, cap genus=1)",
    "disjoint-union": "disjoint_union(handlebody genus=1, pseudo_cylinder genus=2)",
}


def _break_parity(monkeypatch):
    # holds only when l1 and l2 meet, so some early trial fails
    def evaluate(triple):
        return CheckOutcome(triple.l1.intersect(triple.l2).dim > 0, {})

    broken = replace(campaigns.THEOREMS["parity"], evaluate=evaluate)
    monkeypatch.setitem(campaigns.THEOREMS, "parity", broken)


def _odd_closure_from(first_seed: int):
    """A fault that makes the sampled pair odd from trial seed `first_seed` on."""

    def fault(monkeypatch):
        sample = sampling.random_even_pair

        def odd_pair(seed, genus_max):
            m1, m2 = sample(seed, genus_max)
            if seed >= first_seed:
                m1 = replace(m1, weight=m1.weight + 1)
            return m1, m2

        monkeypatch.setattr(sampling, "random_even_pair", odd_pair)

    return fault


FAULTS = {
    "parity": _break_parity,
    "closure": _odd_closure_from(0),
    # two pairs hold first, so the report counts their abstract records
    "closure-late": _odd_closure_from(2),
}

CHECK_CE = ["check", "--theorem", "parity", "--trials", "50", "--seed", "0"]
CLOSURE_CE = ["closure", "--trials", "4", "--seed", "0"]

# case name -> (argv without --output, fault to inject or None)
CASES = {
    "closure": (["closure", "--trials", "6", "--seed", "2"], None),
    "maslov": (["maslov", "--in", "genus1.ssf"], None),
    "maslov-not-lagrangian": (["maslov", "--in", "bad.ssf"], None),
    "check-bad-theorem": (["check", "--theorem", "closure"], None),
    "check-counterexample": (CHECK_CE, "parity"),
    "check-counterexample-out": (CHECK_CE + ["--counterexample-out", "ce-out.ssf"], "parity"),
    "closure-counterexample": (CLOSURE_CE, "closure"),
    "closure-counterexample-out": (CLOSURE_CE + ["--counterexample-out", "ce-out.cbf"], "closure"),
    "closure-counterexample-late": (CLOSURE_CE, "closure-late"),
}
for t in THEOREMS:
    CASES[f"check-{t}"] = (["check", "--theorem", t, "--trials", "8", "--seed", "3"], None)
    CASES[f"check-in-{t}"] = (["check", "--theorem", t, "--in", "genus1.ssf"], None)
for t in ("parity", "dim-sum", "annihilator"):
    CASES[f"check-in-not-lagrangian-{t}"] = (["check", "--theorem", t, "--in", "bad.ssf"], None)
for t in ("pair-dims", "ann-identities"):
    CASES[f"check-in-plane-{t}"] = (["check", "--theorem", t, "--in", "plane.ssf"], None)
for kind, spec in GEN_SPECS.items():
    for seed in ("0", "5"):
        CASES[f"gen-{kind}-seed{seed}"] = (["gen", "--spec", spec, "--seed", seed], None)
CASES["maslov-other-digit"] = (["maslov", "--in", "other-digit.ssf"], None)
CASES["spec-other-digit"] = (["gen", "--spec", "handlebody genus=\u0661"], None)
# a flag is read by the same rule as text: int() would take these as 10 and 3
CASES["flag-trials-other-digit"] = (
    ["check", "--theorem", "parity", "--trials", "\u0661_0", "--seed", "0"],
    None,
)
CASES["flag-seed-other-digit"] = (["gen", "--spec", "handlebody genus=1", "--seed", "\u0663"], None)
# 160 genus-32 twisted cylinders: refused before anything is built
OVER_BUDGET = "composite(twisted_cylinder genus=32" + ", twisted_cylinder" * 159 + ")"
CASES["spec-over-budget"] = (["gen", "--spec", OVER_BUDGET], None)
CASES["compose-chain"] = (["compose", "--in", "chain.cbf"], None)
CASES["even-chain"] = (["even", "--in", "chain.cbf"], None)

RUNS = {
    f"{name}.{mode}": argv + ["--output", mode]
    for name, (argv, _) in CASES.items()
    for mode in ("text", "json")
}
RUNS["check-help"] = ["check", "--help"]
RUNS["closure-help"] = ["closure", "--help"]


def fault_of(run: str):
    fault = CASES.get(run.rsplit(".", 1)[0], (None, None))[1]
    return FAULTS[fault] if fault else None


def capture(argv, capsys, workdir: Path) -> dict:
    """Run one argv in workdir and collect everything it produced."""
    for name, text in FIXTURES.items():
        (workdir / name).write_text(text)
    code = main(list(argv))
    out, err = capsys.readouterr()
    written = {p.name: p.read_text() for p in sorted(workdir.iterdir()) if p.name not in FIXTURES}
    return {"argv": list(argv), "exit": code, "stdout": out, "stderr": err, "files": written}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_every_run_is_recorded(expected):
    assert sorted(expected) == sorted(RUNS)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden(run, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    fault = fault_of(run)
    if fault is not None:
        fault(monkeypatch)
    assert capture(RUNS[run], capsys, tmp_path) == expected[run]
