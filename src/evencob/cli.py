"""Command line front end.

Subcommands:

    maslov   --in scenario.ssf          Maslov data for each triple query
    check    --theorem NAME [--in F]    randomized campaign, or re-check a file
    compose  --in pipeline.cbf          glue the pipeline's morphisms in order
    even     --in pipeline.cbf          evenness report per morphism
    gen      --spec TEXT --seed N       build a random even morphism
    closure  --trials N --seed N        even-closure campaign over random pairs

Exit codes: 0 success / property holds, 1 a campaign found a counterexample,
2 input error, 3 internal error: any other exception a command raises, and an
EvencobError raised once the input is accepted (a sampled campaign reads
nothing but flags; ``maslov`` and ``compose`` once their file is parsed and
validated); shown as one ``error: internal error: <Type>: <message>`` line
with no traceback.
With --output json the report is a single JSON document with a stable key
set; identical seeds and flags give byte-identical output.  Counterexamples
are written as complete scenario or pipeline files so they re-run standalone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import campaigns
from .cobordism import compose, is_even, push_forward, validate
from .errors import EvencobError
from .formats import (
    parse_pipeline,
    parse_scenario,
    pipeline_for_morphism,
    serialize_pipeline,
)
from .generators import (
    MAX_TEXT_GENUS,
    format_generator_spec,
    parse_generator_spec,
    random_even_morphism,
)
from .maslov import (
    LagrangianTriple,
    _form_radical,
    dim_sum_parity,
    maslov_form,
    parity_prediction,
    signature,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1


def _bounded_int(minimum: int, maximum: int | None = None):
    """An argparse type: an integer no smaller than `minimum` and, if given,
    no larger than `maximum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="evencob",
        description="Exact Maslov indices and the weighted cobordism category over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")

    def campaign(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=_bounded_int(0), default=100)
        # the bound generator text has: one trial at a far larger cap need not finish
        p.add_argument("--genus-max", type=_bounded_int(1, MAX_TEXT_GENUS), default=3)

    p = sub.add_parser("maslov", help="Maslov data for the triples in a scenario file")
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("check", help="verify a theorem on random or given data")
    # closure's instances are morphism pairs, which no scenario file holds
    theorems = [t for t, entry in campaigns.THEOREMS.items() if entry.arity != "morphism-pair"]
    p.add_argument("--theorem", required=True, choices=theorems)
    campaign(p)
    p.add_argument("--in", dest="input", metavar="PATH")
    p.add_argument("--counterexample-out", metavar="PATH")
    common(p)

    p = sub.add_parser("compose", help="glue the morphisms of a pipeline file in order")
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("even", help="evenness report for every morphism in a pipeline file")
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("gen", help="build a seeded random even morphism from a plan")
    p.add_argument("--spec", required=True, metavar="TEXT")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("closure", help="compose random even pairs and check evenness")
    campaign(p)
    p.add_argument("--counterexample-out", metavar="PATH")
    common(p)

    return parser


class _LibraryBug(Exception):
    """Carries an EvencobError from a step that runs on accepted input."""


@contextlib.contextmanager
def _on_accepted_input():
    # flags and files are read and validated before this block, so an
    # EvencobError raised inside it is a library bug, not bad input
    try:
        yield
    except EvencobError as exc:
        raise _LibraryBug() from exc


def _read_input(path: str) -> str:
    """The text of an input file; an unreadable or non-UTF-8 file is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise EvencobError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise EvencobError(f"{path!r} is not UTF-8 text: {exc}") from None


def _write_output(path: str, text: str) -> None:
    """Write a file the run produces; an unwritable path is bad input."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise EvencobError(str(exc)) from None


def _base_report(command: str, params: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "status": "ok",
        "results": [],
        "counterexample": None,
    }


def _triple_report(names: tuple[str, str, str], triple: LagrangianTriple) -> dict:
    form = maslov_form(triple)
    index = signature(form.gram)
    p, q = dim_sum_parity(triple)
    return {
        "triple": list(names),
        "domain_dim": form.dim,
        "maslov_index": index,
        "parity": index % 2,
        "parity_prediction": parity_prediction(triple),
        "annihilator_dim": _form_radical(form).dim,
        "dim_sum_parity": [p, q],
    }


def _cmd_maslov(args: argparse.Namespace) -> tuple[dict, int]:
    scenario = parse_scenario(_read_input(args.input))
    triples = campaigns.scenario_triples(scenario)
    report = _base_report("maslov", {"input": args.input})
    with _on_accepted_input():
        report["results"] = [_triple_report(names, triple) for names, triple in triples]
    return report, EXIT_OK


_SUFFIXES = {"scenario": ".ssf", "pipeline": ".cbf"}


def _campaign_status(
    report: dict, theorem: str, failure: campaigns.Failure | None, out_path: str | None
) -> tuple[dict, int]:
    """Set a campaign report's status; on a violation write the counterexample file."""
    if failure is None:
        report["status"] = "holds"
        return report, EXIT_OK
    out_path = out_path or f"{theorem}-counterexample{_SUFFIXES[failure.kind]}"
    _write_output(out_path, failure.text)
    report["status"] = "counterexample"
    report["counterexample"] = {
        "trial": failure.trial,
        "seed": failure.seed,
        failure.kind: failure.text,
        "written_to": out_path,
    }
    if failure.details is not None:
        report["counterexample"]["details"] = failure.details
    return report, EXIT_COUNTEREXAMPLE


def _cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    params = {
        "theorem": args.theorem,
        "seed": args.seed,
        "trials": args.trials,
        "genus_max": args.genus_max,
        "input": args.input,
    }
    report = _base_report("check", params)
    theorem = campaigns.THEOREMS[args.theorem]
    if args.input is not None:
        scenario = parse_scenario(_read_input(args.input))
        results = campaigns.evaluate_scenario(theorem, scenario)
        report["results"] = [
            {"instance": label, "holds": out.holds, "details": out.details}
            for label, out in results
        ]
        if all(out.holds for _, out in results):
            report["status"] = "holds"
            return report, EXIT_OK
        report["status"] = "counterexample"
        return report, EXIT_COUNTEREXAMPLE

    with _on_accepted_input():
        failure = campaigns.run_campaign(theorem, args.trials, args.seed, args.genus_max)
    checked = args.trials if failure is None else failure.trial + 1
    report["results"] = [{"checked": checked, "trials": args.trials}]
    return _campaign_status(report, args.theorem, failure, args.counterexample_out)


def _morphism_summary(m) -> dict:
    report = is_even(m)
    return {
        "weight": m.weight,
        "beta1": m.h1_dim,
        "beta0": m.h0_dim,
        "even": report.is_even,
        "parity_rhs": report.parity_rhs,
        "terms": dict(report.term_breakdown),
        "violations": validate(m),
    }


def _cmd_compose(args: argparse.Namespace) -> tuple[dict, int]:
    pipeline = parse_pipeline(_read_input(args.input))
    if not pipeline.entries:
        raise EvencobError("pipeline has no morphisms to compose")
    for entry in pipeline.entries:
        violations = validate(entry.morphism)
        if violations:
            raise EvencobError(
                f"line {entry.line}: entry {entry.name!r} is not realizable: {violations[0]}"
            )
    with _on_accepted_input():
        composite = pipeline.entries[0].morphism
        for entry in pipeline.entries[1:]:
            composite = compose(composite, entry.morphism)
        summary = _morphism_summary(composite)
        summary["source"] = pipeline.entries[0].source_name
        summary["target"] = pipeline.entries[-1].target_name
        summary["pushforward_dim"] = push_forward(composite, composite.source.lagrangian).dim
    report = _base_report("compose", {"input": args.input})
    report["results"] = [summary]
    return report, EXIT_OK


def _cmd_even(args: argparse.Namespace) -> tuple[dict, int]:
    pipeline = parse_pipeline(_read_input(args.input))
    report = _base_report("even", {"input": args.input})
    results = []
    for entry in pipeline.entries:
        summary = _morphism_summary(entry.morphism)
        summary["name"] = entry.name
        results.append(summary)
    report["results"] = results
    return report, EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> tuple[dict, int]:
    spec = parse_generator_spec(args.spec)
    morphism = random_even_morphism(spec, args.seed)
    report = _base_report("gen", {"spec": format_generator_spec(spec), "seed": args.seed})
    summary = _morphism_summary(morphism)
    summary["source_genera"] = list(morphism.source.genera)
    summary["target_genera"] = list(morphism.target.genera)
    summary["pipeline"] = serialize_pipeline(pipeline_for_morphism(morphism))
    report["results"] = [summary]
    return report, EXIT_OK


def _cmd_closure(args: argparse.Namespace) -> tuple[dict, int]:
    params = {"seed": args.seed, "trials": args.trials, "genus_max": args.genus_max}
    report = _base_report("closure", params)
    theorem = campaigns.THEOREMS["closure"]
    with _on_accepted_input():
        failure = campaigns.run_campaign(theorem, args.trials, args.seed, args.genus_max)
        held = args.trials if failure is None else failure.trial
        # one abstract record per trial that held, drawn from that trial's seed
        seeds = range(args.seed, args.seed + held)
        records = Counter(campaigns.abstract_closure(s, args.genus_max) for s in seeds)
    abstract = {"even": records["even"], "odd": records["odd"]}
    checked = held if failure is None else held + 1
    report["results"] = [{"pairs_checked": checked, "abstract_records": abstract}]
    return _campaign_status(report, "closure", failure, args.counterexample_out)


def render(report: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = [f"{report['command']}: {report['status']}"]
    for result in report["results"]:
        parts = ", ".join(f"{k}={v}" for k, v in result.items() if k != "pipeline")
        lines.append(f"  {parts}")
        if "pipeline" in result:
            lines.append(result["pipeline"].rstrip())
    if report.get("counterexample"):
        ce = report["counterexample"]
        lines.append(f"counterexample at trial {ce['trial']} (seed {ce['seed']})")
        if "written_to" in ce:
            lines.append(f"written to {ce['written_to']}")
    return "\n".join(lines)


_COMMANDS = {
    "maslov": _cmd_maslov,
    "check": _cmd_check,
    "compose": _cmd_compose,
    "even": _cmd_even,
    "gen": _cmd_gen,
    "closure": _cmd_closure,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        report, code = _COMMANDS[args.command](args)
    except EvencobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        bug = exc.__cause__ if isinstance(exc, _LibraryBug) else exc
        message = " ".join(str(bug).splitlines())
        print(f"error: internal error: {type(bug).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(render(report, args.output))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
