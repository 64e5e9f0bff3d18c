"""Command line front end.

Subcommands:

    maslov   --in scenario.ssf          Maslov data for each triple query
    check    --theorem NAME [--in F]    randomized campaign, or re-check a file
    compose  --in pipeline.cbf          glue the pipeline's morphisms in order
    even     --in pipeline.cbf          evenness report per morphism
    gen      --spec TEXT --seed N       build a random even morphism
    closure  --trials N --seed N        even-closure campaign over random pairs

Each command reads its flags and files, parses and validates them (``gen``
also builds and writes its pipeline), then runs on the accepted input.  Exit
codes: 0 success / property holds, 1 a campaign found a counterexample, 2 an
EvencobError while reading or an OutputError (a file the run cannot write),
3 any other exception, shown as one ``error: internal error: <Type>:
<message>`` line with no traceback.
With --output json the report is a single JSON document with a stable key
set; identical seeds and flags give byte-identical output.  Counterexamples
are written as complete scenario or pipeline files so they re-run standalone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import campaigns
from .cobordism import compose, is_even, push_forward, validate
from .errors import EvencobError, OutputError
from .formats import (
    Pipeline,
    parse_pipeline,
    pipeline_for_morphism,
    serialize_pipeline,
)
from .generators import (
    MAX_TEXT_GENUS,
    check_text_work,
    format_generator_spec,
    parse_generator_spec,
    random_even_morphism,
    read_int,
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


def _bounded_int(minimum: int | None = None, maximum: int | None = None):
    """An argparse type: an integer written as in generator text (one optional
    minus, then at most 1000 ASCII digits), no smaller than `minimum` and no
    larger than `maximum`, each if given."""

    def parse(text: str) -> int:
        try:
            value = read_int(text, "an integer flag", EvencobError)
        except EvencobError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if minimum is not None and value < minimum:
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
        p.add_argument("--seed", type=_bounded_int(), default=0)
        p.add_argument("--trials", type=_bounded_int(0), default=100)
        # the bound generator text has: one trial at a far larger cap need not finish
        p.add_argument("--genus-max", type=_bounded_int(1, MAX_TEXT_GENUS), default=3)

    p = sub.add_parser("maslov", help="Maslov data for the triples in a scenario file")
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("check", help="verify a theorem on random or given data")
    # a theorem with no reader (closure) cannot re-check a file
    theorems = [t for t, entry in campaigns.THEOREMS.items() if entry.read is not None]
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
    p.add_argument("--seed", type=_bounded_int(), default=0)
    common(p)

    p = sub.add_parser("closure", help="compose random even pairs and check evenness")
    campaign(p)
    p.add_argument("--counterexample-out", metavar="PATH")
    common(p)

    return parser


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
        raise OutputError(str(exc)) from None


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


def _read_maslov(args: argparse.Namespace) -> list:
    return campaigns.read_triples(_read_input(args.input))


def _run_maslov(args: argparse.Namespace, triples: list) -> tuple[dict, int]:
    report = _base_report("maslov", {"input": args.input})
    report["results"] = [_triple_report(names, triple) for names, (triple,) in triples]
    return report, EXIT_OK


def _campaign_status(
    report: dict, theorem: str, failure: campaigns.Failure | None, out_path: str | None
) -> tuple[dict, int]:
    """Set a campaign report's status; on a violation write the counterexample file."""
    if failure is None:
        report["status"] = "holds"
        return report, EXIT_OK
    out_path = out_path or f"{theorem}-counterexample{failure.suffix}"
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


def _read_check(args: argparse.Namespace) -> list | None:
    """The theorem's instances in its input file; a sampled campaign reads only flags."""
    theorem = campaigns.THEOREMS[args.theorem]
    return None if args.input is None else theorem.read(_read_input(args.input))


def _run_check(args: argparse.Namespace, instances: list | None) -> tuple[dict, int]:
    flags = ("theorem", "seed", "trials", "genus_max", "input")
    report = _base_report("check", {flag: getattr(args, flag) for flag in flags})
    theorem = campaigns.THEOREMS[args.theorem]
    if instances is not None:
        results = campaigns.evaluate_scenario(theorem, instances)
        report["results"] = [
            {"instance": " ".join(label), "holds": out.holds, "details": out.details}
            for label, out in results
        ]
        holds = all(out.holds for _, out in results)
        report["status"] = "holds" if holds else "counterexample"
        return report, EXIT_OK if holds else EXIT_COUNTEREXAMPLE

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


def _read_pipeline(args: argparse.Namespace) -> Pipeline:
    return parse_pipeline(_read_input(args.input))


def _read_compose(args: argparse.Namespace) -> Pipeline:
    pipeline = _read_pipeline(args)
    if not pipeline.entries:
        raise EvencobError("pipeline has no morphisms to compose")
    for entry in pipeline.entries:
        if violations := validate(entry.morphism):
            raise EvencobError(
                f"entry {entry.name!r} is not realizable: {violations[0]}", entry.line
            )
    return pipeline


def _run_compose(args: argparse.Namespace, pipeline: Pipeline) -> tuple[dict, int]:
    composite = functools.reduce(compose, (entry.morphism for entry in pipeline.entries))
    summary = _morphism_summary(composite)
    summary["source"] = pipeline.entries[0].source_name
    summary["target"] = pipeline.entries[-1].target_name
    summary["pushforward_dim"] = push_forward(composite, composite.source.lagrangian).dim
    report = _base_report("compose", {"input": args.input})
    report["results"] = [summary]
    return report, EXIT_OK


def _run_even(args: argparse.Namespace, pipeline: Pipeline) -> tuple[dict, int]:
    report = _base_report("even", {"input": args.input})
    report["results"] = [
        {**_morphism_summary(entry.morphism), "name": entry.name} for entry in pipeline.entries
    ]
    return report, EXIT_OK


def _read_gen(args: argparse.Namespace) -> tuple:
    spec = parse_generator_spec(args.spec)
    check_text_work(spec)
    morphism = random_even_morphism(spec, args.seed)
    return spec, morphism, serialize_pipeline(pipeline_for_morphism(morphism))


def _run_gen(args: argparse.Namespace, built: tuple) -> tuple[dict, int]:
    spec, morphism, text = built
    report = _base_report("gen", {"spec": format_generator_spec(spec), "seed": args.seed})
    summary = _morphism_summary(morphism)
    summary["source_genera"] = list(morphism.source.genera)
    summary["target_genera"] = list(morphism.target.genera)
    summary["pipeline"] = text
    report["results"] = [summary]
    return report, EXIT_OK


def _run_closure(args: argparse.Namespace, _: None) -> tuple[dict, int]:
    params = {"seed": args.seed, "trials": args.trials, "genus_max": args.genus_max}
    report = _base_report("closure", params)
    theorem = campaigns.THEOREMS["closure"]
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


# command -> (read, run): run(args, read(args)) is the report and the exit code
_COMMANDS = {
    "maslov": (_read_maslov, _run_maslov),
    "check": (_read_check, _run_check),
    "compose": (_read_compose, _run_compose),
    "even": (_read_pipeline, _run_even),
    "gen": (_read_gen, _run_gen),
    "closure": (lambda args: None, _run_closure),  # a sampled campaign reads only flags
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    read, run = _COMMANDS[args.command]
    reading = True
    try:
        accepted = read(args)
        reading = False
        report, code = run(args, accepted)
    except Exception as exc:
        if isinstance(exc, OutputError) or (reading and isinstance(exc, EvencobError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
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
