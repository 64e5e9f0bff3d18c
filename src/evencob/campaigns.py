"""Randomized theorem campaigns with replayable counterexample files.

Each entry of the `THEOREMS` registry, named by its key, is four things: a
sampler that draws a random instance from a trial seed, an evaluator, a writer
that turns an instance into a replayable file (its kind, suffix and text), and
a reader that turns such a file into labelled instances, or None when the
theorem has no file form of its own.  The evaluator is the one place its
statement is checked: the library does not check it again, so a violation is
a counterexample and `python -O` changes nothing.
`run_campaign` is the one trial loop, for the `check` theorems and for even
closure alike: it returns the first violation, or None when every trial
holds, and the caller derives any count from that.  A violation carries the
file its writer made, so the exact failing data can be re-checked standalone:
a triple or pair theorem writes a scenario (.ssf), which its reader reads for
`check --theorem X --in file`, and closure, which has no reader, writes a
two-morphism pipeline (.cbf) for `compose --in file`.

Per-trial seeds are base seed + trial index, so reports are deterministic and
order-independent.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .cobordism import compose, is_even, validate
from .formats import (
    Pipeline,
    PipelineEntry,
    Scenario,
    _at_line,
    parse_scenario,
    serialize_pipeline,
    serialize_scenario,
)
from .linalg import Subspace
from .maslov import LagrangianTriple, _parity_by, dim_sum_parity, form_annihilator, maslov_index
from . import sampling
from .symplectic import SymplecticSpace
from .values import Value


class CheckOutcome(Value):
    def __init__(self, holds: bool, details: dict | None):
        # details None: the campaign reports no details
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "details", details)


class Failure(Value):
    def __init__(
        self, trial: int, seed: int, kind: str, suffix: str, text: str, details: dict | None
    ):
        # kind is "scenario" or "pipeline"
        object.__setattr__(self, "trial", trial)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "suffix", suffix)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "details", details)


def evaluate_parity(triple: LagrangianTriple) -> CheckOutcome:
    """Index parity equals the dimension formula, in both stated forms."""
    index = maslov_index(triple)
    by_intersections, by_sums = _parity_by(triple, "meet"), _parity_by(triple, "+")
    holds = index % 2 == by_intersections == by_sums
    return CheckOutcome(
        holds,
        {
            "maslov_index": index,
            "parity_prediction": by_intersections,
            "parity_by_intersections": by_intersections,
            "parity_by_sums": by_sums,
        },
    )


def evaluate_dim_sum(triple: LagrangianTriple) -> CheckOutcome:
    p, q = dim_sum_parity(triple)
    return CheckOutcome(p == q, {"sum_parity": p, "intersection_parity": q})


def evaluate_annihilator(triple: LagrangianTriple) -> CheckOutcome:
    """The radical of the Maslov form equals (l1^l3) + (l2^l3)."""
    radical = form_annihilator(triple)
    expected = triple._pair("meet", 1, 3) + triple._pair("meet", 2, 3)
    return CheckOutcome(
        radical == expected,
        {"radical_dim": radical.dim, "expected_dim": expected.dim},
    )


def evaluate_pair_dims(space: SymplecticSpace, a: Subspace, b: Subspace) -> CheckOutcome:
    """Lagrangians have equal dimension, and dim(sum) = dim(intersection) mod 2."""
    if not (space.is_lagrangian(a) and space.is_lagrangian(b)):
        return CheckOutcome(True, {"skipped": "pair is not Lagrangian"})
    sum_dim, meet_dim = (a + b).dim, a.intersect(b).dim
    return CheckOutcome(
        a.dim == b.dim and (sum_dim - meet_dim) % 2 == 0,
        {"dim_a": a.dim, "dim_b": b.dim, "sum_dim": sum_dim, "meet_dim": meet_dim},
    )


def evaluate_ann_identities(space: SymplecticSpace, a: Subspace, b: Subspace) -> CheckOutcome:
    """Ann(A+B) = Ann(A)^Ann(B) always; Ann(A^B) = Ann(A)+Ann(B) when both
    subspaces contain the radical (the unrestricted identity fails for
    degenerate forms)."""
    ann_a, ann_b = space.annihilator(a), space.annihilator(b)
    eq1 = space.annihilator(a + b) == ann_a.intersect(ann_b)
    radical = space.radical()
    applicable = a.contains_subspace(radical) and b.contains_subspace(radical)
    eq2 = space.annihilator(a.intersect(b)) == ann_a + ann_b if applicable else None
    holds = eq1 and (eq2 is not False)
    return CheckOutcome(
        holds,
        {"sum_identity": eq1, "intersection_identity": eq2, "radical_contained": applicable},
    )


def evaluate_closure(m1, m2) -> CheckOutcome:
    """Two realizable records compose to a realizable even one.

    Both records are validated before they are glued, so `compose` only sees
    records it is defined on, and an unrealizable sample is a violation too.
    """
    if validate(m1) or validate(m2):
        return CheckOutcome(False, None)
    composite = compose(m1, m2)
    return CheckOutcome(not validate(composite) and is_even(composite).is_even, None)


# A writer gives the file's kind as reports name it, its suffix and its text;
# each kind meets its suffix in one function.


def _scenario_file(space: SymplecticSpace, named: dict, queries=()) -> tuple[str, str, str]:
    return "scenario", ".ssf", serialize_scenario(Scenario(space, named, queries))


def write_triple(t: LagrangianTriple) -> tuple[str, str, str]:
    return _scenario_file(t.space, {"L1": t.l1, "L2": t.l2, "L3": t.l3}, (("L1", "L2", "L3"),))


def write_pair(space: SymplecticSpace, a: Subspace, b: Subspace) -> tuple[str, str, str]:
    return _scenario_file(space, {"A": a, "B": b})


def write_morphism_pair(m1, m2) -> tuple[str, str, str]:
    objects = {"a": m1.source, "b": m1.target, "c": m2.target}
    entries = (PipelineEntry("m1", "a", "b", m1), PipelineEntry("m2", "b", "c", m2))
    return "pipeline", ".cbf", serialize_pipeline(Pipeline(objects, entries))


def read_triples(text: str) -> list[tuple[tuple[str, ...], tuple]]:
    """Each triple query of a scenario file, labelled by its names, validated
    once: a query that is not a Lagrangian triple is an error naming its line."""
    scenario = parse_scenario(text)
    named, instances = scenario.named_subspaces, []
    for names, line in zip(scenario.queries, scenario.query_lines):
        with _at_line(line, f"triple {' '.join(names)}: "):
            instances.append((names, (LagrangianTriple(scenario.space, *map(named.get, names)),)))
    return instances


def read_pairs(text: str) -> list[tuple[tuple[str, ...], tuple]]:
    """Every unordered pair of a scenario file's named subspaces, in name order."""
    scenario = parse_scenario(text)
    named = scenario.named_subspaces
    return [(p, (scenario.space, *map(named.get, p))) for p in combinations(sorted(named), 2)]


class TheoremCheck(Value):
    """A registry entry, named by its key in `THEOREMS`.  An instance is the
    tuple of `evaluate`'s arguments; `write(*instance)` gives its file, and
    `read(text)` a file's labelled instances, or is None (closure)."""

    def __init__(
        self,
        sample: Callable[[int, int], tuple],
        evaluate: Callable[..., CheckOutcome],
        write: Callable[..., tuple[str, str, str]],
        read: Callable[[str], list[tuple[tuple[str, ...], tuple]]] | None,
    ):
        object.__setattr__(self, "sample", sample)
        object.__setattr__(self, "evaluate", evaluate)
        object.__setattr__(self, "write", write)
        object.__setattr__(self, "read", read)


# These wrappers look the sampling functions up in their module on every call,
# so a caller that patches `evencob.sampling` sees those calls.


def _sample_triple(seed: int, genus_max: int) -> tuple:
    return (sampling.random_triple(seed, genus_max),)


def _sample_lagrangian_pair(seed: int, genus_max: int) -> tuple:
    return sampling.random_lagrangian_pair(seed, genus_max)


def _sample_subspace_pair(seed: int, genus_max: int) -> tuple:
    # alternate unrestricted and radical-containing pairs so both halves of
    # the identity get exercised
    return sampling.random_subspace_pair(seed, genus_max, contain_radical=bool(seed % 2))


def _sample_even_pair(seed: int, genus_max: int) -> tuple:
    return sampling.random_even_pair(seed, genus_max)


def abstract_closure(seed: int, genus_max: int) -> str:
    """Whether the composite of the seed's abstract validated pair is "even"
    or "odd": the closure report counts these, it does not check them."""
    a1, a2 = sampling.random_abstract_even_pair(seed, genus_max)
    return "even" if is_even(compose(a1, a2)).is_even else "odd"


THEOREMS: dict[str, TheoremCheck] = {
    "parity": TheoremCheck(_sample_triple, evaluate_parity, write_triple, read_triples),
    "dim-sum": TheoremCheck(_sample_triple, evaluate_dim_sum, write_triple, read_triples),
    "annihilator": TheoremCheck(_sample_triple, evaluate_annihilator, write_triple, read_triples),
    "pair-dims": TheoremCheck(_sample_lagrangian_pair, evaluate_pair_dims, write_pair, read_pairs),
    "ann-identities": TheoremCheck(
        _sample_subspace_pair, evaluate_ann_identities, write_pair, read_pairs
    ),
    "closure": TheoremCheck(_sample_even_pair, evaluate_closure, write_morphism_pair, None),
}


def run_campaign(theorem: TheoremCheck, trials: int, seed: int, genus_max: int) -> Failure | None:
    """Evaluate the theorem on `trials` random instances: the first violation,
    or None when every trial holds."""
    for trial in range(trials):
        trial_seed = seed + trial
        instance = theorem.sample(trial_seed, genus_max)
        outcome = theorem.evaluate(*instance)
        if not outcome.holds:
            return Failure(trial, trial_seed, *theorem.write(*instance), outcome.details)
    return None


def evaluate_scenario(
    theorem: TheoremCheck, instances: list[tuple[tuple[str, ...], tuple]]
) -> list[tuple[tuple[str, ...], CheckOutcome]]:
    """Evaluate the theorem on each labelled instance, leaving out the ones it skips."""
    outcomes = [(label, theorem.evaluate(*instance)) for label, instance in instances]
    return [(label, out) for label, out in outcomes if "skipped" not in out.details]
