#!/usr/bin/env python3
"""Survey Maslov index parity across genus and radical padding.

For each genus, runs the parity campaign on random Lagrangian triples (half in
degenerate ambient spaces), tabulates the index distribution, and counts
agreements between the index parity and the dimension-formula prediction.
Every count should land in the "agree" column; disagreement would be a
counterexample worth keeping.
"""

import argparse
from collections import Counter

from evencob import campaigns
from evencob.cli import _bounded_int
from evencob.generators import MAX_TEXT_GENUS


def _survey(trials: int, seed: int, genus_max: int) -> tuple[Counter[int], int]:
    """The index histogram and the number of degenerate forms over the trials
    that hold, up to the first violation; each triple is sampled once."""
    parity = campaigns.THEOREMS["parity"]
    histogram: Counter[int] = Counter()
    degenerate = 0
    for trial_seed in range(seed, seed + trials):
        (triple,) = parity.sample(trial_seed, genus_max)
        outcome = parity.evaluate(triple)
        if not outcome.holds:
            break
        histogram[outcome.details["maslov_index"]] += 1
        degenerate += triple.space.radical().dim > 0
    return histogram, degenerate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # the bounds and the integer rule of `evencob check`
    parser.add_argument("--trials", type=_bounded_int(0), default=200, help="triples per genus")
    parser.add_argument("--genus-max", type=_bounded_int(1, MAX_TEXT_GENUS), default=4)
    parser.add_argument("--seed", type=_bounded_int(), default=0)
    args = parser.parse_args()

    print(f"{'genus':>5} {'trials':>7} {'agree':>7} {'degenerate':>11}  index histogram")
    for genus in range(1, args.genus_max + 1):
        # fixing genus_max = genus pins the sampled genus range to [1, genus]
        histogram, degenerate = _survey(args.trials, args.seed + genus * 1_000_000, genus)
        spread = " ".join(f"{k}:{histogram[k]}" for k in sorted(histogram))
        agree = sum(histogram.values())
        print(f"{genus:>5} {args.trials:>7} {agree:>7} {degenerate:>11}  {spread}")


if __name__ == "__main__":
    main()
