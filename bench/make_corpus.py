"""Make the file-replay corpus anew from its seeds.

    python3 bench/make_corpus.py            write bench/corpus/
    python3 bench/make_corpus.py --check    exit 1 unless the committed files
                                            are reproduced byte for byte

Scenarios (.ssf): scenario k holds the triple sampling.random_triple(seed, 4)
for seed SCENARIO_SEED0 + k, moved by a seeded rational change of basis P.
A vector x becomes P^-1 x and the form's Gram matrix G becomes P^T G P, so
every Maslov quantity is unchanged while the entries are non-integral.  About
half of the forms are degenerate, as random_triple makes them.

Chains (.cbf): chain k holds sampling.random_even_chain(seed, length, 3) for
seed CHAIN_SEED0 + k, with lengths cycling through CHAIN_LENGTHS, written as
explicit morphism records.

The files are committed, so later changes to the samplers leave the corpus
as it is; this script then documents how it was made.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

SCENARIO_SEED0 = 3000
SCENARIOS = 30
SCENARIO_GENUS_MAX = 4
CHAIN_SEED0 = 9000
CHAINS = 20
CHAIN_LENGTHS = (3, 4, 5)
CHAIN_GENUS_MAX = 3

# Off-diagonal multipliers and diagonal scalings of the change of basis.
_MULTIPLIERS = tuple(Fraction(x) for x in ("1/2", "-1/3", "2/3", "-3/2", "2", "-1"))
_SCALES = tuple(Fraction(x) for x in ("1/2", "-2/3", "3", "-1", "5/4", "1"))


def _rational_change(n: int, rng: random.Random):
    from evencob.linalg import RationalMatrix

    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(_SCALES)
    for _ in range(n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice(_MULTIPLIERS)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RationalMatrix(rows, cols=n)


def _line(values) -> str:
    return " ".join(str(x) for x in values)


def scenario_text(seed: int) -> str:
    from evencob.sampling import random_triple

    triple = random_triple(seed, SCENARIO_GENUS_MAX)
    n = triple.space.dim
    change = _rational_change(n, random.Random(seed + 1_000_000))
    gram = change.transpose() @ triple.space.gram @ change
    inverse = change.inverse()
    out = [
        f"# random_triple({seed}, {SCENARIO_GENUS_MAX}) under a rational change of basis",
        f"form {n}",
    ]
    out += [_line(gram.row(i)) for i in range(n)]
    for name, lag in zip(("L1", "L2", "L3"), triple.lagrangians()):
        out.append(f"subspace {name} {lag.dim}")
        out += [_line(inverse.apply(row)) for row in lag.basis_rows()]
    out.append("triple L1 L2 L3")
    return "\n".join(out) + "\n"


def chain_text(seed: int, length: int) -> str:
    from evencob.formats import Pipeline, PipelineEntry, serialize_pipeline
    from evencob.sampling import random_even_chain

    chain = random_even_chain(seed, length, CHAIN_GENUS_MAX)
    objects = {"o0": chain[0].source}
    entries = []
    for k, m in enumerate(chain, start=1):
        objects[f"o{k}"] = m.target
        entries.append(PipelineEntry(f"m{k}", f"o{k - 1}", f"o{k}", m))
    header = f"# random_even_chain({seed}, {length}, {CHAIN_GENUS_MAX})\n"
    return header + serialize_pipeline(Pipeline(objects, tuple(entries)))


def corpus() -> dict[str, str]:
    """File name -> content, for the whole corpus."""
    files = {}
    for k in range(SCENARIOS):
        files[f"scenario-{k:02d}.ssf"] = scenario_text(SCENARIO_SEED0 + k)
    for k in range(CHAINS):
        length = CHAIN_LENGTHS[k % len(CHAIN_LENGTHS)]
        files[f"chain-{k:02d}.cbf"] = chain_text(CHAIN_SEED0 + k, length)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed files")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    files = corpus()
    if args.check:
        committed = {p.name for p in CORPUS_DIR.glob("*") if p.suffix in (".ssf", ".cbf")}
        differ = sorted(
            name for name, text in files.items()
            if not (CORPUS_DIR / name).is_file() or (CORPUS_DIR / name).read_text() != text
        )
        extra = sorted(committed - set(files))
        for name in differ + extra:
            print(f"differs: {name}")
        print(f"{len(files) - len(differ)} of {len(files)} files reproduced byte for byte")
        return 1 if differ or extra else 0
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, text in files.items():
        (CORPUS_DIR / name).write_text(text)
    print(f"wrote {len(files)} files to {CORPUS_DIR.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
