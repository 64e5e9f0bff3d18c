"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

All tolerances are exact: every comparison is on arbitrary-precision rational
values, canonical subspaces, or integers.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import random
from fractions import Fraction

from evencob.cli import main
from evencob.cobordism import (
    SurfaceObject,
    compose,
    identity,
    is_even,
    pseudo_cylinder,
    push_forward,
)
from evencob.generators import cap, handlebody
from evencob.linalg import RationalMatrix, canonical_basis
from evencob.maslov import decompose, dim_sum_parity, form_annihilator
from evencob.sampling import random_even_chain, random_even_pair, random_subspace_pair
from evencob.symplectic import SymplecticSpace
from oracles import bench_oracle, combination, matrix_rows

PAIR_TRIALS = 1000
ANNIHILATOR_TRIALS = 500
SYMMETRY_TRIALS = 500
SIGNATURE_TRIALS = 200
CLOSURE_TRIALS = 300
IDENTITY_TRIALS = 100
ASSOCIATIVITY_TRIALS = 200


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_maslov_parity(corpus_with_indices):
    bad = 0
    degenerate = 0
    ambient_dims = set()
    for triple, index in corpus_with_indices:
        l1, l2, l3 = triple.lagrangians()
        pairs = ((l1, l2), (l1, l3), (l2, l3))
        by_meets = (l1.dim + sum(a.intersect(b).dim for a, b in pairs)) % 2
        by_sums = (l1.dim + sum((a + b).dim for a, b in pairs)) % 2
        if not (index % 2 == by_meets == by_sums):
            bad += 1
        if triple.space.radical().dim > 0:
            degenerate += 1
        ambient_dims.add(triple.space.dim)
    # the corpus must genuinely contain degenerate forms and every genus 1..4
    corpus_ok = degenerate >= 100 and {2, 4, 6, 8}.issubset(ambient_dims)
    _report(
        1,
        f"index parity equals both dimension formulas on {len(corpus_with_indices)} "
        f"triples ({degenerate} with degenerate ambient forms)",
        bad == 0 and corpus_ok,
    )


def test_criterion_02_dimension_congruence(triple_corpus):
    bad = sum(1 for t in triple_corpus if dim_sum_parity(t)[0] != dim_sum_parity(t)[1])
    _report(
        2,
        f"dim(l1+l2+l3) = dim(l1^l2^l3) mod 2 on {len(triple_corpus)} triples",
        bad == 0,
    )


def test_criterion_03_form_annihilator(triple_corpus):
    sample = triple_corpus[:ANNIHILATOR_TRIALS]
    bad = 0
    for t in sample:
        expected = t.l1.intersect(t.l3) + t.l2.intersect(t.l3)
        if form_annihilator(t) != expected:
            bad += 1
    _report(
        3,
        f"form annihilator equals (l1^l3)+(l2^l3) structurally on {len(sample)} triples",
        bad == 0,
    )


def test_criterion_04_symmetry_and_well_definedness(triple_corpus):
    from evencob.maslov import maslov_form

    rng = random.Random(777)
    sample = triple_corpus[:SYMMETRY_TRIALS]
    bad = 0
    for t in sample:
        mf = maslov_form(t)
        if not mf.gram.is_symmetric():
            bad += 1
            continue
        domain_rows = [mf.domain_basis.row(i) for i in range(mf.domain_basis.rows)]
        meet = t.l1.intersect(t.l2)
        perturbed = []
        for b in domain_rows:
            _, a2 = decompose(t.l1, t.l2, b)
            coeffs = [rng.randint(-2, 2) for _ in range(meet.dim)]
            shift = combination(coeffs, meet.basis_rows(), meet.ambient_dim)
            perturbed.append(tuple(x + y for x, y in zip(a2, shift)))
        regram = RationalMatrix(
            [[t.space.evaluate(a2, b) for b in domain_rows] for a2 in perturbed],
            cols=len(domain_rows),
        )
        if regram != mf.gram:
            bad += 1
    _report(
        4,
        f"gram symmetry and decomposition independence on {len(sample)} triples",
        bad == 0,
    )


def test_criterion_05_rank_congruence(corpus_with_indices):
    bad = 0
    for triple, index in corpus_with_indices:
        l1, l2, l3 = triple.lagrangians()
        domain_dim = ((l1 + l2).intersect(l3)).dim
        radical_dim = (l1.intersect(l3) + l2.intersect(l3)).dim
        if index % 2 != (domain_dim + radical_dim) % 2:
            bad += 1
    _report(
        5,
        f"index = domain dim + annihilator dim mod 2 on {len(corpus_with_indices)} triples",
        bad == 0,
    )


def test_criterion_06_signature_oracle():
    from evencob.maslov import signature

    rng = random.Random(4096)
    bad = 0
    for trial in range(SIGNATURE_TRIALS):
        n = rng.randint(1, 6)
        if trial % 4 == 0:
            sym = RationalMatrix.zeros(n, n)
            for _ in range(rng.randint(0, 2)):
                column = RationalMatrix.from_columns(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(n)]]
                )
                sym = sym + (column @ column.transpose())
        else:
            raw = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            m = RationalMatrix(raw, cols=n)
            sym = m + m.transpose()
        if signature(sym) != bench_oracle.signature(matrix_rows(sym)):
            bad += 1
    _report(
        6,
        f"congruence signature equals the Descartes oracle on {SIGNATURE_TRIALS} matrices",
        bad == 0,
    )


def test_criterion_07_annihilator_identities():
    bad = 0
    for seed in range(PAIR_TRIALS):
        space, a, b = random_subspace_pair(seed, 3)
        if space.annihilator(a + b) != space.annihilator(a).intersect(space.annihilator(b)):
            bad += 1
    for seed in range(PAIR_TRIALS):
        space, a, b = random_subspace_pair(10_000 + seed, 3, contain_radical=True)
        if space.annihilator(a.intersect(b)) != space.annihilator(a) + space.annihilator(b):
            bad += 1
    # the documented degenerate counterexample to the unrestricted identity
    space = SymplecticSpace(RationalMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    a = canonical_basis([(1, 0, 0)], 3)
    b = canonical_basis([(1, 0, 1)], 3)
    counterexample_reproduces = (
        space.annihilator(a.intersect(b)) != space.annihilator(a) + space.annihilator(b)
    )
    _report(
        7,
        f"annihilator identities on {2 * PAIR_TRIALS} pairs plus the degenerate counterexample",
        bad == 0 and counterexample_reproduces,
    )


def test_criterion_08_even_closure():
    bad = 0
    for seed in range(CLOSURE_TRIALS):
        m1, m2 = random_even_pair(seed)
        if not is_even(compose(m1, m2)).is_even:
            bad += 1
    span_e = canonical_basis([(1, 0)], 2)
    glued = compose(handlebody(1, span_e, 1), cap(1, span_e, 1))
    fixture_ok = (
        glued.weight == 2
        and glued.h1_dim == 1
        and glued.h0_dim == 1
        and is_even(glued).is_even
    )
    _report(
        8,
        f"even closure on {CLOSURE_TRIALS} random pairs plus the handlebody/cap fixture",
        bad == 0 and fixture_ok,
    )


def test_criterion_09_inverse_and_identity_laws():
    from evencob.cobordism import inverse_pseudo_cylinder
    from evencob.symplectic import random_lagrangian

    rng = random.Random(31337)
    bad = 0
    for trial in range(IDENTITY_TRIALS):
        g = rng.randint(1, 3)
        source = SurfaceObject((g,), random_lagrangian(g, rng))
        cylinder = pseudo_cylinder(source, random_lagrangian(g, rng), rng.randint(-5, 5))
        loop = compose(cylinder, inverse_pseudo_cylinder(cylinder))
        probe = random_lagrangian(g, rng)
        if not (
            loop.weight == 0
            and loop.h1_dim == 2 * g
            and loop.h0_dim == 1
            and push_forward(loop, probe) == probe
        ):
            bad += 1
            continue
        m, _ = random_even_pair(rng.getrandbits(32))
        left = compose(identity(m.source), m)
        right = compose(m, identity(m.target))
        if not (
            left == m
            and right.weight == m.weight
            and (right.h1_dim, right.h0_dim) == (m.h1_dim, m.h0_dim)
            and push_forward(right, m.source.lagrangian)
            == push_forward(m, m.source.lagrangian)
        ):
            bad += 1
    _report(
        9,
        f"cylinder inverses and identity laws on {IDENTITY_TRIALS} trials",
        bad == 0,
    )


def test_criterion_10_mayer_vietoris_fixtures():
    span_e = canonical_basis([(1, 0)], 2)
    rotation = RationalMatrix([[0, -1], [1, 0]])
    sphere_product = compose(handlebody(1, span_e, 1), cap(1, span_e, 1))
    three_sphere = compose(handlebody(1, span_e, 0), cap(1, span_e, 0, rotation))
    ok = (sphere_product.h1_dim, sphere_product.h0_dim) == (1, 1)
    ok = ok and (three_sphere.h1_dim, three_sphere.h0_dim) == (0, 1)
    for g in range(1, 5):
        lag = canonical_basis(
            [tuple(1 if c == 2 * i else 0 for c in range(2 * g)) for i in range(g)], 2 * g
        )
        double = compose(handlebody(g, lag, 0), cap(g, lag, 0))
        ok = ok and (double.h1_dim, double.h0_dim) == (g, 1)
    _report(10, "S^3, S^1xS^2 and genus-g double homology fixtures", ok)


def test_criterion_11_weight_associativity():
    bad = 0
    for seed in range(ASSOCIATIVITY_TRIALS):
        m1, m2, m3 = random_even_chain(seed, 3)
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        if left.weight != right.weight:
            bad += 1
    _report(
        11,
        f"composition weight associativity on {ASSOCIATIVITY_TRIALS} random triples",
        bad == 0,
    )


def test_criterion_12_cli_determinism(capsys):
    argv = [
        "check",
        "--theorem",
        "parity",
        "--seed",
        "7",
        "--trials",
        "100",
        "--output",
        "json",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    parsed = json.loads(out1)
    ok = code1 == 0 and code2 == 0 and out1 == out2 and parsed["status"] == "holds"
    _report(12, "byte-identical JSON and exit 0 for repeated seeded parity checks", ok)
