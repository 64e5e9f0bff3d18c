"""The seed contract's sampled data, pinned by digests.

The campaign reports hash only counts, so they cannot tell whether a sampler
still draws the same forms, subspaces and records.  The first sha256 covers
the ``repr`` of every sample below: each space's gram, its subspaces and its
radical.  The second covers the ``repr`` of both morphism samplers' pairs and
of their composites.  Both were recorded before refactors of the samplers and
of ``compose`` that must not change what they draw or glue.
"""

import hashlib

from evencob.cobordism import compose
from evencob.sampling import (
    random_abstract_even_pair,
    random_even_pair,
    random_lagrangian_pair,
    random_subspace_pair,
    random_triple,
)

SEEDS = range(300)
EXPECTED = "fdf6222624b443cc74725ea116987aab0ef2dc49d9deaf38e36d550f85b985bc"

MORPHISM_SEEDS = range(200)
MORPHISM_GENUS_MAX = 3
EXPECTED_MORPHISMS = "d6e3850f2f3df213319d83c6bf7990a04631dc12284630ffc762c1d1bfbb3ec6"


def _samples():
    for seed in SEEDS:
        t = random_triple(seed, 4)
        yield t.space, t.l1, t.l2, t.l3
        yield random_lagrangian_pair(seed, 3)
        yield random_subspace_pair(seed, 3, contain_radical=bool(seed % 2))


def sample_digest() -> str:
    """sha256 over the repr of (gram, subspaces..., radical) of every sample."""
    h = hashlib.sha256()
    for space, *subspaces in _samples():
        h.update(repr((space.gram, *subspaces, space.radical())).encode())
        h.update(b"\n")
    return h.hexdigest()


def morphism_digest() -> str:
    """sha256 over the repr of (m1, m2, m2 . m1) for both morphism samplers."""
    h = hashlib.sha256()
    for seed in MORPHISM_SEEDS:
        for sampler in (random_even_pair, random_abstract_even_pair):
            m1, m2 = sampler(seed, MORPHISM_GENUS_MAX)
            h.update(repr((m1, m2, compose(m1, m2))).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_sampled_data_is_byte_identical():
    assert sample_digest() == EXPECTED


def test_sampled_morphisms_and_composites_are_byte_identical():
    assert morphism_digest() == EXPECTED_MORPHISMS
