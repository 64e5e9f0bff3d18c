"""The seed contract's sampled data, pinned by one digest.

The campaign reports hash only counts, so they cannot tell whether a sampler
still draws the same forms and subspaces.  This sha256 covers the ``repr`` of
every sample below: each space's gram, its subspaces and its radical.  It was
recorded before refactors of the samplers that must not change what they draw.
"""

import hashlib

from evencob.sampling import random_lagrangian_pair, random_subspace_pair, random_triple

SEEDS = range(300)
EXPECTED = "fdf6222624b443cc74725ea116987aab0ef2dc49d9deaf38e36d550f85b985bc"


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


def test_sampled_data_is_byte_identical():
    assert sample_digest() == EXPECTED
