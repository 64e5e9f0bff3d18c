import sys
from pathlib import Path

import pytest
from hypothesis import settings

from evencob.maslov import maslov_index
from evencob.sampling import random_triple

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", deadline=None, max_examples=60)
# CI runs the linalg, symplectic, maslov and formats property tests,
# tests/test_cobordism.py::TestInvertibleEnds and tests/test_glue_oracle.py
# again under this profile: the kernel, the preimage and the Maslov form's sum
# skip canonicalization on the strength of them, the radical is taken as
# ker G, its size as n - rank G and a surface form applied as a gather on the
# strength of the symplectic ones, file tokens are read without a pattern and
# file rows in one pass on the strength of the formats ones, and carries,
# gluings and validate read the transfer F = T^-1 A through an end certified
# symplectic on the strength of the cobordism ones
settings.register_profile("thorough", deadline=None, max_examples=600)
settings.load_profile("suite")

CORPUS_SIZE = 1000
CORPUS_BASE_SEED = 20_000
CORPUS_GENUS_MAX = 4


@pytest.fixture(scope="session")
def triple_corpus():
    """The shared random-triple corpus: genus 1-4, degenerate forms included."""
    return [random_triple(CORPUS_BASE_SEED + i, CORPUS_GENUS_MAX) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_with_indices(triple_corpus):
    """Triples paired with their Maslov indices, computed once per session."""
    return [(t, maslov_index(t)) for t in triple_corpus]
