"""The benchmark's glue oracle, run on every composite the suite samples.

`bench/checks.py::check_glue` compares a composite with what the pieces
determine by routines apart from `compose`: the Mayer-Vietoris Betti numbers
from ranks in `bench/oracle.py`, the weight with w1 + w2 - mu(push, l, pull)
from Kashiwara's index there, the weight parity with its own evenness
right-hand side, and `validate` of the composite with the empty list.  Here it
runs on sampled pairs, built and abstract, and on gluings along disconnected
surfaces, where ker(alpha0) is not zero.  `bench/` is only loaded, never
modified: `checks` is `oracles.bench_checks`.
"""

import pytest

from evencob.cobordism import compose, evened
from evencob.sampling import random_abstract_even_pair, random_even_pair
from evencob.values import replace
from oracles import bench_checks as checks
from test_cobordism import bent_cylinder, reversed_morphism, sphere_tube

SEEDS = range(150)


def problems(m1, m2):
    return checks.check_glue(m1, m2, compose(m1, m2))


@pytest.mark.parametrize(
    "sampler", [random_even_pair, random_abstract_even_pair], ids=["built", "abstract"]
)
def test_sampled_pairs_glue_as_the_oracle_says(sampler):
    found = {seed: p for seed in SEEDS if (p := problems(*sampler(seed, 3)))}
    assert found == {}


FIXTURES = {
    **{f"sphere-tube-{k + 1}": sphere_tube(k + 1) for k in (1, 2, 3)},
    **{f"bent-cylinder-{g}": bent_cylinder(g) for g in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_gluing_along_disconnected_surfaces(name):
    # each piece glued to itself read backwards, both made even: the body
    # meets the middle surface more than once, so k0 > 0
    m = FIXTURES[name]
    m1, m2 = evened(m), evened(reversed_morphism(m))
    glued = compose(m1, m2)
    rank0 = m1.h0_dim + m2.h0_dim - glued.h0_dim
    assert m1.target.beta0 - rank0 > 0  # k0, the dimension of ker(alpha0)
    assert checks.check_glue(m1, m2, glued) == []


def test_the_oracle_sees_a_wrong_weight():
    # and its comparisons are not vacuous
    m1, m2 = random_even_pair(0, 3)
    glued = compose(m1, m2)
    wrong = replace(glued, weight=glued.weight + 2)
    assert any(p.startswith("weight:") for p in checks.check_glue(m1, m2, wrong))
