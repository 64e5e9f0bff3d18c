"""Seed-driven construction of campaign inputs.

Every sampler takes a bare integer seed and builds its own random.Random, so
campaigns derive per-trial seeds as base + trial index and stay
order-independent and replayable.

Degenerate ambient forms are produced by padding a standard surface form with
a radical block and shearing the whole space by a random unimodular integer
matrix C, so the degeneracy is not axis-aligned.  C is kept as its steps, each
an elementary row operation: the gram C^T (J + 0) C is built from them by
congruence and each padded Lagrangian row is unsheared by them, on integers,
with no matrix product.
"""

from __future__ import annotations

import random
from typing import Sequence

from .cobordism import CobordismMorphism, SurfaceObject, evened
from .generators import GeneratorSpec, _draw_object, random_even_morphism, target_genera
from .linalg import RationalMatrix, Subspace, _leading, _null_rows, canonical_basis
from .maslov import LagrangianTriple
from .symplectic import (
    SymplecticSpace,
    _int_standard_gram,
    _lagrangian_rows,
    standard_surface_space,
)

MAX_COMPONENT_GENUS = 3
MAX_CHAIN_LENGTH = 5


Step = tuple[int, int, int]


def _random_shear(n: int, rng: random.Random) -> list[Step]:
    """The steps (i, j, c) of a random unimodular integer matrix C = E_k ... E_1.

    Step E = I + c E_ij adds c times row j to row i; a draw with i = j is no
    step.  No matrix is formed: the gram and the Lagrangians apply the steps.
    """
    steps = []
    for _ in range(n + 3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        steps.append((i, j, rng.choice((-2, -1, 1, 2))))
    return steps


def _random_space(
    rng: random.Random, genus_max: int, pad_choices: tuple[int, ...] = (0, 0, 1, 2)
) -> tuple[int, int, SymplecticSpace, list[Step]]:
    """Genus, radical dimension, the space, and the steps of its shear (none unpadded).

    A padded space has the gram C^T (J + 0) C, for J the standard form and 0
    the radical block, built by congruence on integers: for each step, from
    the last to the first, column j += c column i, then row j += c row i.
    """
    genus = rng.randint(1, genus_max)
    pad = rng.choice(pad_choices)
    if pad == 0:
        return genus, 0, standard_surface_space((genus,)), []
    n = 2 * genus + pad
    gram = [row + [0] * pad for row in _int_standard_gram(genus)]
    gram += [[0] * n for _ in range(pad)]
    steps = _random_shear(n, rng)
    for i, j, c in reversed(steps):
        for row in gram:
            row[j] += c * row[i]
        gram[j] = [a + c * b for a, b in zip(gram[j], gram[i])]
    space = SymplecticSpace(RationalMatrix._of_ints([tuple(r) for r in gram], n))
    return genus, pad, space, steps


def _unsheared(v: Sequence, steps: Sequence[Step]) -> tuple:
    """C^-1 v for the shear C with these steps: v[i] -= c v[j], last step first."""
    v = list(v)
    for i, j, c in reversed(steps):
        v[i] -= c * v[j]
    return tuple(v)


def _random_lagrangians(
    seed: int, genus_max: int, count: int
) -> tuple[SymplecticSpace, list[Subspace]]:
    """The space and `count` walked Lagrangians, each from one elimination.

    In a padded space the walk's rows, beside the radical's unit rows, are
    unsheared (mapped by C^-1) before the one canonicalization.
    """
    rng = random.Random(seed)
    genus, pad, space, steps = _random_space(rng, genus_max)
    n = space.dim
    radical = [(0,) * (n - pad + k) + (1,) + (0,) * (pad - 1 - k) for k in range(pad)]
    lags = []
    for _ in range(count):
        rows = [r + (0,) * pad for r in _lagrangian_rows(genus, rng)] + radical
        if steps:
            rows = [_unsheared(r, steps) for r in rows]
        lags.append(Subspace(RationalMatrix._of_ints(rows, n)))
    return space, lags


def random_triple(seed: int, genus_max: int) -> LagrangianTriple:
    """A random Lagrangian triple; roughly half live in degenerate spaces."""
    space, lags = _random_lagrangians(seed, genus_max, 3)
    return LagrangianTriple(space, *lags)


def random_lagrangian_pair(seed: int, genus_max: int) -> tuple[SymplecticSpace, Subspace, Subspace]:
    space, (a, b) = _random_lagrangians(seed, genus_max, 2)
    return space, a, b


def random_subspace(space: SymplecticSpace, rng: random.Random) -> Subspace:
    n = space.dim
    count = rng.randint(0, n)
    vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(count)]
    return canonical_basis(vectors, n)


def random_subspace_pair(
    seed: int, genus_max: int, contain_radical: bool = False
) -> tuple[SymplecticSpace, Subspace, Subspace]:
    """Two arbitrary subspaces of a (usually degenerate) space."""
    rng = random.Random(seed)
    _, _, space, _ = _random_space(rng, genus_max, pad_choices=(0, 1, 1, 2))
    a = random_subspace(space, rng)
    b = random_subspace(space, rng)
    if contain_radical:
        radical = space.radical()
        a = a + radical
        b = b + radical
    return space, a, b


# -- random morphism shapes ----------------------------------------------------


def _draw_genera(rng: random.Random, genus_max: int) -> tuple[int, ...]:
    components = 2 if rng.random() < 0.2 else 1
    return tuple(rng.randint(1, genus_max) for _ in range(components))


def _cylinder_atom(rng: random.Random, genera: tuple[int, ...]) -> GeneratorSpec:
    kind = "pseudo_cylinder" if rng.random() < 0.5 else "twisted_cylinder"
    return GeneratorSpec(kind, genera=genera)


def random_shape(
    rng: random.Random,
    source_genera: tuple[int, ...] | None = None,
    genus_max: int = MAX_COMPONENT_GENUS,
) -> GeneratorSpec:
    """A random composite build plan with bounded genus and chain length."""
    genus_max = min(genus_max, MAX_COMPONENT_GENUS)
    children: list[GeneratorSpec] = []
    if source_genera is None:
        roll = rng.randrange(4)
        if roll == 0:
            g = rng.randint(0, genus_max)
            children.append(GeneratorSpec("handlebody", genera=(g,)))
            current: tuple[int, ...] = (g,)
        elif roll == 1:
            g1, g2 = rng.randint(1, genus_max), rng.randint(1, genus_max)
            children.append(
                GeneratorSpec(
                    "disjoint_union",
                    children=(
                        GeneratorSpec("handlebody", genera=(g1,)),
                        GeneratorSpec("handlebody", genera=(g2,)),
                    ),
                )
            )
            current = (g1, g2)
        else:
            current = _draw_genera(rng, genus_max)
            children.append(_cylinder_atom(rng, current))
    else:
        current = tuple(source_genera)
        children.append(_next_atom(rng, current, genus_max))
        current = target_genera(children[-1], current)
    while len(children) < MAX_CHAIN_LENGTH and rng.random() < 0.55:
        children.append(_next_atom(rng, current, genus_max))
        current = target_genera(children[-1], current)
    if len(children) == 1:
        return children[0]
    return GeneratorSpec("composite", children=tuple(children))


def _next_atom(
    rng: random.Random, current: tuple[int, ...], genus_max: int
) -> GeneratorSpec:
    if current == ():
        return GeneratorSpec("handlebody", genera=(rng.randint(0, genus_max),))
    if len(current) == 1 and rng.random() < 0.25:
        return GeneratorSpec("cap", genera=current)
    return _cylinder_atom(rng, current)


def random_even_chain(
    seed: int, count: int, genus_max: int = MAX_COMPONENT_GENUS
) -> tuple[CobordismMorphism, ...]:
    """Composable even generator-built morphisms, target-to-source chained."""
    rng = random.Random(seed)
    morphisms: list[CobordismMorphism] = []
    previous: SurfaceObject | None = None
    for _ in range(count):
        shape = random_shape(
            rng,
            source_genera=None if previous is None else previous.genera,
            genus_max=genus_max,
        )
        m = random_even_morphism(shape, rng.getrandbits(32), source=previous)
        morphisms.append(m)
        previous = m.target
    return tuple(morphisms)


def random_even_pair(
    seed: int, genus_max: int = MAX_COMPONENT_GENUS
) -> tuple[CobordismMorphism, CobordismMorphism]:
    m1, m2 = random_even_chain(seed, 2, genus_max)
    return m1, m2


# -- abstract records ----------------------------------------------------------


def random_abstract_morphism(
    seed: int,
    genus_max: int = MAX_COMPONENT_GENUS,
    source: SurfaceObject | None = None,
) -> CobordismMorphism:
    """A validated record sampled directly, not built from generators.

    Draws a random Lagrangian kernel in the boundary form and presents H1 of
    the body as the quotient by it, so the realizability invariant holds by
    construction; H0 is a single component.
    """
    rng = random.Random(seed)

    def genera() -> tuple[int, ...]:
        return () if rng.random() < 0.2 else (rng.randint(1, genus_max),)

    src = source if source is not None else _draw_object(genera(), rng)
    tgt = _draw_object(genera(), rng)
    total = sum(src.genera) + sum(tgt.genera)
    bsrc, btgt = src.beta1, tgt.beta1
    if total:
        # The boundary form (-psi) + psi becomes the standard one after swapping
        # e_i and f_i, coordinates 2h and 2h + 1, inside every source handle.
        rows = [
            tuple([r[k ^ 1 if k < bsrc else k] for k in range(len(r))])
            for r in _lagrangian_rows(total, rng)
        ]
        boundary_kernel = Subspace(RationalMatrix._of_ints(rows, 2 * total))
    else:
        boundary_kernel = Subspace.zero(0)
    # the projection onto Q^2total / kernel, read off the kernel's RREF basis
    # as the cokernel of its transpose would read it
    basis = boundary_kernel.basis
    pairs = _null_rows(basis, tuple(map(_leading, basis._rows)))
    dim, projection = len(pairs), RationalMatrix._of_pairs(pairs, basis.cols)
    extra = rng.randrange(2)  # body classes not touching the boundary

    def columns(offset: int, width: int) -> RationalMatrix:
        block = projection._column_block(offset, offset + width)
        return block.vstack(RationalMatrix.zeros(extra, width))

    return CobordismMorphism(
        src,
        tgt,
        rng.randrange(-3, 4),
        dim + extra,
        1,
        columns(0, bsrc),
        columns(bsrc, btgt),
        RationalMatrix._of_ints([(1,) * src.beta0], src.beta0),
        RationalMatrix._of_ints([(1,) * tgt.beta0], tgt.beta0),
    )


def random_abstract_even_pair(
    seed: int, genus_max: int = MAX_COMPONENT_GENUS
) -> tuple[CobordismMorphism, CobordismMorphism]:
    """Two composable abstract validated records, each made even by weight."""
    rng = random.Random(seed)
    m1 = random_abstract_morphism(rng.getrandbits(32), genus_max)
    m2 = random_abstract_morphism(rng.getrandbits(32), genus_max, source=m1.target)
    return evened(m1), evened(m2)
