"""Seed-driven construction of campaign inputs.

Every sampler takes a bare integer seed and builds its own random.Random, so
campaigns derive per-trial seeds as base + trial index and stay
order-independent and replayable.

Degenerate ambient forms are produced by padding a standard surface form with
a radical block and shearing the whole space by a random unimodular integer
matrix, so the degeneracy is not axis-aligned.
"""

from __future__ import annotations

import random

from .cobordism import CobordismMorphism, SurfaceObject, evened
from .generators import GeneratorSpec, _draw_object, random_even_morphism, target_genera
from .linalg import (
    RationalMatrix,
    Subspace,
    _times_transpose,
    canonical_basis,
    cokernel,
)
from .maslov import LagrangianTriple
from .symplectic import (
    SymplecticSpace,
    _lagrangian_rows,
    standard_surface_space,
)

MAX_COMPONENT_GENUS = 3
MAX_CHAIN_LENGTH = 5


def _random_unimodular(n: int, rng: random.Random) -> tuple[RationalMatrix, RationalMatrix]:
    """A random unimodular integer matrix and its inverse.

    Each step adds c times row j to row i, a left factor I + c E_ij.  Its
    inverse I - c E_ij, applied on the right in the same order, subtracts c
    times column i from column j of the inverse built so far.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inverse = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n + 3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for row in inverse:
            row[j] -= c * row[i]
    return RationalMatrix(rows), RationalMatrix(inverse)


def _random_space(
    rng: random.Random, genus_max: int, pad_choices: tuple[int, ...] = (0, 0, 1, 2)
) -> tuple[int, int, SymplecticSpace, RationalMatrix | None]:
    """Genus, radical dimension, the space, and the inverse coordinate change (or None)."""
    genus = rng.randint(1, genus_max)
    pad = rng.choice(pad_choices)
    std = standard_surface_space((genus,))
    if pad == 0:
        return genus, 0, std, None
    n = 2 * genus + pad
    base = RationalMatrix.block_diag(std.gram, RationalMatrix.zeros(pad, pad))
    change, inverse = _random_unimodular(n, rng)
    space = SymplecticSpace(change.transpose() @ base @ change)
    return genus, pad, space, inverse


def _random_lagrangians(
    seed: int, genus_max: int, count: int
) -> tuple[SymplecticSpace, list[Subspace]]:
    """The space and `count` walked Lagrangians, each from one elimination.

    In a padded space the walk's rows, beside the radical's unit rows, are
    mapped by the inverse coordinate change before the one canonicalization.
    """
    rng = random.Random(seed)
    genus, pad, space, inverse = _random_space(rng, genus_max)
    n = space.dim
    radical = [(0,) * (n - pad + k) + (1,) + (0,) * (pad - 1 - k) for k in range(pad)]
    lags = []
    for _ in range(count):
        rows = _lagrangian_rows(genus, rng)
        if inverse is None:
            lags.append(Subspace(RationalMatrix._of_ints(rows, n)))
        else:
            padded = RationalMatrix._of_ints([r + (0,) * pad for r in rows] + radical, n)
            lags.append(Subspace(_times_transpose(padded, inverse)))
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
    dim, projection = cokernel(boundary_kernel.basis.transpose())
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
        RationalMatrix([[1] * src.beta0], cols=src.beta0),
        RationalMatrix([[1] * tgt.beta0], cols=tgt.beta0),
    )


def random_abstract_even_pair(
    seed: int, genus_max: int = MAX_COMPONENT_GENUS
) -> tuple[CobordismMorphism, CobordismMorphism]:
    """Two composable abstract validated records, each made even by weight."""
    rng = random.Random(seed)
    m1 = random_abstract_morphism(rng.getrandbits(32), genus_max)
    m2 = random_abstract_morphism(rng.getrandbits(32), genus_max, source=m1.target)
    return evened(m1), evened(m2)
