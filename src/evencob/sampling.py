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

from .cobordism import CobordismMorphism, SurfaceObject, evened, validate
from .generators import GeneratorSpec, random_even_morphism
from .linalg import (
    RationalMatrix,
    Subspace,
    canonical_basis,
    cokernel,
    map_subspace,
)
from .maslov import LagrangianTriple
from .symplectic import (
    SymplecticSpace,
    beta1,
    random_lagrangian,
    standard_surface_space,
)

MAX_COMPONENT_GENUS = 3
MAX_CHAIN_LENGTH = 5


def _random_unimodular(n: int, rng: random.Random) -> RationalMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n + 3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RationalMatrix(rows)


def _random_space(
    rng: random.Random, genus_max: int, pad_choices: tuple[int, ...] = (0, 0, 1, 2)
) -> tuple[int, int, SymplecticSpace, RationalMatrix | None]:
    """Genus, radical dimension, the space, and the coordinate change (or None)."""
    genus = rng.randint(1, genus_max)
    pad = rng.choice(pad_choices)
    std = standard_surface_space((genus,))
    if pad == 0:
        return genus, 0, std, None
    n = 2 * genus + pad
    base = RationalMatrix.block_diag(std.gram, RationalMatrix.zeros(pad, pad))
    change = _random_unimodular(n, rng)
    space = SymplecticSpace(change.transpose() @ base @ change)
    return genus, pad, space, change.inverse()


def _embed_lagrangian(lag: Subspace, pad: int, inverse_change: RationalMatrix | None) -> Subspace:
    if pad == 0:
        return lag
    padded = Subspace(RationalMatrix.block_diag(lag.basis, RationalMatrix.identity(pad)))
    return map_subspace(inverse_change, padded)


def _random_lagrangians(
    seed: int, genus_max: int, count: int
) -> tuple[SymplecticSpace, list[Subspace]]:
    rng = random.Random(seed)
    genus, pad, space, inv = _random_space(rng, genus_max)
    return space, [
        _embed_lagrangian(random_lagrangian(genus, rng), pad, inv) for _ in range(count)
    ]


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
        current = _after(children[-1], current)
    while len(children) < MAX_CHAIN_LENGTH and rng.random() < 0.55:
        children.append(_next_atom(rng, current, genus_max))
        current = _after(children[-1], current)
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


def _after(atom: GeneratorSpec, current: tuple[int, ...]) -> tuple[int, ...]:
    if atom.kind == "handlebody":
        return atom.genera
    if atom.kind == "cap":
        return ()
    return current


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


def _handle_swap(genera_src: tuple[int, ...], genera_tgt: tuple[int, ...]) -> RationalMatrix:
    # The boundary form (-psi) + psi becomes the standard one after swapping
    # e_i <-> f_i inside every source handle; the permutation is an involution.
    n = beta1(genera_src) + beta1(genera_tgt)
    src_handles = sum(genera_src)
    rows = [[0] * n for _ in range(n)]
    for h in range(src_handles):
        rows[2 * h][2 * h + 1] = 1
        rows[2 * h + 1][2 * h] = 1
    for c in range(2 * src_handles, n):
        rows[c][c] = 1
    return RationalMatrix(rows)


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

    def draw_object() -> SurfaceObject:
        if rng.random() < 0.2:
            return SurfaceObject((), Subspace.zero(0))
        genera = (rng.randint(1, genus_max),)
        return SurfaceObject(genera, random_lagrangian(genera[0], rng))

    src = source if source is not None else draw_object()
    tgt = draw_object()
    total = sum(src.genera) + sum(tgt.genera)
    bsrc, btgt = src.beta1, tgt.beta1
    if total:
        standard = random_lagrangian(total, rng)
        boundary_kernel = map_subspace(_handle_swap(src.genera, tgt.genera), standard)
    else:
        boundary_kernel = Subspace.zero(0)
    dim, projection = cokernel(boundary_kernel.basis.transpose())
    extra = rng.randrange(2)  # body classes not touching the boundary

    def columns(offset: int, width: int) -> RationalMatrix:
        rows = [projection.row(i)[offset : offset + width] for i in range(projection.rows)]
        block = RationalMatrix(rows, cols=width)
        return block.vstack(RationalMatrix.zeros(extra, width))

    morphism = CobordismMorphism(
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
    assert not validate(morphism)
    return morphism


def random_abstract_even_pair(
    seed: int, genus_max: int = MAX_COMPONENT_GENUS
) -> tuple[CobordismMorphism, CobordismMorphism]:
    """Two composable abstract validated records, each made even by weight."""
    rng = random.Random(seed)
    m1 = random_abstract_morphism(rng.getrandbits(32), genus_max)
    m2 = random_abstract_morphism(rng.getrandbits(32), genus_max, source=m1.target)
    return evened(m1), evened(m2)
