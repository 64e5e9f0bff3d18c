"""The weighted cobordism category over the rationals.

Objects are closed oriented surfaces carrying a Lagrangian subspace of their
first homology.  A morphism is modeled homologically: an integer weight plus
the maps induced on H1 and H0 by including each boundary surface into the
3-manifold.  That data determines every quantity used here, so no actual
triangulations are involved.

Composition glues along the middle surface with the rational Mayer-Vietoris
sequence, which splits over a field:

    H1(glued) = coker(alpha1) + ker(alpha0)      (coker summand first)
    H0(glued) = coker(alpha0)

where alpha_i sends a middle-surface class x to (incoming image, -outgoing
image) in the direct sum of the two bodies.  Boundary maps of the composite
factor through the cokernel projection and have zero component in the
ker(alpha0) summand, because the connecting homomorphism vanishes on classes
coming from either side.  The composite weight is

    w(m2 . m1) = w(m1) + w(m2) - mu(m1_*(lag), lag', m2^*(lag''))

with the Maslov correction evaluated in the middle surface.

Gluing along the empty surface is the monoidal product, disjoint union: the
Maslov correction lives in a 0-dimensional space and both cokernel
projections are identities, so the composite is the block sum of the two
bodies with weight w(m1) + w(m2), and compose builds it as such.

An end map that is square and preserves the standard form, A^T J A = J, is
invertible with the inverse -J A^T J (``symplectic._symplectic_inverse``).
When the target end T is one, the record's boundary relation ker[A | T], for
A = j_src_h1 and T = j_tgt_h1, is the graph of the transfer F = T^-1 A, the
cached ``_forward``; ``_backward`` = A^-1 T mirrors it through an invertible
source end.  Each is computed at most once per record, with one exact form
test, and is not a field, so equality, hashing and ``replace`` do not see it.
Every other end keeps the elimination.  Through an invertible end:

- a carry is the image under the transfer, ``map_subspace(F, L)``;
- ``validate``'s boundary kernel is {(x, -F x)}, the RREF basis [I | (-F)^T];
- gluing, the cokernel of [J1; -J2] projects by [J2 J1^-1 | I], so the
  composite's H1 maps are J2 F1 and m2.j_tgt_h1, above the k0 zero rows.

Record equality on CobordismMorphism is structural (same presentation), which
is what file round-trips need; two presentations of the same glued manifold
can differ by a basis choice, so tests compare invariants instead.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import (
    DimensionMismatchError,
    GeneraMismatchError,
    LagrangianMismatchError,
    NotAPseudoCylinderError,
    NotLagrangianError,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _preimage_of_columns,
    _times_transpose,
    cokernel,
    kernel,
    map_subspace,
)
from .maslov import LagrangianTriple, maslov_index
from .symplectic import (
    SymplecticSpace,
    _standard_inverse,
    _standard_space,
    _symplectic_inverse,
    beta0,
    beta1,
    validated_genera,
)
from .values import Value, replace


class SurfaceObject(Value):
    """A surface type (genera, one entry per component) with a Lagrangian."""

    def __init__(self, genera: tuple[int, ...], lagrangian: Subspace):
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "lagrangian", lagrangian)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "genera", validated_genera(self.genera))
        if self.lagrangian.ambient_dim != beta1(self.genera):
            raise DimensionMismatchError(
                f"lagrangian lives in dimension {self.lagrangian.ambient_dim}, "
                f"surface homology has dimension {beta1(self.genera)}"
            )
        if not self.space.is_lagrangian(self.lagrangian):
            raise NotLagrangianError(
                f"subspace of dimension {self.lagrangian.dim} is not Lagrangian "
                f"for genera {self.genera}"
            )

    @property
    def space(self) -> SymplecticSpace:
        return _standard_space(self.genera)

    @property
    def beta0(self) -> int:
        return beta0(self.genera)

    @property
    def beta1(self) -> int:
        return beta1(self.genera)

    @property
    def is_empty(self) -> bool:
        return not self.genera


def empty_surface() -> SurfaceObject:
    return SurfaceObject((), Subspace.zero(0))


class CobordismMorphism(Value):
    """A weighted cobordism, recorded by its induced maps on rational homology.

    h1_dim and h0_dim are the Betti numbers of the body; the four matrices
    are the boundary-inclusion maps (acting on column vectors of the surface
    homology coordinates).
    """

    def __init__(
        self,
        source: SurfaceObject,
        target: SurfaceObject,
        weight: int,
        h1_dim: int,
        h0_dim: int,
        j_src_h1: RationalMatrix,
        j_tgt_h1: RationalMatrix,
        j_src_h0: RationalMatrix,
        j_tgt_h0: RationalMatrix,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "h1_dim", h1_dim)
        object.__setattr__(self, "h0_dim", h0_dim)
        object.__setattr__(self, "j_src_h1", j_src_h1)
        object.__setattr__(self, "j_tgt_h1", j_tgt_h1)
        object.__setattr__(self, "j_src_h0", j_src_h0)
        object.__setattr__(self, "j_tgt_h0", j_tgt_h0)
        self.__post_init__()

    def __post_init__(self):
        shapes = (
            ("j_src_h1", self.j_src_h1, self.h1_dim, self.source.beta1),
            ("j_tgt_h1", self.j_tgt_h1, self.h1_dim, self.target.beta1),
            ("j_src_h0", self.j_src_h0, self.h0_dim, self.source.beta0),
            ("j_tgt_h0", self.j_tgt_h0, self.h0_dim, self.target.beta0),
        )
        for name, mat, rows, cols in shapes:
            if mat.rows != rows or mat.cols != cols:
                raise DimensionMismatchError(
                    f"{name} is {mat.rows}x{mat.cols}, expected {rows}x{cols}"
                )

    @cached_property
    def _forward(self) -> RationalMatrix | None:
        return _transfer(self.j_src_h1, self.j_tgt_h1)

    @cached_property
    def _backward(self) -> RationalMatrix | None:
        return _transfer(self.j_tgt_h1, self.j_src_h1)


def _transfer(start: RationalMatrix, end: RationalMatrix) -> RationalMatrix | None:
    # end^-1 start when the end map preserves the standard form, else None
    inverse = _symplectic_inverse(end)
    return None if inverse is None else inverse @ start


class EvennessReport(Value):
    """Outcome of the evenness predicate with its named parity summands."""

    def __init__(
        self, parity_rhs: int, weight_parity: int, is_even: bool, term_breakdown: dict[str, int]
    ):
        object.__setattr__(self, "parity_rhs", parity_rhs)
        object.__setattr__(self, "weight_parity", weight_parity)
        object.__setattr__(self, "is_even", is_even)
        object.__setattr__(self, "term_breakdown", term_breakdown)


def identity(surface: SurfaceObject) -> CobordismMorphism:
    """The cylinder surface x I with weight zero and identity boundary maps."""
    n1, n0 = surface.beta1, surface.beta0
    eye1, eye0 = RationalMatrix.identity(n1), RationalMatrix.identity(n0)
    return CobordismMorphism(surface, surface, 0, n1, n0, eye1, eye1, eye0, eye0)


def pseudo_cylinder(
    surface: SurfaceObject, target_lagrangian: Subspace, weight: int
) -> CobordismMorphism:
    """A cylinder whose two ends may carry different Lagrangians."""
    return _cylinder(surface, SurfaceObject(surface.genera, target_lagrangian), weight)


def _cylinder(
    source: SurfaceObject, target: SurfaceObject, weight: int, twist: RationalMatrix | None = None
) -> CobordismMorphism:
    # the pseudo-cylinder between two objects of the same genera; with a twist A
    # that preserves the form, the mapping cylinder, whose target map is -J A^T J
    m = replace(identity(source), target=target, weight=weight)
    return m if twist is None else replace(m, j_tgt_h1=_standard_inverse(twist))


def is_pseudo_cylinder(m: CobordismMorphism) -> bool:
    """Identity homological data between surfaces of the same type: the
    record, with its target set to its source and its weight to 0, is
    identity(source)."""
    if m.source.genera != m.target.genera:
        return False
    return replace(m, target=m.source, weight=0) == identity(m.source)


def inverse_pseudo_cylinder(m: CobordismMorphism) -> CobordismMorphism:
    """The two-sided inverse: ends swapped, weight negated."""
    if not is_pseudo_cylinder(m):
        raise NotAPseudoCylinderError("only pseudo-cylinders are invertible")
    return _cylinder(m.target, m.source, -m.weight)


def _carry(
    lagrangian: Subspace,
    side: str,
    start: SurfaceObject,
    j_start: RationalMatrix,
    j_end: RationalMatrix,
    transfer: RationalMatrix | None,
) -> Subspace:
    # preimage under the end inclusion of the image under the start inclusion,
    # with that image given by the columns of j_start @ basis^T; through an
    # invertible end it is the image under the transfer
    if lagrangian.ambient_dim != start.beta1:
        raise DimensionMismatchError(
            f"subspace of ambient {lagrangian.ambient_dim}, {side} surface has "
            f"dimension {start.beta1}"
        )
    if transfer is not None:
        return map_subspace(transfer, lagrangian)
    return _preimage_of_columns(j_end, _times_transpose(j_start, lagrangian.basis))


def push_forward(m: CobordismMorphism, lagrangian: Subspace) -> Subspace:
    """Carry a source-surface Lagrangian to the target surface through the body.

    Preimage under the target inclusion of the image under the source
    inclusion; Lagrangian in the target space whenever the record validates.
    `compose` builds a LagrangianTriple from it, which checks that.
    """
    return _carry(lagrangian, "source", m.source, m.j_src_h1, m.j_tgt_h1, m._forward)


def pull_back(m: CobordismMorphism, lagrangian: Subspace) -> Subspace:
    """Mirror of push_forward with source and target exchanged."""
    return _carry(lagrangian, "target", m.target, m.j_tgt_h1, m.j_src_h1, m._backward)


def epsilon(m: CobordismMorphism) -> int:
    """1 iff exactly one of the two boundary surfaces is nonempty."""
    return int(m.source.is_empty != m.target.is_empty)


def is_even(m: CobordismMorphism) -> EvennessReport:
    """Evenness: the weight parity matches the homological parity expression.

    The right-hand side is the mod-2 sum of: the dimension of the span of the
    two boundary Lagrangians pushed into the body, both Betti numbers of the
    body, the component count of the source surface, half the first Betti
    number of the target surface, and the one-sided-boundary indicator.
    """
    src_image = _times_transpose(m.source.lagrangian.basis, m.j_src_h1)
    tgt_image = _times_transpose(m.target.lagrangian.basis, m.j_tgt_h1)
    terms = {
        "lagrangian_span": src_image.vstack(tgt_image).rank(),
        "beta1_body": m.h1_dim,
        "beta0_body": m.h0_dim,
        "beta0_source": m.source.beta0,
        "half_beta1_target": m.target.beta1 // 2,
        "epsilon": epsilon(m),
    }
    rhs = sum(terms.values()) % 2
    weight_parity = m.weight % 2
    return EvennessReport(rhs, weight_parity, rhs == weight_parity, terms)


def evened(m: CobordismMorphism) -> CobordismMorphism:
    """The record itself if even, else with its weight bumped by one.

    Evenness constrains only the weight parity, so the bump makes it even.
    """
    return m if is_even(m).is_even else replace(m, weight=m.weight + 1)


@lru_cache(maxsize=None)
def _boundary_space(src_genera: tuple[int, ...], tgt_genera: tuple[int, ...]) -> SymplecticSpace:
    # Orientation convention: the source surface enters with reversed sign.
    src = _standard_space(src_genera)
    tgt = _standard_space(tgt_genera)
    return SymplecticSpace(RationalMatrix.block_diag(-src.gram, tgt.gram))


def _boundary_kernel(m: CobordismMorphism) -> Subspace:
    # the kernel of [A | T], A and T the H1 end maps; with T invertible it is
    # the graph {(x, -F x)}, whose basis [I | (-F)^T] is already in RREF
    forward = m._forward
    if forward is None:
        return kernel(m.j_src_h1.hstack(m.j_tgt_h1))
    tail = (-forward).transpose()
    return Subspace._canonical(RationalMatrix.identity(m.source.beta1).hstack(tail))


def validate(m: CobordismMorphism) -> list[str]:
    """Check the realizability invariants; violations are returned, not raised.

    Empty iff (a) every H0 column is a standard basis vector, i.e. each
    boundary component lies in exactly one body component, and (b) the kernel
    of the combined boundary map on H1 is Lagrangian for the boundary form
    (-psi_source) + psi_target, the necessary condition from duality that
    makes push_forward and pull_back produce Lagrangians.
    """
    # on the stored integers: a column is a unit vector iff its one nonzero
    # entry is its row's denominator
    issues = [
        f"{name} column {j} is not a standard basis vector"
        for name, mat in (("j_src_h0", m.j_src_h0), ("j_tgt_h0", m.j_tgt_h0))
        for j in range(mat.cols)
        if [r[j] == d for r, d in zip(mat._rows, mat._dens) if r[j]] != [True]
    ]
    boundary_kernel = _boundary_kernel(m)
    space = _boundary_space(m.source.genera, m.target.genera)
    if not space.is_lagrangian(boundary_kernel):
        half = (m.source.beta1 + m.target.beta1) // 2
        issues.append(
            "boundary kernel is not Lagrangian: dimension "
            f"{boundary_kernel.dim}, a Lagrangian has dimension {half}"
        )
    return issues


def check_composable(m1: CobordismMorphism, m2: CobordismMorphism) -> None:
    """Raise unless m1's target is m2's source: GeneraMismatchError when the
    genera differ, LagrangianMismatchError when only the Lagrangians do."""
    if m1.target.genera != m2.source.genera:
        raise GeneraMismatchError(
            f"cannot glue target genera {m1.target.genera} to source genera "
            f"{m2.source.genera}"
        )
    if m1.target.lagrangian != m2.source.lagrangian:
        raise LagrangianMismatchError(
            "middle surfaces agree on genera but carry different Lagrangians"
        )


def _block_sum(
    m1: CobordismMorphism, m2: CobordismMorphism, source: SurfaceObject, target: SurfaceObject
) -> CobordismMorphism:
    """The two bodies side by side, between the given objects: weights add,
    all maps block-sum."""
    bd = RationalMatrix.block_diag
    return CobordismMorphism(
        source,
        target,
        m1.weight + m2.weight,
        m1.h1_dim + m2.h1_dim,
        m1.h0_dim + m2.h0_dim,
        bd(m1.j_src_h1, m2.j_src_h1),
        bd(m1.j_tgt_h1, m2.j_tgt_h1),
        bd(m1.j_src_h0, m2.j_src_h0),
        bd(m1.j_tgt_h0, m2.j_tgt_h0),
    )


def compose(m1: CobordismMorphism, m2: CobordismMorphism) -> CobordismMorphism:
    """Glue m1 and m2 along the middle surface (m1 first, then m2).

    The middle objects must agree structurally, as check_composable decides;
    pipeline files are checked the same way when they are read.  Along the
    empty surface the composite is the block sum of the two bodies.
    """
    check_composable(m1, m2)
    middle = m1.target
    if middle.is_empty:
        return _block_sum(m1, m2, m1.source, m2.target)

    correction = maslov_index(
        LagrangianTriple(
            middle.space,
            push_forward(m1, m1.source.lagrangian),
            middle.lagrangian,
            pull_back(m2, m2.target.lagrangian),
        )
    )
    weight = m1.weight + m2.weight - correction

    alpha0 = m1.j_tgt_h0.vstack(-m2.j_src_h0)
    d0, q0 = cokernel(alpha0)
    k0 = alpha0.cols - alpha0.rows + d0

    def through(q: RationalMatrix, start: int, mat: RationalMatrix) -> RationalMatrix:
        # embed in the two bodies' direct sum, then project to the cokernel:
        # the other body's rows are zero, so only this body's columns of the
        # projection act
        return q._column_block(start, start + mat.rows) @ mat

    forward = m1._forward
    if forward is None:
        d1, q1 = cokernel(m1.j_tgt_h1.vstack(-m2.j_src_h1))
        j_src_h1 = through(q1, 0, m1.j_src_h1)
        j_tgt_h1 = through(q1, m1.h1_dim, m2.j_tgt_h1)
    else:
        # q1 = [J2 J1^-1 | I], so the source map is J2 F1
        d1 = m2.h1_dim
        j_src_h1 = m2.j_src_h1 @ forward
        j_tgt_h1 = m2.j_tgt_h1

    def padded(mat: RationalMatrix) -> RationalMatrix:
        # zero rows in the ker(alpha0) summand: one-sided classes have no
        # connecting image
        return mat.vstack(RationalMatrix.zeros(k0, mat.cols))

    return CobordismMorphism(
        m1.source,
        m2.target,
        weight,
        d1 + k0,
        d0,
        padded(j_src_h1),
        padded(j_tgt_h1),
        through(q0, 0, m1.j_src_h0),
        through(q0, m1.h0_dim, m2.j_tgt_h0),
    )
