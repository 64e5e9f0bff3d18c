"""Maslov indices of Lagrangian triples.

For Lagrangians l1, l2, l3 of a symplectic space, the pairing

    <a, b> = psi(a2, b)        with  a = a1 + a2,  a1 in l1,  a2 in l2

is a well-defined symmetric bilinear form on (l1 + l2) cap l3; its signature is
the Maslov index of the triple.  This module builds the form exactly, computes
signatures by symmetric congruence diagonalization over the rationals, and
exposes the dimension-parity quantities the index obeys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DecompositionError,
    DimensionMismatchError,
    InvalidTripleError,
    NotSymmetricError,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    Vector,
    as_vector,
    kernel,
)
from .symplectic import SymplecticSpace


@dataclass(frozen=True)
class LagrangianTriple:
    """Three Lagrangian subspaces of one symplectic space."""

    space: SymplecticSpace
    l1: Subspace
    l2: Subspace
    l3: Subspace

    def __post_init__(self):
        for idx, lag in enumerate((self.l1, self.l2, self.l3), start=1):
            if lag.ambient_dim != self.space.dim:
                raise InvalidTripleError(
                    f"l{idx} has ambient dimension {lag.ambient_dim}, space has {self.space.dim}"
                )
            if not self.space.is_lagrangian(lag):
                raise InvalidTripleError(f"l{idx} is not Lagrangian")

    def lagrangians(self) -> tuple[Subspace, Subspace, Subspace]:
        return (self.l1, self.l2, self.l3)


@dataclass(frozen=True)
class MaslovForm:
    """The symmetric pairing on (l1 + l2) cap l3 in a fixed ambient basis."""

    domain_basis: RationalMatrix  # rows are ambient vectors spanning the domain
    gram: RationalMatrix

    def __post_init__(self):
        if self.gram.rows != self.gram.cols or self.gram.rows != self.domain_basis.rows:
            raise DimensionMismatchError(
                f"gram is {self.gram.rows}x{self.gram.cols} for a domain of dimension "
                f"{self.domain_basis.rows}"
            )
        if not self.gram.is_symmetric():
            raise NotSymmetricError("Maslov form gram must be symmetric")

    @property
    def dim(self) -> int:
        return self.domain_basis.rows


def _split(l1: Subspace, l2: Subspace, a: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """The decompose parts of every row of `a`, as two matrices, from one solve."""
    coeffs = l1.basis.vstack(l2.basis).transpose().solve(a.transpose())
    if coeffs is None:
        raise DecompositionError("vector is not in the sum of the two subspaces")
    c = [coeffs.row(i) for i in range(coeffs.rows)]
    a1 = RationalMatrix(c[: l1.dim], cols=a.rows).transpose() @ l1.basis
    a2 = RationalMatrix(c[l1.dim :], cols=a.rows).transpose() @ l2.basis
    return a1, a2


def decompose(l1: Subspace, l2: Subspace, a: Iterable) -> tuple[Vector, Vector]:
    """Split a = a1 + a2 with a1 in l1 and a2 in l2.

    The split is unique only up to an element of l1 cap l2; the returned one is
    the deterministic first solution of the stacked-basis linear system (free
    coefficients zero).  Raises DecompositionError when a is outside l1 + l2,
    distinct from the DimensionMismatchError raised on shape errors.
    """
    l1._check_ambient(l2)
    v = as_vector(a)
    if len(v) != l1.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {len(v)} in ambient dimension {l1.ambient_dim}"
        )
    a1, a2 = _split(l1, l2, RationalMatrix([v], cols=len(v)))
    return a1.row(0), a2.row(0)


def maslov_form(triple: LagrangianTriple) -> MaslovForm:
    """Gram matrix of <a, b> = psi(a2, b) on (l1 + l2) cap l3.

    Well-definedness makes the gram independent of the decomposition choice,
    and it comes out symmetric; both facts are validated by the MaslovForm
    constructor and exercised separately in the test campaigns.
    """
    l1, l2, l3 = triple.lagrangians()
    domain = (l1 + l2).intersect(l3)
    a2 = _split(l1, l2, domain.basis)[1]
    gram = a2 @ triple.space.gram @ domain.basis.transpose()
    return MaslovForm(domain.basis, gram)


def signature(gram: RationalMatrix) -> int:
    """Exact signature of a symmetric rational matrix.

    Symmetric congruence diagonalization: eliminate below each nonzero
    diagonal pivot on rows and columns simultaneously.  When the whole
    trailing diagonal is zero but some off-diagonal entry c is not, adding
    row and column j into i creates the diagonal entry 2c (nonzero in
    characteristic zero) and elimination resumes.  Congruence preserves the
    signature, so the answer is #positive - #negative diagonal entries.
    """
    if not gram.is_symmetric():
        raise NotSymmetricError("signature needs a symmetric matrix")
    n = gram.rows
    m = [list(row) for row in (gram.row(i) for i in range(n))]

    def swap(a: int, b: int) -> None:
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    pos = neg = 0
    for k in range(n):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][i]), None)
            if pivot_row is not None:
                swap(k, pivot_row)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]),
                    None,
                )
                if pair is None:
                    break  # the rest of the form is zero
                i, j = pair
                for c in range(n):
                    m[i][c] += m[j][c]
                for r in range(n):
                    m[r][i] += m[r][j]
                if i != k:
                    swap(k, i)
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / pivot
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
    return pos - neg


def maslov_index(triple: LagrangianTriple) -> int:
    """Signature of the Maslov form of the triple."""
    return signature(maslov_form(triple).gram)


def form_annihilator(triple: LagrangianTriple) -> Subspace:
    """Radical of the Maslov form, expressed in ambient coordinates.

    Computed from the gram matrix alone; the result provably equals
    (l1 cap l3) + (l2 cap l3), which is asserted as a post-check.
    """
    return _form_radical(triple, maslov_form(triple))


def _form_radical(triple: LagrangianTriple, mf: MaslovForm) -> Subspace:
    """form_annihilator for a Maslov form already built from the triple."""
    radical = Subspace(kernel(mf.gram).basis @ mf.domain_basis)
    l1, l2, l3 = triple.lagrangians()
    assert radical == l1.intersect(l3) + l2.intersect(l3)
    return radical


def _parity_formulas(triple: LagrangianTriple) -> tuple[int, int]:
    """(dim l1 + pairwise intersection dims) mod 2, then the same with sums."""
    l1, l2, l3 = triple.lagrangians()
    pairs = ((l1, l2), (l1, l3), (l2, l3))
    by_intersections = (l1.dim + sum(a.intersect(b).dim for a, b in pairs)) % 2
    by_sums = (l1.dim + sum((a + b).dim for a, b in pairs)) % 2
    return by_intersections, by_sums


def parity_prediction(triple: LagrangianTriple) -> int:
    """Predicted parity of the Maslov index from dimension data alone.

    Returns (dim l1 + sum of pairwise intersection dims) mod 2.  The
    equivalent expression with pairwise sums in place of intersections is
    computed too and the two are asserted to agree.
    """
    first, second = _parity_formulas(triple)
    assert first == second
    return first


def dim_sum_parity(triple: LagrangianTriple) -> tuple[int, int]:
    """Parities of dim(l1 + l2 + l3) and dim(l1 cap l2 cap l3), in that order."""
    l1, l2, l3 = triple.lagrangians()
    p = (l1 + l2 + l3).dim % 2
    q = l1.intersect(l2).intersect(l3).dim % 2
    return p, q
