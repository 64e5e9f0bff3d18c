"""Maslov indices of Lagrangian triples.

For Lagrangians l1, l2, l3 of a symplectic space, the pairing

    <a, b> = psi(a2, b)        with  a = a1 + a2,  a1 in l1,  a2 in l2

is a well-defined symmetric bilinear form on (l1 + l2) cap l3; its signature is
the Maslov index of the triple.  This module builds the form exactly, computes
signatures by Sylvester's law over 1x1 and 2x2 pivot blocks on integers, and
exposes the dimension-parity quantities the index obeys.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain
from math import gcd
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
    _reduced,
    _times_transpose,
    as_vector,
    kernel,
)
from .symplectic import SymplecticSpace
from .values import Value


class LagrangianTriple(Value):
    """Three Lagrangian subspaces of one symplectic space."""

    def __init__(self, space: SymplecticSpace, l1: Subspace, l2: Subspace, l3: Subspace):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "l3", l3)
        self.__post_init__()

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

    @cached_property
    def _lattice(self) -> dict[tuple[str, int, int], Subspace]:
        # the pairwise sums and intersections asked for so far, keyed by
        # ("+" or "meet", i, j); the table dies with the triple
        return {}

    def _pair(self, op: str, i: int, j: int) -> Subspace:
        """l_i + l_j (op "+") or l_i cap l_j (op "meet"), computed on first use."""
        key = (op, i, j)
        table = self._lattice
        if key not in table:
            lags = self.lagrangians()
            a, b = lags[i - 1], lags[j - 1]
            table[key] = a + b if op == "+" else a.intersect(b)
        return table[key]


class MaslovForm(Value):
    """The symmetric pairing on (l1 + l2) cap l3 in a fixed ambient basis."""

    def __init__(self, domain_basis: RationalMatrix, gram: RationalMatrix):
        # the rows of domain_basis are ambient vectors spanning the domain
        object.__setattr__(self, "domain_basis", domain_basis)
        object.__setattr__(self, "gram", gram)
        self.__post_init__()

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
    system = l1.basis.vstack(l2.basis).transpose()
    coeffs = system.solve(RationalMatrix.from_columns([v], rows=len(v)))
    if coeffs is None:
        raise DecompositionError("vector is not in the sum of the two subspaces")
    k = l1.dim  # coefficient rows k onward weigh the rows of l2's basis
    weights = RationalMatrix._of(coeffs._rows[k:], coeffs._dens[k:], 1)
    a2 = (weights.transpose() @ l2.basis).row(0)
    return tuple([x - y for x, y in zip(v, a2)]), a2


def maslov_form(triple: LagrangianTriple) -> MaslovForm:
    """Gram matrix of <a, b> = psi(a2, b) on (l1 + l2) cap l3.

    Well-definedness makes the gram independent of the decomposition choice,
    which the tests check by perturbing the split.  The gram comes out
    symmetric, which the MaslovForm constructor checks.

    One elimination splits the sum (Zassenhaus): the RREF of
    ``[[B1, 0], [B2, B2]]``, for the bases B1 of l1 and B2 of l2, spans the
    pairs (a1 + a2, a2).  Its rows s_i | y_i that start in the left half have
    left halves s_i that are the RREF basis of l1 + l2, and right halves y_i
    in l2 with s_i - y_i in l1.  A domain row d is the combination of the s_i
    with the coefficients d[pivot_i], so its l2 part is the same combination
    of the y_i.  With C those coefficients, D the domain basis and G the
    space's gram, the gram is C Y G D^T = (C Y) (D G^T)^T.  The rows G d of
    D G^T come from the space's ``_images``, a signed gather on the surface
    and boundary forms, so C Y is the one matrix product.  When every
    left-half column is a pivot, l1 + l2 is the whole space: the domain is l3
    itself, C is D, and neither the sum's basis nor the intersection is built.
    """
    l1, l2, l3 = triple.lagrangians()
    n = triple.space.dim
    pad = (0,) * n
    rows = tuple([r + pad for r in l1.basis._rows] + [r + r for r in l2.basis._rows])
    red, pivots = RationalMatrix._of(rows, l1.basis._dens + l2.basis._dens, 2 * n).rref()
    k = bisect_left(pivots, n)  # the rows that start in the left half
    split = RationalMatrix._of(red._rows[:k], red._dens[:k], 2 * n)
    y = split._column_block(n, 2 * n)
    if k == n:
        # l1 + l2 is the whole space: the domain is l3, and each of its rows
        # is its own coefficient vector
        d = c = l3.basis
    else:
        d = Subspace._canonical(split._column_block(0, n)).intersect(l3).basis
        c = RationalMatrix._of_pairs(
            [_reduced([r[p] for p in pivots[:k]], e) for r, e in zip(d._rows, d._dens)], k
        )
    gram = _times_transpose(c @ y, triple.space._images(d))
    return MaslovForm(d, gram)


def signature(gram: RationalMatrix) -> int:
    """Exact signature of a symmetric rational matrix, fraction-free.

    Sylvester's law of inertia over 1x1 and 2x2 pivot blocks (Bunch-Kaufman):
    the first nonzero diagonal entry p is a block counting sign(p); on a zero
    diagonal, the first nonzero c at (i, j), i < j, gives [[0, c], [c, 0]],
    counting +1 - 1 = 0.  The loop goes on with the block's Schur complement.
    It runs on integers (after Bareiss): the gram is scaled by the lcm of its
    denominators, each Schur complement by |p| (or |c|), and each is then
    divided by the gcd of its entries.  Positive scalings keep the inertia
    and which entries are zero, so the pivots are the ones the rational loop
    takes.
    """
    if not gram.is_symmetric():
        raise NotSymmetricError("signature needs a symmetric matrix")
    m = [list(row) for row in gram._over_one_denominator()[0]]
    total = 0
    while m:
        n = len(m)
        k = next((k for k in range(n) if m[k][k]), None)
        if k is not None:
            top = m.pop(k)
            p = top.pop(k)
            sign, scale = (1, p) if p > 0 else (-1, -p)
            total += sign
            # |p| (row - (f / p) top) for each remaining row
            for row in m:
                f = sign * row.pop(k)
                if f:
                    row[:] = [scale * a - f * b for a, b in zip(row, top)]
                elif scale != 1:
                    row[:] = [scale * a for a in row]
        else:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
            if pair is None:
                break  # the rest of the form is zero
            i, j = pair
            c = m[i][j]
            sign, scale = (1, c) if c > 0 else (-1, -c)
            rest = [r for r in range(n) if r not in pair]
            m = [
                [scale * m[r][s] - sign * (m[r][i] * m[j][s] + m[r][j] * m[i][s]) for s in rest]
                for r in rest
            ]
        g = gcd(*chain.from_iterable(m))
        if g > 1:
            m = [[a // g for a in row] for row in m]
    return total


def maslov_index(triple: LagrangianTriple) -> int:
    """Signature of the Maslov form of the triple."""
    return signature(maslov_form(triple).gram)


def form_annihilator(triple: LagrangianTriple) -> Subspace:
    """Radical of the Maslov form, expressed in ambient coordinates.

    Computed from the gram matrix alone.  That it equals
    (l1 cap l3) + (l2 cap l3) is a theorem, which the `annihilator` campaign
    checks.
    """
    return _form_radical(maslov_form(triple))


def _form_radical(mf: MaslovForm) -> Subspace:
    """form_annihilator for a Maslov form already built."""
    return Subspace(kernel(mf.gram).basis @ mf.domain_basis)


def _parity_by(triple: LagrangianTriple, op: str) -> int:
    """(dim l1 + the dims of the pairwise intersections, op "meet", or of the
    pairwise sums, op "+") mod 2.

    Sums come from `+` and intersections from `intersect`, so the two forms
    stay independent computations.
    """
    pairs = ((1, 2), (1, 3), (2, 3))
    return (triple.l1.dim + sum(triple._pair(op, i, j).dim for i, j in pairs)) % 2


def parity_prediction(triple: LagrangianTriple) -> int:
    """Predicted parity of the Maslov index from dimension data alone.

    Returns (dim l1 + sum of pairwise intersection dims) mod 2.  That the
    index has this parity, and that pairwise sums in place of intersections
    give the same value, is what the `parity` campaign checks.
    """
    return _parity_by(triple, "meet")


def dim_sum_parity(triple: LagrangianTriple) -> tuple[int, int]:
    """Parities of dim(l1 + l2 + l3) and dim(l1 cap l2 cap l3), in that order."""
    p = (triple._pair("+", 1, 2) + triple.l3).dim % 2
    q = triple._pair("meet", 1, 2).intersect(triple.l3).dim % 2
    return p, q
