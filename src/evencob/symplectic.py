"""Skew-symmetric bilinear forms, annihilators, and Lagrangian subspaces.

Degenerate forms are first-class: nothing here assumes the Gram matrix is
invertible, and the radical is simply the annihilator of the whole space.
The module also provides the standard intersection form of a disjoint union
of closed surfaces and seed-deterministic random symplectic matrices and
Lagrangians used throughout the test campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NonSkewFormError
from .linalg import (
    IntRow,
    RationalMatrix,
    Subspace,
    _times_transpose,
    as_vector,
    kernel,
)

#: Default number of generator factors in a random symplectic walk.  Long
#: enough to move Lagrangians well away from coordinate subspaces while the
#: integer entries stay small.
DEFAULT_WALK_LENGTH = 20


@dataclass(frozen=True)
class SymplecticSpace:
    """A rational vector space with a skew-symmetric, possibly degenerate form."""

    gram: RationalMatrix

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols:
            raise NonSkewFormError(f"gram matrix is {g.rows}x{g.cols}, not square")
        # entry (i, j) is -entry (j, i) iff rows[i][j] / dens[i] = -rows[j][i] / dens[j]
        rows, dens = g._rows, g._dens
        for i, (row, den) in enumerate(zip(rows, dens)):
            for j in range(i, len(rows)):
                if row[j] * dens[j] != -rows[j][i] * den:
                    raise NonSkewFormError(f"gram[{i}][{j}] != -gram[{j}][{i}]")

    @property
    def dim(self) -> int:
        return self.gram.rows

    def evaluate(self, x: Iterable, y: Iterable) -> Fraction:
        """Value of the form on a pair of vectors: x^T gram y."""
        vx, vy = as_vector(x), as_vector(y)
        if len(vx) != self.dim or len(vy) != self.dim:
            raise DimensionMismatchError(
                f"vectors of lengths {len(vx)}, {len(vy)} in dimension {self.dim}"
            )
        return (RationalMatrix([vx], cols=self.dim) @ self.gram).apply(vy)[0]

    def _check_ambient(self, sub: Subspace) -> None:
        if sub.ambient_dim != self.dim:
            raise DimensionMismatchError(
                f"subspace of ambient {sub.ambient_dim} in a space of dimension {self.dim}"
            )

    def annihilator(self, sub: Subspace) -> Subspace:
        """All vectors pairing to zero with every element of the subspace."""
        self._check_ambient(sub)
        return kernel(_times_transpose(sub.basis, self.gram))

    @cached_property
    def _radical(self) -> Subspace:
        return self.annihilator(Subspace.full(self.dim))

    def radical(self) -> Subspace:
        """The degenerate directions: the annihilator of the whole space."""
        return self._radical

    @cached_property
    def _gram_rows(self) -> list[IntRow]:
        # the gram's integer rows over one positive denominator
        return self.gram._over_one_denominator()[0]

    def _is_isotropic(self, sub: Subspace) -> bool:
        """True iff B G B^T = 0 for the basis B, decided on numerators.

        Positive row and gram denominators do not change which entries are
        zero, and B G B^T is skew, so the entries below its diagonal decide:
        b_i . (G b_j) for i > j, with the integer rows b.  No gcd, no
        ``Fraction`` and no transpose; the test stops at the first nonzero.
        """
        rows = sub.basis._rows
        gram = self._gram_rows
        for j, b in enumerate(rows[:-1]):
            image = [sum(map(mul, g, b)) for g in gram]
            for c in rows[j + 1 :]:
                if sum(map(mul, image, c)):
                    return False
        return True

    def is_lagrangian(self, sub: Subspace) -> bool:
        """True iff the subspace equals its own annihilator.

        A rank test, with R the radical (cached per space): L = Ann(L) iff
        2 dim L = dim V + dim R and L is isotropic, B G B^T = 0 for the basis
        B.  Ann(L) has dimension dim V - dim L + dim(L cap R) and contains L
        when L is isotropic, so the two sides agree once R lies in L.  That
        needs no third test: an isotropic L maps to an isotropic subspace of
        the nondegenerate V/R, so dim L - dim(L cap R) <= (dim V - dim R) / 2,
        and at dim L = (dim V + dim R) / 2 this forces L cap R = R.  The
        dimension count runs first because it is the cheaper of the two.

        Nothing is remembered: each Lagrangian is tested once, where it enters
        (a SurfaceObject, a LagrangianTriple, a record's boundary kernel).
        """
        self._check_ambient(sub)
        return 2 * sub.dim == self.dim + self._radical.dim and self._is_isotropic(sub)


def beta0(genera: Sequence[int]) -> int:
    """Number of surface components."""
    return len(genera)


def beta1(genera: Sequence[int]) -> int:
    """First Betti number of the surface: twice the total genus."""
    return 2 * sum(genera)


def validated_genera(genera: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(g) for g in genera)
    if any(g < 0 for g in out):
        raise ValueError(f"genera must be non-negative, got {out}")
    return out


@lru_cache(maxsize=None)
def _standard_space(genera: tuple[int, ...]) -> SymplecticSpace:
    return SymplecticSpace(RationalMatrix(_int_standard_gram(sum(genera)), cols=beta1(genera)))


def standard_surface_space(genera: Iterable[int]) -> SymplecticSpace:
    """Intersection form of a disjoint union of closed oriented surfaces.

    Basis order is e1, f1, e2, f2, ... across all handles of all components,
    one [[0, 1], [-1, 0]] block per handle; nondegenerate.
    """
    return _standard_space(validated_genera(genera))


# -- integral symplectic group walk ------------------------------------------
#
# The generating family below is frozen; its indexing is part of the seed
# contract.  Matrices act on column vectors (column 2i holds the image of e_i,
# column 2i+1 that of f_i), so left-multiplying by generator k is one in-place
# row operation:
#
#   index 0 .. g-1     rotation i        row 2i <- -row 2i+1,  row 2i+1 <- row 2i
#   index g .. 2g-1    e_i -> e_i + f_i  row 2i+1 += row 2i
#   index 2g .. 3g-1   f_i -> f_i + e_i  row 2i += row 2i+1
#   index 3g ..        mixing (i, j)     row 2j += row 2i,  row 2i+1 -= row 2j+1
#
# Rotation i sends e_i -> f_i, f_i -> -e_i.  Mixing (i, j) sends e_i -> e_i + e_j,
# f_j -> f_j - f_i, over the ordered pairs i != j in lexicographic order.


def _row_operation(rows: list[list[int]], g: int, k: int) -> None:
    """Left-multiply the rows in place by generator k of genus g."""
    if k < 3 * g:
        kind, i = divmod(k, g)
        e, f = 2 * i, 2 * i + 1
        if kind == 0:
            rows[e], rows[f] = [-x for x in rows[f]], rows[e]
        elif kind == 1:
            rows[f] = list(map(add, rows[f], rows[e]))
        else:
            rows[e] = list(map(add, rows[e], rows[f]))
        return
    i, j = divmod(k - 3 * g, g - 1)
    j += j >= i
    rows[2 * j] = list(map(add, rows[2 * j], rows[2 * i]))
    rows[2 * i + 1] = list(map(sub, rows[2 * i + 1], rows[2 * j + 1]))


def _int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def symplectic_generators(g: int) -> tuple[RationalMatrix, ...]:
    """The frozen integral generating family for genus g, in documented order."""
    if g < 1:
        raise ValueError("need at least one handle")
    gens = [_int_identity(2 * g) for _ in range(g * (g + 2))]
    for k, m in enumerate(gens):
        _row_operation(m, g, k)
    return tuple(RationalMatrix(m) for m in gens)


def _int_standard_gram(g: int) -> list[list[int]]:
    n = 2 * g
    j = [[0] * n for _ in range(n)]
    for h in range(g):
        j[2 * h][2 * h + 1] = 1
        j[2 * h + 1][2 * h] = -1
    return j


def preserves_standard_form(columns: Sequence[Sequence], den: int = 1) -> bool:
    """True iff the square matrix A = C / den, for C with these columns,
    satisfies A^T J A = J, that is C^T J C = den^2 J.

    Entry (a, b) of C^T J C is col_a . J col_b, where J col_b swaps each
    (e_h, f_h) coordinate pair of col_b with a sign.  Both sides are skew, so
    the entries above the diagonal decide.  Entries may be int or Fraction.
    """
    n = len(columns)
    turned = [_turned(y) for y in columns]
    return all(
        sum(map(mul, x, turned[b])) == (den * den if a % 2 == 0 and b == a + 1 else 0)
        for a, x in enumerate(columns)
        for b in range(a + 1, n)
    )


def _turned(y: Sequence) -> tuple:
    """J y for the standard form J: each (e_h, f_h) pair (a, b) becomes (b, -a)."""
    return tuple([y[k + 1] if k % 2 == 0 else -y[k - 1] for k in range(len(y))])


def _standard_inverse(a: RationalMatrix) -> RationalMatrix:
    """-J A^T J, the inverse of a square A with A^T J A = J for the standard J.

    J^-1 = -J, so A^-1 = -J A^T J.  With a_c the columns of A (the rows of
    A^T), row 2h of the result is J a_(2h+1) and row 2h+1 is J (-a_2h): signed
    permutations of rows in lowest terms, so no elimination runs.
    """
    cols = a.transpose()
    rows, dens = [], []
    for e in range(0, cols.rows, 2):
        rows += [_turned(cols._rows[e + 1]), _turned([-x for x in cols._rows[e]])]
        dens += [cols._dens[e + 1], cols._dens[e]]
    return RationalMatrix._of(tuple(rows), tuple(dens), a.cols)


def _walk(
    g: int, seed: int | random.Random, length: int, block: list[list[int]]
) -> list[list[int]]:
    """P times `block`, for P = G_1 ... G_length the product of `length` draws.

    All draws come first, in order.  They are then applied from the last to
    the first as row operations on the 2g rows of `block`, which change in
    place, so only the columns the caller needs are ever formed.
    """
    if g < 1:
        raise ValueError("need at least one handle")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    draws = [rng.randrange(g * (g + 2)) for _ in range(length)]
    for k in reversed(draws):
        _row_operation(block, g, k)
    return block


def random_symplectic(
    g: int, seed: int | random.Random, length: int = DEFAULT_WALK_LENGTH
) -> RationalMatrix:
    """Seed-deterministic product of `length` draws from the generator family.

    Draws use random.Random(seed).randrange over the documented generator
    order; the product G_1 ... G_length is formed by row operations on the
    identity, from the last draw to the first, and length 0 gives the
    identity.  The result always satisfies A^T J A = J for the standard form J.
    """
    return RationalMatrix(_walk(g, seed, length, _int_identity(2 * g)))


def _lagrangian_rows(
    g: int, seed: int | random.Random, length: int = DEFAULT_WALK_LENGTH
) -> list[IntRow]:
    """Integer rows spanning the walk's image of span{e_1..e_g}: the columns
    2i of the product, from the walk on the 2g x g block of those unit columns."""
    block = [[int(r == 2 * i) for i in range(g)] for r in range(2 * g)]
    return list(zip(*_walk(g, seed, length, block)))


def random_lagrangian(
    g: int, seed: int | random.Random, length: int = DEFAULT_WALK_LENGTH
) -> Subspace:
    """Image of the standard Lagrangian span{e_1..e_g} under a random walk.

    Always Lagrangian in the standard genus-g space; length 0 returns the
    standard Lagrangian itself.  The walk is the one random_symplectic takes,
    with the same draws.
    """
    return Subspace(RationalMatrix._of_ints(_lagrangian_rows(g, seed, length), 2 * g))
