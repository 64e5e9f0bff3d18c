"""Skew-symmetric bilinear forms, annihilators, and Lagrangian subspaces.

Degenerate forms are first-class: nothing here assumes the Gram matrix is
invertible, and the radical is simply the annihilator of the whole space,
which for a skew Gram matrix G is ker G.  The Lagrangian test reads only the
radical's size, n - rank G, from one forward elimination per space; ker G is
built only when the radical itself is asked for.  The gram reaches a vector
in one place, ``_apply``: a gram with one nonzero entry per row, as the
surface forms and the boundary form (-psi) + psi are, is applied as a signed
gather, O(n) instead of n dot products.  The isotropy test, the annihilator
and the Maslov form, which takes G d for each row d of its domain basis from
``_images``, all go through it.  One certificate, ``_symplectic_inverse``,
decides whether a matrix preserves the standard form, for a cobordism
record's end maps and a generator's twist alike.
The module also provides the standard intersection form of a disjoint union
of closed surfaces and seed-deterministic random symplectic matrices and
Lagrangians used throughout the test campaigns.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, NonSkewFormError
from .linalg import (
    IntRow,
    RationalMatrix,
    Subspace,
    _reduced,
    as_vector,
    kernel,
)
from .values import Value

#: Default number of generator factors in a random symplectic walk.  Long
#: enough to move Lagrangians well away from coordinate subspaces while the
#: integer entries stay small.
DEFAULT_WALK_LENGTH = 20


class SymplecticSpace(Value):
    """A rational vector space with a skew-symmetric, possibly degenerate form."""

    def __init__(self, gram: RationalMatrix):
        if gram.rows != gram.cols:
            raise NonSkewFormError(f"gram matrix is {gram.rows}x{gram.cols}, not square")
        mismatch = gram._mirror_mismatch(-1)
        if mismatch is not None:
            i, j = mismatch
            raise NonSkewFormError(f"gram[{i}][{j}] != -gram[{j}][{i}]")
        object.__setattr__(self, "gram", gram)

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
        return sum(map(mul, vx, self.gram.apply(vy)), Fraction(0))

    def _check_ambient(self, sub: Subspace) -> None:
        if sub.ambient_dim != self.dim:
            raise DimensionMismatchError(
                f"subspace of ambient {sub.ambient_dim} in a space of dimension {self.dim}"
            )

    def annihilator(self, sub: Subspace) -> Subspace:
        """All vectors pairing to zero with every element of the subspace."""
        self._check_ambient(sub)
        return kernel(self._images(sub.basis))

    @cached_property
    def _radical(self) -> Subspace:
        # Ann(V) = ker G^T, and G^T = -G has the kernel of G
        return kernel(self.gram)

    def radical(self) -> Subspace:
        """The degenerate directions: the annihilator of the whole space, ker G."""
        return self._radical

    @cached_property
    def _radical_dim(self) -> int:
        # dim ker G = n - rank G: the forward pass only, no kernel basis
        return self.dim - self.gram.rank()

    @cached_property
    def _gram_rows(self) -> list[IntRow]:
        # the gram's integer rows over one positive denominator
        return self.gram._over_one_denominator()[0]

    @cached_property
    def _pairing(self) -> list[tuple[int, int]] | None:
        # (column, value) of each integer gram row's one nonzero entry, or
        # None when some row has no nonzero entry or more than one
        pairing = []
        for g in self._gram_rows:
            nonzero = [(c, v) for c, v in enumerate(g) if v]
            if len(nonzero) != 1:
                return None
            pairing += nonzero
        return pairing

    def _apply(self, b: IntRow) -> list[int]:
        """G b for an integer row b, as integers over the gram's denominator:
        the signed gather ``v * b[c]`` when each gram row has one nonzero
        entry v at column c, else n dot products of length n."""
        pairing = self._pairing
        if pairing is None:
            return [sum(map(mul, g, b)) for g in self._gram_rows]
        return [v * b[c] for c, v in pairing]

    def _is_isotropic(self, sub: Subspace) -> bool:
        """True iff B G B^T = 0 for the basis B, decided on numerators.

        Positive row and gram denominators do not change which entries are
        zero, and B G B^T is skew, so the entries below its diagonal decide:
        b_i . (G b_j) for i > j, with the integer rows b.  No gcd, no
        ``Fraction`` and no transpose; the test stops at the first nonzero.
        """
        rows = sub.basis._rows
        for j, b in enumerate(rows[:-1]):
            image = self._apply(b)
            for c in rows[j + 1 :]:
                if sum(map(mul, image, c)):
                    return False
        return True

    def _images(self, basis: RationalMatrix) -> RationalMatrix:
        """B G^T, whose row i is G b_i for the row b_i of the basis B."""
        e = lcm(*self.gram._dens)
        pairs = [_reduced(self._apply(b), d * e) for b, d in zip(basis._rows, basis._dens)]
        return RationalMatrix._of_pairs(pairs, self.dim)

    def is_lagrangian(self, sub: Subspace) -> bool:
        """True iff the subspace equals its own annihilator.

        A rank test, with R the radical: L = Ann(L) iff
        2 dim L = dim V + dim R and L is isotropic, B G B^T = 0 for the basis
        B.  Ann(L) has dimension dim V - dim L + dim(L cap R) and contains L
        when L is isotropic, so the two sides agree once R lies in L.  That
        needs no third test: an isotropic L maps to an isotropic subspace of
        the nondegenerate V/R, so dim L - dim(L cap R) <= (dim V - dim R) / 2,
        and at dim L = (dim V + dim R) / 2 this forces L cap R = R.  The
        dimension count runs first because it is the cheaper of the two.  It
        reads dim R = dim V - rank G, one forward elimination cached per
        space, so no kernel of G is built here.

        Nothing is remembered: each Lagrangian is tested once, where it enters
        (a SurfaceObject, a LagrangianTriple, a record's boundary kernel).
        """
        self._check_ambient(sub)
        return 2 * sub.dim == self.dim + self._radical_dim and self._is_isotropic(sub)


def beta0(genera: Sequence[int]) -> int:
    """Number of surface components."""
    return len(genera)


def beta1(genera: Sequence[int]) -> int:
    """First Betti number of the surface: twice the total genus."""
    return 2 * sum(genera)


def _int_genera(genera: Iterable[int]) -> tuple[int, ...]:
    """The genera as a tuple; a genus that is not an int raises TypeError, as a
    float matrix entry does: nothing is truncated or read from text here."""
    out = tuple(genera)
    for g in out:
        if type(g) is not int:
            raise TypeError(f"a genus must be an int, got {g!r} ({type(g).__name__})")
    return out


def validated_genera(genera: Iterable[int]) -> tuple[int, ...]:
    out = _int_genera(genera)
    if any(g < 0 for g in out):
        raise ValueError(f"genera must be non-negative, got {out}")
    return out


@lru_cache(maxsize=None)
def _standard_space(genera: tuple[int, ...]) -> SymplecticSpace:
    rows = [tuple(r) for r in _int_standard_gram(sum(genera))]
    return SymplecticSpace(RationalMatrix._of_ints(rows, beta1(genera)))


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

#: One step of a row operation: (target, source, op); see ``_row_operations``.
RowStep = tuple[int, int, Callable[[int, int], int] | None]


@lru_cache(maxsize=None)
def _row_operations(g: int) -> tuple[tuple[RowStep, ...], ...]:
    """The row operation of each generator of genus g, in the documented order.

    Each is a sequence of steps (target, source, op): ``op`` add or sub sets
    row target to op(row target, row source), and None is the rotation, row
    target <- -row source and row source <- row target.
    """
    table = [((2 * i, 2 * i + 1, None),) for i in range(g)]
    table += [((2 * i + 1, 2 * i, add),) for i in range(g)]
    table += [((2 * i, 2 * i + 1, add),) for i in range(g)]
    table += [
        ((2 * j, 2 * i, add), (2 * i + 1, 2 * j + 1, sub))
        for i in range(g)
        for j in range(g)
        if j != i
    ]
    return tuple(table)


def _row_operation(rows: list[list[int]], steps: Sequence[RowStep]) -> None:
    """Left-multiply the rows in place by the generator whose steps these are."""
    for t, s, op in steps:
        if op is None:
            rows[t], rows[s] = [-x for x in rows[s]], rows[t]
        else:
            rows[t] = list(map(op, rows[t], rows[s]))


def _int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def symplectic_generators(g: int) -> tuple[RationalMatrix, ...]:
    """The frozen integral generating family for genus g, in documented order."""
    if g < 1:
        raise ValueError("need at least one handle")
    gens = []
    for steps in _row_operations(g):
        m = _int_identity(2 * g)
        _row_operation(m, steps)
        gens.append(m)
    return tuple(RationalMatrix._of_ints([tuple(r) for r in m], 2 * g) for m in gens)


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


def _symplectic_inverse(a: RationalMatrix) -> RationalMatrix | None:
    """A^-1 = -J A^T J when A is square and preserves the standard form, else
    None; the identity is its own inverse, with no form test."""
    if a.rows != a.cols:
        return None
    if a._is_identity():
        return a
    rows, e = a._over_one_denominator()
    if not preserves_standard_form(list(zip(*rows)), e):
        return None
    return _standard_inverse(a)


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
    operations = _row_operations(g)
    draws = [operations[rng.randrange(len(operations))] for _ in range(length)]
    for steps in reversed(draws):
        _row_operation(block, steps)
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
    rows = _walk(g, seed, length, _int_identity(2 * g))
    return RationalMatrix._of_ints([tuple(r) for r in rows], 2 * g)


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
