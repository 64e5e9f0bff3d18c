"""Exact linear algebra over the rationals.

Everything downstream (skew forms, Maslov indices, homological gluing) reduces
to the operations here: reduced-row-echelon canonicalization and the subspace
lattice with exact kernel / image / preimage / cokernel computations.

Matrices are immutable.  Each row is stored as a tuple of integers over one
positive denominator, in lowest terms: the gcd of the row's integers and its
denominator is 1, and a zero row has denominator 1.  That form is unique, so
structural equality and hashing are exact.  ``rref`` is the only full
elimination: each linear system is one ``rref`` of an augmented matrix.  A
row is reduced modulo a subspace by one pass over the subspace's RREF basis
rows (``_reduce``), with the step ``rref`` itself takes; membership tests,
sums and intersections start there.  There is one product loop: ``@`` feeds
it the right factor's columns, and the private ``_times_transpose`` (A times
the transpose of B) feeds it B's rows, so no transpose is built.  Both, and
every other operation here, run on the stored integers.  Elimination makes
each row primitive, reduces with integer row operations and writes each pivot
row as the primitive row over its (positive) pivot.  A product puts the right
factor over one denominator and divides each output row by one gcd.

``Fraction`` values appear only at the boundary: ``row``, ``column``,
``entries``, ``[i, j]`` and ``repr`` build them, and the public constructor
takes ints, ``Fraction``s or strings, rejects floats and ragged rows, and puts
each row over the lcm of its denominators.  Rows this module builds itself go
through the private ``RationalMatrix._of`` unchecked, and so do the rows the
file readers in ``formats`` make from text: each line is read straight into
integers over the lcm of its denominators, in lowest terms (``_over_lcm``).

A Subspace canonicalizes the matrix it is given to its unique RREF row basis,
so subspace equality is plain structural equality and regression values can
be frozen verbatim; ``canonical_basis`` is the entry point for vectors from
outside.  Two subspaces intersect by Zassenhaus's elimination: the RREF of
``[[A, A], [B, 0]]`` holds the RREF basis of the intersection in the right
halves of its rows that start in the right half.  With B the larger operand,
already in RREF, one pass of its rows clears its pivot columns, and one
``rref`` of what is left, those columns dropped, finishes the elimination.
A sum reduces the smaller operand by the larger in the same way, and needs no
elimination when the larger contains the smaller.  A preimage is one kernel
too: the null rows of ``[f | B]``, for B whose columns span the target, are
the pairs (x, y) with f x = -B y, so their x parts span the preimage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]
IntRow = tuple[int, ...]


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce to Fraction, rejecting floats outright (exactness guard)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r} in exact arithmetic")
    return Fraction(value)


def as_vector(entries: Iterable) -> Vector:
    return tuple(map(as_fraction, entries))


def _ratio(value) -> tuple[int, int]:
    if type(value) is int or type(value) is Fraction:
        return value.as_integer_ratio()
    return as_fraction(value).as_integer_ratio()


def _over_common_denominator(row: Iterable) -> tuple[IntRow, int]:
    """Integers a and the lcm d of the entry denominators with row = a / d."""
    return _over_lcm([_ratio(x) for x in row])


def _over_lcm(ratios: Sequence[tuple[int, int]]) -> tuple[IntRow, int]:
    """Integers a and the lcm d of the denominators with row = a / d.

    Each entry is a (numerator, positive denominator) pair in lowest terms.
    The result is in lowest terms too: a prime power dividing d exactly
    divides the denominator of some entry, whose scaled numerator it does not
    divide.
    """
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return tuple([n for n, _ in ratios]), 1
    return tuple([n * (den // d) for n, d in ratios]), den


def _reduced(nums: Iterable[int], den: int) -> tuple[IntRow, int]:
    """The row nums / den (den > 0) in lowest terms."""
    nums = tuple(nums)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple([x // g for x in nums]), den // g
    return nums, den


def _scaled(row: IntRow, factor: int) -> IntRow:
    return row if factor == 1 else tuple([x * factor for x in row])


def _primitive(row: IntRow) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row unchanged)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _fractions(row: IntRow, den: int) -> Vector:
    if den == 1:
        return tuple(map(Fraction, row))
    return tuple([Fraction(x, den) for x in row])


class RationalMatrix:
    """Immutable dense matrix of rationals, one integer row over one denominator each."""

    __slots__ = ("_rows", "_dens", "_ncols")

    def __init__(self, rows: Iterable[Iterable], *, cols: int | None = None):
        data = [_over_common_denominator(r) for r in rows]
        if data:
            width = len(data[0][0])
            for r, _ in data[1:]:
                if len(r) != width:
                    raise ValueError("matrix rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            width = cols
        self._rows = tuple(r for r, _ in data)
        self._dens = tuple(d for _, d in data)
        self._ncols = width

    @classmethod
    def _of(cls, rows: tuple[IntRow, ...], dens: tuple[int, ...], cols: int) -> "RationalMatrix":
        """A matrix on rows this module built: each `cols` long and in lowest terms."""
        m = object.__new__(cls)
        m._rows = rows
        m._dens = dens
        m._ncols = cols
        return m

    @classmethod
    def _of_pairs(cls, pairs: Sequence[tuple[IntRow, int]], cols: int) -> "RationalMatrix":
        """A matrix on (integer row, denominator) pairs this module built in lowest terms."""
        return cls._of(tuple(r for r, _ in pairs), tuple(d for _, d in pairs), cols)

    @classmethod
    def _of_ints(cls, rows: Sequence[IntRow], cols: int) -> "RationalMatrix":
        """A matrix on integer rows, each `cols` long, over the denominator 1."""
        return cls._of(tuple(rows), (1,) * len(rows), cols)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of_ints([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of_ints(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Iterable], *, rows: int | None = None) -> "RationalMatrix":
        cols = [as_vector(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("columns have unequal lengths")
        else:
            if rows is None:
                raise ValueError("a matrix with no columns needs an explicit row count")
            height = rows
        return cls(tuple(tuple(c[i] for c in cols) for i in range(height)), cols=len(cols))

    # -- shape and access -----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._ncols

    @property
    def entries(self) -> Vector:
        """All entries, row major."""
        return tuple(chain.from_iterable(map(_fractions, self._rows, self._dens)))

    def row(self, i: int) -> Vector:
        return _fractions(self._rows[i], self._dens[i])

    def column(self, j: int) -> Vector:
        return tuple(Fraction(r[j], d) for r, d in zip(self._rows, self._dens))

    def _column_block(self, start: int, stop: int) -> "RationalMatrix":
        """Columns start to stop - 1, each row put back in lowest terms."""
        pairs = [_reduced(r[start:stop], d) for r, d in zip(self._rows, self._dens)]
        return RationalMatrix._of_pairs(pairs, stop - start)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._rows[i][j], self._dens[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self._ncols == other._ncols
            and self._rows == other._rows
            and self._dens == other._dens
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._dens, self._ncols))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "RationalMatrix":
        rows = tuple(tuple([-x for x in r]) for r in self._rows)
        return RationalMatrix._of(rows, self._dens, self._ncols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix addition needs equal shapes")
        pairs = []
        for r1, d1, r2, d2 in zip(self._rows, self._dens, other._rows, other._dens):
            den = lcm(d1, d2)
            s1, s2 = _scaled(r1, den // d1), _scaled(r2, den // d2)
            pairs.append(_reduced([a + b for a, b in zip(s1, s2)], den))
        return RationalMatrix._of_pairs(pairs, self._ncols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def _over_one_denominator(self) -> tuple[list[IntRow], int]:
        """Integer rows A and the lcm e of the row denominators, with self = A / e."""
        e = lcm(*self._dens)
        return [_scaled(r, e // d) for r, d in zip(self._rows, self._dens)], e

    def _product(self, lines: Sequence[IntRow], e: int) -> "RationalMatrix":
        # the product loop: with row r of self = a_r / d_r and each line an
        # integer vector over e, entry (r, s) is (a_r . line_s) / (d_r e), and
        # each output row is one gcd from lowest terms
        pairs = [
            _reduced([sum(map(mul, a, line)) for line in lines], d * e)
            for a, d in zip(self._rows, self._dens)
        ]
        return RationalMatrix._of_pairs(pairs, len(lines))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self._ncols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        scaled, e = other._over_one_denominator()
        return self._product(list(zip(*scaled)) or [()] * other._ncols, e)

    def apply(self, vector: Iterable) -> Vector:
        """Matrix times column vector."""
        v = as_vector(vector)
        if len(v) != self._ncols:
            raise DimensionMismatchError(f"vector of length {len(v)} for a {self.rows}x{self.cols} matrix")
        return (self @ RationalMatrix.from_columns([v], rows=self._ncols)).column(0)

    def transpose(self) -> "RationalMatrix":
        scaled, den = self._over_one_denominator()
        columns = list(zip(*scaled)) or [()] * self._ncols
        return RationalMatrix._of_pairs([_reduced(c, den) for c in columns], len(self._rows))

    def is_symmetric(self) -> bool:
        # entries (i, j) and (j, i) agree iff rows[i][j] / dens[i] = rows[j][i] / dens[j]
        if self.rows != self._ncols:
            return False
        rows, dens = self._rows, self._dens
        return all(
            rows[i][j] * dens[j] == rows[j][i] * dens[i]
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )

    # -- stacking -------------------------------------------------------------

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        # over lcm(d1, d2) the joined row stays in lowest terms: at each prime
        # the half with the larger power keeps an entry the prime does not divide
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        pairs = []
        for r1, d1, r2, d2 in zip(self._rows, self._dens, other._rows, other._dens):
            den = lcm(d1, d2)
            pairs.append((_scaled(r1, den // d1) + _scaled(r2, den // d2), den))
        return RationalMatrix._of_pairs(pairs, self._ncols + other._ncols)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack needs equal column counts")
        return RationalMatrix._of(self._rows + other._rows, self._dens + other._dens, self._ncols)

    @staticmethod
    def block_diag(a: "RationalMatrix", b: "RationalMatrix") -> "RationalMatrix":
        top = a.hstack(RationalMatrix.zeros(a.rows, b.cols))
        bottom = RationalMatrix.zeros(b.rows, a.cols).hstack(b)
        return top.vstack(bottom)

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns.

        Fraction-free Gauss-Jordan on the stored integers: each row is made
        primitive (scaling a row leaves the RREF unchanged), eliminated with
        ``p * row - f * pivot_row`` (p and f divided by their gcd first) and
        divided by the gcd of its entries.
        Each pivot row ends primitive, so over its pivot, with the sign made
        positive, it is already in lowest terms.
        """
        m = [_primitive(row) for row in self._rows]
        nrows, ncols = len(m), self._ncols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr = None
            for i in range(r, nrows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            p = prow[c]
            for i in range(nrows):
                f = m[i][c]
                if i != r and f:
                    g = gcd(p, f)
                    s, t = p // g, f // g
                    m[i] = _primitive([s * a - t * b for a, b in zip(m[i], prow)])
            pivots.append(c)
            r += 1
        pairs = [
            (tuple(row), row[c]) if row[c] > 0 else (tuple([-x for x in row]), -row[c])
            for row, c in zip(m, pivots)
        ]
        pairs += [((0,) * ncols, 1)] * (nrows - r)
        return RationalMatrix._of_pairs(pairs, ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve(self, rhs: "RationalMatrix") -> "RationalMatrix | None":
        """The solution X of ``self @ X = rhs``, one column per column of rhs.

        Each column of ``rhs`` is a right-hand side.  X is read off one RREF of
        ``[self | rhs]``: the particular solution with every free variable set
        to zero.  Returns None when any column is inconsistent.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatchError(f"rhs with {rhs.rows} rows for {self.rows} equations")
        n = self._ncols
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= n:
            return None
        pairs = [((0,) * rhs.cols, 1)] * n
        for i, p in enumerate(pivots):
            pairs[p] = _reduced(red._rows[i][n:], red._dens[i])
        return RationalMatrix._of_pairs(pairs, rhs.cols)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self._ncols:
            raise DimensionMismatchError("only square matrices can be inverted")
        x = self.solve(RationalMatrix.identity(self.rows))
        if x is None:
            raise ValueError("matrix is not invertible")
        return x


@dataclass(frozen=True)
class Subspace:
    """The row span of the matrix it is given, held as its unique RREF row basis.

    The constructor keeps the nonzero rows of the RREF of any spanning matrix,
    so two Subspace values are equal iff they are the same subspace.
    """

    basis: RationalMatrix

    def __post_init__(self):
        red, pivots = self.basis.rref()
        r = len(pivots)
        object.__setattr__(self, "basis", RationalMatrix._of(red._rows[:r], red._dens[:r], red.cols))

    @classmethod
    def _canonical(cls, basis: RationalMatrix) -> "Subspace":
        """A Subspace on a basis that is already the nonzero rows of an RREF."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "basis", basis)
        return sub

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(RationalMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(RationalMatrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[Vector, ...]:
        return tuple(self.basis.row(i) for i in range(self.basis.rows))

    def contains(self, vector: Iterable) -> bool:
        v, _ = _over_common_denominator(vector)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return not any(_reduce([v], self.basis._rows)[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(map(any, _reduce(other.basis._rows, self.basis._rows)))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both.

        The smaller operand's rows are reduced by the larger one's basis B.
        What is left of them is zero at B's pivot columns, so the sum is B
        when nothing is left and the whole space when the residues fill the
        other columns.
        """
        self._check_ambient(other)
        a, b = (self, other) if self.dim <= other.dim else (other, self)
        residues = [r for r in _reduce(a.basis._rows, b.basis._rows) if any(r)]
        if not residues:
            return b
        n = self.ambient_dim
        free = _free_columns(b.basis._rows, n)
        if _columns(residues, free).rank() == len(free):
            return Subspace.full(n)
        return Subspace(b.basis.vstack(_columns(residues, range(n))))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both, by Zassenhaus's elimination.

        The rows of ``[[A, A], [B, 0]]`` span the pairs (a + b, a) for a in A
        and b in B.  Its rows that reduce to zero in the left half are the
        pairs (0, a) with a = -b, so their right halves span A cap B.  B, the
        larger operand, is already reduced, so one pass of its rows clears
        B's pivot columns from the doubled rows of A; A lies in B when that
        leaves every left half zero.  Otherwise one ``rref`` of the rest, with
        those columns dropped, has the same rows starting in the right half as
        the RREF of the whole matrix.  Their right halves have their leading
        ones in increasing columns, with zeros above and below each, so they
        already are the canonical basis.
        """
        self._check_ambient(other)
        a, b = (self, other) if self.dim <= other.dim else (other, self)
        n = self.ambient_dim
        pad = (0,) * n
        rows = _reduce([r + r for r in a.basis._rows], [r + pad for r in b.basis._rows])
        if not any(any(r[:n]) for r in rows):
            return a
        left = _free_columns(b.basis._rows, n)
        k = len(left)
        red, pivots = _columns(rows, left + list(range(n, 2 * n))).rref()
        last = len(pivots)
        first = next((i for i, p in enumerate(pivots) if p >= k), last)
        halves = tuple(r[k:] for r in red._rows[first:last])
        return Subspace._canonical(RationalMatrix._of(halves, red._dens[first:last], n))


def _leading(row: IntRow) -> int:
    """The column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _free_columns(basis: Sequence[IntRow], n: int) -> list[int]:
    """The columns of Q^n that are not pivot columns of an RREF basis."""
    pivots = set(map(_leading, basis))
    return [j for j in range(n) if j not in pivots]


def _reduce(rows: Iterable[Sequence[int]], basis: Sequence[IntRow]) -> list[list[int]]:
    """Each integer row reduced by the rows of an RREF basis, in one pass.

    For each basis row b with pivot p at which the row is nonzero, the row
    becomes ``s * row - f * b``, with s and f the entries b[p] > 0 and row[p]
    divided by their gcd: the step ``rref`` takes.  The basis rows are zero at
    each other's pivots, so each result is zero at every pivot column of the
    basis, and is a positive multiple of its row minus an element of the span.
    """
    steps = [(_leading(b), b) for b in basis]
    out = []
    for row in rows:
        for p, b in steps:
            f = row[p]
            if f:
                g = gcd(b[p], f)
                s, t = b[p] // g, f // g
                row = [s * x - t * y for x, y in zip(row, b)]
        out.append(row)
    return out


def _columns(rows: Sequence[Sequence[int]], keep: Sequence[int]) -> RationalMatrix:
    """The integer rows restricted to the columns keep, each row over 1."""
    return RationalMatrix._of_ints([tuple([r[j] for j in keep]) for r in rows], len(keep))


def canonical_basis(vectors: Sequence[Iterable], ambient_dim: int) -> Subspace:
    """The Subspace spanned by vectors given from outside, each of the ambient length."""
    data = [_over_common_denominator(v) for v in vectors]
    for idx, (v, _) in enumerate(data):
        if len(v) != ambient_dim:
            raise DimensionMismatchError(
                f"vector {idx} has length {len(v)}, ambient dimension is {ambient_dim}"
            )
    return Subspace(RationalMatrix._of_pairs(data, ambient_dim))


def _null_rows(red: RationalMatrix, pivots: tuple[int, ...]) -> list[tuple[IntRow, int]]:
    # e_c - sum_i red[i, c] e_pivot(i) for each non-pivot column c of an RREF,
    # over the lcm of the pivot-row denominators it uses
    n = red.cols
    pivot_rows = list(zip(pivots, red._rows, red._dens))
    pivot_set = set(pivots)
    pairs = []
    for c in range(n):
        if c in pivot_set:
            continue
        den = lcm(*[d for _, r, d in pivot_rows if r[c]])
        v = [0] * n
        v[c] = den
        for p, r, d in pivot_rows:
            if r[c]:
                v[p] = -r[c] * (den // d)
        pairs.append(_reduced(v, den))
    return pairs


def _times_transpose(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """``a @ b.transpose()`` without the transpose: b's rows feed the product loop."""
    if a.cols != b.cols:
        raise DimensionMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by the transpose of {b.rows}x{b.cols}"
        )
    scaled, e = b._over_one_denominator()
    return a._product(scaled, e)


def kernel(f: RationalMatrix) -> Subspace:
    """{x : f @ x = 0} in canonical form; dimension cols - rank."""
    return Subspace(RationalMatrix._of_pairs(_null_rows(*f.rref()), f.cols))


def image(f: RationalMatrix) -> Subspace:
    """Column span of f, canonicalized."""
    return Subspace(f.transpose())


def _preimage_of_columns(f: RationalMatrix, span: RationalMatrix) -> Subspace:
    """{x : f @ x lies in the column span of `span`}, from one elimination.

    The null rows of ``[f | span]`` are the pairs (x, y) with f x = -span y,
    so their first ``f.cols`` coordinates span the preimage.
    """
    n = f.cols
    rows = [_reduced(r[:n], d) for r, d in _null_rows(*f.hstack(span).rref())]
    return Subspace(RationalMatrix._of_pairs(rows, n))


def preimage(f: RationalMatrix, target: Subspace) -> Subspace:
    """{x : f @ x lies in target}; always contains kernel(f)."""
    if target.ambient_dim != f.rows:
        raise DimensionMismatchError(
            f"target lives in dimension {target.ambient_dim}, map lands in {f.rows}"
        )
    return _preimage_of_columns(f, target.basis.transpose())


def cokernel(f: RationalMatrix) -> tuple[int, RationalMatrix]:
    """Quotient of Q^rows by image(f): its dimension and a projection onto it.

    The projection is surjective with kernel exactly image(f).  It is the
    coordinate projection onto the non-pivot coordinates of the column-reduced
    image, corrected along the pivot rows; non-pivot coordinates are taken in
    increasing order, which pins the presentation of composite morphisms.
    """
    rows = _null_rows(*f.transpose().rref())
    return len(rows), RationalMatrix._of_pairs(rows, f.rows)


def map_subspace(f: RationalMatrix, sub: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    if sub.ambient_dim != f.cols:
        raise DimensionMismatchError(
            f"subspace lives in dimension {sub.ambient_dim}, map expects {f.cols}"
        )
    return Subspace(_times_transpose(sub.basis, f))
