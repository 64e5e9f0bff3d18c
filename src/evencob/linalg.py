"""Exact linear algebra over the rationals.

Everything downstream (skew forms, Maslov indices, homological gluing) reduces
to the operations here: reduced-row-echelon canonicalization and the subspace
lattice with exact kernel / image / preimage / cokernel computations.

Matrices are immutable and store :class:`fractions.Fraction` entries.
``rref`` is the only elimination and ``@`` the only product: each linear
system or containment test is one ``rref`` of an augmented matrix.
Elimination runs fraction-free: each row is scaled to primitive integers and
reduced with integer row operations, and the canonical ``Fraction`` RREF is
produced only at the end.  A Subspace canonicalizes the matrix it is given to
its unique RREF row basis, so subspace equality is plain structural equality
and regression values can be frozen verbatim; ``canonical_basis`` is the entry
point for vectors from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce to Fraction, rejecting floats outright (exactness guard)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r} in exact arithmetic")
    return Fraction(value)


def as_vector(entries: Iterable) -> Vector:
    return tuple(map(as_fraction, entries))


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row unchanged)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


class RationalMatrix:
    """Immutable dense matrix of rationals."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Iterable], *, cols: int | None = None):
        data = tuple(as_vector(r) for r in rows)
        if data:
            width = len(data[0])
            for r in data[1:]:
                if len(r) != width:
                    raise ValueError("matrix rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            width = cols
        self._rows = data
        self._ncols = width

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)),
            cols=n,
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(tuple(zero_vector(ncols) for _ in range(nrows)), cols=ncols)

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
        return tuple(x for row in self._rows for x in row)

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._rows, self._ncols))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(-x for x in row) for row in self._rows), cols=self._ncols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix addition needs equal shapes")
        return RationalMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self._rows, other._rows)),
            cols=self._ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self._ncols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        orows = other._rows
        width = other._ncols
        out = []
        for r in self._rows:
            acc = [_ZERO] * width
            for k, a in enumerate(r):
                if a:
                    orow = orows[k]
                    for j in range(width):
                        b = orow[j]
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return RationalMatrix(tuple(out), cols=width)

    def apply(self, vector: Iterable) -> Vector:
        """Matrix times column vector."""
        v = as_vector(vector)
        if len(v) != self._ncols:
            raise DimensionMismatchError(f"vector of length {len(v)} for a {self.rows}x{self.cols} matrix")
        return (self @ RationalMatrix.from_columns([v], rows=self._ncols)).column(0)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            tuple(tuple(r[j] for r in self._rows) for j in range(self._ncols)),
            cols=len(self._rows),
        )

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    # -- stacking -------------------------------------------------------------

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        return RationalMatrix(
            tuple(r1 + r2 for r1, r2 in zip(self._rows, other._rows)),
            cols=self._ncols + other._ncols,
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack needs equal column counts")
        return RationalMatrix(self._rows + other._rows, cols=self._ncols)

    @staticmethod
    def block_diag(a: "RationalMatrix", b: "RationalMatrix") -> "RationalMatrix":
        top = a.hstack(RationalMatrix.zeros(a.rows, b.cols))
        bottom = RationalMatrix.zeros(b.rows, a.cols).hstack(b)
        return top.vstack(bottom)

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns.

        Fraction-free Gauss-Jordan: each row is scaled to primitive integers
        (scaling a row leaves the RREF unchanged), eliminated with
        ``p * row - f * pivot_row`` and divided by the gcd of its entries.
        Pivot rows are divided by their pivots once, at the end.
        """
        m = []
        for row in self._rows:
            den = 1  # the lcm of the row's denominators
            for x in row:
                d = x.denominator
                if d != 1:
                    den = den * d // gcd(den, d)
            m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
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
                    m[i] = _primitive([p * a - f * b for a, b in zip(m[i], prow)])
            pivots.append(c)
            r += 1
        out = [tuple(Fraction(x, row[c]) if x else _ZERO for x in row) for row, c in zip(m, pivots)]
        out.extend(zero_vector(ncols) for _ in range(nrows - r))
        return RationalMatrix(out, cols=ncols), tuple(pivots)

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
        x = [zero_vector(rhs.cols)] * n
        for i, p in enumerate(pivots):
            x[p] = red.row(i)[n:]
        return RationalMatrix(x, cols=rhs.cols)

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
        rows = tuple(red.row(i) for i in range(len(pivots)))
        object.__setattr__(self, "basis", RationalMatrix(rows, cols=red.cols))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(RationalMatrix((), cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(RationalMatrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[Vector, ...]:
        return tuple(self.basis.row(i) for i in range(self.basis.rows))

    def contains(self, vector: Iterable) -> bool:
        v = as_vector(vector)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        column = RationalMatrix.from_columns([v], rows=len(v))
        return self.basis.transpose().solve(column) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.basis.transpose().solve(other.basis.transpose()) is not None

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both."""
        self._check_ambient(other)
        return Subspace(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both, via the stacked constraint kernel."""
        self._check_ambient(other)
        stacked = self.constraint_matrix().vstack(other.constraint_matrix())
        return kernel(stacked)

    def constraint_matrix(self) -> RationalMatrix:
        """A matrix C with {v : C v = 0} equal to this subspace."""
        return kernel(self.basis).basis


def canonical_basis(vectors: Sequence[Iterable], ambient_dim: int) -> Subspace:
    """The Subspace spanned by vectors given from outside, each of the ambient length."""
    vs = [as_vector(v) for v in vectors]
    for idx, v in enumerate(vs):
        if len(v) != ambient_dim:
            raise DimensionMismatchError(
                f"vector {idx} has length {len(v)}, ambient dimension is {ambient_dim}"
            )
    return Subspace(RationalMatrix(vs, cols=ambient_dim))


def _null_rows(red: RationalMatrix, pivots: tuple[int, ...]) -> list[Vector]:
    # e_c - sum_i red[i, c] e_pivot(i) for each non-pivot column c of an RREF
    n = red.cols
    pivot_set = set(pivots)
    rows = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = [_ZERO] * n
        v[c] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i, c]
        rows.append(tuple(v))
    return rows


def kernel(f: RationalMatrix) -> Subspace:
    """{x : f @ x = 0} in canonical form; dimension cols - rank."""
    return Subspace(RationalMatrix(_null_rows(*f.rref()), cols=f.cols))


def image(f: RationalMatrix) -> Subspace:
    """Column span of f, canonicalized."""
    return Subspace(f.transpose())


def preimage(f: RationalMatrix, target: Subspace) -> Subspace:
    """{x : f @ x lies in target}; always contains kernel(f)."""
    if target.ambient_dim != f.rows:
        raise DimensionMismatchError(
            f"target lives in dimension {target.ambient_dim}, map lands in {f.rows}"
        )
    return kernel(target.constraint_matrix() @ f)


def cokernel(f: RationalMatrix) -> tuple[int, RationalMatrix]:
    """Quotient of Q^rows by image(f): its dimension and a projection onto it.

    The projection is surjective with kernel exactly image(f).  It is the
    coordinate projection onto the non-pivot coordinates of the column-reduced
    image, corrected along the pivot rows; non-pivot coordinates are taken in
    increasing order, which pins the presentation of composite morphisms.
    """
    rows = _null_rows(*f.transpose().rref())
    return len(rows), RationalMatrix(rows, cols=f.rows)


def map_subspace(f: RationalMatrix, sub: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    if sub.ambient_dim != f.cols:
        raise DimensionMismatchError(
            f"subspace lives in dimension {sub.ambient_dim}, map expects {f.cols}"
        )
    return Subspace(sub.basis @ f.transpose())
