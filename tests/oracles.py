"""Independent oracles used only by the test suite.

`bench_oracle` is the benchmark's `bench/oracle.py`, which imports nothing
from evencob.  Its `signature` (the characteristic polynomial of a Hessenberg
form, with eigenvalue signs counted by Descartes' rule) and its
`kashiwara_index` (that signature on Kashiwara's form on l1 (+) l2 (+) l3)
take plain lists of `Fraction` rows; `matrix_rows` reads them off a matrix.
Neither runs on evencob's matrix arithmetic, so a fault in that arithmetic
cannot pass on both sides of a comparison.

The signature references are the symmetric congruence diagonalization that
evencob's Schur-complement loop over 1x1 and 2x2 pivot blocks replaced, and
that loop itself in ``Fraction`` arithmetic, which the fraction-free loop on
integers replaced.

The RREF oracle is the Fraction Gauss-Jordan loop that evencob's integer
elimination replaced; the RREF of a matrix is unique, so the two must agree
entry for entry.

The RREF validator is the scan `Subspace` ran on every basis it was handed
before it canonicalized the matrix itself; it names the first way a matrix
fails to be a canonical basis, or returns None.

The linear-system oracles are the paths that evencob's single augmented
`rref` replaced: the one-vector `solve`, the identity-augmented `inverse`, the
leading-column reduction behind `Subspace.contains`, the `combine_rows` loop,
and `decompose` written with them.

The product, intersection, preimage and Lagrangian oracles are the paths that
evencob's integer and single-elimination versions replaced: the ``Fraction``
triple loop that was ``RationalMatrix.__matmul__``, the intersection as the
kernel of the two stacked constraint matrices, the preimage as the kernel of
the target's constraint matrix composed with the map, and the Lagrangian test
as a comparison of a subspace with its computed annihilator.

The rational-token oracle is the file reader that evencob's integer reader
replaced: the same pattern and digit bounds, then ``Fraction(token)``, which
parses the token a second time with the ``fractions`` module's own pattern.

The remaining oracles are the formulations that evencob's products replaced:
the symplectic generators as dense integer matrices multiplied out one draw at
a time, the Maslov gram as a double loop of form evaluations, subspace images
as one matrix-vector product per basis row, and the evenness span as the sum
of two such images.

The check oracles are second copies of checks that evencob now runs once: the
twist test as A^T J A == J by general products, which `preserves_standard_form`
on integer columns replaced; the skew test as a comparison with -G^T followed
by a ``Fraction`` rescan for the message, which one integer scan replaced; and
the pseudo-cylinder test field by field, which a comparison with `identity`
replaced.
"""

from __future__ import annotations

import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from evencob.cobordism import CobordismMorphism
from evencob.errors import (
    DecompositionError,
    DimensionMismatchError,
    FileSyntaxError,
    NotSymmetricError,
)
from evencob.formats import MAX_NUMBER_DIGITS
from evencob.linalg import RationalMatrix, Subspace, Vector, as_vector, canonical_basis, kernel
from evencob.maslov import LagrangianTriple
from evencob.symplectic import SymplecticSpace

_ZERO = Fraction(0)

BENCH_ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _load_bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", BENCH_ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_oracle = _load_bench_oracle()


def matrix_rows(m: RationalMatrix) -> list[list[Fraction]]:
    """The entries of a matrix as a list of Fraction rows."""
    return [list(m.row(i)) for i in range(m.rows)]


def reference_signature(gram: RationalMatrix) -> int:
    """Exact signature of a symmetric rational matrix, on Fraction entries.

    Sylvester's law of inertia over 1x1 and 2x2 pivot blocks: the first
    nonzero diagonal entry p is a block counting sign(p); on a zero diagonal,
    the first nonzero c at (i, j), i < j, gives [[0, c], [c, 0]], counting
    nothing.  The loop goes on with the block's rational Schur complement.
    """
    if not gram.is_symmetric():
        raise NotSymmetricError("signature needs a symmetric matrix")
    m = [list(gram.row(i)) for i in range(gram.rows)]
    total = 0
    while m:
        n = len(m)
        k = next((k for k in range(n) if m[k][k]), None)
        if k is not None:
            top = m.pop(k)
            p = top.pop(k)
            total += 1 if p > 0 else -1
            for row in m:
                f = row.pop(k) / p
                if f:
                    row[:] = [a - f * b for a, b in zip(row, top)]
            continue
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
        if pair is None:
            break  # the rest of the form is zero
        i, j = pair
        c = m[i][j]
        rest = [r for r in range(n) if r not in pair]
        m = [[m[r][s] - (m[r][i] * m[j][s] + m[r][j] * m[i][s]) / c for s in rest] for r in rest]
    return total


def reference_congruence_signature(gram: RationalMatrix) -> int:
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


def reference_rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form by Gauss-Jordan elimination on Fraction entries.

    The plain textbook loop: normalize each pivot row by the inverse of its
    pivot, then clear the pivot column from every other row.
    """
    m, ncols = [list(m.row(i)) for i in range(m.rows)], m.cols
    nrows = len(m)
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
        inv = 1 / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix(tuple(tuple(row) for row in m), cols=ncols), tuple(pivots)


def reference_rref_violation(basis: RationalMatrix) -> str | None:
    prev = -1
    for i in range(basis.rows):
        row = basis.row(i)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return f"row {i} is zero"
        if lead <= prev:
            return "pivot columns are not strictly increasing"
        if row[lead] != 1:
            return f"pivot of row {i} is not 1"
        for k in range(basis.rows):
            if k != i and basis[k, lead]:
                return f"pivot column {lead} is not cleared"
        prev = lead
    return None


def reference_solve(m: RationalMatrix, rhs: Iterable) -> Vector | None:
    """First solution of ``m @ x = rhs`` with free variables set to zero.

    Returns None when the system is inconsistent.  The choice of solution
    is deterministic: the RREF particular solution.
    """
    v = as_vector(rhs)
    if len(v) != m.rows:
        raise DimensionMismatchError(f"rhs of length {len(v)} for {m.rows} equations")
    aug = m.hstack(RationalMatrix.from_columns([v], rows=m.rows))
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i, m.cols]
    return tuple(x)


def reference_inverse(m: RationalMatrix) -> RationalMatrix:
    """The inverse read off the RREF of ``[m | I]``."""
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    n = m.rows
    red, pivots = m.hstack(RationalMatrix.identity(n)).rref()
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is not invertible")
    return RationalMatrix(tuple(red.row(i)[n:] for i in range(n)), cols=n)


def reference_combine_rows(coeffs: Iterable, m: RationalMatrix) -> Vector:
    """Linear combination sum(coeffs[i] * row_i) as an ambient vector."""
    cs = as_vector(coeffs)
    if len(cs) != m.rows:
        raise DimensionMismatchError(f"{len(cs)} coefficients for {m.rows} rows")
    out = [_ZERO] * m.cols
    for c, row in zip(cs, (m.row(i) for i in range(m.rows))):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return tuple(out)


def _leading_columns(m: RationalMatrix) -> tuple[int, ...]:
    out = []
    for i in range(m.rows):
        row = m.row(i)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            out.append(lead)
    return tuple(out)


def reference_contains(sub: Subspace, vector: Iterable) -> bool:
    """Membership by clearing the vector along the RREF basis' leading columns."""
    v = list(as_vector(vector))
    if len(v) != sub.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {len(v)} in ambient dimension {sub.ambient_dim}"
        )
    for i, lead in enumerate(_leading_columns(sub.basis)):
        c = v[lead]
        if c:
            row = sub.basis.row(i)
            v = [a - c * b for a, b in zip(v, row)]
    return not any(v)


def reference_decompose(l1: Subspace, l2: Subspace, a: Iterable) -> tuple[Vector, Vector]:
    """Split a = a1 + a2 with one `reference_solve` and two `reference_combine_rows`."""
    l1._check_ambient(l2)
    v = as_vector(a)
    if len(v) != l1.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {len(v)} in ambient dimension {l1.ambient_dim}"
        )
    columns = list(l1.basis_rows()) + list(l2.basis_rows())
    system = RationalMatrix.from_columns(columns, rows=l1.ambient_dim)
    coeffs = reference_solve(system, v)
    if coeffs is None:
        raise DecompositionError("vector is not in the sum of the two subspaces")
    a1 = reference_combine_rows(coeffs[: l1.dim], l1.basis)
    a2 = reference_combine_rows(coeffs[l1.dim :], l2.basis)
    return a1, a2


def _int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_symplectic_generators(g: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The frozen genus-g generating family, each matrix written entry by entry."""
    n = 2 * g
    gens: list[list[list[int]]] = []
    for i in range(g):  # rotations
        m = _int_identity(n)
        m[2 * i][2 * i] = 0
        m[2 * i + 1][2 * i] = 1
        m[2 * i][2 * i + 1] = -1
        m[2 * i + 1][2 * i + 1] = 0
        gens.append(m)
    for i in range(g):  # e_i -> e_i + f_i
        m = _int_identity(n)
        m[2 * i + 1][2 * i] = 1
        gens.append(m)
    for i in range(g):  # f_i -> f_i + e_i
        m = _int_identity(n)
        m[2 * i][2 * i + 1] = 1
        gens.append(m)
    for i in range(g):  # handle mixing
        for j in range(g):
            if i == j:
                continue
            m = _int_identity(n)
            m[2 * j][2 * i] = 1
            m[2 * i + 1][2 * j + 1] = -1
            gens.append(m)
    return tuple(tuple(tuple(row) for row in m) for m in gens)


def reference_random_symplectic(g: int, seed: int, length: int) -> RationalMatrix:
    """The walk as a dense product of the drawn generator matrices."""
    gens = [RationalMatrix(m) for m in reference_symplectic_generators(g)]
    rng = random.Random(seed)
    acc = RationalMatrix.identity(2 * g)
    for _ in range(length):
        acc = acc @ gens[rng.randrange(len(gens))]
    return acc


def reference_maslov_gram(triple: LagrangianTriple) -> RationalMatrix:
    """psi(a2, b) over the basis of (l1 + l2) cap l3, one evaluation per entry."""
    l1, l2, l3 = triple.lagrangians()
    domain = (l1 + l2).intersect(l3)
    rows = domain.basis_rows()
    seconds = [reference_decompose(l1, l2, b)[1] for b in rows]
    return RationalMatrix(
        tuple(tuple(triple.space.evaluate(a2, b) for b in rows) for a2 in seconds),
        cols=domain.dim,
    )


def reference_map_subspace(f: RationalMatrix, sub: Subspace) -> Subspace:
    """The image of a subspace: f applied to each basis row, canonicalized."""
    return canonical_basis([f.apply(r) for r in sub.basis_rows()], f.rows)


def reference_lagrangian_span(m: CobordismMorphism) -> int:
    """Dimension of the sum of the two boundary Lagrangians' images in the body."""
    src = reference_map_subspace(m.j_src_h1, m.source.lagrangian)
    tgt = reference_map_subspace(m.j_tgt_h1, m.target.lagrangian)
    return (src + tgt).dim


def reference_matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The product entry by entry in Fraction arithmetic, skipping zero factors."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    orows = [b.row(k) for k in range(b.rows)]
    width = b.cols
    out = []
    for r in (a.row(i) for i in range(a.rows)):
        acc = [_ZERO] * width
        for k, x in enumerate(r):
            if x:
                orow = orows[k]
                for j in range(width):
                    y = orow[j]
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return RationalMatrix(tuple(out), cols=width)


def constraint_matrix(sub: Subspace) -> RationalMatrix:
    """A matrix C with {v : C v = 0} equal to the subspace."""
    return kernel(sub.basis).basis


def reference_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both, via the stacked constraint kernel."""
    a._check_ambient(b)
    stacked = constraint_matrix(a).vstack(constraint_matrix(b))
    return kernel(stacked)


def reference_preimage(f: RationalMatrix, target: Subspace) -> Subspace:
    """{x : f @ x lies in target}, as the kernel of the target's constraints after f."""
    if target.ambient_dim != f.rows:
        raise DimensionMismatchError(
            f"target lives in dimension {target.ambient_dim}, map lands in {f.rows}"
        )
    return kernel(constraint_matrix(target) @ f)


def reference_is_lagrangian(space: SymplecticSpace, sub: Subspace) -> bool:
    """True iff the subspace equals its own annihilator."""
    return space.annihilator(sub) == sub


_REFERENCE_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def reference_parse_rational(token: str, line: int | None = None) -> Fraction:
    """A file token as a Fraction: pattern, digit bounds, then ``Fraction(token)``."""
    if not _REFERENCE_RATIONAL_RE.match(token):
        raise FileSyntaxError(f"not a rational (p/q or integer): {token!r}", line)
    numerator, _, denominator = token.lstrip("+-").partition("/")
    for digits, what in (
        (numerator, "a numerator" if denominator else "an integer"),
        (denominator, "a denominator"),
    ):
        if len(digits) > MAX_NUMBER_DIGITS:
            raise FileSyntaxError(
                f"{what} has {len(digits)} digits, at most {MAX_NUMBER_DIGITS} allowed", line
            )
    return Fraction(token)


def reference_twist_preserves_form(twist: RationalMatrix, gram: RationalMatrix) -> bool:
    """The twist's form test as two general products: A^T G A == G."""
    return twist.transpose() @ gram @ twist == gram


def reference_skew_violation(gram: RationalMatrix) -> str | None:
    """None for a skew square gram, else the message for its first (i, j),
    i <= j in row-major order, with gram[i][j] != -gram[j][i]: the structural
    comparison with -gram^T, then a rescan in ``Fraction`` entries."""
    if gram == -gram.transpose():
        return None
    for i in range(gram.rows):
        for j in range(i, gram.cols):
            if gram[i, j] != -gram[j, i]:
                return f"gram[{i}][{j}] != -gram[{j}][{i}]"
    raise AssertionError("a gram that differs from -gram^T has a differing entry")


def reference_is_pseudo_cylinder(m: CobordismMorphism) -> bool:
    """Identity homological data, field by field against identity matrices."""
    if m.source.genera != m.target.genera:
        return False
    eye1 = RationalMatrix.identity(m.source.beta1)
    eye0 = RationalMatrix.identity(m.source.beta0)
    return (
        m.h1_dim == m.source.beta1
        and m.h0_dim == m.source.beta0
        and m.j_src_h1 == eye1
        and m.j_tgt_h1 == eye1
        and m.j_src_h0 == eye0
        and m.j_tgt_h0 == eye0
    )
