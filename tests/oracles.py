"""Independent oracles used only by the test suite.

The signature oracle never touches the congruence-diagonalization code path:
it computes the characteristic polynomial exactly (Faddeev-LeVerrier) and
counts eigenvalue signs with Descartes' rule, which is exact for polynomials
whose roots are all real, as is the case for symmetric matrices.

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

The remaining oracles are the formulations that evencob's products replaced:
the symplectic generators as dense integer matrices multiplied out one draw at
a time, the Maslov gram as a double loop of form evaluations, subspace images
as one matrix-vector product per basis row, and the evenness span as the sum
of two such images.
"""

from __future__ import annotations

import random
from fractions import Fraction

from typing import Iterable

from evencob.cobordism import CobordismMorphism
from evencob.errors import DecompositionError, DimensionMismatchError
from evencob.linalg import RationalMatrix, Subspace, Vector, as_vector, canonical_basis
from evencob.maslov import LagrangianTriple

_ZERO = Fraction(0)


def _trace(m: RationalMatrix) -> Fraction:
    return sum((m[i, i] for i in range(m.rows)), Fraction(0))


def _scaled_identity(c: Fraction, n: int) -> RationalMatrix:
    return RationalMatrix(
        [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)], cols=n
    )


def characteristic_polynomial(m: RationalMatrix) -> list[Fraction]:
    """Coefficients of det(xI - M), highest degree first."""
    n = m.rows
    coeffs = [Fraction(1)]
    auxiliary = m
    for k in range(1, n + 1):
        ck = -_trace(auxiliary) / k
        coeffs.append(ck)
        if k < n:
            auxiliary = m @ (auxiliary + _scaled_identity(ck, n))
    return coeffs


def _sign_changes(coeffs: list[Fraction]) -> int:
    nonzero = [c for c in coeffs if c]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def descartes_signature(gram: RationalMatrix) -> int:
    """#positive - #negative eigenvalues, via sign changes of the char poly.

    p(x) counts positive roots, p(-x) counts negative roots; both counts are
    exact because every eigenvalue of a symmetric matrix is real.
    """
    coeffs = characteristic_polynomial(gram)
    n = gram.rows
    reflected = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return _sign_changes(coeffs) - _sign_changes(reflected)


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
