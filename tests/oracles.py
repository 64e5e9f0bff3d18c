"""Independent oracles used only by the test suite.

The signature oracle never touches the congruence-diagonalization code path:
it computes the characteristic polynomial exactly (Faddeev-LeVerrier) and
counts eigenvalue signs with Descartes' rule, which is exact for polynomials
whose roots are all real, as is the case for symmetric matrices.

The RREF oracle is the Fraction Gauss-Jordan loop that evencob's integer
elimination replaced; the RREF of a matrix is unique, so the two must agree
entry for entry.
"""

from __future__ import annotations

from fractions import Fraction

from evencob.linalg import RationalMatrix


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
