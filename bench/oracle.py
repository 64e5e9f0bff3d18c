"""Exact rational routines written apart from evencob, for checking its outputs.

Nothing here imports evencob.  Vectors are lists of Fractions and matrices are
lists of rows.  The signature uses a method of its own: the characteristic
polynomial of an upper Hessenberg form that is similar to the matrix, with its
eigenvalue signs counted by Descartes' rule.  The count is exact because every
eigenvalue of a symmetric matrix is real.  evencob instead diagonalizes by
symmetric congruence.
"""

from __future__ import annotations

from fractions import Fraction


def fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination: the nonzero rows of the reduced form, and pivots."""
    m = fractions(rows)
    pivots: list[int] = []
    top = 0
    for c in range(ncols):
        r = next((i for i in range(top, len(m)) if m[i][c]), None)
        if r is None:
            continue
        m[top], m[r] = m[r], m[top]
        lead = m[top][c]
        m[top] = [x / lead for x in m[top]]
        for i, row in enumerate(m):
            if i != top and row[c]:
                f = row[c]
                m[i] = [a - f * b for a, b in zip(row, m[top])]
        pivots.append(c)
        top += 1
    return m[:top], pivots


def rank(rows, ncols: int) -> int:
    return len(row_reduce(rows, ncols)[1])


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """A basis of {x : rows @ x = 0}."""
    reduced, pivots = row_reduce(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def intersection(a, b, n: int) -> list[list[Fraction]]:
    """A basis of span(a) cap span(b) in Q^n: solve sum x_i a_i = sum y_j b_j."""
    a, b = fractions(a), fractions(b)
    if not a or not b:
        return []
    columns = a + [[-x for x in v] for v in b]
    system = [[col[i] for col in columns] for i in range(n)]
    vectors = []
    for coeffs in nullspace(system, len(columns)):
        vectors.append([sum(c * v[i] for c, v in zip(coeffs, a)) for i in range(n)])
    return row_reduce(vectors, n)[0]


def apply(matrix, vector) -> list[Fraction]:
    return [sum((Fraction(m) * v for m, v in zip(row, vector)), Fraction(0)) for row in matrix]


def preimage(f, target, n: int) -> list[list[Fraction]]:
    """A basis of {x in Q^n : f x lies in span(target)}."""
    columns = [[row[j] for row in f] for j in range(n)] + [[-x for x in t] for t in target]
    system = [[col[i] for col in columns] for i in range(len(f))] if f else []
    solutions = nullspace(system, len(columns))
    return row_reduce([s[:n] for s in solutions], n)[0]


def skew(gram, x, y) -> Fraction:
    """The form's value x^T gram y."""
    total = Fraction(0)
    for xi, row in zip(x, gram):
        if xi:
            total += Fraction(xi) * sum((g * yj for g, yj in zip(row, y) if g and yj), Fraction(0))
    return total


def standard_gram(genera) -> list[list[Fraction]]:
    """Intersection form of a union of surfaces: one [[0, 1], [-1, 0]] block per handle."""
    n = 2 * sum(genera)
    g = [[Fraction(0)] * n for _ in range(n)]
    for h in range(n // 2):
        g[2 * h][2 * h + 1] = Fraction(1)
        g[2 * h + 1][2 * h] = Fraction(-1)
    return g


def _hessenberg(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """An upper Hessenberg matrix similar to a, by elementary similarity steps."""
    h = [row[:] for row in a]
    n = len(h)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / t
            if u:
                h[i] = [x - u * y for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    return h


def characteristic_polynomial(a) -> list[Fraction]:
    """Coefficients of det(xI - a), lowest degree first."""
    h = _hessenberg(fractions(a))
    n = len(h)
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        p = [Fraction(0)] + prev
        for k, c in enumerate(prev):
            p[k] -= h[m - 1][m - 1] * c
        t = Fraction(1)
        for i in range(1, m):
            t *= h[m - i][m - i - 1]
            f = t * h[m - i - 1][m - 1]
            if f:
                for k, c in enumerate(polys[m - i - 1]):
                    p[k] -= f * c
        polys.append(p)
    return polys[n]


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def signature(sym) -> int:
    """#positive - #negative eigenvalues of a symmetric rational matrix."""
    coeffs = characteristic_polynomial(sym)
    reflected = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return _sign_changes(coeffs) - _sign_changes(reflected)


def kashiwara_index(gram, l1, l2, l3) -> int:
    """Signature of q(x1, x2, x3) = w(x1, x2) + w(x2, x3) + w(x3, x1) on l1 (+) l2 (+) l3.

    The three Lagrangians are given by basis rows, and the direct sum is formed
    outside the ambient space.  The polar form of q, doubled, has the blocks
    w(u1, v2), w(u2, v3) and w(v3, u1) off the diagonal and zero on it.
    """
    blocks = [fractions(l1), fractions(l2), fractions(l3)]
    sizes = [len(b) for b in blocks]
    offsets = [0, sizes[0], sizes[0] + sizes[1]]
    n = sum(sizes)
    q = [[Fraction(0)] * n for _ in range(n)]

    def put(i: int, j: int, value) -> None:
        for r, u in enumerate(blocks[i]):
            for s, v in enumerate(blocks[j]):
                x = value(u, v)
                q[offsets[i] + r][offsets[j] + s] = x
                q[offsets[j] + s][offsets[i] + r] = x

    put(0, 1, lambda u, v: skew(gram, u, v))
    put(1, 2, lambda u, v: skew(gram, u, v))
    put(0, 2, lambda u, v: skew(gram, v, u))
    return signature(q)
