"""The test suite's one oracle layer, and the contract copies it keeps beside it.

`bench_oracle` is the benchmark's `bench/oracle.py`.  It imports only
``fractions`` and nothing from evencob: its matrices are lists of ``Fraction``
rows, its elimination is its own Gauss-Jordan loop, its `signature` counts the
eigenvalue signs of a Hessenberg characteristic polynomial by Descartes' rule,
and its `kashiwara_index` takes that signature on Kashiwara's form on
l1 (+) l2 (+) l3.  Every test whose expected value is a mathematical object
(an RREF, a rank, a kernel, a signature, a product, an image, an intersection,
a preimage, a solution, an inverse, a membership, a split, a Lagrangian test or
a Maslov gram) computes it there, so a fault in evencob cannot pass on both
sides of a comparison.  `matrix_rows` reads a matrix's entries into that form.
`bench_checks` is the benchmark's report checks, `bench/checks.py`, loaded on
this oracle.  `load_file` is the suite's one loader for a file outside the
package: these two and the tests' `bench/` and `scripts/` modules.
`calls_to` is the suite's one call recorder: every call count a test
asserts reads the list it returns.  The CI step under ``python -O`` imports
this module, where pytest does not rewrite asserts, so it holds none.

The ``oracle_*`` adapters below are the glue: they take ``Fraction`` rows and
call only `bench_oracle` and ``Fraction`` arithmetic.  A linear system, an
inverse and the `decompose` split are read off the unique RREF of the
augmented system, with every free variable zero.

Each ``reference_*`` function is a copy that pins a contract which is not a
mathematical object, so no independent formula could stand in for it:

- `reference_rref_violation`: the canonical-basis validator's messages, the
  scan `Subspace` ran on every basis before it canonicalized the matrix itself;
- `reference_symplectic_generators`: the frozen genus-g generator family,
  written entry by entry;
- `reference_random_symplectic`: the walk's RNG draw order, as a dense product
  of the drawn generators;
- `reference_parse_rational`: the file reader's token pattern, digit bounds
  and messages, ending in ``Fraction(token)``;
- `reference_skew_violation`: the skew test's message for the first (i, j),
  i <= j, in row-major order;
- `reference_is_pseudo_cylinder`: the pseudo-cylinder predicate field by field.
"""

from __future__ import annotations

import contextlib
import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from evencob.cobordism import CobordismMorphism
from evencob.errors import FileSyntaxError
from evencob.formats import MAX_NUMBER_DIGITS
from evencob.linalg import RationalMatrix

_ZERO = Fraction(0)

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_ORACLE = BENCH / "oracle.py"


def load_file(name: str, path: Path, modules: dict | None = None):
    """The module `name` executed from the file at `path`.  Given `modules`,
    they stand in sys.modules while it runs, and sys.modules is restored
    after."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, modules) if modules else contextlib.nullcontext():
        spec.loader.exec_module(module)
    return module


def calls_to(patch, owner, name: str) -> list[tuple]:
    """The positional arguments of each call to ``owner.name``, in call order.

    `patch` is a ``pytest.MonkeyPatch``: the fixture, or
    ``pytest.MonkeyPatch.context()`` inside a hypothesis test.  It wraps
    ``owner.name`` so that each call appends its positional arguments (a
    method's start with ``self``) to the list returned, then passes them and
    any keyword arguments on and returns what the original returns or raises;
    undoing `patch` restores the original.
    """
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch.setattr(owner, name, recorded)
    return calls


bench_oracle = load_file("bench_oracle", BENCH_ORACLE)
# `checks` imports `oracle` as a top-level module, so the oracle loaded above
# is handed to it under that name while it loads
bench_checks = load_file("bench_checks", BENCH / "checks.py", {"oracle": bench_oracle})

Rows = list[list[Fraction]]


def matrix_rows(m: RationalMatrix) -> Rows:
    """The entries of a matrix as a list of Fraction rows."""
    return [list(m.row(i)) for i in range(m.rows)]


def combination(coeffs, rows, n: int) -> list[Fraction]:
    """sum(coeffs[i] * rows[i]) in Q^n."""
    out = [_ZERO] * n
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


def oracle_rref(rows, ncols: int) -> tuple[Rows, list[int]]:
    """The RREF with its zero rows kept at the bottom, and the pivot columns."""
    reduced, pivots = bench_oracle.row_reduce(rows, ncols)
    return reduced + [[_ZERO] * ncols for _ in range(len(rows) - len(reduced))], pivots


def oracle_span(rows, n: int) -> Rows:
    """The canonical basis of the span of rows in Q^n: the nonzero rows of its RREF."""
    return bench_oracle.row_reduce(rows, n)[0]


def oracle_solve(rows, ncols: int, rhs) -> list[Fraction] | None:
    """The solution of rows @ x = rhs with every free variable zero, or None."""
    reduced, pivots = bench_oracle.row_reduce(
        [list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1
    )
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return x


def oracle_inverse(rows) -> Rows | None:
    """The inverse read off the RREF of [m | I], or None for a singular m."""
    n = len(rows)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = bench_oracle.row_reduce([list(r) + e for r, e in zip(rows, eye)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def oracle_contains(rows, n: int, vectors) -> bool:
    """Membership of every vector: adding them to the rows leaves the rank unchanged."""
    return bench_oracle.rank([*rows, *vectors], n) == bench_oracle.rank(rows, n)


def oracle_product(a, b, cols: int) -> Rows:
    """A @ B for A given by rows and B by rows of length cols."""
    columns = [[row[j] for row in b] for j in range(cols)]
    return [bench_oracle.apply(columns, r) for r in a]


def oracle_image(f, rows, m: int) -> Rows:
    """The canonical basis of f(span(rows)) in Q^m."""
    return oracle_span([bench_oracle.apply(f, r) for r in rows], m)


def oracle_decompose(l1, l2, a) -> tuple[list[Fraction], list[Fraction]] | None:
    """a = a1 + a2 with a1 in span(l1), a2 in span(l2), or None outside the sum.

    The coefficients solve the system whose columns are l1's rows, then l2's.
    """
    n = len(a)
    columns = [*l1, *l2]
    coeffs = oracle_solve([[c[i] for c in columns] for i in range(n)], len(columns), a)
    if coeffs is None:
        return None
    return combination(coeffs[: len(l1)], l1, n), combination(coeffs[len(l1) :], l2, n)


def oracle_maslov_gram(gram, l1, l2, l3) -> Rows:
    """[omega(a2_i, b_j)] over the canonical basis b of (l1 + l2) cap l3, b_i = a1_i + a2_i."""
    domain = bench_oracle.intersection([*l1, *l2], l3, len(gram))
    seconds = [oracle_decompose(l1, l2, b)[1] for b in domain]
    return [[bench_oracle.skew(gram, a2, b) for b in domain] for a2 in seconds]


def oracle_is_lagrangian(gram, rows) -> bool:
    """The span of rows equals its annihilator {v : omega(v, u) = 0 for u in it}."""
    n = len(gram)
    constraints = [bench_oracle.apply(gram, u) for u in rows]
    return oracle_span(bench_oracle.nullspace(constraints, n), n) == oracle_span(rows, n)


def oracle_preserves_form(gram, columns) -> bool:
    """The columns pair under the form as the basis does: omega(A e_i, A e_j) = omega(e_i, e_j)."""
    return all(
        bench_oracle.skew(gram, ci, cj) == gram[i][j]
        for i, ci in enumerate(columns)
        for j, cj in enumerate(columns)
    )


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


_REFERENCE_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


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
