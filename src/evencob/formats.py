"""Line-oriented file formats.

Scenario files (.ssf) describe a symplectic space, named subspaces, and triple
queries:

    # comment (anywhere; the rest of the line is ignored)
    form <n>                 followed by n lines of n rationals
    subspace <name> <k>      followed by k basis-row lines of n rationals
    triple <n1> <n2> <n3>

Pipeline files (.cbf) describe surface objects and cobordism morphisms:

    object <name> genera <g1> <g2> ...
    lagrangian <k>           followed by k basis-row lines (immediately after
                             the object line)
    morphism <name> <src> <dst> weight <w> h1 <n> h0 <m>
    jsrc_h1 / jtgt_h1 / jsrc_h0 / jtgt_h0
                             labeled matrix blocks in that order; a block whose
                             row or column count is zero has no data lines
    generator <name> <src> <dst> <generator text>

Rationals are written p/q or as bare integers; no floating point is accepted
anywhere.  Serializing and re-parsing yields structurally identical values.

The readers are the trust boundary for numbers.  `_read_ratio` is the one
definition of a number token: an optional sign and ASCII digits only, with `/`
and a denominator that does not start with 0, digit counts bounded by
`generators.check_digits`, and `int()` reading its numerator and denominator,
which are divided by their gcd.  A data line is read by `_read_row`: in one
pass when checks on the whole line prove every token well-formed, and
otherwise token by token through `_read_ratio`, which words the error.  Either
way the line becomes one integer row over the lcm of its denominators, the
row form `linalg` stores, so matrices and subspaces are built from the text
with no `Fraction` in between.  Other integers and the genera are read and
bounded as generator text reads them, by `generators.read_int` and
`generators.check_genera`.

Every error the readers raise starts `line N: `, N the line at fault; a
file that ends inside a statement names its last non-empty line.  An error
raised while a statement is checked keeps its class.  Consecutive pipeline
entries must glue, as `cobordism.check_composable` decides for `compose`.
The writers refuse a weight, numerator or denominator with more digits than
the readers accept.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .cobordism import CobordismMorphism, SurfaceObject, check_composable
from .errors import DimensionMismatchError, EvencobError, FileSyntaxError, UnknownNameError
from .generators import (
    MAX_BODY_DIM,
    MAX_NUMBER_DIGITS,
    build_from_objects,
    check_digits,
    check_genera,
    parse_generator_spec,
    read_int,
)
from .linalg import IntRow, RationalMatrix, Subspace, _over_lcm, _reduced
from .symplectic import SymplecticSpace, beta0, beta1
from .values import Value


def _is_digits(text: str) -> bool:
    # ASCII digits only: str.isdigit and int() also take other scripts' digits
    return text.isascii() and text.isdigit()


def _read_ratio(token: str, line: int | None) -> tuple[int, int]:
    """The token as (numerator, positive denominator) in lowest terms.

    A token is one optional sign, ASCII digits, and optionally ``/`` and
    ASCII digits that do not start with 0, and it may end in one newline;
    the digit bounds count that newline with the digits before it.
    """
    unsigned = token[1:] if token[:1] in ("+", "-") else token
    numerator, slash, denominator = unsigned.partition("/")
    last = (denominator if slash else numerator).removesuffix("\n")
    if not (_is_digits(last) and (not slash or _is_digits(numerator) and last[0] != "0")):
        raise FileSyntaxError(f"not a rational (p/q or integer): {token!r}", line)
    if not slash:
        check_digits(numerator, "an integer", FileSyntaxError, line)
        return int(token), 1
    check_digits(numerator, "a numerator", FileSyntaxError, line)
    check_digits(denominator, "a denominator", FileSyntaxError, line)
    num, den = int(numerator), int(denominator)
    if token[0] == "-":
        num = -num
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def parse_rational(token: str, line: int | None = None) -> Fraction:
    return Fraction(*_read_ratio(token, line))


def _read_row(tokens: list[str], line: int | None) -> tuple[IntRow, int]:
    """The tokens' rationals as integers over one denominator, in lowest terms:
    ``_over_lcm`` of each token's `_read_ratio`.

    The line is read in one pass when checks on the whole line prove every
    token well-formed: it is ASCII with no ``_``, no denominator starts with
    0 or a sign, and no token is longer than the digit bound.  ``int()`` then
    rejects every other malformed token, and any line the checks or ``int()``
    refuse is read token by token, so `_read_ratio` alone words the error.
    """
    text = " ".join(tokens)
    if (
        text.isascii()
        and "_" not in text
        and "/0" not in text
        and "/+" not in text
        and "/-" not in text
        and (len(text) <= MAX_NUMBER_DIGITS or max(map(len, tokens)) <= MAX_NUMBER_DIGITS)
    ):
        try:
            if "/" not in text:
                return tuple(map(int, tokens)), 1
            parts = [t.partition("/") for t in tokens]
            dens = [int(d) if slash else 1 for _, slash, d in parts]
            den = lcm(*dens)
            return _reduced([int(n) * (den // d) for (n, _, _), d in zip(parts, dens)], den)
        except ValueError:
            pass
    return _over_lcm([_read_ratio(t, line) for t in tokens])


class Scenario(Value):
    """A symplectic space, named subspaces, and triple queries."""

    # query_lines holds the line of each query in its file, and is empty for
    # scenarios built in memory
    _uncompared = ("query_lines",)

    def __init__(
        self,
        space: SymplecticSpace,
        named_subspaces: dict[str, Subspace] | None = None,
        queries: tuple[tuple[str, str, str], ...] = (),
        query_lines: tuple[int, ...] = (),
    ):
        object.__setattr__(self, "space", space)
        if named_subspaces is None:
            named_subspaces = {}
        object.__setattr__(self, "named_subspaces", named_subspaces)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "query_lines", query_lines)


class PipelineEntry(Value):
    # line is where the record starts in its file, None for entries built in memory
    _uncompared = ("line",)

    def __init__(
        self,
        name: str,
        source_name: str,
        target_name: str,
        morphism: CobordismMorphism,
        line: int | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source_name", source_name)
        object.__setattr__(self, "target_name", target_name)
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "line", line)


class Pipeline(Value):
    """Named surface objects and an ordered sequence of morphism records."""

    def __init__(
        self,
        objects: dict[str, SurfaceObject] | None = None,
        entries: tuple[PipelineEntry, ...] = (),
    ):
        object.__setattr__(self, "objects", {} if objects is None else objects)
        object.__setattr__(self, "entries", entries)


@contextmanager
def _at_line(number: int, what: str = "") -> Iterator[None]:
    """Re-raise an EvencobError from the block as one of the same class at
    the line, its message prefixed by `what`."""
    try:
        yield
    except EvencobError as exc:
        raise type(exc)(f"{what}{exc}", number) from exc


class _Lines:
    """Cursor over the non-empty, comment-stripped lines of a file: iterating
    gives each statement's line, and `take` the lines the statement goes on to."""

    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.partition("#")[0].split()
            if tokens:
                self.items.append((number, tokens))
        self.rest = iter(self.items)

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        return self.rest

    def take(self, expect: str) -> tuple[int, list[str]]:
        item = next(self.rest, None)
        if item is None:
            # a statement was read, so the file has a last line to name
            raise FileSyntaxError(f"unexpected end of file, expected {expect}", self.items[-1][0])
        return item

    def take_numbers(self, count: int, line_hint: str) -> tuple[IntRow, int]:
        """The next line's rationals as integers over one denominator, in lowest terms."""
        number, tokens = self.take(line_hint)
        if len(tokens) != count:
            raise DimensionMismatchError(
                f"expected {count} rationals for {line_hint}, found {len(tokens)}", number
            )
        return _read_row(tokens, number)


def _parse_count(token: str, line: int, what: str, most: int | None = None) -> int:
    value = read_int(token, what, FileSyntaxError, line)
    if value < 0:
        raise FileSyntaxError(f"{what} must be non-negative, found {value}", line)
    if most is not None and value > most:
        raise FileSyntaxError(f"{what} must be at most {most}, found {value}", line)
    return value


def _read_matrix(lines: _Lines, rows: int, cols: int, what: str) -> RationalMatrix:
    if rows == 0 or cols == 0:
        return RationalMatrix.zeros(rows, cols)
    return RationalMatrix._of_pairs([lines.take_numbers(cols, what) for _ in range(rows)], cols)


def parse_scenario(text: str) -> Scenario:
    lines = _Lines(text)
    space: SymplecticSpace | None = None
    subspaces: dict[str, Subspace] = {}
    queries: list[tuple[str, str, str]] = []
    query_lines: list[int] = []
    for number, tokens in lines:
        keyword = tokens[0]
        if keyword == "form":
            if space is not None:
                raise FileSyntaxError("duplicate form declaration", number)
            if len(tokens) != 2:
                raise FileSyntaxError("usage: form <n>", number)
            n = _parse_count(tokens[1], number, "form dimension")
            gram = _read_matrix(lines, n, n, "a form row")
            with _at_line(number):
                space = SymplecticSpace(gram)
        elif keyword == "subspace":
            if space is None:
                raise FileSyntaxError("subspace declared before the form", number)
            if len(tokens) != 3:
                raise FileSyntaxError("usage: subspace <name> <rows>", number)
            name = tokens[1]
            if name in subspaces:
                raise FileSyntaxError(f"duplicate subspace name {name!r}", number)
            k = _parse_count(tokens[2], number, "subspace row count")
            hint = f"a row of subspace {name}"
            rows = [lines.take_numbers(space.dim, hint) for _ in range(k)]
            subspaces[name] = Subspace(RationalMatrix._of_pairs(rows, space.dim))
        elif keyword == "triple":
            if len(tokens) != 4:
                raise FileSyntaxError("usage: triple <n1> <n2> <n3>", number)
            for name in tokens[1:]:
                if name not in subspaces:
                    raise UnknownNameError(f"triple refers to undeclared subspace {name!r}", number)
            queries.append((tokens[1], tokens[2], tokens[3]))
            query_lines.append(number)
        else:
            raise FileSyntaxError(f"unknown statement {keyword!r}", number)
    if space is None:
        space = SymplecticSpace(RationalMatrix((), cols=0))
    return Scenario(space, subspaces, tuple(queries), tuple(query_lines))


# the least magnitude with more digits than the readers accept
_DIGITS_BOUND = 10**MAX_NUMBER_DIGITS


def _check_writable(values: Iterable[int | Fraction], what: str) -> None:
    # compared before str() runs: past its own limit str() raises ValueError
    if any(abs(v.numerator) >= _DIGITS_BOUND or v.denominator >= _DIGITS_BOUND for v in values):
        raise EvencobError(
            f"{what} has more than {MAX_NUMBER_DIGITS} digits, at most {MAX_NUMBER_DIGITS} allowed"
        )


def _matrix_lines(matrix: RationalMatrix, what: str) -> list[str]:
    if matrix.cols == 0:
        return []  # zero-width rows have no data lines
    _check_writable(matrix.entries, f"a number in {what}")
    return [" ".join(map(str, matrix.row(i))) for i in range(matrix.rows)]


def serialize_scenario(scenario: Scenario) -> str:
    out = [f"form {scenario.space.dim}"]
    out.extend(_matrix_lines(scenario.space.gram, "the form"))
    for name, sub in scenario.named_subspaces.items():
        out.append(f"subspace {name} {sub.dim}")
        out.extend(_matrix_lines(sub.basis, f"subspace {name!r}"))
    for a, b, c in scenario.queries:
        out.append(f"triple {a} {b} {c}")
    return "\n".join(out) + "\n"


_MORPHISM_BLOCKS = ("jsrc_h1", "jtgt_h1", "jsrc_h0", "jtgt_h0")


def parse_pipeline(text: str) -> Pipeline:
    lines = _Lines(text)
    objects: dict[str, SurfaceObject] = {}
    entries: list[PipelineEntry] = []

    def lookup(name: str, number: int) -> SurfaceObject:
        if name not in objects:
            raise UnknownNameError(f"undeclared object {name!r}", number)
        return objects[name]

    for number, tokens in lines:
        keyword = tokens[0]
        if keyword == "object":
            if len(tokens) < 3 or tokens[2] != "genera":
                raise FileSyntaxError("usage: object <name> genera <g1> <g2> ...", number)
            name = tokens[1]
            if name in objects:
                raise FileSyntaxError(f"duplicate object name {name!r}", number)
            genera = tuple(_parse_count(t, number, "genus") for t in tokens[3:])
            check_genera(genera, FileSyntaxError, number)
            ln, lt = lines.take("lagrangian")
            if len(lt) != 2 or lt[0] != "lagrangian":
                raise FileSyntaxError("object must be followed by: lagrangian <rows>", ln)
            k = _parse_count(lt[1], ln, "lagrangian row count")
            width = beta1(genera)
            hint = f"a lagrangian row of {name}"
            rows = [lines.take_numbers(width, hint) for _ in range(k)]
            with _at_line(number):
                lagrangian = Subspace(RationalMatrix._of_pairs(rows, width))
                objects[name] = SurfaceObject(genera, lagrangian)
            continue
        if keyword == "morphism":
            if (
                len(tokens) != 10
                or tokens[4] != "weight"
                or tokens[6] != "h1"
                or tokens[8] != "h0"
            ):
                raise FileSyntaxError(
                    "usage: morphism <name> <src> <dst> weight <w> h1 <n> h0 <m>", number
                )
            name, src_name, dst_name = tokens[1], tokens[2], tokens[3]
            source = lookup(src_name, number)
            target = lookup(dst_name, number)
            weight = read_int(tokens[5], "weight", FileSyntaxError, number)
            h1 = _parse_count(tokens[7], number, "h1 dimension", MAX_BODY_DIM)
            h0 = _parse_count(tokens[9], number, "h0 dimension", MAX_BODY_DIM)
            shapes = (
                (h1, beta1(source.genera)),
                (h1, beta1(target.genera)),
                (h0, beta0(source.genera)),
                (h0, beta0(target.genera)),
            )
            blocks = []
            for label, (r, c) in zip(_MORPHISM_BLOCKS, shapes):
                ln, lt = lines.take(label)
                if lt != [label]:
                    raise FileSyntaxError(f"expected block label {label!r}", ln)
                blocks.append(_read_matrix(lines, r, c, f"a row of {label}"))
            with _at_line(number):
                morphism = CobordismMorphism(source, target, weight, h1, h0, *blocks)
        elif keyword == "generator":
            if len(tokens) < 5:
                raise FileSyntaxError(
                    "usage: generator <name> <src> <dst> <generator text>", number
                )
            name, src_name, dst_name = tokens[1], tokens[2], tokens[3]
            source = lookup(src_name, number)
            target = lookup(dst_name, number)
            with _at_line(number):
                spec = parse_generator_spec(" ".join(tokens[4:]))
                morphism = build_from_objects(spec, source, target)
        else:
            raise FileSyntaxError(f"unknown statement {keyword!r}", number)
        if entries:
            with _at_line(number, f"entry {name!r}: "):
                check_composable(entries[-1].morphism, morphism)
        entries.append(PipelineEntry(name, src_name, dst_name, morphism, number))
    return Pipeline(objects, tuple(entries))


def serialize_pipeline(pipeline: Pipeline) -> str:
    out: list[str] = []
    for name, obj in pipeline.objects.items():
        out.append(f"object {name} genera {' '.join(str(g) for g in obj.genera)}".rstrip())
        out.append(f"lagrangian {obj.lagrangian.dim}")
        out.extend(_matrix_lines(obj.lagrangian.basis, f"the lagrangian of object {name!r}"))
    for entry in pipeline.entries:
        m = entry.morphism
        _check_writable([m.weight], f"the weight of entry {entry.name!r}")
        for what, dim in (("h1", m.h1_dim), ("h0", m.h0_dim)):
            if dim > MAX_BODY_DIM:
                raise EvencobError(
                    f"the {what} dimension of entry {entry.name!r} is {dim}, "
                    f"at most {MAX_BODY_DIM} allowed"
                )
        out.append(
            f"morphism {entry.name} {entry.source_name} {entry.target_name} "
            f"weight {m.weight} h1 {m.h1_dim} h0 {m.h0_dim}"
        )
        blocks = (m.j_src_h1, m.j_tgt_h1, m.j_src_h0, m.j_tgt_h0)
        for label, matrix in zip(_MORPHISM_BLOCKS, blocks):
            out.append(label)
            out.extend(_matrix_lines(matrix, f"{label} of entry {entry.name!r}"))
    return "\n".join(out) + "\n"


def pipeline_for_morphism(morphism: CobordismMorphism) -> Pipeline:
    """Wrap a single morphism as a pipeline, named m from src to dst, for writing."""
    objects = {"src": morphism.source, "dst": morphism.target}
    return Pipeline(objects, (PipelineEntry("m", "src", "dst", morphism),))
