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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cobordism import CobordismMorphism, SurfaceObject
from .errors import (
    DimensionMismatchError,
    EvencobError,
    FileSyntaxError,
    GeneraMismatchError,
    LagrangianMismatchError,
    UnknownNameError,
)
from .generators import MAX_TEXT_GENUS, build_from_objects, parse_generator_spec
from .linalg import RationalMatrix, Subspace, canonical_basis
from .symplectic import SymplecticSpace, beta0, beta1

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# a morphism's h1 and h0 need not be matched by data lines, so they are bounded
MAX_BODY_DIM = 256


def parse_rational(token: str, line: int | None = None) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise FileSyntaxError(f"not a rational (p/q or integer): {token!r}", line)
    return Fraction(token)


def format_rational(value: Fraction) -> str:
    return str(value)


@dataclass(frozen=True)
class Scenario:
    """A symplectic space, named subspaces, and triple queries."""

    space: SymplecticSpace
    named_subspaces: dict[str, Subspace] = field(default_factory=dict)
    queries: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class PipelineEntry:
    name: str
    source_name: str
    target_name: str
    morphism: CobordismMorphism
    # where the record starts in its file; None for entries built in memory
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Pipeline:
    """Named surface objects and an ordered sequence of morphism records."""

    objects: dict[str, SurfaceObject] = field(default_factory=dict)
    entries: tuple[PipelineEntry, ...] = ()


def _check_chain(entries: list[PipelineEntry], number: int) -> None:
    # Pipeline invariant: consecutive morphisms are composable
    if len(entries) < 2:
        return
    previous, current = entries[-2].morphism, entries[-1].morphism
    if previous.target.genera != current.source.genera:
        raise GeneraMismatchError(
            f"line {number}: entry {entries[-1].name!r} has source genera "
            f"{current.source.genera}, previous entry ends in {previous.target.genera}"
        )
    if previous.target.lagrangian != current.source.lagrangian:
        raise LagrangianMismatchError(
            f"line {number}: entry {entries[-1].name!r} does not continue the "
            "previous entry: middle Lagrangians differ"
        )


class _Lines:
    """Cursor over the non-empty, comment-stripped lines of a file."""

    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((number, body.split()))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def peek(self) -> tuple[int, list[str]]:
        return self.items[self.pos]

    def take(self, expect: str | None = None) -> tuple[int, list[str]]:
        if self.done():
            raise FileSyntaxError(
                f"unexpected end of file, expected {expect}" if expect else "unexpected end of file"
            )
        item = self.items[self.pos]
        self.pos += 1
        return item

    def take_numbers(self, count: int, line_hint: str) -> list[Fraction]:
        number, tokens = self.take(expect=line_hint)
        if len(tokens) != count:
            raise DimensionMismatchError(
                f"line {number}: expected {count} rationals for {line_hint}, "
                f"found {len(tokens)}"
            )
        return [parse_rational(t, number) for t in tokens]


def _parse_int(token: str, line: int, what: str) -> int:
    # one optional minus sign, then the decimal digits int() accepts
    if not token.removeprefix("-").isdecimal():
        raise FileSyntaxError(f"{what} must be an integer, found {token!r}", line)
    return int(token)


def _parse_count(token: str, line: int, what: str, most: int | None = None) -> int:
    value = _parse_int(token, line, what)
    if value < 0:
        raise FileSyntaxError(f"{what} must be non-negative, found {value}", line)
    if most is not None and value > most:
        raise FileSyntaxError(f"{what} must be at most {most}, found {value}", line)
    return value


def _read_matrix(lines: _Lines, rows: int, cols: int, what: str) -> RationalMatrix:
    if rows == 0 or cols == 0:
        return RationalMatrix.zeros(rows, cols)
    data = [lines.take_numbers(cols, what) for _ in range(rows)]
    return RationalMatrix(data, cols=cols)


def parse_scenario(text: str) -> Scenario:
    lines = _Lines(text)
    space: SymplecticSpace | None = None
    subspaces: dict[str, Subspace] = {}
    queries: list[tuple[str, str, str]] = []
    while not lines.done():
        number, tokens = lines.take()
        keyword = tokens[0]
        if keyword == "form":
            if space is not None:
                raise FileSyntaxError("duplicate form declaration", number)
            if len(tokens) != 2:
                raise FileSyntaxError("usage: form <n>", number)
            n = _parse_count(tokens[1], number, "form dimension")
            gram = _read_matrix(lines, n, n, "a form row")
            try:
                space = SymplecticSpace(gram)
            except EvencobError as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
        elif keyword == "subspace":
            if space is None:
                raise FileSyntaxError("subspace declared before the form", number)
            if len(tokens) != 3:
                raise FileSyntaxError("usage: subspace <name> <rows>", number)
            name = tokens[1]
            if name in subspaces:
                raise FileSyntaxError(f"duplicate subspace name {name!r}", number)
            k = _parse_count(tokens[2], number, "subspace row count")
            rows = [lines.take_numbers(space.dim, f"a row of subspace {name}") for _ in range(k)]
            subspaces[name] = canonical_basis(rows, space.dim)
        elif keyword == "triple":
            if len(tokens) != 4:
                raise FileSyntaxError("usage: triple <n1> <n2> <n3>", number)
            for name in tokens[1:]:
                if name not in subspaces:
                    raise UnknownNameError(f"triple refers to undeclared subspace {name!r}", number)
            queries.append((tokens[1], tokens[2], tokens[3]))
        else:
            raise FileSyntaxError(f"unknown statement {keyword!r}", number)
    if space is None:
        space = SymplecticSpace(RationalMatrix((), cols=0))
    return Scenario(space, subspaces, tuple(queries))


def _matrix_lines(matrix: RationalMatrix) -> list[str]:
    if matrix.cols == 0:
        return []  # zero-width rows have no data lines
    return [" ".join(format_rational(x) for x in matrix.row(i)) for i in range(matrix.rows)]


def serialize_scenario(scenario: Scenario) -> str:
    out = [f"form {scenario.space.dim}"]
    out.extend(_matrix_lines(scenario.space.gram))
    for name, sub in scenario.named_subspaces.items():
        out.append(f"subspace {name} {sub.dim}")
        out.extend(_matrix_lines(sub.basis))
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

    while not lines.done():
        number, tokens = lines.take()
        keyword = tokens[0]
        if keyword == "object":
            if len(tokens) < 3 or tokens[2] != "genera":
                raise FileSyntaxError("usage: object <name> genera <g1> <g2> ...", number)
            name = tokens[1]
            if name in objects:
                raise FileSyntaxError(f"duplicate object name {name!r}", number)
            genera = tuple(_parse_count(t, number, "genus") for t in tokens[3:])
            if sum(genera) > MAX_TEXT_GENUS:
                raise FileSyntaxError(
                    f"genera add up to {sum(genera)}, at most {MAX_TEXT_GENUS} allowed", number
                )
            ln, lt = lines.take(expect="lagrangian")
            if len(lt) != 2 or lt[0] != "lagrangian":
                raise FileSyntaxError("object must be followed by: lagrangian <rows>", ln)
            k = _parse_count(lt[1], ln, "lagrangian row count")
            width = beta1(genera)
            rows = [lines.take_numbers(width, f"a lagrangian row of {name}") for _ in range(k)]
            try:
                objects[name] = SurfaceObject(genera, canonical_basis(rows, width))
            except EvencobError as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
        elif keyword == "morphism":
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
            weight = _parse_int(tokens[5], number, "weight")
            h1 = _parse_count(tokens[7], number, "h1 dimension", MAX_BODY_DIM)
            h0 = _parse_count(tokens[9], number, "h0 dimension", MAX_BODY_DIM)
            widths = {
                "jsrc_h1": (h1, beta1(source.genera)),
                "jtgt_h1": (h1, beta1(target.genera)),
                "jsrc_h0": (h0, beta0(source.genera)),
                "jtgt_h0": (h0, beta0(target.genera)),
            }
            matrices = {}
            for label in _MORPHISM_BLOCKS:
                ln, lt = lines.take(expect=label)
                if lt != [label]:
                    raise FileSyntaxError(f"expected block label {label!r}", ln)
                r, c = widths[label]
                matrices[label] = _read_matrix(lines, r, c, f"a row of {label}")
            try:
                morphism = CobordismMorphism(
                    source,
                    target,
                    weight,
                    h1,
                    h0,
                    matrices["jsrc_h1"],
                    matrices["jtgt_h1"],
                    matrices["jsrc_h0"],
                    matrices["jtgt_h0"],
                )
            except EvencobError as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
            entries.append(PipelineEntry(name, src_name, dst_name, morphism, number))
            _check_chain(entries, number)
        elif keyword == "generator":
            if len(tokens) < 5:
                raise FileSyntaxError(
                    "usage: generator <name> <src> <dst> <generator text>", number
                )
            name, src_name, dst_name = tokens[1], tokens[2], tokens[3]
            source = lookup(src_name, number)
            target = lookup(dst_name, number)
            try:
                spec = parse_generator_spec(" ".join(tokens[4:]))
                morphism = build_from_objects(spec, source, target)
            except EvencobError as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
            entries.append(PipelineEntry(name, src_name, dst_name, morphism, number))
            _check_chain(entries, number)
        else:
            raise FileSyntaxError(f"unknown statement {keyword!r}", number)
    return Pipeline(objects, tuple(entries))


def serialize_pipeline(pipeline: Pipeline) -> str:
    out: list[str] = []
    for name, obj in pipeline.objects.items():
        out.append(f"object {name} genera {' '.join(str(g) for g in obj.genera)}".rstrip())
        out.append(f"lagrangian {obj.lagrangian.dim}")
        out.extend(_matrix_lines(obj.lagrangian.basis))
    for entry in pipeline.entries:
        m = entry.morphism
        out.append(
            f"morphism {entry.name} {entry.source_name} {entry.target_name} "
            f"weight {m.weight} h1 {m.h1_dim} h0 {m.h0_dim}"
        )
        blocks = (m.j_src_h1, m.j_tgt_h1, m.j_src_h0, m.j_tgt_h0)
        for label, matrix in zip(_MORPHISM_BLOCKS, blocks):
            out.append(label)
            out.extend(_matrix_lines(matrix))
    return "\n".join(out) + "\n"


def pipeline_for_morphism(morphism: CobordismMorphism) -> Pipeline:
    """Wrap a single morphism as a pipeline, named m from src to dst, for writing."""
    objects = {"src": morphism.source, "dst": morphism.target}
    return Pipeline(objects, (PipelineEntry("m", "src", "dst", morphism),))
