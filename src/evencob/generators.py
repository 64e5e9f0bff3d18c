"""Cobordism records that are realizable by construction.

Handlebodies, twisted cylinders, caps and disjoint unions carry boundary
kernels that are Lagrangian by design, so every record built here passes
validate().  The public constructors test a caller's Lagrangians and twist;
build_from_objects tests neither the objects it is given nor the walk's
twist again, and shares each kind's record body with them.  GeneratorSpec is
a small build plan for composites of these pieces.  random_even_morphism
executes a plan: for each atom it draws from the seed what the plan leaves
open, in a fixed per-kind order, and builds the atom with build_from_objects
exactly as a pipeline file's generator line is built; then it fixes the
weight parity so the result is even.

Textual encoding of a GeneratorSpec (consumed by the CLI and by pipeline
files), whitespace separated:

    atom      :=  KIND key=value ...
    plan      :=  atom
               |  'composite' '(' plan ',' plan ... ')'
               |  'disjoint_union' '(' plan ',' plan ... ')'
    KIND      :=  identity | pseudo_cylinder | twisted_cylinder
               |  handlebody | cap
    keys      :=  genus=INT | genera=[INT,INT,...] | weight=INT
               |  twist_seed=INT | twist_length=INT
    INT       :=  -?DIGITS, ASCII 0-9, at most MAX_NUMBER_DIGITS (1000) digits

Combinations nest at most MAX_NESTING (100) deep.  ``gen`` also bounds the
work a text asks for before it builds anything (``check_text_work``).

Example:  composite(handlebody genus=1 weight=1, cap genus=1 weight=1)
"""

from __future__ import annotations

import random
import re

from .cobordism import (
    CobordismMorphism,
    SurfaceObject,
    _block_sum,
    _cylinder,
    compose,
    empty_surface,
    evened,
    identity,
)
from .errors import DimensionMismatchError, EvencobError, GeneratorSpecError, NotSymplecticError
from .linalg import RationalMatrix, Subspace
from .symplectic import (
    DEFAULT_WALK_LENGTH,
    _int_genera,
    _symplectic_inverse,
    random_lagrangian,
    random_symplectic,
)
from .values import Value, replace

ATOM_KINDS = ("identity", "pseudo_cylinder", "twisted_cylinder", "handlebody", "cap")
COMBO_KINDS = ("disjoint_union", "composite")

# a few characters of generator text ask for dense matrices of these sizes
MAX_TEXT_GENUS = 32
MAX_TWIST_LENGTH = 1000
# and an integer there or in a file has at most this many digits, far below
# Python's limit on converting between int and str
MAX_NUMBER_DIGITS = 1000

# genus-0 components add nothing to the genus, and a morphism's h1 and h0 need
# not be matched by data lines, so component counts and body dimensions are
# bounded too
MAX_BODY_DIM = 256
# the parser, the builder and the formatter recurse with each level; this
# keeps them far below Python's recursion limit
MAX_NESTING = 100
# none of these bounds the number of atoms or the digits a chain's walks add,
# so gen also bounds text_work's estimate.  This is the estimate of a chain of
# 39 genus-32 twisted cylinders with the default walks, the longest such chain
# allowed, which built in 3.6 s (2 vCPUs, Python 3.11); 80 genus-3 cylinders
# with 1000-step walks, estimated at 29 million, took 12 s before the written
# pipeline was refused for its digits
MAX_TEXT_WORK = 2**24


# the one set of rules for integers and sizes in generator text and in
# .ssf/.cbf files: each raises error(message, line), a file passing its line
def check_digits(
    digits: str, what: str, error: type[EvencobError], line: int | None = None
) -> None:
    if len(digits) > MAX_NUMBER_DIGITS:
        raise error(f"{what} has {len(digits)} digits, at most {MAX_NUMBER_DIGITS} allowed", line)


def read_int(token: str, what: str, error: type[EvencobError], line: int | None = None) -> int:
    """The integer a token writes: one optional minus sign, then ASCII digits."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise error(f"{what} must be an integer, found {token!r}", line)
    check_digits(digits, what, error, line)
    return int(token)


def check_genera(
    genera: tuple[int, ...], error: type[EvencobError], line: int | None = None
) -> None:
    if len(genera) > MAX_BODY_DIM:
        raise error(f"genera have {len(genera)} components, at most {MAX_BODY_DIM} allowed", line)
    if sum(genera) > MAX_TEXT_GENUS:
        raise error(f"genera add up to {sum(genera)}, at most {MAX_TEXT_GENUS} allowed", line)


def _check_twist(name: str, twist: RationalMatrix, surface: SurfaceObject) -> None:
    """Raise unless the twist is square of the surface's size and preserves
    its form, the standard J, as ``_symplectic_inverse`` decides."""
    n = surface.beta1
    if twist.rows != n or twist.cols != n:
        raise DimensionMismatchError(f"{name} is {twist.rows}x{twist.cols}, surface needs {n}x{n}")
    if _symplectic_inverse(twist) is None:
        raise NotSymplecticError(f"{name} does not preserve the surface form")


def _cores(genus: int, twist: RationalMatrix | None = None) -> RationalMatrix:
    # H1 of the genus-g handlebody: e_i maps to the i-th core and f_i bounds, so
    # row i is unit row 2i; a twist A moves the surface first
    cores = RationalMatrix._of_ints(RationalMatrix.identity(2 * genus)._rows[::2], 2 * genus)
    return cores if twist is None else cores @ twist


def _one_sided(
    source: SurfaceObject, target: SurfaceObject, weight: int, cores: RationalMatrix
) -> CobordismMorphism:
    # a handlebody (empty source) or a cap (empty target): one body component,
    # whose H1 is spanned by the cores the nonempty end includes onto
    empty = (RationalMatrix.zeros(cores.rows, 0), RationalMatrix.zeros(1, 0))
    full = (cores, RationalMatrix.identity(1))
    (src_h1, src_h0), (tgt_h1, tgt_h0) = (empty, full) if source.is_empty else (full, empty)
    return CobordismMorphism(source, target, weight, cores.rows, 1, src_h1, tgt_h1, src_h0, tgt_h0)


def twisted_cylinder(
    surface: SurfaceObject,
    twist: RationalMatrix,
    target_lagrangian: Subspace,
    weight: int,
) -> CobordismMorphism:
    """A mapping cylinder: the source includes by the identity, the target by
    the inverse twist, so push_forward acts as the twist itself.

    The twist must preserve the surface form; its graph is then Lagrangian in
    the boundary form and the record validates by construction.  Once that
    is checked, the inverse is -J A^T J, with no elimination.
    """
    _check_twist("twist", twist, surface)
    return _cylinder(surface, SurfaceObject(surface.genera, target_lagrangian), weight, twist)


def handlebody(genus: int, target_lagrangian: Subspace, weight: int) -> CobordismMorphism:
    """The genus-g handlebody, empty surface to the genus-g surface.

    H1 of the body is spanned by the g cores; e_i maps to the i-th core and
    f_i bounds, so the boundary kernel is span{f_1..f_g}.
    """
    target = SurfaceObject((genus,), target_lagrangian)
    return _one_sided(empty_surface(), target, weight, _cores(genus))


def cap(
    genus: int,
    source_lagrangian: Subspace,
    weight: int,
    pre_twist: RationalMatrix | None = None,
) -> CobordismMorphism:
    """A handlebody glued from the other side: genus-g surface to empty.

    With a pre-twist A, which must preserve the surface form, the boundary
    kernel moves to A^{-1} span{f_1..f_g}; with none it is span{f_1..f_g}.
    """
    source = SurfaceObject((genus,), source_lagrangian)
    if pre_twist is not None:
        _check_twist("pre_twist", pre_twist, source)
    return _one_sided(source, empty_surface(), weight, _cores(genus, pre_twist))


def _union_object(a: SurfaceObject, b: SurfaceObject) -> SurfaceObject:
    # two RREF bases side by side are the RREF basis of their direct sum
    basis = RationalMatrix.block_diag(a.lagrangian.basis, b.lagrangian.basis)
    return SurfaceObject(a.genera + b.genera, Subspace._canonical(basis))


def disjoint_union(m1: CobordismMorphism, m2: CobordismMorphism) -> CobordismMorphism:
    """Place two cobordisms side by side; weights add, all maps block-sum."""
    source = _union_object(m1.source, m2.source)
    return _block_sum(m1, m2, source, _union_object(m1.target, m2.target))


class GeneratorSpec(Value):
    """A build plan: which generator, over which surface type, with what data.

    genera None means "take the surface type from context" (the previous
    morphism in a chain, or the declared objects of a pipeline file).
    Weight None means seed-drawn.
    """

    def __init__(
        self,
        kind: str,
        genera: tuple[int, ...] | None = None,
        weight: int | None = None,
        twist_seed: int | None = None,
        twist_length: int = DEFAULT_WALK_LENGTH,
        children: tuple["GeneratorSpec", ...] = (),
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "twist_seed", twist_seed)
        object.__setattr__(self, "twist_length", twist_length)
        object.__setattr__(self, "children", children)
        self.__post_init__()

    def __post_init__(self):
        if self.kind in ATOM_KINDS:
            if self.children:
                raise GeneratorSpecError(f"{self.kind} takes no children")
        elif self.kind in COMBO_KINDS:
            if len(self.children) < 2:
                raise GeneratorSpecError(f"{self.kind} needs at least two children")
            if self.genera is not None or self.weight is not None:
                raise GeneratorSpecError(f"{self.kind} takes only children")
        else:
            raise GeneratorSpecError(f"unknown generator kind {self.kind!r}")
        if self.genera is not None:
            genera = _int_genera(self.genera)
            if any(g < 0 for g in genera):
                raise GeneratorSpecError(f"genera must be non-negative, got {genera}")
            object.__setattr__(self, "genera", genera)
        if self.twist_length < 0:
            raise GeneratorSpecError(f"twist_length must be non-negative, got {self.twist_length}")


def _draw_object(genera: tuple[int, ...], rng: random.Random) -> SurfaceObject:
    total = sum(genera)
    return SurfaceObject(genera, random_lagrangian(total, rng) if total else Subspace.zero(0))


def target_genera(atom: GeneratorSpec, source_genera: tuple[int, ...]) -> tuple[int, ...]:
    """The genera an atom ends in when it starts in these."""
    return {"handlebody": atom.genera, "cap": ()}.get(atom.kind, source_genera)


def _build(
    spec: GeneratorSpec, rng: random.Random, source: SurfaceObject | None
) -> CobordismMorphism:
    kind = spec.kind
    if kind == "composite":
        morphism = _build(spec.children[0], rng, source)
        for child in spec.children[1:]:
            morphism = compose(morphism, _build(child, rng, morphism.target))
        return morphism
    if kind == "disjoint_union":
        if source is not None:
            raise GeneratorSpecError("disjoint_union cannot inherit a source object")
        morphism = _build(spec.children[0], rng, None)
        for child in spec.children[1:]:
            morphism = disjoint_union(morphism, _build(child, rng, None))
        return morphism
    # an atom: draw what the plan leaves open, in this order, then build it as a
    # generator line is; a handlebody's genera are its target's, never in context
    if (source is None or kind == "handlebody") and spec.genera is None:
        raise GeneratorSpecError(f"{kind} without context needs explicit genera")
    if source is None:
        source = empty_surface() if kind == "handlebody" else _draw_object(spec.genera, rng)
    seed = spec.twist_seed
    draw_seed = seed is None and sum(source.genera) > 0
    if kind == "twisted_cylinder" and draw_seed:
        seed = rng.getrandbits(32)
    target = source if kind == "identity" else _draw_object(target_genera(spec, source.genera), rng)
    weight = spec.weight
    if weight is None and kind != "identity":
        weight = rng.randrange(-4, 5)
    if kind == "cap" and draw_seed:
        seed = rng.getrandbits(32)
    return build_from_objects(replace(spec, weight=weight, twist_seed=seed), source, target)


def random_even_morphism(
    shape: GeneratorSpec, seed: int, *, source: SurfaceObject | None = None
) -> CobordismMorphism:
    """Build the plan with seed-driven choices, then make the weight parity even.

    Evenness constrains only the weight parity, so a unit weight bump fixes an
    odd build.  Identical shape and seed reproduce the identical record.
    """
    return evened(_build(shape, random.Random(seed), source))


def build_from_objects(
    spec: GeneratorSpec, source: SurfaceObject, target: SurfaceObject
) -> CobordismMorphism:
    """Build one atom between given objects, for generator lines and seeded
    plans alike; the one place an atom's fit to its ends is checked.

    The records are built from the given objects, whose Lagrangians were
    tested when they were built, and a twist comes from the walk, so neither
    is tested again.

    An unset weight is 0; an unset twist_seed gives a cap no pre-twist and a
    twisted cylinder the seed random.Random(0).getrandbits(32).  Only atomic
    kinds are accepted: a composite's intermediate Lagrangians are not
    determined by the declared endpoints, so files chain successive entries.
    """
    if spec.kind not in ATOM_KINDS:
        raise GeneratorSpecError(
            f"{spec.kind} is not allowed in pipeline files; declare the pieces "
            "as separate entries"
        )
    weight = spec.weight if spec.weight is not None else 0
    # a handlebody's declared genus is that of its target, every other's of its source
    role, obj = ("target", target) if spec.kind == "handlebody" else ("source", source)
    if spec.genera is not None and obj.genera != spec.genera:
        raise GeneratorSpecError(
            f"{spec.kind} expects {role} genera {spec.genera}, object has {obj.genera}"
        )

    if spec.kind == "identity":
        if source != target:
            raise GeneratorSpecError("identity needs equal source and target objects")
        if spec.weight not in (None, 0):
            raise GeneratorSpecError("identity has weight zero by definition")
        return identity(source)
    if spec.kind in ("pseudo_cylinder", "twisted_cylinder") and source.genera != target.genera:
        raise GeneratorSpecError(f"{spec.kind} needs equal genera on both ends")
    if spec.kind == "pseudo_cylinder":
        return _cylinder(source, target, weight)
    if spec.kind == "twisted_cylinder":
        total = sum(source.genera)
        seed = random.Random(0).getrandbits(32) if spec.twist_seed is None else spec.twist_seed
        # at genus 0 there is nothing to twist
        twist = random_symplectic(total, seed, spec.twist_length) if total else None
        return _cylinder(source, target, weight, twist)
    # a handlebody or a cap: the end its genus is declared on has one
    # component, and the other end is empty
    other, end = ("source", source) if spec.kind == "handlebody" else ("target", target)
    if not end.is_empty:
        raise GeneratorSpecError(f"{spec.kind} needs the empty surface as {other}")
    if len(obj.genera) != 1:
        raise GeneratorSpecError(f"{spec.kind} needs a single-component {role}")
    genus, pre = obj.genera[0], None
    if spec.kind == "cap" and spec.twist_seed is not None and genus >= 1:
        pre = random_symplectic(genus, spec.twist_seed, spec.twist_length)
    return _one_sided(source, target, weight, _cores(genus, pre))


# -- textual encoding ---------------------------------------------------------

# a value token runs to the next delimiter, so read_int judges every value
_TOKEN_RE = re.compile(r"\s*(\[[^\]]*\]|[(),=]|[^\s(),=\[\]]+)")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise GeneratorSpecError(f"cannot tokenize generator text at {text[pos:]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _parse_int_list(token: str) -> tuple[int, ...]:
    inner = token[1:-1].strip()
    if not inner:
        return ()
    parts = [part.strip() for part in inner.split(",")]
    if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
        raise GeneratorSpecError(f"bad integer list {token!r}")
    return tuple(read_int(part, "genera", GeneratorSpecError) for part in parts)


class _SpecParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.genera: tuple[int, ...] = ()  # all the genera written so far

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise GeneratorSpecError("unexpected end of generator text")
        self.pos += 1
        return tok

    def expect(self, wanted: str) -> None:
        tok = self.take()
        if tok != wanted:
            raise GeneratorSpecError(f"expected {wanted!r}, found {tok!r}")

    def node(self, depth: int = 0) -> GeneratorSpec:
        kind = self.take()
        if kind in COMBO_KINDS:
            if depth == MAX_NESTING:
                raise GeneratorSpecError(
                    f"generator text nests {depth + 1} deep, at most {MAX_NESTING} allowed"
                )
            self.expect("(")
            children = [self.node(depth + 1)]
            while self.peek() == ",":
                self.take()
                children.append(self.node(depth + 1))
            self.expect(")")
            return GeneratorSpec(kind, children=tuple(children))
        if kind not in ATOM_KINDS:
            raise GeneratorSpecError(f"unknown generator kind {kind!r}")
        params: dict[str, object] = {}
        while True:
            tok = self.peek()
            if tok is None or tok in (",", ")"):
                break
            key = self.take()
            if ("genera" if key == "genus" else key) in params:
                raise GeneratorSpecError(f"generator parameter {key!r} sets a value already given")
            self.expect("=")
            value = self.take()
            if key == "genus":
                params["genera"] = (read_int(value, "genus", GeneratorSpecError),)
            elif key == "genera":
                if not value.startswith("["):
                    raise GeneratorSpecError("genera expects a bracketed list like [1,2]")
                params["genera"] = _parse_int_list(value)
            elif key in ("weight", "twist_seed", "twist_length"):
                params[key] = read_int(value, key, GeneratorSpecError)
            else:
                raise GeneratorSpecError(f"unknown generator parameter {key!r}")
        spec = GeneratorSpec(kind, **params)
        self.genera += spec.genera or ()
        check_genera(self.genera, GeneratorSpecError)
        if spec.twist_length > MAX_TWIST_LENGTH:
            raise GeneratorSpecError(
                f"twist_length must be at most {MAX_TWIST_LENGTH}, got {spec.twist_length}"
            )
        return spec


def _atoms(spec: GeneratorSpec):
    if spec.kind in ATOM_KINDS:
        yield spec
    for child in spec.children:
        yield from _atoms(child)


def text_work(spec: GeneratorSpec) -> int:
    """An estimate of the work of building a plan, read from the plan alone.

    A disjoint union's children are built apart and then block-summed, so its
    estimate is the sum of theirs.  For an atom or a composite, G is the sum
    of all the genera written inside it, which bounds the genus of every
    surface it builds.  Each gluing handles matrices of side 2G, whose
    numbers grow with the walks taken before it, so the atom at position k
    costs G^2 (DEFAULT_WALK_LENGTH + the walk steps of atoms 1..k): atoms times
    G^2, scaled by the walk lengths and, as the numbers grow along a chain,
    by its length.
    """
    if spec.kind == "disjoint_union":
        return sum(map(text_work, spec.children))
    atoms = list(_atoms(spec))
    genus = sum(sum(atom.genera or ()) for atom in atoms)
    steps = work = 0
    for atom in atoms:
        steps += atom.twist_length
        work += DEFAULT_WALK_LENGTH + steps
    return genus * genus * work


def check_text_work(spec: GeneratorSpec) -> None:
    """Raise unless the plan's text_work is at most MAX_TEXT_WORK."""
    work = text_work(spec)
    if work > MAX_TEXT_WORK:
        raise GeneratorSpecError(
            f"generator text asks for about {work} units of work, at most "
            f"{MAX_TEXT_WORK} allowed: use fewer atoms, lower genera or shorter walks"
        )


def parse_generator_spec(text: str) -> GeneratorSpec:
    parser = _SpecParser(_tokenize(text))
    spec = parser.node()
    if parser.peek() is not None:
        raise GeneratorSpecError(f"trailing tokens in generator text: {parser.tokens[parser.pos:]}")
    return spec


def format_generator_spec(spec: GeneratorSpec) -> str:
    if spec.kind in COMBO_KINDS:
        inner = ", ".join(format_generator_spec(c) for c in spec.children)
        return f"{spec.kind}({inner})"
    parts = [spec.kind]
    if spec.genera is not None:
        parts.append(f"genera=[{','.join(str(g) for g in spec.genera)}]")
    if spec.weight is not None:
        parts.append(f"weight={spec.weight}")
    if spec.twist_seed is not None:
        parts.append(f"twist_seed={spec.twist_seed}")
    if spec.twist_length != DEFAULT_WALK_LENGTH:
        parts.append(f"twist_length={spec.twist_length}")
    return " ".join(parts)
