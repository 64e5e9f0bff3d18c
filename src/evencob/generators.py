"""Cobordism records that are realizable by construction.

Handlebodies, twisted cylinders, caps and disjoint unions carry boundary
kernels that are Lagrangian by design, so every record built here passes
validate().  GeneratorSpec is a small build plan for composites of these
pieces; random_even_morphism executes a plan with seed-driven Lagrangians
and twists and then fixes the weight parity so the result is even.

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

Example:  composite(handlebody genus=1 weight=1, cap genus=1 weight=1)
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from .cobordism import (
    CobordismMorphism,
    SurfaceObject,
    compose,
    empty_surface,
    evened,
    identity,
    is_even,
    pseudo_cylinder,
    validate,
)
from .errors import DimensionMismatchError, GeneratorSpecError, NotSymplecticError
from .linalg import RationalMatrix, Subspace
from .symplectic import (
    DEFAULT_WALK_LENGTH,
    beta1,
    preserves_standard_form,
    random_lagrangian,
    random_symplectic,
)

ATOM_KINDS = ("identity", "pseudo_cylinder", "twisted_cylinder", "handlebody", "cap")
COMBO_KINDS = ("disjoint_union", "composite")

# a few characters of generator text ask for dense matrices of these sizes
MAX_TEXT_GENUS = 32
MAX_TWIST_LENGTH = 1000


def _check_twist(name: str, twist: RationalMatrix, surface: SurfaceObject) -> None:
    n = surface.beta1
    if twist.rows != n or twist.cols != n:
        raise DimensionMismatchError(f"{name} is {twist.rows}x{twist.cols}, surface needs {n}x{n}")
    if not preserves_standard_form([twist.column(j) for j in range(n)]):
        raise NotSymplecticError(f"{name} does not preserve the surface form")


def _cores(genus: int) -> RationalMatrix:
    # H1 of the genus-g handlebody: e_i maps to the i-th core, f_i bounds
    return RationalMatrix(
        tuple(tuple(1 if c == 2 * i else 0 for c in range(2 * genus)) for i in range(genus)),
        cols=2 * genus,
    )


def twisted_cylinder(
    surface: SurfaceObject,
    twist: RationalMatrix,
    target_lagrangian: Subspace,
    weight: int,
) -> CobordismMorphism:
    """A mapping cylinder: the source includes by the identity, the target by
    the inverse twist, so push_forward acts as the twist itself.

    The twist must preserve the surface form; its graph is then Lagrangian in
    the boundary form and the record validates by construction.
    """
    _check_twist("twist", twist, surface)
    base = pseudo_cylinder(surface, target_lagrangian, weight)
    return replace(base, j_tgt_h1=twist.inverse())


def handlebody(genus: int, target_lagrangian: Subspace, weight: int) -> CobordismMorphism:
    """The genus-g handlebody, empty surface to the genus-g surface.

    H1 of the body is spanned by the g cores; e_i maps to the i-th core and
    f_i bounds, so the boundary kernel is span{f_1..f_g}.
    """
    target = SurfaceObject((genus,), target_lagrangian)
    return CobordismMorphism(
        empty_surface(),
        target,
        weight,
        genus,
        1,
        RationalMatrix.zeros(genus, 0),
        _cores(genus),
        RationalMatrix.zeros(1, 0),
        RationalMatrix.identity(1),
    )


def cap(
    genus: int,
    source_lagrangian: Subspace,
    weight: int,
    pre_twist: RationalMatrix | None = None,
) -> CobordismMorphism:
    """A handlebody glued from the other side: genus-g surface to empty.

    With a pre-twist A the boundary kernel moves to A^{-1} span{f_1..f_g}.
    """
    source = SurfaceObject((genus,), source_lagrangian)
    if pre_twist is None:
        pre_twist = RationalMatrix.identity(2 * genus)
    _check_twist("pre_twist", pre_twist, source)
    return CobordismMorphism(
        source,
        empty_surface(),
        weight,
        genus,
        1,
        _cores(genus) @ pre_twist,
        RationalMatrix.zeros(genus, 0),
        RationalMatrix.identity(1),
        RationalMatrix.zeros(1, 0),
    )


def _union_object(a: SurfaceObject, b: SurfaceObject) -> SurfaceObject:
    basis = RationalMatrix.block_diag(a.lagrangian.basis, b.lagrangian.basis)
    return SurfaceObject(a.genera + b.genera, Subspace(basis))


def disjoint_union(m1: CobordismMorphism, m2: CobordismMorphism) -> CobordismMorphism:
    """Place two cobordisms side by side; weights add, all maps block-sum."""
    bd = RationalMatrix.block_diag
    return CobordismMorphism(
        _union_object(m1.source, m2.source),
        _union_object(m1.target, m2.target),
        m1.weight + m2.weight,
        m1.h1_dim + m2.h1_dim,
        m1.h0_dim + m2.h0_dim,
        bd(m1.j_src_h1, m2.j_src_h1),
        bd(m1.j_tgt_h1, m2.j_tgt_h1),
        bd(m1.j_src_h0, m2.j_src_h0),
        bd(m1.j_tgt_h0, m2.j_tgt_h0),
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """A build plan: which generator, over which surface type, with what data.

    genera None means "take the surface type from context" (the previous
    morphism in a chain, or the declared objects of a pipeline file).
    Weight None means seed-drawn.
    """

    kind: str
    genera: tuple[int, ...] | None = None
    weight: int | None = None
    twist_seed: int | None = None
    twist_length: int = DEFAULT_WALK_LENGTH
    children: tuple["GeneratorSpec", ...] = ()

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
            genera = tuple(int(g) for g in self.genera)
            if any(g < 0 for g in genera):
                raise GeneratorSpecError(f"genera must be non-negative, got {genera}")
            object.__setattr__(self, "genera", genera)
        if self.twist_length < 0:
            raise GeneratorSpecError(f"twist_length must be non-negative, got {self.twist_length}")


def _single_genus(spec: GeneratorSpec, context: SurfaceObject | None) -> int:
    if spec.genera is not None:
        if len(spec.genera) != 1:
            raise GeneratorSpecError(f"{spec.kind} needs a single-component surface")
        return spec.genera[0]
    if context is not None and len(context.genera) == 1:
        return context.genera[0]
    raise GeneratorSpecError(f"{spec.kind} needs an explicit genus")


def _draw_lagrangian(genera: tuple[int, ...], rng: random.Random) -> Subspace:
    total = sum(genera)
    if total == 0:
        return Subspace.zero(beta1(genera))
    return random_lagrangian(total, rng)


def _resolve_source(
    spec: GeneratorSpec, rng: random.Random, source: SurfaceObject | None
) -> SurfaceObject:
    if source is not None:
        if spec.genera is not None and spec.genera != source.genera:
            raise GeneratorSpecError(
                f"{spec.kind} declares genera {spec.genera} but follows a morphism "
                f"ending in {source.genera}"
            )
        return source
    if spec.genera is None:
        raise GeneratorSpecError(f"{spec.kind} without context needs explicit genera")
    return SurfaceObject(spec.genera, _draw_lagrangian(spec.genera, rng))


def _draw_weight(spec: GeneratorSpec, rng: random.Random) -> int:
    return spec.weight if spec.weight is not None else rng.randrange(-4, 5)


def _twist(total_genus: int, spec: GeneratorSpec, rng: random.Random) -> RationalMatrix:
    if total_genus == 0:
        return RationalMatrix.identity(0)
    seed = spec.twist_seed if spec.twist_seed is not None else rng.getrandbits(32)
    return random_symplectic(total_genus, seed, spec.twist_length)


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
    if kind == "identity":
        if spec.weight not in (None, 0):
            raise GeneratorSpecError("identity has weight zero by definition")
        return identity(_resolve_source(spec, rng, source))
    if kind == "pseudo_cylinder":
        obj = _resolve_source(spec, rng, source)
        return pseudo_cylinder(obj, _draw_lagrangian(obj.genera, rng), _draw_weight(spec, rng))
    if kind == "twisted_cylinder":
        obj = _resolve_source(spec, rng, source)
        twist = _twist(sum(obj.genera), spec, rng)
        return twisted_cylinder(
            obj, twist, _draw_lagrangian(obj.genera, rng), _draw_weight(spec, rng)
        )
    if kind == "handlebody":
        if source is not None and not source.is_empty:
            raise GeneratorSpecError("handlebody must follow the empty surface")
        genus = _single_genus(spec, None)
        return handlebody(genus, _draw_lagrangian((genus,), rng), _draw_weight(spec, rng))
    if kind == "cap":
        obj = _resolve_source(spec, rng, source)
        genus = _single_genus(spec, obj)
        if obj.genera != (genus,):
            raise GeneratorSpecError(f"cap of genus {genus} cannot follow genera {obj.genera}")
        return cap(genus, obj.lagrangian, _draw_weight(spec, rng), _twist(genus, spec, rng))
    raise GeneratorSpecError(f"unknown generator kind {kind!r}")


def random_even_morphism(
    shape: GeneratorSpec, seed: int, *, source: SurfaceObject | None = None
) -> CobordismMorphism:
    """Build the plan with seed-driven choices, then make the weight parity even.

    Evenness constrains only the weight parity, so a unit weight bump fixes an
    odd build.  Identical shape and seed reproduce the identical record.
    """
    morphism = evened(_build(shape, random.Random(seed), source))
    assert is_even(morphism).is_even
    assert not validate(morphism)
    return morphism


def build_from_objects(
    spec: GeneratorSpec, source: SurfaceObject, target: SurfaceObject
) -> CobordismMorphism:
    """Deterministic build for pipeline files: interface data comes from the
    declared objects, not from a seed.

    Only atomic kinds are accepted: a composite's intermediate Lagrangians are
    not determined by the declared endpoints, so chains are written as
    successive entries instead.
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

    rng = random.Random(spec.twist_seed if spec.twist_seed is not None else 0)
    if spec.kind == "identity":
        if source != target:
            raise GeneratorSpecError("identity needs equal source and target objects")
        if spec.weight not in (None, 0):
            raise GeneratorSpecError("identity has weight zero by definition")
        return identity(source)
    if spec.kind == "pseudo_cylinder":
        if source.genera != target.genera:
            raise GeneratorSpecError("pseudo_cylinder needs equal genera on both ends")
        return pseudo_cylinder(source, target.lagrangian, weight)
    if spec.kind == "twisted_cylinder":
        if source.genera != target.genera:
            raise GeneratorSpecError("twisted_cylinder needs equal genera on both ends")
        twist = _twist(sum(source.genera), spec, rng)
        return twisted_cylinder(source, twist, target.lagrangian, weight)
    if spec.kind == "handlebody":
        if not source.is_empty:
            raise GeneratorSpecError("handlebody needs the empty surface as source")
        if len(target.genera) != 1:
            raise GeneratorSpecError("handlebody needs a single-component target")
        return handlebody(target.genera[0], target.lagrangian, weight)
    if spec.kind == "cap":
        if not target.is_empty:
            raise GeneratorSpecError("cap needs the empty surface as target")
        if len(source.genera) != 1:
            raise GeneratorSpecError("cap needs a single-component source")
        pre = None
        if spec.twist_seed is not None and source.genera[0] >= 1:
            pre = random_symplectic(source.genera[0], spec.twist_seed, spec.twist_length)
        return cap(source.genera[0], source.lagrangian, weight, pre)
    raise GeneratorSpecError(f"unknown generator kind {spec.kind!r}")


# -- textual encoding ---------------------------------------------------------

_INT = r"-?\d+"
_TOKEN_RE = re.compile(rf"\s*(\[[^\]]*\]|[A-Za-z_][A-Za-z_0-9]*|{_INT}|[(),=])")


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


def _parse_int(key: str, token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise GeneratorSpecError(f"{key} expects an integer, found {token!r}") from exc


def _parse_int_list(token: str) -> tuple[int, ...]:
    inner = token[1:-1].strip()
    if not inner:
        return ()
    parts = [part.strip() for part in inner.split(",")]
    if not all(re.fullmatch(_INT, part) for part in parts):
        raise GeneratorSpecError(f"bad integer list {token!r}")
    return tuple(int(part) for part in parts)


class _SpecParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.genus = 0  # sum of the genera written so far

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

    def node(self) -> GeneratorSpec:
        kind = self.take()
        if kind in COMBO_KINDS:
            self.expect("(")
            children = [self.node()]
            while self.peek() == ",":
                self.take()
                children.append(self.node())
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
                params["genera"] = (_parse_int("genus", value),)
            elif key == "genera":
                if not value.startswith("["):
                    raise GeneratorSpecError("genera expects a bracketed list like [1,2]")
                params["genera"] = _parse_int_list(value)
            elif key in ("weight", "twist_seed", "twist_length"):
                params[key] = _parse_int(key, value)
            else:
                raise GeneratorSpecError(f"unknown generator parameter {key!r}")
        spec = GeneratorSpec(kind, **params)
        self.genus += sum(spec.genera or ())
        if self.genus > MAX_TEXT_GENUS:
            raise GeneratorSpecError(
                f"genera add up to {self.genus}, at most {MAX_TEXT_GENUS} allowed"
            )
        if spec.twist_length > MAX_TWIST_LENGTH:
            raise GeneratorSpecError(
                f"twist_length must be at most {MAX_TWIST_LENGTH}, got {spec.twist_length}"
            )
        return spec


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
