"""Value semantics of evencob's fourteen record classes, in one table.

Each row gives a class, its fields and defaults as the records have always
had them, a valid instance, a second value for each field, and a replacement
that its constructor must refuse.  The tests read every row: construction by
position and by keyword, frozen fields, ``==`` and ``hash`` over the compared
fields only, and `replace` running the validation again.  The caches a record
keeps beside its fields are covered in
tests/test_cobordism.py::TestInvertibleEnds::test_equality_hash_and_replace_ignore_the_cache.

The last test imports evencob in a fresh interpreter and finds neither
``dataclasses`` nor ``inspect`` loaded: every command pays for what that
import loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from evencob.campaigns import THEOREMS, CheckOutcome, Failure, TheoremCheck
from evencob.cobordism import CobordismMorphism, EvennessReport, SurfaceObject, identity
from evencob.errors import (
    DimensionMismatchError,
    GeneratorSpecError,
    InvalidTripleError,
    NonSkewFormError,
    NotLagrangianError,
    NotSymmetricError,
)
from evencob.formats import Pipeline, PipelineEntry, Scenario
from evencob.generators import GeneratorSpec
from evencob.linalg import RationalMatrix, Subspace
from evencob.maslov import LagrangianTriple, MaslovForm
from evencob.symplectic import SymplecticSpace
from evencob.values import replace

PLANE = SymplecticSpace(RationalMatrix([[0, 1], [-1, 0]]))
L1, L2, L3 = (Subspace(RationalMatrix([row])) for row in ([1, 0], [0, 1], [1, 1]))
TORUS = SurfaceObject((1,), L1)
CYLINDER = identity(TORUS)
ENTRY = PipelineEntry("m", "a", "b", CYLINDER, 3)
PARITY = THEOREMS["parity"]
MORPHISM_FIELDS = (
    "source",
    "target",
    "weight",
    "h1_dim",
    "h0_dim",
    "j_src_h1",
    "j_tgt_h1",
    "j_src_h0",
    "j_tgt_h0",
)


# class: (fields, defaults, positional arguments, a second value for each
# field, a replacement the constructor refuses, its error and message)
TABLE = {
    Subspace: (
        ("basis",),
        {},
        (RationalMatrix([[1, 0]]),),
        {"basis": RationalMatrix([[0, 1]])},
        None,
    ),
    SymplecticSpace: (
        ("gram",),
        {},
        (RationalMatrix([[0, 1], [-1, 0]]),),
        {"gram": RationalMatrix([[0, 2], [-2, 0]])},
        ({"gram": RationalMatrix([[0, 1], [1, 0]])}, NonSkewFormError, "gram[0][1] != -gram[1][0]"),
    ),
    LagrangianTriple: (
        ("space", "l1", "l2", "l3"),
        {},
        (PLANE, L1, L2, L3),
        {"space": SymplecticSpace(RationalMatrix([[0, 2], [-2, 0]])), "l1": L3, "l2": L1, "l3": L2},
        ({"l3": Subspace.full(2)}, InvalidTripleError, "l3 is not Lagrangian"),
    ),
    MaslovForm: (
        ("domain_basis", "gram"),
        {},
        (RationalMatrix([[1, 1]]), RationalMatrix([[2]])),
        {"domain_basis": RationalMatrix([[1, 0]]), "gram": RationalMatrix([[-2]])},
        (
            {
                "domain_basis": RationalMatrix([[1, 0], [0, 1]]),
                "gram": RationalMatrix([[0, 1], [0, 0]]),
            },
            NotSymmetricError,
            "Maslov form gram must be symmetric",
        ),
    ),
    SurfaceObject: (
        ("genera", "lagrangian"),
        {},
        ((1,), L1),
        {"genera": (0, 1), "lagrangian": L2},
        (
            {"lagrangian": Subspace.full(2)},
            NotLagrangianError,
            "subspace of dimension 2 is not Lagrangian for genera (1,)",
        ),
    ),
    CobordismMorphism: (
        MORPHISM_FIELDS,
        {},
        tuple(getattr(CYLINDER, name) for name in MORPHISM_FIELDS),
        {
            "source": SurfaceObject((1,), L2),
            "target": SurfaceObject((1,), L3),
            "weight": 2,
            "h1_dim": 3,
            "h0_dim": 2,
            "j_src_h1": RationalMatrix([[0, 1], [1, 0]]),
            "j_tgt_h1": RationalMatrix([[1, 1], [0, 1]]),
            "j_src_h0": RationalMatrix([[2]]),
            "j_tgt_h0": RationalMatrix([[3]]),
        },
        (
            {"j_src_h0": CYLINDER.j_src_h0.vstack(CYLINDER.j_src_h0)},
            DimensionMismatchError,
            "j_src_h0 is 2x1, expected 1x1",
        ),
    ),
    EvennessReport: (
        ("parity_rhs", "weight_parity", "is_even", "term_breakdown"),
        {},
        (0, 0, True, {"epsilon": 0}),
        {"parity_rhs": 1, "weight_parity": 1, "is_even": False, "term_breakdown": {"epsilon": 1}},
        None,
    ),
    Scenario: (
        ("space", "named_subspaces", "queries", "query_lines"),
        {"named_subspaces": {}, "queries": (), "query_lines": ()},
        (PLANE, {"L1": L1}, (("L1", "L1", "L1"),), (5,)),
        {
            "space": SymplecticSpace(RationalMatrix([[0, 2], [-2, 0]])),
            "named_subspaces": {},
            "queries": (),
            "query_lines": (9,),
        },
        None,
    ),
    PipelineEntry: (
        ("name", "source_name", "target_name", "morphism", "line"),
        {"line": None},
        ("m", "a", "b", CYLINDER, 3),
        {
            "name": "n",
            "source_name": "c",
            "target_name": "d",
            "morphism": replace(CYLINDER, weight=2),
            "line": None,
        },
        None,
    ),
    Pipeline: (
        ("objects", "entries"),
        {"objects": {}, "entries": ()},
        ({"a": TORUS, "b": TORUS}, (ENTRY,)),
        {"objects": {"a": TORUS}, "entries": ()},
        None,
    ),
    GeneratorSpec: (
        ("kind", "genera", "weight", "twist_seed", "twist_length", "children"),
        {"genera": None, "weight": None, "twist_seed": None, "twist_length": 20, "children": ()},
        ("twisted_cylinder", (1,), 0, 7, 20, ()),
        {
            "kind": "cap",
            "genera": (2,),
            "weight": 1,
            "twist_seed": 8,
            "twist_length": 3,
            "children": None,
        },
        (
            {"children": (GeneratorSpec("identity", (1,)),) * 2},
            GeneratorSpecError,
            "twisted_cylinder takes no children",
        ),
    ),
    CheckOutcome: (
        ("holds", "details"),
        {},
        (True, {"checked": 1}),
        {"holds": False, "details": None},
        None,
    ),
    Failure: (
        ("trial", "seed", "kind", "suffix", "text", "details"),
        {},
        (0, 5, "scenario", ".ssf", "form 0\n", None),
        {"trial": 1, "seed": 6, "kind": "pipeline", "suffix": ".cbf", "text": "", "details": {}},
        None,
    ),
    TheoremCheck: (
        ("sample", "evaluate", "write", "read"),
        {},
        (PARITY.sample, PARITY.evaluate, PARITY.write, PARITY.read),
        {"sample": len, "evaluate": len, "write": len, "read": None},
        None,
    ),
}

ROWS = [pytest.param(cls, *row, id=cls.__name__) for cls, row in TABLE.items()]
# the fields == and hash leave out
UNCOMPARED = ("query_lines", "line")


def _hashable(record) -> bool:
    # a dict field makes a record unhashable, as it always has
    try:
        hash(record)
    except TypeError:
        return False
    return True


def _with(record, name, value):
    # the record with one field changed, built without validation, so that
    # each field is seen alone
    changed = object.__new__(type(record))
    vars(changed).update(vars(record), **{name: value})
    return changed


def test_the_table_has_every_value_class():
    assert len(TABLE) == 14


@pytest.mark.parametrize("cls, fields, defaults, args, others, refused", ROWS)
def test_construction(cls, fields, defaults, args, others, refused):
    assert cls._fields == fields and set(others) == set(fields)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    for record in (by_position, by_keyword):
        assert all(getattr(record, name) == value for name, value in zip(fields, args))
    assert repr(by_position) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(by_position, name)!r}" for name in fields
    ) + ")"
    required = args[: len(fields) - len(defaults)]
    defaulted = cls(*required)
    assert {name: getattr(defaulted, name) for name in defaults} == defaults
    for name, value in defaults.items():
        if isinstance(value, dict):  # a fresh dict for every record
            assert getattr(defaulted, name) is not getattr(cls(*required), name)


@pytest.mark.parametrize("cls, fields, defaults, args, others, refused", ROWS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, args, others, refused):
    record = cls(*args)
    copy = replace(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, others.get(name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == vars(copy)


@pytest.mark.parametrize("cls, fields, defaults, args, others, refused", ROWS)
def test_equality_and_hash_follow_the_compared_fields(cls, fields, defaults, args, others, refused):
    record = cls(*args)
    copy = replace(record)
    assert copy is not record and copy == record and vars(copy) == vars(record)
    assert record != args and record != object()
    hashable = _hashable(record)
    assert hashable == all(not isinstance(value, dict) for value in args)
    if hashable:  # the hash of the compared fields' tuple, so sets keep their order
        compared = tuple(getattr(record, name) for name in fields if name not in UNCOMPARED)
        assert hash(copy) == hash(record) == hash(compared)
    for name, value in others.items():
        changed = _with(record, name, value)
        if name in UNCOMPARED:
            assert changed == record and (not hashable or hash(changed) == hash(record))
        else:
            assert changed != record


@pytest.mark.parametrize("cls, fields, defaults, args, others, refused", ROWS)
def test_replace_validates_again(cls, fields, defaults, args, others, refused):
    record = cls(*args)
    with pytest.raises(TypeError):
        replace(record, extra=1)
    if cls is Subspace:  # the basis is brought to its RREF again
        assert replace(record, basis=RationalMatrix([[3, 0]])).basis == RationalMatrix([[1, 0]])
    if refused is not None:
        changes, error, message = refused
        with pytest.raises(error) as caught:
            replace(record, **changes)
        assert str(caught.value) == message


def test_importing_evencob_loads_no_dataclasses_or_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, evencob, evencob.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
