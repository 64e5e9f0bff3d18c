"""The library's checks on its callers' arguments: each call raises its class
with its full message."""

import pytest

from evencob.cobordism import CobordismMorphism, SurfaceObject, empty_surface
from evencob.errors import DimensionMismatchError, NonSkewFormError
from evencob.linalg import RationalMatrix, Subspace, map_subspace
from evencob.maslov import MaslovForm
from evencob.symplectic import SymplecticSpace, symplectic_generators

I2 = RationalMatrix.identity(2)
I3 = RationalMatrix.identity(3)
EMPTY = empty_surface()
NO_BLOCK = RationalMatrix.zeros(0, 0)

ARGUMENT_ERRORS = {
    "matrix-no-rows": (
        lambda: RationalMatrix([]),
        ValueError,
        "a matrix with no rows needs an explicit column count",
    ),
    "columns-unequal": (
        lambda: RationalMatrix.from_columns([(1, 2), (1,)]),
        ValueError,
        "columns have unequal lengths",
    ),
    "matrix-no-columns": (
        lambda: RationalMatrix.from_columns([]),
        ValueError,
        "a matrix with no columns needs an explicit row count",
    ),
    "add-shapes": (lambda: I2 + I3, DimensionMismatchError, "matrix addition needs equal shapes"),
    "apply-length": (
        lambda: I2.apply((1, 2, 3)),
        DimensionMismatchError,
        "vector of length 3 for a 2x2 matrix",
    ),
    "hstack-rows": (lambda: I2.hstack(I3), DimensionMismatchError, "hstack needs equal row counts"),
    "vstack-cols": (
        lambda: I2.vstack(I3),
        DimensionMismatchError,
        "vstack needs equal column counts",
    ),
    "contains-length": (
        lambda: Subspace(I2).contains((1,)),
        DimensionMismatchError,
        "vector of length 1 in ambient dimension 2",
    ),
    "map-subspace-dimension": (
        lambda: map_subspace(I3, Subspace(I2)),
        DimensionMismatchError,
        "subspace lives in dimension 2, map expects 3",
    ),
    "object-lagrangian-dimension": (
        lambda: SurfaceObject((1,), Subspace.zero(4)),
        DimensionMismatchError,
        "lagrangian lives in dimension 4, surface homology has dimension 2",
    ),
    "morphism-block-shape": (
        lambda: CobordismMorphism(EMPTY, EMPTY, 0, 1, 0, *(NO_BLOCK,) * 4),
        DimensionMismatchError,
        "j_src_h1 is 0x0, expected 1x0",
    ),
    "maslov-form-shape": (
        lambda: MaslovForm(RationalMatrix.zeros(1, 2), RationalMatrix.zeros(2, 2)),
        DimensionMismatchError,
        "gram is 2x2 for a domain of dimension 1",
    ),
    "form-not-square": (
        lambda: SymplecticSpace(RationalMatrix.zeros(1, 2)),
        NonSkewFormError,
        "gram matrix is 1x2, not square",
    ),
    "generators-genus-0": (
        lambda: symplectic_generators(0),
        ValueError,
        "need at least one handle",
    ),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_bad_arguments_are_refused(case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_a_matrix_equals_no_other_type():
    # __eq__ defers to the other operand, and == falls back to identity
    assert I2.__eq__(I2.row(0)) is NotImplemented
    assert I2 != I2.row(0) and I2 != 1
