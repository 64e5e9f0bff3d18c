"""The suite's call recorder, `oracles.calls_to`, which every count test reads."""

from fractions import Fraction

import pytest

from oracles import calls_to


class Halver:
    def half(self, x):
        if x is None:
            raise ValueError("nothing to halve")
        return Fraction(x, 2)


def test_calls_to_records_in_order_passes_results_and_errors_and_restores():
    original, halver = Halver.half, Halver()
    with pytest.MonkeyPatch.context() as patch:
        calls = calls_to(patch, Halver, "half")
        assert Halver.half is not original
        assert halver.half(3) == Fraction(3, 2)
        with pytest.raises(ValueError, match="nothing to halve"):
            halver.half(None)
        assert halver.half(1) == Fraction(1, 2)
        assert calls == [(halver, 3), (halver, None), (halver, 1)]
    assert Halver.half is original
    assert halver.half(5) == Fraction(5, 2) and len(calls) == 3
