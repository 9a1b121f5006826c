"""The value types are tuples: their contracts beyond plain tuple behaviour.

The two types with an invariant (IntPolynomial, CurveParams) normalise or
validate in ``__new__``, also on ``_replace``; every value type is
immutable; and the parallel verify path pickles them.
"""
import pickle

import pytest

from vwbm.exact import IntPolynomial
from vwbm.rowspan import CurveParams, summands
from vwbm.verify import LEVELS, CheckResult, run_suite


def test_invariants_hold_on_construction_and_replace():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p._replace(coeffs=(5, 0)).coeffs == (5,)
    with pytest.raises(ValueError):
        CurveParams(1, 5)
    with pytest.raises(ValueError):
        CurveParams(3, 4)._replace(n=1)


@pytest.mark.parametrize("value,attr", [
    (CurveParams(3, 4), "n"),
    (CurveParams(3, 4), "extra"),
    (IntPolynomial((1, 1)), "coeffs"),
    (summands(CurveParams(2, 7))[0], "tiling"),
    (CheckResult("demo", True, "", {"pairs": 1}), "passed"),
])
def test_values_are_immutable(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, 0)


def test_constant_polynomial_scales_the_coefficients():
    # a scalar is multiplied as a constant polynomial, not as an int
    p = IntPolynomial((1, 1))
    three = IntPolynomial((3,))
    assert three * p == p * three == IntPolynomial((3, 3))
    with pytest.raises(TypeError):
        p * 3
    assert p + p == IntPolynomial((2, 2))
    assert repr(CurveParams(3, 4)) == "CurveParams(n=3, m=4)"


def test_values_survive_pickling():
    # VWBM_THREADS > 1 sends the checks to worker processes
    values = [CurveParams(3, 4), IntPolynomial((1, 0, 2)),
              summands(CurveParams(4, 6))[1], *LEVELS["spectrum"]]
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


def test_parallel_suite_matches_the_serial_one(monkeypatch):
    monkeypatch.setenv("VWBM_THREADS", "1")
    serial = run_suite(6, "all")
    monkeypatch.setenv("VWBM_THREADS", "2")
    assert run_suite(6, "all") == serial
    assert all(r.passed for r in serial)
