import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaport import Characteristic, combine, format_characteristic, parse_characteristic

CUBE_LAW = Characteristic(((1.0, 1.0), (1.0, 3.0)))


def terms_strategy():
    coef = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)
    expo = st.floats(0.1, 6.0, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coef, expo), min_size=1, max_size=4)


class TestEval:
    def test_two_term_at_unit_voltage(self):
        assert CUBE_LAW(1.0) == 2.0

    def test_branch_current_at_divider_complement(self):
        # current through the upper divider conductor when the inner node
        # sits at 0.4350635 of a unit drive
        v = 1.0 - 0.4350635
        assert CUBE_LAW(v) == v + v**3
        assert CUBE_LAW(v) == pytest.approx(0.7452378, abs=1e-6)

    def test_square_law_quadruples_on_doubling(self):
        f = Characteristic(((2.5, 2.0),))
        assert f(2.0) == pytest.approx(4.0 * f(1.0), rel=1e-15)

    def test_zero_voltage_gives_zero_current(self):
        assert CUBE_LAW(0.0) == 0.0

    def test_negative_voltage_rejected(self):
        with pytest.raises(ValueError):
            CUBE_LAW(-0.1)


class TestSlope:
    def test_two_term_slope_at_one(self):
        assert CUBE_LAW.slope(1.0) == pytest.approx(4.0, rel=1e-15)

    def test_superlinear_slope_vanishes_at_zero(self):
        assert Characteristic(((1.0, 2.0),)).slope(0.0) == 0.0

    def test_sublinear_slope_singular_at_zero(self):
        with pytest.raises(ValueError):
            Characteristic(((1.0, 0.5),)).slope(0.0)

    @pytest.mark.parametrize("v", [0.3, 1.0, 2.7])
    def test_matches_central_difference(self, v):
        f = Characteristic(((0.7, 0.5), (1.3, 2.0), (0.2, 3.5)))
        h = 1e-6
        fd = (f(v + h) - f(v - h)) / (2.0 * h)
        assert f.slope(v) == pytest.approx(fd, rel=1e-8)


class TestInvert:
    def test_cube_root(self):
        assert Characteristic(((1.0, 3.0),)).invert(8.0) == pytest.approx(2.0, rel=1e-15)

    def test_inverse_of_two_term_eval(self):
        assert CUBE_LAW.invert(2.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_with_coefficient(self):
        assert Characteristic(((2.0, 1.0),)).invert(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_zero_current(self):
        assert CUBE_LAW.invert(0.0) == 0.0

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            CUBE_LAW.invert(-1.0)

    @given(terms_strategy(), st.floats(1e-3, 10.0))
    def test_roundtrip_identity(self, terms, v):
        f = Characteristic(tuple(terms))
        assert f.invert(f(v)) == pytest.approx(v, rel=1e-12)


class TestCombine:
    def test_equal_exponents_double_the_coefficient(self):
        f = Characteristic(((1.0, 2.0),))
        assert combine([f, f]).terms == ((2.0, 2.0),)

    def test_disjoint_exponents_concatenate(self):
        fa = Characteristic(((1.5, 1.0),))
        fb = Characteristic(((0.5, 3.0),))
        assert combine([fa, fb]).terms == ((1.5, 1.0), (0.5, 3.0))

    def test_single_is_identity(self):
        assert combine([CUBE_LAW]) == CUBE_LAW

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    @given(terms_strategy(), terms_strategy(), terms_strategy())
    def test_associative_and_commutative(self, ta, tb, tc):
        fa, fb, fc = (Characteristic(tuple(t)) for t in (ta, tb, tc))
        left = combine([combine([fa, fb]), fc])
        right = combine([fa, combine([fb, fc])])
        swapped = combine([fc, fb, fa])
        for one, two in ((left, right), (left, swapped)):
            assert one.exponents == pytest.approx(two.exponents, rel=1e-12)
            assert one.coefficients == pytest.approx(two.coefficients, rel=1e-12)


class TestNormalization:
    def test_terms_sorted_by_exponent(self):
        f = Characteristic(((1.0, 3.0), (2.0, 1.0)))
        assert f.exponents == (1.0, 3.0)

    def test_near_duplicate_exponents_merge(self):
        f = Characteristic(((1.0, 1.0), (1.0, 1.0 + 1e-13)))
        assert len(f.terms) == 1
        assert f.coefficients[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [((0.0, 1.0),), ((1.0, 0.0),), ((-1.0, 2.0),),
                                     ((1.0, -2.0),), ((math.inf, 1.0),), ()])
    def test_invalid_terms_rejected(self, bad):
        with pytest.raises(ValueError):
            Characteristic(bad)

    @given(terms_strategy())
    def test_strictly_monotone(self, terms):
        f = Characteristic(tuple(terms))
        grid = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
        values = [f(v) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTextForm:
    def test_parse_two_terms(self):
        assert parse_characteristic("1:1,1:3") == CUBE_LAW

    def test_parse_handles_spacing_and_floats(self):
        f = parse_characteristic(" 2.5:0.5 , 1e-1:2 ")
        assert f.terms == ((2.5, 0.5), (0.1, 2.0))

    def test_format_roundtrip(self):
        f = Characteristic(((0.25, 0.5), (3.0, 2.0)))
        assert parse_characteristic(format_characteristic(f)) == f

    @pytest.mark.parametrize("bad", ["", "1", "1:2:3", "a:b", "1:1,,2:2", "1:"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_characteristic(bad)


def test_signed_helpers_are_odd_extension():
    f = CUBE_LAW
    assert f.eval_signed(-0.7) == -f(0.7)


def test_antiderivative_matches_power_rule():
    f = Characteristic(((1.0, 3.0),))
    assert f.antiderivative(2.0) == pytest.approx(4.0, rel=1e-15)
    assert f.antiderivative(-2.0) == pytest.approx(4.0, rel=1e-15)


def test_scaled_multiplies_coefficients():
    f = CUBE_LAW.scaled(2.0)
    assert f.coefficients == (2.0, 2.0)
    assert f.exponents == CUBE_LAW.exponents


@given(terms_strategy(), st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=5))
def test_array_methods_match_scalar_forms(terms, vs):
    f = Characteristic(tuple(terms))
    y = np.array(vs)
    for array, scalar in ((f.values(y), f.eval_signed), (f.slopes(y, 0.0), f.slope),
                          (f.integral(y), f.antiderivative)):
        assert array.tolist() == pytest.approx([scalar(v) for v in vs], rel=1e-15, abs=0.0)


def test_identity_depends_on_terms_only():
    f = Characteristic(((1.0, 3.0), (1.0, 1.0)))
    g = parse_characteristic("1:1,1:3")
    assert f == g and hash(f) == hash(g) and f is not g
    assert f != CUBE_LAW.scaled(2.0)
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)
    assert copy.values(np.array([-0.5, 2.0])).tolist() == f.values(np.array([-0.5, 2.0])).tolist()
