from hypothesis import given, strategies as st

from fraylab.grading import (
    MultiDegree,
    parity,
    shift_sign,
)

small = st.integers(min_value=-6, max_value=6)
degrees = st.builds(MultiDegree, small, small, small)


def test_addition_examples():
    assert MultiDegree(0, 0, 0) + MultiDegree(1, -2, 2) == MultiDegree(1, -2, 2)
    assert MultiDegree(0, 2, 0) + MultiDegree(0, -2, 1) == MultiDegree(0, 0, 1)
    # deg(u_i) + deg(e_i): curvature terms land in t^2
    for i in range(1, 5):
        assert MultiDegree(0, -2 * i, 2) + MultiDegree(0, 2 * i, 0) == MultiDegree(0, 0, 2)


@given(degrees, degrees, degrees)
def test_parity_is_bilinear(d1, d2, d3):
    assert parity(d1 + d2, d3) == parity(d1, d3) ^ parity(d2, d3)


@given(degrees, degrees)
def test_parity_symmetric(d1, d2):
    assert parity(d1, d2) == parity(d2, d1)


def test_shift_signs():
    assert shift_sign(MultiDegree(0, 1, 0)) == 1   # q-shifts leave differentials alone
    assert shift_sign(MultiDegree(0, 0, 1)) == -1  # t-shift negates
    assert shift_sign(MultiDegree(1, 0, 0)) == -1  # a-shift negates
    assert shift_sign(MultiDegree(0, 3, 1)) == -1


@given(degrees)
def test_double_shift_is_even(delta):
    assert shift_sign(delta) * shift_sign(delta) == 1


def test_json_triple():
    assert MultiDegree(1, -2, 3).to_json() == [1, -2, 3]
