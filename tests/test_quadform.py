"""Steering form construction and zero-line extraction."""

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bilin2 import (
    LineSetKind,
    LineUnion,
    Mat2,
    Vec2,
    form_scale,
    gram_form,
    zero_lines,
)
from bilin2.mat2 import canonical_direction, cross
from bilin2.quadform import QuadraticForm, pair_lines
from helpers import (angles_match, assert_lines_match, direction_angle, form_value, lincomb, mat,
                     sweep_classify, xy)

import numpy as np

entry = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_quadratic_form_basics():
    q = QuadraticForm(1, -2, 3.0)
    assert (q.a, q.b, q.c) == (1.0, -2.0, 3.0) and type(q.a) is float
    assert form_value(q, 2.0, 1.0) == 4.0 - 4.0 + 3.0
    with pytest.raises(ValueError):
        QuadraticForm(float("nan"), 0.0, 0.0)


def test_gram_form_golden_pair():
    b1 = mat([[1.0, -1.0], [0.0, 2.0]])
    b2 = mat([[0.0, 0.0], [1.0, 0.0]])
    q = gram_form(b1, b2)
    assert (q.a, q.b, q.c) == (1.0, -1.0, 0.0)
    # the form vanishes at (1,1) and not at (-1,1): one-step solvability flips
    assert form_value(q, 1.0, 1.0) == 0.0
    assert form_value(q, -1.0, 1.0) == 2.0
    assert form_scale(b1, b2) == b1.frob() * b2.frob()


@given(*([entry] * 8), entry, entry)
def test_gram_form_evaluates_the_step_determinant(a1, a2, a3, a4, b1_, b2_, b3_, b4_, zx, zy):
    b1 = Mat2(a1, a2, a3, a4)
    b2 = Mat2(b1_, b2_, b3_, b4_)
    z = Vec2(zx, zy)
    direct = cross(b1 @ z, b2 @ z)
    value = form_value(gram_form(b1, b2), z.x, z.y)
    bound = 1e-9 * (1.0 + form_scale(b1, b2) * (z.x * z.x + z.y * z.y))
    assert abs(value - direct) <= bound


@given(*([entry] * 8))
def test_gram_form_matches_three_point_probe(a1, a2, a3, a4, b1_, b2_, b3_, b4_):
    b1 = Mat2(a1, a2, a3, a4)
    b2 = Mat2(b1_, b2_, b3_, b4_)
    q = gram_form(b1, b2)
    pa = cross(b1 @ Vec2(1.0, 0.0), b2 @ Vec2(1.0, 0.0))
    pc = cross(b1 @ Vec2(0.0, 1.0), b2 @ Vec2(0.0, 1.0))
    pb = cross(b1 @ Vec2(1.0, 1.0), b2 @ Vec2(1.0, 1.0)) - pa - pc
    tol = 1e-9 * (1.0 + form_scale(b1, b2))
    assert abs(q.a - pa) <= tol
    assert abs(q.c - pc) <= tol
    assert abs(q.b - pb) <= tol


@given(*([entry] * 8), st.floats(min_value=-5.0, max_value=5.0))
def test_gram_form_is_invariant_under_input_substitution(a1, a2, a3, a4,
                                                         b1_, b2_, b3_, b4_, k):
    b1 = Mat2(a1, a2, a3, a4)
    b2 = Mat2(b1_, b2_, b3_, b4_)
    q = gram_form(b1, b2)
    q_sub = gram_form(b1, lincomb(1.0, b2, k, b1))
    tol = 1e-9 * (1.0 + (1.0 + abs(k)) * form_scale(b1, b2))
    assert abs(q.a - q_sub.a) <= tol
    assert abs(q.b - q_sub.b) <= tol
    assert abs(q.c - q_sub.c) <= tol


def test_zero_lines_two_lines_golden():
    lu = zero_lines(QuadraticForm(1.0, -1.0, 0.0), scale=1.0)
    assert lu.kind is LineSetKind.TWO_LINES
    assert_lines_match(lu.lines, [(1.0, 1.0), (0.0, 1.0)], tol_angle=1e-12)
    # sorted by angle: the diagonal precedes the vertical axis
    assert lu.lines[0].x == pytest.approx(math.sqrt(0.5))


def test_zero_lines_vertical_and_slanted():
    lu = zero_lines(QuadraticForm(0.0, 2.0, 3.0), scale=1.0)
    assert lu.kind is LineSetKind.TWO_LINES
    assert_lines_match(lu.lines, [(1.0, 0.0), (3.0, -2.0)], tol_angle=1e-12)


def test_zero_lines_repeated_root():
    lu = zero_lines(QuadraticForm(1.0, -2.0, 1.0), scale=1.0)
    assert lu.kind is LineSetKind.ONE_LINE
    assert_lines_match(lu.lines, [(1.0, 1.0)], tol_angle=1e-12)


def test_zero_lines_point_only():
    lu = zero_lines(QuadraticForm(1.0, 0.0, 1.0), scale=1.0)
    assert lu.kind is LineSetKind.POINT_ONLY
    assert lu.lines == ()


def test_zero_lines_all_of_plane():
    assert zero_lines(QuadraticForm(0.0, 0.0, 0.0)).kind is LineSetKind.ALL_OF_PLANE
    lu = zero_lines(QuadraticForm(1e-12, -3e-12, 2e-12), scale=1.0)
    assert lu.kind is LineSetKind.ALL_OF_PLANE
    # the test is coefficients over scale; with scale 0, only exact zeros
    lu = zero_lines(QuadraticForm(1e-12, -3e-12, 2e-12), scale=1e-12)
    assert lu.kind is LineSetKind.TWO_LINES
    assert zero_lines(QuadraticForm(1e-300, 0.0, 0.0)).kind is LineSetKind.ONE_LINE


def test_zero_lines_pure_cross_term_is_the_axes():
    lu = zero_lines(QuadraticForm(0.0, 3.0, 0.0), scale=1.0)
    assert lu.kind is LineSetKind.TWO_LINES
    assert xy(lu.lines[0].vector) == (1.0, 0.0)
    assert xy(lu.lines[1].vector) == (0.0, 1.0)
    # a tiny cross term must not fall into the repeated-root branch
    tiny = zero_lines(QuadraticForm(0.0, 1e-6, 0.0), scale=1.0)
    assert tiny.kind is LineSetKind.TWO_LINES
    # the slope root overflows when the dominant end coefficient is this small
    for q in (QuadraticForm(0.0, 4.0, sys.float_info.min),
              QuadraticForm(sys.float_info.min, 4.0, 0.0)):
        lines = zero_lines(q, scale=4.0).lines
        assert [xy(d.vector) for d in lines] == [(1.0, 0.0), (0.0, 1.0)]


def test_zero_lines_with_a_subnormal_end_coefficient_keep_both_lines():
    # det[B1 z, B2 z] = -2.2e-317 z1^2 - 1e-6 z1 z2 vanishes on z1 = 0 and on
    # a line 2.2e-311 rad off the x-axis: the discriminant over a^2 + b^2 + c^2
    # is 1, so neither line is lost.  The slope of the second overflows, and
    # it comes out as the x-axis.
    lu = pair_lines(Mat2(0.0, 0.0, 2.2250738583e-314, 1e-3), Mat2(1e-3, 0.0, 0.0, 0.0))
    assert lu.kind is LineSetKind.TWO_LINES
    assert [xy(d.vector) for d in lu.lines] == [(1.0, 0.0), (0.0, 1.0)]
    lu = zero_lines(QuadraticForm(0.0, -1e-6, -2.225074e-317), scale=1e-6)
    assert lu.kind is LineSetKind.TWO_LINES
    assert [xy(d.vector) for d in lu.lines] == [(1.0, 0.0), (0.0, 1.0)]
    # A repeated root keeps its one line at every scale of the coefficients.
    for f in (4.5e-301, 1.0, 1e300):
        lu = zero_lines(QuadraticForm(0.0, 0.0, f))
        assert lu.kind is LineSetKind.ONE_LINE and xy(lu.lines[0].vector) == (1.0, 0.0)
        lu = zero_lines(QuadraticForm(f, -2.0 * f, f), scale=2.0 * f)
        assert lu.kind is LineSetKind.ONE_LINE
        assert_lines_match(lu.lines, [(1.0, 1.0)], tol_angle=1e-12)


def test_zero_lines_near_axis_roots_are_tracked():
    eps = 1e-8
    lu = zero_lines(QuadraticForm(eps, 1.0, eps), scale=1.0)
    assert lu.kind is LineSetKind.TWO_LINES
    for d in lu.lines:
        assert abs(form_value(QuadraticForm(eps, 1.0, eps), d.x, d.y)) <= 1e-12


def test_line_union_validates_cardinality():
    d = canonical_direction(Vec2(1.0, 0.0))
    with pytest.raises(ValueError):
        LineUnion(LineSetKind.ONE_LINE, ())
    with pytest.raises(ValueError):
        LineUnion(LineSetKind.POINT_ONLY, (d,))
    with pytest.raises(ValueError):
        LineUnion(LineSetKind.TWO_LINES, (d,))


@given(entry, entry, entry)
@example(0.0, 0.0, 4.498497012234945e-301)   # a^2 + b^2 + c^2 underflows to 0
def test_zero_lines_roots_evaluate_to_zero(a, b, c):
    q = QuadraticForm(a, b, c)
    coeff_sq = a * a + b * b + c * c
    lu = zero_lines(q, scale=math.sqrt(coeff_sq))
    if lu.kind is not LineSetKind.TWO_LINES:
        return
    for d in lu.lines:
        assert abs(form_value(q, d.x, d.y)) <= 1e-8 * (1.0 + coeff_sq)


def test_zero_lines_agrees_with_dense_sweep():
    rng = np.random.default_rng(7)
    for _ in range(60):
        q = QuadraticForm(*rng.uniform(-2.0, 2.0, 3))
        lu = zero_lines(q, scale=math.sqrt(q.a * q.a + q.b * q.b + q.c * q.c))
        kind, swept = sweep_classify(q)
        assert lu.kind.value == kind
        assert angles_match([direction_angle(d) for d in lu.lines], swept, tol=1e-6)
