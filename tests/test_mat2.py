"""Arithmetic kernels: tolerance policy, vectors, matrices, eigen machinery."""

import math
import pickle
from fractions import Fraction
from sys import float_info

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bilin2 import (
    DEFAULT_TOL,
    ControlPlan,
    Mat2,
    SingularMatrix,
    TolerancePolicy,
    Vec2,
    ZeroVector,
    linearly_independent,
    real_eigen_directions,
    solve2,
)
from bilin2 import mat2
from bilin2.mat2 import _vec2s, canonical_direction, cross, is_eigenvector
from bilin2.quadform import QuadraticForm
from helpers import line_angle, line_gap, mat, xy

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_tolerance_zero_test_reads_abs_eps_alone():
    # Every caller passes a dimensionless ratio, tested against abs_eps; the
    # policy takes no other threshold.
    tol = TolerancePolicy(1e-9)
    assert tol.is_zero(1e-9) and tol.is_zero(-5e-10) and tol.is_zero(0.0)
    assert not tol.is_zero(1.0000001e-9) and not tol.is_zero(-1e-8)
    assert not hasattr(TolerancePolicy(), "threshold")
    assert TolerancePolicy._fields == ("abs_eps",)
    with pytest.raises(TypeError):
        TolerancePolicy(1e-9, 1e-9)
    with pytest.raises(TypeError):
        TolerancePolicy(rel_eps=1e-9)


def test_tolerance_rejects_degenerate_eps():
    with pytest.raises(ValueError):
        TolerancePolicy(0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(-1e-9)
    with pytest.raises(ValueError):
        TolerancePolicy(float("inf"))


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, float("inf"))


@pytest.mark.parametrize("build", [
    lambda: Vec2(10**400, 0.0), lambda: Mat2(10**400, 0.0, 0.0, 1.0),
    lambda: ControlPlan([[10**400]]), lambda: TolerancePolicy(10**400),
    lambda: QuadraticForm(10**400, 0.0, 0.0),
], ids=["Vec2", "Mat2", "ControlPlan", "TolerancePolicy", "QuadraticForm"])
def test_constructors_refuse_an_int_beyond_the_float_range(build):
    with pytest.raises(ValueError, match="beyond the float range"):
        build()


def test_bulk_vectors_equal_constructed_ones():
    xs, ys = [1.0, -0.0, 2.5e300], [3.0, 5e-324, -7.0]
    assert _vec2s(xs, ys) == tuple(map(Vec2, xs, ys))
    assert _vec2s([], []) == ()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_bulk_vectors_reject_non_finite_like_the_constructor(bad, at):
    for coord in (0, 1):
        xs, ys = [0.5, 1.0, 1.5, 2.0, 2.5], [-1.0, -2.0, -3.0, -4.0, -5.0]
        (xs, ys)[coord][at] = bad
        with pytest.raises(ValueError) as constructed:
            Vec2(xs[at], ys[at])
        with pytest.raises(ValueError) as bulk:
            _vec2s(xs, ys)
        assert str(bulk.value) == str(constructed.value)


def test_bulk_vectors_report_the_first_bad_pair():
    # A bad y before a bad x: the error names the earlier pair.
    xs, ys = [0.0, 1.0, math.inf], [0.0, math.nan, 2.0]
    with pytest.raises(ValueError, match=r"^non-finite vector \(1\.0, nan\)$"):
        _vec2s(xs, ys)


def test_cross():
    u = Vec2(2.0, 1.0)
    assert cross(Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == 1.0
    assert cross(u, u) == 0.0
    assert cross(u, Vec2(-u.y, u.x)) == u.x * u.x + u.y * u.y


def test_mat2_scalar_quantities():
    m = mat([[1.0, 2.0], [3.0, 4.0]])
    assert m.det() == -2.0
    assert m.trace() == 5.0
    assert m.frob() == math.sqrt(30.0)
    assert m.rows() == ((1.0, 2.0), (3.0, 4.0))
    assert Vec2(3.0, 4.0).norm() == 5.0


def test_frob_holds_until_the_norm_itself_overflows():
    # Squaring an entry above 1.34e154 would overflow; the norm does not.
    assert Mat2(1e200, 0.0, 0.0, 1.0).frob() == 1e200
    assert Mat2(-3e-200, 4e-200, 0.0, 0.0).frob() == 5e-200
    with pytest.raises(ValueError, match="non-finite matrix norm"):
        Mat2(1.7e308, 1.7e308, 0.0, 0.0).frob()


def test_real_eigen_directions_hold_across_the_float_range():
    # The directions are found on the member over a power of two, so tr^2 -
    # 4 det neither overflows ((1e200 - 1)^2) nor underflows (2^-1200): the
    # directions are the unit-scale ones, bit for bit.
    axes = real_eigen_directions(Mat2(1.0, 0.0, 0.0, 2.0))
    assert [xy(d) for d in axes] == [(0.0, 1.0), (1.0, 0.0)]
    assert real_eigen_directions(Mat2(1e200, 0.0, 0.0, 1.0)) == axes[::-1]
    shear = real_eigen_directions(Mat2(1.0, 1.0, 0.0, 3.0))
    for s in (2.0 ** -1000, 2.0 ** -600, 2.0 ** -520, 2.0 ** 520, 2.0 ** 600, 2.0 ** 1000):
        assert real_eigen_directions(Mat2(s, 0.0, 0.0, 2.0 * s)) == axes
        assert real_eigen_directions(Mat2(s, s, 0.0, 3.0 * s)) == shear


def test_mat2_rejects_non_finite():
    with pytest.raises(ValueError):
        Mat2(1.0, float("nan"), 0.0, 1.0)


def test_value_types_are_immutable_and_compare_by_value():
    v, m = Vec2(1, -2), Mat2(1, 2, 3, 4)
    for value, name in ((v, "x"), (m, "a21")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert v == Vec2(1.0, -2.0) and hash(v) == hash(Vec2(1.0, -2.0))
    assert m == Mat2(1.0, 2.0, 3.0, 4.0) and hash(m) == hash(Mat2(1.0, 2.0, 3.0, 4.0))
    assert v != Vec2(1.0, 2.0) and m != Mat2(1.0, 2.0, 3.0, 5.0)
    assert v != (1.0, -2.0) and m != m.rows()
    assert repr(v) == "Vec2(x=1.0, y=-2.0)"
    assert repr(m) == "Mat2(a11=1.0, a12=2.0, a21=3.0, a22=4.0)"
    assert not hasattr(v, "__dict__") and not hasattr(m, "__dict__")
    # Unpickling goes through the constructor, so a corrupted entry is refused.
    for value, good, bad in ((Vec2(1, 2), b"F2.0", b"Finf"), (m, b"F4.0", b"Fnan")):
        data = pickle.dumps(value, protocol=0)
        assert pickle.loads(data) == value and good in data
        with pytest.raises(ValueError, match="non-finite"):
            pickle.loads(data.replace(good, bad))


def test_matmul_matrix_and_vector():
    m = mat([[1.0, 2.0], [3.0, 4.0]])
    n = mat([[5.0, 6.0], [7.0, 8.0]])
    assert (m @ n).rows() == ((19.0, 22.0), (43.0, 50.0))
    assert xy(m @ Vec2(5.0, 6.0)) == (17.0, 39.0)


def test_solve2_known_solution():
    u = solve2(mat([[-2.0, 0.0], [2.0, -1.0]]), Vec2(-10.0, -6.0))
    assert xy(u) == (5.0, 16.0)


def test_solve2_singular_decision_survives_uniform_scaling():
    y = Vec2(1.0, 1.0)
    for k in (1.0, 1e3):
        with pytest.raises(SingularMatrix):
            solve2(mat([[k, k], [k, k * (1.0 + 2e-10)]]), y)
        solve2(mat([[2.0 * k, k], [k, k]]), y)


def test_solve2_zero_determinant_is_singular_when_the_row_scale_is_nan():
    # An infinite row norm times a zero one makes the zero test's scale nan;
    # a zero determinant must still be singular, not divide by zero.
    with pytest.raises(SingularMatrix):
        solve2(mat([[1.7e308, 1.7e308], [0.0, 0.0]]), Vec2(1.0, 1.0))


@given(finite, finite, finite, finite, finite, finite)
@example(1e-9, 0.0, 1.0, 2.0, 1.0, 1.0)
@example(2.225073858507203e-309, 0.0, 0.0, 1.0, 1.0, 0.0)   # x1 = 1 / a overflows
@example(5e-324, 0.0, 0.0, 1.5, 0.0, 1.0)   # det a d is subnormal: columns are scaled
def test_solve2_residual_is_small(a, b, c, d, y1, y2):
    m = Mat2(a, b, c, d)
    y = Vec2(y1, y2)
    try:
        u = solve2(m, y)
    except SingularMatrix:
        # det over the column norms is zero under the tolerance
        assert abs(m.det()) <= 1e-8 * math.hypot(a, c) * math.hypot(b, d)
        return
    except ValueError:
        # only where the exact solution is beyond the float range
        fa, fb, fc, fd, f1, f2 = map(Fraction, (a, b, c, d, y1, y2))
        det = fa * fd - fb * fc
        assert max(abs(f1 * fd - fb * f2), abs(fa * f2 - f1 * fc)) > (
            Fraction(float_info.max) / 2 * abs(det))
        return
    mu = m @ u
    assert math.hypot(mu.x - y.x, mu.y - y.y) <= 1e-9 * (1.0 + y.norm() + u.norm() * m.frob())


def test_canonical_direction_sign_rules():
    assert xy(canonical_direction(Vec2(-3.0, 4.0)).vector) == (0.6, -0.8)
    assert xy(canonical_direction(Vec2(0.0, -2.0)).vector) == (0.0, 1.0)
    assert xy(canonical_direction(Vec2(0.0, 2.0)).vector) == (0.0, 1.0)
    assert xy(canonical_direction(Vec2(5.0, 0.0)).vector) == (1.0, 0.0)
    assert xy(canonical_direction(Vec2(-5.0, 0.0)).vector) == (1.0, 0.0)


def test_canonical_direction_rejects_zero():
    # Only the zero vector has no direction: a direction does not depend on
    # the size of the vector, however small.
    with pytest.raises(ZeroVector):
        canonical_direction(Vec2(0.0, 0.0))
    with pytest.raises(ZeroVector):
        canonical_direction(Vec2(-0.0, 0.0))
    for v in (Vec2(1e-12, 0.0), Vec2(-5e-324, 0.0), Vec2(0.0, -7.5e-10)):
        d = canonical_direction(v)
        assert xy(d.vector) in ((1.0, 0.0), (0.0, 1.0))


def test_direction_refuses_the_zero_unit_of_an_overflowing_norm():
    # |(1.5e308, 1.5e308)| overflows.  _unit refuses it rather than divide by
    # inf and return (0.0, 0.0), so _direction, which builds its Direction
    # without the unit-norm check, never returns that as a line.
    for x, y in ((1.5e308, 1.5e308), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="non-finite vector norm"):
            mat2._unit(x, y, DEFAULT_TOL)
        with pytest.raises(ValueError, match="non-finite vector norm"):
            mat2._direction(x, y, DEFAULT_TOL)
    with pytest.raises(ValueError, match="non-finite vector norm"):
        canonical_direction(Vec2(1.5e308, 1.5e308))
    # The public constructor keeps its check.
    with pytest.raises(ValueError, match="must be unit length, got norm 0.0"):
        mat2.Direction(Vec2(0.0, 0.0))


@given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=-100.0, max_value=100.0))
def test_canonical_direction_is_scale_invariant(x, y, k):
    v = Vec2(x, y)
    if v.norm() < 1e-3 or abs(k) < 1e-3:
        return
    d1 = canonical_direction(v)
    d2 = canonical_direction(Vec2(x * k, y * k))
    assert line_gap(d1, d2) <= 1e-12


def test_line_angle_and_gap():
    e1 = canonical_direction(Vec2(1.0, 0.0))
    e2 = canonical_direction(Vec2(0.0, 1.0))
    diag = canonical_direction(Vec2(1.0, 1.0))
    assert line_angle(e1, e2) == pytest.approx(math.pi / 2)
    assert line_angle(e1, e1) == 0.0
    assert line_angle(e1, diag) == pytest.approx(math.pi / 4, abs=1e-12)
    assert line_gap(e1, e1) == 0.0
    # gap compares lines, not arrows: opposite vectors are the same line
    assert line_gap(canonical_direction(Vec2(0.0, 1.0)),
                    canonical_direction(Vec2(0.0, -1.0))) == 0.0


def test_real_eigen_directions_rotation_has_none():
    assert real_eigen_directions(mat([[0.0, -1.0], [1.0, 0.0]])) == ()


def test_real_eigen_directions_two_with_larger_eigenvalue_first():
    first, second = real_eigen_directions(mat([[5.0, 3.0], [-4.0, -2.0]]))
    assert line_gap(first, canonical_direction(Vec2(1.0, -1.0))) <= 1e-12
    assert line_gap(second, canonical_direction(Vec2(3.0, -4.0))) <= 1e-12


def test_real_eigen_directions_shear_has_one():
    (d,) = real_eigen_directions(mat([[1.0, 1.0], [0.0, 1.0]]))
    assert xy(d.vector) == (1.0, 0.0)


def test_real_eigen_directions_scalar_is_isotropic():
    assert real_eigen_directions(Mat2(3.0, 0.0, 0.0, 3.0)) is None


def test_real_eigen_directions_diagonal():
    first, second = real_eigen_directions(mat([[2.0, 0.0], [0.0, 1.0]]))
    assert xy(first.vector) == (1.0, 0.0)
    assert xy(second.vector) == (0.0, 1.0)


def test_is_eigenvector_is_scale_free_below_the_normal_range():
    # At 2^-1074 the image of v under c N underflows to zero; the residual
    # test is made on N's entries times a power of two instead.
    n = Mat2(1.0, -1.0, -1.0, 1.0)
    off, on = canonical_direction(Vec2(math.cos(1.0), math.sin(1.0))), canonical_direction(
        Vec2(1.0, -1.0))
    for c in (1.0, 2.0 ** -1000, 2.0 ** -1074):
        m = Mat2(c * n.a11, c * n.a12, c * n.a21, c * n.a22)
        assert not is_eigenvector(m, off) and is_eigenvector(m, on)


def test_is_eigenvector_residual_check():
    m = mat([[2.0, 1.0], [0.0, 3.0]])
    assert is_eigenvector(m, canonical_direction(Vec2(1.0, 0.0)))
    assert is_eigenvector(m, canonical_direction(Vec2(1.0, 1.0)))
    assert not is_eigenvector(m, canonical_direction(Vec2(0.0, 1.0)))


@given(finite, finite, finite, finite)
def test_eigen_directions_satisfy_residual_test(a, b, c, d):
    m = Mat2(a, b, c, d)
    if m.frob() < 1e-3:
        return
    directions = real_eigen_directions(m) or ()
    # A repeated direction comes from a discriminant zeroed within tolerance,
    # so its residual is only square-root small; the split case is exact.
    check_tol = TolerancePolicy(1e-4) if len(directions) == 1 else DEFAULT_TOL
    for d_ in directions:
        assert is_eigenvector(m, d_, check_tol)


def test_linearly_independent_goldens():
    i = Mat2(1.0, 0.0, 0.0, 1.0)
    e12 = mat([[0.0, 1.0], [0.0, 0.0]])
    e21 = mat([[0.0, 0.0], [1.0, 0.0]])
    b = mat([[1.0, 2.0], [3.0, 4.0]])
    assert linearly_independent([i, e12, e21])
    assert linearly_independent([i, e12, e21, b])
    assert not linearly_independent([b, mat([[2.0, 4.0], [6.0, 8.0]])])
    assert not linearly_independent([b, e12, mat([[1.0, 1.0], [3.0, 4.0]])])
    assert linearly_independent([b])


def test_linearly_independent_uses_relative_scale():
    b = mat([[1.0, 2.0], [3.0, 4.0]])
    nudged = mat([[1.0 + 1e-12, 2.0], [3.0, 4.0]])
    assert not linearly_independent([b, nudged])


def test_linearly_independent_does_not_depend_on_member_scale():
    b = mat([[1.0, 2.0], [3.0, 4.0]])
    e12 = mat([[0.0, 1.0], [0.0, 0.0]])
    for s in (1e-12, 1e-8, 1.0, 1e8, 1e12):
        assert linearly_independent([b, Mat2(0.0, s, 0.0, 0.0)])
        assert linearly_independent([Mat2(s, 2.0 * s, 3.0 * s, 4.0 * s), e12])
        assert not linearly_independent([b, Mat2(s, 2.0 * s, 3.0 * s, 4.0 * s)])
    assert not linearly_independent([b, Mat2(0.0, 0.0, 0.0, 0.0)])


def test_linearly_independent_rejects_bad_count():
    ms = [Mat2(1.0, 0.0, 0.0, 1.0)] * 5
    with pytest.raises(ValueError):
        linearly_independent(ms)
    with pytest.raises(ValueError):
        linearly_independent([])


@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=2, max_size=4))
def test_linearly_independent_is_order_insensitive(entries):
    ms = [Mat2(*e) for e in entries]
    forward = linearly_independent(ms)
    assert linearly_independent(list(reversed(ms))) == forward
