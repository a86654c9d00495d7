"""Arithmetic kernels: tolerance policy, vectors, matrices, eigen machinery."""

import math
import pickle

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
from bilin2.mat2 import _vec2s, canonical_direction, cross, is_eigenvector
from bilin2.quadform import QuadraticForm
from helpers import line_angle, line_gap, mat, xy

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_tolerance_threshold_combines_absolute_and_relative():
    tol = TolerancePolicy(1e-9, 1e-6)
    assert tol.threshold(0.0) == 1e-9
    assert tol.threshold(100.0) == pytest.approx(1e-4 + 1e-9)
    assert tol.is_zero(5e-10)
    assert not tol.is_zero(1e-8)
    assert tol.is_zero(5e-5, scale=100.0)


def test_tolerance_rejects_degenerate_eps():
    with pytest.raises(ValueError):
        TolerancePolicy(0.0, 1e-9)
    with pytest.raises(ValueError):
        TolerancePolicy(1e-9, -1e-9)
    with pytest.raises(ValueError):
        TolerancePolicy(float("inf"), 1e-9)


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
def test_solve2_residual_is_small(a, b, c, d, y1, y2):
    m = Mat2(a, b, c, d)
    y = Vec2(y1, y2)
    scale = math.hypot(a, b) * math.hypot(c, d)
    try:
        u = solve2(m, y)
    except SingularMatrix:
        assert abs(m.det()) <= 1e-3 * scale + 1e-9 or scale <= 1e-3
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
    with pytest.raises(ZeroVector):
        canonical_direction(Vec2(0.0, 0.0))
    with pytest.raises(ZeroVector):
        canonical_direction(Vec2(1e-12, 0.0))


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
    check_tol = TolerancePolicy(1e-4, 1e-4) if len(directions) == 1 else DEFAULT_TOL
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
