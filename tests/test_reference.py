"""The float kernels against their value-type references in helpers.py.

Each kernel must return what its reference returns, compared by repr, or
raise an exception of the same type.  The families cover the places where a
zero test or an overflow decides: entries scaled by 2^k (exact, so only the
tolerance floors see the scale) and by log-uniform factors, near-isotropic
members, repeated eigenvalues, near-dependent families, and entries large
enough that intermediates overflow.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from bilin2 import DEFAULT_TOL, Mat2, Vec2, combine_inputs, common_real_eigenvector
from bilin2.mat2 import (
    _similar,
    canonical_direction,
    is_eigenvector,
    linearly_independent,
    real_eigen_directions,
)
from bilin2.quadform import pair_lines
from bilin2.structure import _candidates, _certified, _combine_inputs
from helpers import (
    ref_canonical_direction,
    ref_combine_inputs,
    ref_common_real_eigenvector,
    ref_is_eigenvector,
    ref_linearly_independent,
    ref_pair_lines,
    ref_real_eigen_directions,
)


def outcome(f, *args):
    """The repr of f(*args), or the type of the exception it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


unit = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
small_int = st.integers(-3, 3).map(float)
huge = st.builds(math.copysign, st.floats(min_value=1e150, max_value=1.7e308),
                 st.sampled_from([1.0, -1.0]))


@st.composite
def rotation_conjugate(draw, t11, t12, t22):
    """R(theta) @ [[t11, t12], [0, t22]] @ R(theta)^T as four floats."""
    theta = draw(st.floats(min_value=0.0, max_value=math.pi))
    c, s = math.cos(theta), math.sin(theta)
    r = Mat2(c, -s, s, c)
    m = r @ Mat2(t11, t12, 0.0, t22) @ Mat2(c, s, -s, c)
    return (m.a11, m.a12, m.a21, m.a22)


@st.composite
def member_entries(draw):
    # One member in nine is huge, so most families get past the overflow.
    kind = draw(st.sampled_from(["unit"] * 2 + ["integer"] * 2 + ["near_isotropic"] * 2
                                + ["repeated"] * 2 + ["huge"]))
    if kind == "unit":
        return tuple(draw(unit) for _ in range(4))
    if kind == "integer":
        return tuple(draw(small_int) for _ in range(4))
    if kind == "near_isotropic":
        c = draw(st.floats(min_value=0.1, max_value=10.0))
        eps = [c * draw(st.floats(min_value=-1e-8, max_value=1e-8)) for _ in range(4)]
        return (c + eps[0], eps[1], eps[2], c + eps[3])
    if kind == "repeated":
        lam = draw(unit)
        return draw(rotation_conjugate(lam, draw(unit), lam))
    return tuple(draw(st.one_of(huge, unit)) for _ in range(4))


@st.composite
def scale_factor(draw):
    if draw(st.booleans()):
        return 2.0 ** draw(st.integers(-60, 60))
    return 10.0 ** draw(st.floats(min_value=-8.0, max_value=8.0))


def _scaled(entries, s):
    """Mat2 of entries times s; products that overflow are clamped to the
    largest finite float, so huge families stay constructible."""
    return Mat2(*(max(-1.7e308, min(1.7e308, e * s)) for e in entries))


@st.composite
def matrices(draw):
    return _scaled(draw(member_entries()), draw(scale_factor()))


@st.composite
def families(draw, min_size=2, max_size=4):
    n = draw(st.integers(min_size, max_size))
    common = draw(scale_factor())
    ms = [_scaled(draw(member_entries()), common * draw(scale_factor())) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # Near-dependent: the last member nudged off a multiple of the first.
        rel = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
        nudge = Mat2(*(draw(unit) for _ in range(4)))
        try:
            ms[-1] = draw(unit) * ms[0] + (rel * ms[0].frob()) * nudge
        except (ValueError, OverflowError):
            pass
    return ms


@given(families(1, 4))
@example([Mat2(1.0, 2.0, 3.0, 4.0), Mat2(2.0, 4.0, 6.0, 8.0)])
@example([Mat2(1.7e308, 0.0, 0.0, 1.0), Mat2(0.0, 1.0, 0.0, 0.0)])
@example([Mat2(-2.0, -1.0, 0.0, 1.0), Mat2(2.0, -2.0, -2.0, -1.0),   # pivot ties decide:
          Mat2(2.0, 2.0, -1.0, -1.0), Mat2(-2.0 + 2.0 ** -26, 0.0, -1.0, 1.0)])  # first wins
def test_linearly_independent_matches_reference(ms):
    assert outcome(linearly_independent, ms) == outcome(ref_linearly_independent, ms)


@given(matrices())
@example(Mat2(9e153, 1e153, 0.0, 9e153))   # the discriminant overflows: ValueError
@example(Mat2(1e-8, 0.0, 0.0, 1.15e-8))    # the eigenvector falls in the zero band
@example(Mat2(1.0, 1.0, 0.0, 1.0))         # a shear: one repeated direction
@example(Mat2(0.0, -1.0, 1.0, 0.0))        # a rotation: none
def test_real_eigen_directions_matches_reference(m):
    assert outcome(real_eigen_directions, m) == outcome(ref_real_eigen_directions, m)


@given(families(1, 4), st.lists(st.tuples(unit, unit), max_size=3))
@example([Mat2(1.7e308, 1.7e308, 0.0, 0.0)], [(1.0, 1.0)])   # the image overflows
@example([Mat2(1e308, 1e308, 1e308, 1e308)], [(1.0, 1.0)])      # the eigenvalue overflows
def test_is_eigenvector_matches_reference(ms, vectors):
    directions = []
    for m in ms:
        try:
            directions.extend(ref_real_eigen_directions(m) or ())
        except (ValueError, OverflowError):
            pass
    for x, y in vectors:
        try:
            directions.append(ref_canonical_direction(Vec2(x, y)))
        except ValueError:
            pass
    for d in directions:
        for m in ms:
            assert outcome(is_eigenvector, m, d) == outcome(ref_is_eigenvector, m, d)


@given(matrices())
def test_canonical_direction_matches_reference(m):
    for v in (m.col1(), m.col2()):
        assert outcome(canonical_direction, v) == outcome(ref_canonical_direction, v)


@given(families(1, 4))
def test_common_real_eigenvector_matches_reference(ms):
    assert outcome(common_real_eigenvector, ms) == outcome(ref_common_real_eigenvector, ms)


def _combine_from_candidates(a, b1, b2, b3):
    return _combine_inputs(a, b1, b2, b3, *_candidates((a, b1, b2, b3), DEFAULT_TOL),
                           DEFAULT_TOL)


@given(families(4, 4))
@example([Mat2(1.0, 0.0, 0.0, 2.0), Mat2(0.0, 0.0, 0.0, 1.0),
          Mat2(1.0, 1.0, 0.0, 0.0), Mat2(0.0, 0.0, 1.0, 0.0)])   # (1, 1) is needed
@example([Mat2(1.0, 1.0, 0.0, 2.0), Mat2(0.0, 1.0, 0.0, 1.0),
          Mat2(1.0, 2.0, 0.0, 3.0), Mat2(0.0, 3.0, 0.0, 7.0)])   # every pair is blocked
@example([Mat2(2.0, 0.0, 0.0, 2.0), Mat2(1.0, 1.0, 0.0, 2.0),
          Mat2(1.0, 2.0, 0.0, 3.0), Mat2(0.0, 0.0, 1.0, 0.0)])   # a isotropic: b1 leads
@example([Mat2(1.0, 0.0, 0.0, 1.0), Mat2(3.0, 0.0, 0.0, 3.0),
          Mat2(1.0, 2.0, 0.0, 3.0), Mat2(0.0, 0.0, 1.0, 0.0)])   # a and b1 isotropic
@example([Mat2(1.0, 0.0, 0.0, 2.0), Mat2(0.0, 0.0, 0.0, 1.0),
          Mat2(1.7e308, 1.0, 0.0, 0.0), Mat2(1.7e308, 0.0, 1.0, 0.0)])  # frob(b2) overflows
def test_combine_inputs_matches_reference(ms):
    expected = outcome(ref_combine_inputs, *ms)
    assert outcome(combine_inputs, *ms) == expected
    try:
        # analyze certifies the candidates before it combines, and stops at
        # any error either step raises
        _certified(tuple(ms), _candidates(tuple(ms), DEFAULT_TOL)[1], DEFAULT_TOL)
    except (ValueError, OverflowError):
        return
    assert outcome(_combine_from_candidates, *ms) == expected


@given(matrices(), matrices())
@example(Mat2(1.7e308, 1.7e308, 1.7e308, 1.7e308), Mat2(1.7e308, -1.7e308, 1.7e308, 1.0))
@example(Mat2(1.0, 0.0, 0.0, -1.0), Mat2(0.0, 1.0, 0.0, 0.0))   # one line
@example(Mat2(1.0, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 0.0, 1.0))    # the coordinate axes
def test_pair_lines_matches_reference(b1, b2):
    assert outcome(pair_lines, b1, b2, DEFAULT_TOL) == outcome(ref_pair_lines, b1, b2)


@given(matrices(), matrices(), matrices())
@example(Mat2(1.0, 1.0, 0.0, 1.0), Mat2(1.7e308, 0.0, 1.7e308, 0.0), Mat2(1.0, 0.0, 0.0, 1.0))
def test_similar_matches_matmul(p, m, q):
    assert outcome(_similar, p, m, q) == outcome(lambda: p @ m @ q)
