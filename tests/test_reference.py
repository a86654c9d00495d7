"""The float kernels against their value-type references in helpers.py.

Each kernel must return what its reference returns, compared by repr, or
raise an exception of the same type.  The families cover the places where a
zero test or an overflow decides: entries scaled by 2^k (exact, so only the
tolerance floors see the scale) and by log-uniform factors, near-isotropic
members, repeated eigenvalues, near-dependent families, and entries large
enough that intermediates overflow.  The plan-path kernels (steer and
simulate) run on the golden systems and on random two-input systems, from
states scaled by 2^k over the whole exponent range, so landings overflow and
states go subnormal.
"""

import math

from hypothesis import assume, example, given
from hypothesis import strategies as st

from bilin2 import (
    DEFAULT_TOL,
    BilinearSystem,
    ControlPlan,
    Mat2,
    SystemKind,
    Vec2,
    VerdictClass,
    analyze,
    apply_reduction,
    combine_inputs,
    common_real_eigenvector,
    escape_step,
    one_step,
    plan_transfer,
    run,
    step,
    verify_plan,
)
from bilin2.mat2 import (
    _similar,
    canonical_direction,
    is_eigenvector,
    linearly_independent,
    real_eigen_directions,
)
from bilin2.quadform import pair_lines
from bilin2.steer import _canonical_steps, _escape_moves
from bilin2.structure import _candidates, _certified, _combine_inputs
from helpers import (
    ref_canonical_direction,
    ref_canonical_steps,
    ref_combine_inputs,
    ref_common_real_eigenvector,
    ref_escape_moves,
    ref_escape_step,
    ref_is_eigenvector,
    ref_linearly_independent,
    ref_one_step,
    ref_pair_lines,
    ref_plan_transfer,
    ref_real_eigen_directions,
    ref_run,
    ref_step,
    ref_verify_plan,
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
    first, directions = _candidates((a, b1, b2, b3), DEFAULT_TOL)
    _, failed_at = _certified((a, b1, b2, b3), directions, DEFAULT_TOL)
    return _combine_inputs(a, b1, b2, b3, first, directions, failed_at, DEFAULT_TOL)


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


# --- the plan path --------------------------------------------------------------


def _system(drift, *inputs) -> BilinearSystem:
    kind = SystemKind.WITH_DRIFT if drift is not None else SystemKind.DRIFTLESS
    return BilinearSystem(kind, None if drift is None else Mat2(*drift),
                          tuple(Mat2(*b) for b in inputs))


# The conftest and test_steer fixtures, and the three- and four-input and
# zero-bottom-row systems of the benchmark's plan stream.
ROTATION = _system((0.0, -1.0, 1.0, 0.0), (1.0, -1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0))
SHARED = _system((5.0, 3.0, -4.0, -2.0), (0.0, -1.0, 2.0, 3.0), (7.0, 1.0, -1.0, 5.0))
SWAP = _system(None, (-1.0, 0.0, 3.0, 1.0), (4.0, 3.0, -6.0, -4.0))
TRAPPED = _system((1.0, 2.0, 0.0, 3.0), (1.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
COUPLED_SHIFT = _system((0.0, 0.0, 1.0, 2.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
DRIFT3 = _system((1.0, -2.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0), (0.0, 1.0, -1.0, 0.0),
                 (1.0, 1.0, 0.0, 1.0))
DRIFTLESS4 = _system(None, (0.0, -1.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0), (1.0, 1.0, 0.0, 0.0),
                     (0.0, 0.0, 1.0, 0.0))
ZERO_BOTTOM = _system((1.0, 2.0, 1.0, -1.0), (1.0, 2.0, 0.0, 0.0), (3.0, -1.0, 0.0, 0.0))
# Inputs whose rows share the left null direction (2, -1): the zero-bottom-row
# basis is a rotation with irrational entries.
TILTED = _system((1.0, 2.0, 1.0, -1.0), (1.0, 2.0, 2.0, 4.0), (3.0, -1.0, 6.0, -2.0))
GOLDEN = (ROTATION, SHARED, SWAP, TRAPPED, COUPLED_SHIFT, DRIFT3, DRIFTLESS4, ZERO_BOTTOM,
          TILTED)

entry = st.one_of(unit, small_int)


@st.composite
def two_input_systems(draw, zero_bottom=st.booleans()):
    """A random two-input system; with drift, the inputs' bottom rows are
    zero when ``zero_bottom`` draws true, so the steering form vanishes and
    the two-step construction steers."""
    drift = draw(st.booleans())
    zero_bottom = drift and draw(zero_bottom)
    scale = draw(scale_factor())

    def member(bottom_zero=False):
        e = [draw(entry) for _ in range(4)]
        if bottom_zero:
            e[2] = e[3] = 0.0
        return _scaled(e, scale)

    a = member() if drift else None
    try:
        return BilinearSystem(SystemKind.WITH_DRIFT if drift else SystemKind.DRIFTLESS, a,
                              (member(zero_bottom), member(zero_bottom)))
    except ValueError:
        assume(False)


systems = st.one_of(st.sampled_from(GOLDEN), two_input_systems())
canonical_systems = st.one_of(st.sampled_from(GOLDEN), two_input_systems(st.just(True)),
                              st.sampled_from([COUPLED_SHIFT, ZERO_BOTTOM, TILTED]))


def _clamped(v: float) -> float:
    return max(-1.7e308, min(1.7e308, v))


@st.composite
def states(draw):
    """A state of unit-range or integer coordinates times 2^k, k in
    [-1074, 1023]; k is 0, or near 0, or anywhere in the range, in equal
    shares, so that plans are found as well as refused."""
    f = 2.0 ** draw(st.one_of(st.just(0), st.integers(-60, 60), st.integers(-1074, 1023)))
    return Vec2(_clamped(draw(entry) * f), _clamped(draw(entry) * f))


def _pair(sys):
    """The two-input system the verdict's reduction leaves (sys itself for a
    pair), or None when the verdict refuses to steer."""
    if sys.m == 2:
        return sys
    verdict = analyze(sys)
    if verdict.klass is VerdictClass.UNCONTROLLABLE:
        return None
    return apply_reduction(sys, verdict.reduction)


def _placed(pair, xi, on_line):
    """xi, or with on_line its first coordinate times a zero line of the pair."""
    if on_line:
        lines = pair_lines(*pair.inputs, pair.tol).lines
        if lines:
            return Vec2(lines[0].x * xi.x, lines[0].y * xi.x)
    return xi


@given(systems, states(), states(), st.booleans())
@example(ROTATION, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0), False)         # one step
@example(ROTATION, Vec2(1.0, 1.0), Vec2(3.0, 4.0), False)             # singular: None
@example(ROTATION, Vec2(1e308, -1e308), Vec2(1.0, 1.0), False)        # B xi overflows
@example(ROTATION, Vec2(-1.0, 1.0), Vec2(-1.7e308, 1.0), False)       # eta - A xi overflows
@example(SWAP, Vec2(5e-324, 0.0), Vec2(1.0, 1.0), False)              # subnormal state
@example(_system(None, (2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
         Vec2(1e308, 1.0), Vec2(1.0, 1.0), False)     # B1 xi overflows to an infinite det
def test_one_step_matches_reference(sys, xi, eta, on_line):
    pair = _pair(sys)
    assume(pair is not None)
    xi = _placed(pair, xi, on_line)
    assert outcome(one_step, pair, xi, eta) == outcome(ref_one_step, pair, xi, eta)


@given(systems, states(), st.booleans())
@example(ROTATION, Vec2(1.0, 1.0), False)                 # the drift alone escapes
@example(DRIFT3, Vec2(1.0, 1.0), False)                   # escape + escape
@example(ROTATION, Vec2(1.7e308, 1.7e308), False)         # a landing overflows
@example(COUPLED_SHIFT, Vec2(1.0, 0.0), False)            # the form vanishes: no escape
def test_escape_matches_reference(sys, xi, on_line):
    pair = _pair(sys)
    assume(pair is not None)
    xi = _placed(pair, xi, on_line)
    assert outcome(escape_step, pair, xi) == outcome(ref_escape_step, pair, xi)
    kernel = outcome(_escape_moves, pair, xi.x, xi.y)
    assert kernel == outcome(lambda: [(u, x.x, x.y) for u, x in ref_escape_moves(pair, xi)])


@given(canonical_systems, states(), states())
@example(TILTED, Vec2(1.3, 0.4), Vec2(1.7, -0.6))           # a rotated basis
@example(COUPLED_SHIFT, Vec2(1.0, 1.0), Vec2(4.0, 9.0))     # second coordinate first
@example(COUPLED_SHIFT, Vec2(0.0, 1e308), Vec2(4.0, 9.0))   # the pre-step overflows
@example(COUPLED_SHIFT, Vec2(1.0, 1.0), Vec2(5.0, 6.0))     # degenerate target branch
@example(COUPLED_SHIFT, Vec2(0.0, 1.0), Vec2(4.0, 9.0))     # pre-step
@example(ZERO_BOTTOM, Vec2(1e308, 1e308), Vec2(1.0, 1.0))   # the rotated state overflows
@example(ROTATION, Vec2(1.0, 1.0), Vec2(4.0, 9.0))          # no zero-bottom-row basis
def test_canonical_steps_match_reference(sys, xi, eta):
    pair = _pair(sys)
    assume(pair is not None)
    kernel = outcome(_canonical_steps, pair, xi.x, xi.y, eta.x, eta.y)
    assert kernel == outcome(ref_canonical_steps, pair, xi, eta)


control = st.one_of(unit, small_int, unit, small_int, huge)


@given(systems, states(), states(), st.lists(st.tuples(*[control] * 5), max_size=3),
       st.sampled_from([0] * 6 + [1, -1]))
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), [(0.0,) * 5, (5.0, 16.0, 0.0, 0.0, 0.0)], 0)
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1e308,) * 5] * 2, 0)     # states overflow
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1.0,) * 5], 1)           # arity
@example(ROTATION, Vec2(1.7e308, 0.0), Vec2(-1.7e308, 0.0), [], 0)   # x_end - eta overflows
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1e308,) * 5, (1.0,) * 5], 1)  # overflow first
def test_replay_matches_reference(sys, xi, eta, controls, arity_slip):
    # arity_slip makes the last control vector one too long or too short
    m = sys.m
    plan = ControlPlan(tuple(u[:m] for u in controls[:-1])
                       + tuple(u[:m + arity_slip] for u in controls[-1:]))
    for u in plan.steps[:1]:
        assert outcome(step, sys, xi, u) == outcome(ref_step, sys, xi, u)
    assert outcome(run, sys, xi, plan) == outcome(ref_run, sys, xi, plan)
    assert outcome(verify_plan, sys, xi, eta, plan) == outcome(ref_verify_plan, sys, xi, eta,
                                                               plan)


@given(systems, states(), states(), st.booleans())
@example(ROTATION, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0), False)         # one step
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), False)          # escape + one step
@example(DRIFT3, Vec2(1.0, 1.0), Vec2(1.7, -0.6), False)              # escape twice
@example(DRIFTLESS4, Vec2(1.3, 0.4), Vec2(1.7, -0.6), False)          # pinned and combined
@example(ZERO_BOTTOM, Vec2(1.3, 0.4), Vec2(1.7, -0.6), False)         # two-step construction
@example(SHARED, Vec2(1.3, 0.4), Vec2(0.0, 0.0), False)               # nearly, to zero
@example(SHARED, Vec2(1.0, -1.0), Vec2(1.7, -0.6), False)             # excluded initial state
@example(TRAPPED, Vec2(1.3, 0.4), Vec2(1.7, -0.6), False)             # uncontrollable
@example(ROTATION, Vec2(0.0, 0.0), Vec2(1.7, -0.6), False)            # zero state
@example(ROTATION, Vec2(1.7e308, 1.7e308), Vec2(1.0, 1.0), False)     # a landing overflows
@example(ROTATION, Vec2(1e200, 1e200), Vec2(1.0, 1.0), False)         # no candidate clears
def test_plan_transfer_matches_reference(sys, xi, eta, on_line):
    pair = _pair(sys)
    if pair is not None:
        xi = _placed(pair, xi, on_line)
    assert outcome(plan_transfer, sys, xi, eta) == outcome(ref_plan_transfer, sys, xi, eta)
