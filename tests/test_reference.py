"""The float kernels against their value-type references in helpers.py.

Each kernel must return what its reference returns, compared by repr, or
raise an exception of the same type.  The families cover the places where a
zero test or an overflow decides: entries scaled by 2^k (exact, so only the
tolerance floors see the scale) and by log-uniform factors, near-isotropic
members, repeated eigenvalues, near-dependent families, and entries large
enough that intermediates overflow.  The plan-path kernels (steer and
simulate) run on the golden systems and on random two-input systems, from
states scaled by 2^k over the whole exponent range, so landings overflow and
states go subnormal.  The escape is the exception: it is computed in closed
form, and the reference's candidate list is the comparator it must not fall
behind.  The last properties need no reference: returned plans hold plain
float controls and copy and pickle unchanged, plans replayed exactly in
rational arithmetic (``exact.py``) land within the acceptance bound, the
one-step routes commute with scaling the endpoints and the inputs by powers
of two, the escape commutes with scaling the state by 2^k, and it accepts
a landing exactly where the one step from it exists.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction
from sys import float_info

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bilin2 import (
    DEFAULT_TOL,
    BilinearSystem,
    ControlPlan,
    EscapeFailed,
    InExcludedSet,
    Mat2,
    NotCanonicalClass,
    NotControllablePair,
    SingularMatrix,
    SingularSubstitution,
    SystemKind,
    TolerancePolicy,
    Vec2,
    VerdictClass,
    ZeroState,
    analyze,
    apply_reduction,
    canonical_steer,
    combine_inputs,
    common_real_eigenvector,
    escape_step,
    form_scale,
    gram_form,
    one_step,
    plan_transfer,
    run,
    step,
    verify_plan,
)
from exact import lands_within
from bilin2.mat2 import (
    _similar,
    canonical_direction,
    is_eigenvector,
    linearly_independent,
    real_eigen_directions,
)
from bilin2.quadform import pair_lines
from bilin2.simulate import _LANDING_TOL
from bilin2.steer import _canonical_steps, _escape, _escape_moves, _steering
from helpers import (
    ESCAPE_CANDIDATES_DRIFT,
    ESCAPE_CANDIDATES_DRIFTLESS,
    ESCAPE_MARGIN_FACTOR,
    ref_canonical_direction,
    ref_canonical_steps,
    ref_combine_inputs,
    ref_common_real_eigenvector,
    ref_escape_step,
    ref_is_eigenvector,
    ref_linearly_independent,
    ref_one_step,
    ref_pair_lines,
    ref_plan_transfer,
    ref_real_eigen_directions,
    ref_run,
    ref_step,
    ref_step_matrix,
    ref_takes_two_steps,
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
        k, m = draw(unit), ms[0]
        try:
            s = rel * m.frob()
            ms[-1] = Mat2(m.a11 * k + nudge.a11 * s, m.a12 * k + nudge.a12 * s,
                          m.a21 * k + nudge.a21 * s, m.a22 * k + nudge.a22 * s)
        except (ValueError, OverflowError):
            pass
    return ms


@given(families(1, 4))
@example([Mat2(1.0, 2.0, 3.0, 4.0), Mat2(2.0, 4.0, 6.0, 8.0)])
@example([Mat2(1.7e308, 0.0, 0.0, 1.0), Mat2(0.0, 1.0, 0.0, 0.0)])
@example([Mat2(-2.0, -1.0, 0.0, 1.0), Mat2(2.0, -2.0, -2.0, -1.0),   # pivot ties decide:
          Mat2(2.0, 2.0, -1.0, -1.0), Mat2(-2.0 + 2.0 ** -26, 0.0, -1.0, 1.0)])  # first wins
@example([Mat2(1.0, 1.0, 1.0, -2.0), Mat2(-1.0, 1.0 + 2.0 ** -28, -2.0, 1.0),  # the last
          Mat2(2.0, 0.0, -2.0, 2.0), Mat2(-1.0, -2.0, 1.0, 1.0)])       # tied one loses
@example([Mat2(0.0, 0.0, 0.0, 0.0), Mat2(1.5e308, 1.5e308, 0.0, 0.0)])  # a zero member, then
@example([Mat2(0.0, -3.0, 0.0, 0.0)])               # a norm that overflows; a single member
def test_linearly_independent_matches_reference(ms):
    assert outcome(linearly_independent, ms) == outcome(ref_linearly_independent, ms)


@given(families(1, 4), st.floats(min_value=1e-12, max_value=0.5))
@example([Mat2(1.0, 0.0, 0.0, 0.0), Mat2(1.0, 0.25, 0.0, 0.0)],     # the last pivot
         0.25 / math.hypot(1.0, 0.25, 0.0, 0.0))                      # sits on abs_eps
@example([Mat2(1.0, -1.0, 1.0, 1.0)], 0.5)                           # so does the first
def test_linearly_independent_matches_reference_at_any_tolerance(ms, abs_eps):
    # The elimination compares its pivot with abs_eps itself, not through
    # is_zero: the decision must still be the reference's at every tolerance.
    tol = TolerancePolicy(abs_eps)
    assert outcome(linearly_independent, ms, tol) == outcome(ref_linearly_independent, ms, tol)


@given(matrices())
@example(Mat2(9e153, 1e153, 0.0, 9e153))   # the discriminant unscaled overflows
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
    for v in (Vec2(m.a11, m.a21), Vec2(m.a12, m.a22)):
        assert outcome(canonical_direction, v) == outcome(ref_canonical_direction, v)


@given(families(1, 4))
@example([Mat2(0.0, 1.0, 0.0, 0.0), Mat2(0.0, 1.43e308, 0.0, 1.09e308)])   # |N|_F overflows
@example([Mat2(7.904053647747323, 3.2525898366185473, -13.741345258401761, -5.466804205415039),
          Mat2(7.162761518138625, 3.919231458375825, -12.258478382794248, -6.856897991322428)])
# ... a near-double root of M: only ker[M, N] is invariant under both
@example([Mat2(0.7071067811865476, 0.0, 2e-9, -0.7071067811865476), Mat2(0.6, 0.8, 0.0, 0.0)])
# ... det[M, N] is above the tolerance, but M's eigen-direction passes on both
def test_common_real_eigenvector_matches_reference(ms):
    assert _outcomes(common_real_eigenvector, ref_common_real_eigenvector, ms)


def _outcomes(f, ref, ms) -> bool:
    """Does f(ms) have the outcome of ref(ms)?  The reference certifies every
    candidate by residual test, which raises ValueError on a member whose
    norm or image overflows; f answers all the same where the commutator
    settles that the members share nothing, with no residual test.  There
    f's answer must be the reference's for the family divided by 16, whose
    norms are in range: the answer does not depend on the family's scale."""
    got, expected = outcome(f, ms), outcome(ref, ms)
    if expected is ValueError and got is not ValueError:
        expected = outcome(ref, [Mat2(m.a11 / 16.0, m.a12 / 16.0, m.a21 / 16.0, m.a22 / 16.0)
                                 for m in ms])
    return got == expected


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
@example([Mat2(1.7592186044416e+163, 1.6977158828979719e+308, -1.7592186044416e+163,
               -1.6977158828979719e+308)] + [Mat2(0.0, 0.0, 0.0, 0.0)] * 3)  # frob(a) overflows
@example([Mat2(0.7071067811865476, 0.0, 2e-9, -0.7071067811865476), Mat2(0.6, 0.8, 0.0, 0.0),
          Mat2(0.0, 1.0, 0.0, 0.0), Mat2(0.0, 0.0, 1.0, 0.0)])   # a, b1 share within the tolerance
@example([Mat2(1.699999975958371e+308, 0.0, 0.0, 1.6999999773161388e+308),
          Mat2(-0.4546487134128409, 0.2919265817264289, -0.7080734182735712, 0.4546487134128409),
          Mat2(0.0, 0.0, 0.0, 1.0), Mat2(0.0, 0.0, 0.0, 0.0)])   # the residual test on a overflows
def test_combine_inputs_matches_reference(ms):
    def reference(ms):
        return ref_combine_inputs(*ms)

    assert _outcomes(lambda ms: combine_inputs(*ms), reference, ms)


@given(matrices(), matrices())
@example(Mat2(1.7e308, 1.7e308, 1.7e308, 1.7e308), Mat2(1.7e308, -1.7e308, 1.7e308, 1.0))
@example(Mat2(1.0, 0.0, 0.0, -1.0), Mat2(0.0, 1.0, 0.0, 0.0))   # one line
@example(Mat2(1.0, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 0.0, 1.0))    # the coordinate axes
@example(Mat2(0.0, 0.0, 2.2250738583e-314, 1e-3), Mat2(1e-3, 0.0, 0.0, 0.0))   # both axes
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


def _takes_two_steps(pair):
    """Whether plan_transfer routes the pair to the two-step construction,
    or the type of the exception deciding it raises."""
    try:
        return _steering(pair).route[1]
    except ValueError as exc:
        return type(exc)


def _placed(pair, xi, on_line):
    """xi, or with on_line its first coordinate times a zero line of the pair."""
    if on_line:
        try:
            lines = pair_lines(*pair.inputs, pair.tol).lines
        except ValueError:   # a root of subnormal coefficients overflows
            lines = ()
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
@example(_system(None, (0.0, 0.0, 0.0, 262144.0), (0.0, 262144.0, 0.0, 0.0)),
         Vec2(0.0, 1.0), Vec2(0.0, 6.857655085992111e302), False)  # the numerators overflow
def test_one_step_matches_reference(sys, xi, eta, on_line):
    pair = _pair(sys)
    assume(pair is not None)
    xi = _placed(pair, xi, on_line)
    assert outcome(one_step, pair, xi, eta) == outcome(ref_one_step, pair, xi, eta)


def _clearance(pair, v: Vec2) -> float:
    """|q(v)| / (form_scale * |v|^2) of the pair's steering form at v != 0."""
    q = gram_form(*pair.inputs)
    s = max(abs(v.x), abs(v.y))
    x, y = v.x / s, v.y / s
    return abs(q.a * x * x + q.b * x * y + q.c * y * y) / (form_scale(*pair.inputs)
                                                         * (x * x + y * y))


def _clears(pair, v: Vec2, margin: float = 1.0) -> bool:
    """Whether v != 0 has a clearance above margin times the zero threshold."""
    return (v.x != 0.0 or v.y != 0.0) and _clearance(pair, v) > margin * pair.tol.abs_eps


def _on_zero_set(pair, xi) -> bool:
    """Whether B1 xi and B2 xi are parallel under the tolerance (or one is
    zero): the states an escape step starts from.  A point of ``pair_lines``
    need not be one where the absolute floor merges two lines into one."""
    (b1, b2) = pair.inputs
    try:
        c1, c2 = b1 @ xi, b2 @ xi
    except ValueError:
        return True
    n1, n2 = c1.norm(), c2.norm()
    return (n1 == 0.0 or n2 == 0.0
            or pair.tol.is_zero(c1.x / n1 * (c2.y / n2) - c1.y / n1 * (c2.x / n2)))


def _some_candidate_clears(pair, xi) -> bool:
    """Whether the landing l of one of the reference's candidate controls
    clears with the reference's margin: |l| next to |M|_F |xi| for the step
    matrix M, and the clearance of l, are both above ESCAPE_MARGIN_FACTOR
    times the zero threshold.  The margin keeps decisions at the threshold
    itself, where the kernel and this check may round apart, out of it.  A
    landing below 2^-1042, the acceptance rule's subnormal floor, does not
    count: round-off of 2^-1075 an operation can turn its direction."""
    margin = ESCAPE_MARGIN_FACTOR * pair.tol.abs_eps
    for u in ESCAPE_CANDIDATES_DRIFT + ESCAPE_CANDIDATES_DRIFTLESS:
        try:
            landing = step(pair, xi, u)
        except ValueError:
            continue
        if landing.norm() <= 2.0 ** -1042:
            continue
        size = landing.norm() / math.hypot(*ref_step_matrix(pair, u)) / xi.norm()
        if size > margin and _clears(pair, landing, ESCAPE_MARGIN_FACTOR):
            return True
    return False


@given(systems, states())
@example(ROTATION, Vec2(1.0, 1.0))                  # the drift alone escapes
@example(DRIFT3, Vec2(1.0, 1.0))                    # escape + escape
@example(ROTATION, Vec2(1.7e308, 1.7e308))          # an input image overflows
@example(COUPLED_SHIFT, Vec2(1.0, 0.0))             # the form vanishes: no escape
@example(ROTATION, Vec2(1e200, 1e200))              # the reference's margin overflows
@example(_system(None, (0.0, 1.837868195322588e-70, 1e-05, 0.0), (1e-05, 0.0, 0.0, 0.0)),
         Vec2(0.0, 1.0))                            # a first landing off the zero set
@example(_system(None, (1.21058126828542e-124, 0.01, 0.01, 0.0), (0.0, 0.0, 1e-08, 0.0)),
         Vec2(1.0, 0.0))                            # ... under a controllable verdict
@example(_system(None, (0.0, -0.1, 0.0, 0.1), (0.0, 0.0, 0.1, 0.1)),
         Vec2(6.3e-322, 0.0))                       # subnormal landings, an invariant line
@example(_system((0.0, 0.0, 0.0, 1.0), (0.0, 5e-324, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
         Vec2(0.0, 1.0))                            # |p| / |c| = 2e323: t is not finite
def test_escape_matches_reference(sys, xi):
    """From a state on the zero set, the closed-form escape lands where the
    replay lands and clears the zero set; where it is not the drift alone it
    clears at least as well as the reference's best candidate, and it fails
    only where no candidate's landing clears.  Two escape steps are taken
    only where one cannot clear."""
    pair = _pair(sys)
    assume(pair is not None)
    xi = _placed(pair, xi, True)
    assume(_on_zero_set(pair, xi))
    expected = outcome(ref_escape_step, pair, xi)
    try:
        u, landing = escape_step(pair, xi)
    except EscapeFailed:
        assert not _some_candidate_clears(pair, xi)
        one_step_clears = False
    except ValueError:
        # A landing overflows: so does the reference's, or the state is so
        # large that its images square to infinity.
        assert expected is ValueError or max(abs(xi.x), abs(xi.y)) > 2.0 ** 500
        return
    else:
        assert step(pair, xi, u) == landing
        assert _clears(pair, landing)
        # and is no round-off landing: |l| is not zero next to |M|_F |xi|
        size = landing.norm() / math.hypot(*ref_step_matrix(pair, u)) / xi.norm()
        assert size > pair.tol.abs_eps
        if u != (0.0, 0.0) and not isinstance(expected, type):
            # Two allowances.  xi is on the zero set up to the tolerance, so
            # the reference's landing can leave the landing line by as much,
            # magnified where that landing is small next to |M|_F |xi|.  And
            # where the axis crossing is far out, the landing stops within
            # 2^-9 rad of the axis, which costs up to 2^-16 of the clearance.
            ref_u, ref_landing = ref_escape_step(pair, xi)
            size = math.hypot(*ref_step_matrix(pair, ref_u)) * xi.norm()
            slack = 4.0 * pair.tol.abs_eps * size / ref_landing.norm()
            best = _clearance(pair, ref_landing) * (1.0 - 2.0 ** -16) - slack
            assert _clearance(pair, landing) >= best
        one_step_clears = True
    try:
        moves = _escape_moves(_steering(pair), xi.x, xi.y, 0.0, 0.0)
    except ValueError:
        assert max(abs(xi.x), abs(xi.y)) > 2.0 ** 500   # the second landing overflows
        return
    except EscapeFailed:
        assert not one_step_clears
        _, lx, ly, _ = _escape(_steering(pair), xi.x, xi.y, 0.0, 0.0)
        # A first landing off the zero set, outside the escape's domain (one
        # that failed only the size test, as a driftless image tiny next to
        # |B_k|_F |xi| does), may leave a candidate that clears; plan_transfer
        # escapes only under a controllable verdict, so only there must none.
        assert (not _some_candidate_clears(pair, Vec2(lx, ly))
                or analyze(pair).klass is not VerdictClass.CONTROLLABLE)
        return
    # the escape controls, then the one step from the last landing
    assert len(moves) == (2 if one_step_clears else 3)
    state = xi
    for u in moves[:-1]:
        _, lx, ly, _ = _escape(_steering(pair), state.x, state.y, 0.0, 0.0)
        state = step(pair, state, u)
        assert state == Vec2(lx, ly)
    assert _clears(pair, state)


# |B1|_F |B2|_F = 1e-340 is zero in floats: no one step exists, so no landing clears.
UNDERFLOW = BilinearSystem(SystemKind.DRIFTLESS, None,
                           (Mat2(1e-170, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 1e-170, 0.0)),
                           tol=TolerancePolicy(1e-320))


@given(systems, states(), st.lists(states(), min_size=1, max_size=3))
@example(DRIFT3, Vec2(1.0, 1.0), [Vec2(1.7, -0.6)])       # escape + escape
@example(UNDERFLOW, Vec2(1.0, 0.0), [Vec2(0.0, 1.0)])     # the form scale underflows
def test_escape_is_its_one_step(sys, xi, etas):
    """The escape accepts a landing exactly where the one step from it exists:
    from the landing escape_step returns, one_step answers every finite target
    (a control, or ValueError where one overflows), never None; and a plan from
    a zero-line state is the escape controls followed by exactly that one step."""
    pair = _pair(sys)
    assume(pair is not None)
    xi = _placed(pair, xi, True)
    assume(_on_zero_set(pair, xi))
    try:
        _, landing = escape_step(pair, xi)
    except (EscapeFailed, ValueError):
        pass
    else:
        for eta in etas:
            assert outcome(one_step, pair, landing, eta) != "None"
    if analyze(pair).klass is not VerdictClass.CONTROLLABLE or _takes_two_steps(pair):
        return   # no escape: a refusal, the nearly one step or the two-step construction
    for eta in etas:
        try:
            plan = plan_transfer(pair, xi, eta)
        except (EscapeFailed, ZeroState, ValueError):
            continue
        *escapes, last = plan.steps
        state = xi
        for u in escapes:
            state = step(pair, state, u)
        assert last == one_step(pair, state, eta)


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
    kernel = outcome(_canonical_steps, _steering(pair), xi.x, xi.y, eta.x, eta.y)
    assert kernel == outcome(ref_canonical_steps, pair, xi, eta)


control = st.one_of(unit, small_int, unit, small_int, huge)


@given(systems, states(), states(), st.lists(st.tuples(*[control] * 5), max_size=3),
       st.sampled_from([0] * 6 + [1, -1]))
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), [(0.0,) * 5, (5.0, 16.0, 0.0, 0.0, 0.0)], 0)
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1e308,) * 5] * 2, 0)     # states overflow
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1.0,) * 5], 1)           # arity
@example(ROTATION, Vec2(1.7e308, 0.0), Vec2(-1.7e308, 0.0), [], 0)   # x_end - eta overflows
@example(ROTATION, Vec2(1.0, 1.0), Vec2(0.0, 0.0), [(1e308,) * 5, (1.0,) * 5], 1)  # overflow first
# The plan below lands on (-11, -7) exactly.  |eta| is 13.04, the reach
# max_k |M_k|_F |x_k| is 30 (step 1), and the misses straddle 1e-8 times each.
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0 + 1.3e-7, -7.0),
         [(0.0,) * 5, (5.0, 16.0, 0.0, 0.0, 0.0)], 0)   # within 1e-8 |eta|
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0 + 2e-7, -7.0),
         [(0.0,) * 5, (5.0, 16.0, 0.0, 0.0, 0.0)], 0)   # past it, the reach admits it
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0 + 4e-7, -7.0),
         [(0.0,) * 5, (5.0, 16.0, 0.0, 0.0, 0.0)], 0)   # past the reach too
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


def _reference_escapes(sys, pair, xi, eta) -> bool:
    """Whether the reference plans an escape step from xi to eta."""
    try:
        if pair is None or analyze(sys).klass is not VerdictClass.CONTROLLABLE:
            return False
        if sys.tol.is_zero(xi.norm()) or sys.tol.is_zero(eta.norm()):
            return False
        if ref_takes_two_steps(pair):
            return False
        return ref_one_step(pair, xi, eta) is None
    except Exception:  # noqa: BLE001 - the reference stops before any escape
        return False


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
@example(ROTATION, Vec2(1.7e308, 1.7e308), Vec2(1.0, 1.0), False)     # an image overflows
@example(ROTATION, Vec2(1e200, 1e200), Vec2(1.0, 1.0), False)         # no candidate clears
@example(_system((0.0, 1.0, 2.705506379799038e-59, 0.0), (0.0, 0.0, 0.0, 1.0),
                 (0.0, 1.0, 1.0, 0.0)), Vec2(1.0, 0.0), Vec2(0.0, 1.0), False)   # A xi is lost
@example(DRIFTLESS4, Vec2(1.348269851146737e308, 0.0), Vec2(0.0, 1.0), False)   # inf * 0 rows
@example(_system((0.0, 0.0, 0.0, 1e-6), (0.0, 1.0, 0.0, 1.0), (0.0, 0.0, -1.0, 0.0)),
         Vec2(0.0, 1.0), Vec2(0.0, 1.0), False)   # an escape landing under the absolute floor
@example(_system((-0.0625, 0.0625, 0.0, 0.0), (6.25e-08, 0.0625, 0.0, 0.0),
                 (0.0, 0.0, 0.0625, 0.0)),
         Vec2(1.0, 0.0), Vec2(0.0, 1.0), True)    # ... there only for a small form scale
@example(_system(None, (2.0 ** 57, 3 * 2.0 ** 57, -6 * 2.0 ** 57, 0.0),
                 (-2.0 ** 57, 0.0, 2.0 ** 57, 2.0 ** 57)),
         Vec2(1.2e119, 0.0), Vec2(0.0, 1.0), True)    # det at the landing is inf - inf
@example(_system((0.0, 0.002, 0.0, 0.0), (0.0, 0.0, 0.001, 0.0), (0.002, 0.0, 0.0, 0.0)),
         Vec2(6.86479766013061e156, 0.0), Vec2(0.0, 6.86479766013061e156),
         True)    # the one step from the landing 1.4e154 overflows; the reference plans
def test_plan_transfer_matches_reference(sys, xi, eta, on_line):
    """Off the escape route the plan (or exception type) is the reference's;
    on it, a verified plan wherever the reference found one."""
    pair = _pair(sys)
    if pair is not None:
        xi = _placed(pair, xi, on_line)
    expected = outcome(ref_plan_transfer, sys, xi, eta)
    if not _reference_escapes(sys, pair, xi, eta):
        assert outcome(plan_transfer, sys, xi, eta) == expected
    elif not isinstance(expected, type):
        try:
            plan = plan_transfer(sys, xi, eta)
        except (EscapeFailed, ValueError):
            # Only where the one step after the escape cannot be made: the
            # landing is beyond 2^500, so that its products overflow.  The
            # escape controls do not depend on the target, so the escapes
            # towards 0 show the landing, as _escape_moves takes them.
            _, lx, ly, v = _escape(_steering(pair), xi.x, xi.y, 0.0, 0.0)
            if v is None:
                _, lx, ly, v = _escape(_steering(pair), lx, ly, 0.0, 0.0)
            assert max(abs(lx), abs(ly)) > 2.0 ** 500
        else:
            assert verify_plan(sys, xi, eta, plan) == (True, plan.residual)


def _assert_plain_plan(plan):
    """plan holds float controls only, equals the plan ControlPlan builds from
    its steps, and comes back unchanged from deepcopy and pickling."""
    assert type(plan.steps) is tuple
    assert all(type(u) is tuple and all(type(c) is float for c in u) for u in plan.steps)
    for other in (ControlPlan(plan.steps), copy.deepcopy(plan),
                  pickle.loads(pickle.dumps(plan))):
        assert other == plan
        assert repr(other.steps) == repr(plan.steps)
    assert copy.deepcopy(plan).residual == plan.residual


def test_returned_plans_are_plain_float_plans():
    """Every plan that plan_transfer and canonical_steer return for the golden
    systems, from a generic start and from each zero line of the effective
    pair, at state scales 2^-30, 1 and 2^30, on every route."""
    routes = set()
    for sys in GOLDEN:
        pair = _pair(sys)
        if pair is None:
            continue
        klass, reduced = analyze(sys).klass, sys.m != 2
        two_steps = _takes_two_steps(pair)
        starts = [(1.3, 0.4)] + [(d.x, d.y) for d in pair_lines(*pair.inputs, pair.tol).lines]
        for (x, y), k in itertools.product(starts, (-30, 0, 30)):
            f = 2.0 ** k
            xi, eta = Vec2(x * f, y * f), Vec2(1.7 * f, -0.6 * f)
            try:
                plan = plan_transfer(sys, xi, eta)
            except PLAN_REFUSALS:
                continue
            _assert_plain_plan(plan)
            if two_steps:
                routes.add("canonical")
                _assert_plain_plan(canonical_steer(pair, xi, eta))
            elif klass is VerdictClass.NEARLY_CONTROLLABLE:
                routes.add("nearly")
            else:
                routes.add("one_step" if len(plan) == 1 else "escape")
            if reduced:
                routes.add("reduced")
    assert routes == {"one_step", "escape", "canonical", "nearly", "reduced"}


# --- exact properties -----------------------------------------------------------


PLAN_REFUSALS = (NotControllablePair, InExcludedSet, ZeroState, EscapeFailed,
                 NotCanonicalClass, SingularSubstitution)


@given(systems, st.builds(Vec2, entry, entry), st.builds(Vec2, entry, entry),
       st.integers(-40, 40), st.integers(-40, 40), st.booleans())
@example(ROTATION, Vec2(1e12, 3e12), Vec2(1.0, 1.0), 0, 0, False)   # states large next to eta
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), -20, 20, False)   # escape + one step
@example(ZERO_BOTTOM, Vec2(0.804311577537331, -0.5306623926413903),
         Vec2(-1.2180286376598157, -1.3341235358016243), -20, -20, False)   # small t, not 0
def test_plan_transfer_lands_within_the_bound_under_exact_replay(sys, xi, eta, a, b, on_line):
    """With xi scaled by 2^a and eta by 2^b, plan_transfer returns a plan
    that lands within the acceptance bound when replayed without round-off,
    or raises a documented refusal, or a ValueError on overflow; never the
    "this is a bug" RuntimeError, StopIteration or SingularMatrix."""
    pair = _pair(sys)
    if pair is not None:
        xi = _placed(pair, xi, on_line)
    xi = Vec2(xi.x * 2.0 ** a, xi.y * 2.0 ** a)
    eta = Vec2(eta.x * 2.0 ** b, eta.y * 2.0 ** b)
    try:
        plan = plan_transfer(sys, xi, eta)
    except PLAN_REFUSALS:
        return
    except ValueError as exc:
        assert not isinstance(exc, SingularMatrix)
        return
    assert lands_within(sys, xi, eta, plan.steps, _LANDING_TOL)


def _inputs_scaled(pair, j1: int, j2: int):
    """pair with B1 times 2^j1 and B2 times 2^j2, or None where those inputs
    do not make a valid system, or where an entry does not scale exactly (a
    subnormal one loses bits): the scaled pair is then another system."""
    (b1, b2), f1, f2 = pair.inputs, 2.0 ** j1, 2.0 ** j2
    try:
        scaled = (Mat2(b1.a11 * f1, b1.a12 * f1, b1.a21 * f1, b1.a22 * f1),
                  Mat2(b2.a11 * f2, b2.a12 * f2, b2.a21 * f2, b2.a22 * f2))
        if tuple(Mat2(s.a11 / f, s.a12 / f, s.a21 / f, s.a22 / f)
                 for s, f in zip(scaled, (f1, f2))) != pair.inputs:
            return None
        return BilinearSystem(pair.kind, pair.drift, scaled, pair.tol)
    except ValueError:
        return None


def _verdict_class(sys):
    """analyze(sys).klass, or None where classification raises."""
    try:
        return analyze(sys).klass
    except ValueError:
        return None


def _steps_or_refusal(sys, xi, eta):
    """The steps of plan_transfer's plan, or the type of the refusal it raised."""
    try:
        return plan_transfer(sys, xi, eta).steps
    except PLAN_REFUSALS as exc:
        return type(exc)


def _exact_control_overflows(pair, xi, eta) -> bool:
    """Whether the one step that ends plan_transfer's route from xi to eta (a
    pair off the two-step construction), solved in rational arithmetic from
    xi or from the last escape landing, has a control beyond the largest
    float.  The escape controls do not depend on the target."""
    state = xi
    try:
        direct = one_step(pair, xi, eta) is not None
    except ValueError:
        direct = True
    if not direct:
        for u in _escape_moves(_steering(pair), xi.x, xi.y, 0.0, 0.0)[:-1]:
            state = step(pair, state, u)
    (b1, b2), a = pair.inputs, pair.drift or Mat2(0.0, 0.0, 0.0, 0.0)
    x, y, ex, ey = map(Fraction, (state.x, state.y, eta.x, eta.y))

    def image(m):
        m11, m12, m21, m22 = map(Fraction, (m.a11, m.a12, m.a21, m.a22))
        return m11 * x + m12 * y, m21 * x + m22 * y

    (c1x, c1y), (c2x, c2y), (px, py) = image(b1), image(b2), image(a)
    rx, ry, det = ex - px, ey - py, c1x * c2y - c2x * c1y
    return det != 0 and max(abs(rx * c2y - c2x * ry), abs(c1x * ry - rx * c1y)) > (
        Fraction(float_info.max) * abs(det))


# Endpoint coordinates are 0 or at least 2^-20 in size, so that no control
# comes out subnormal: dividing one by 2^j drops bits, and a subnormal control
# can miss the acceptance bound (test_steer's strict xfail on a subnormal target).
coordinate = st.one_of(small_int, unit.filter(lambda v: v == 0.0 or abs(v) >= 2.0 ** -20))


# Inputs scaled by 2^-40 often fall under the absolute floors of construction
# and classification, so that more than half the draws are filtered out.
@settings(suppress_health_check=[HealthCheck.filter_too_much])
@given(systems, st.builds(Vec2, coordinate, coordinate), st.builds(Vec2, coordinate, coordinate),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), st.booleans())
@example(SHARED, Vec2(0.0, 1e-6), Vec2(0.0, 0.0), 20, 0, 0, False)     # a small nearly start
@example(SHARED, Vec2(6e-7, 8e-7), Vec2(1.7, -0.6), 20, 0, 0, False)   # ... the benchmark's
@example(SHARED, Vec2(1.3, 0.4), Vec2(3.0, -4.0), -530, 0, 0, False)  # ... a subnormal det
@example(ROTATION, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0), -30, 5, -7, False)   # one step
@example(ROTATION, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), 30, -9, 3, False)     # escape + one step
@example(_system(None, (0.0, 3.0, 1.0, 1e-8), (0.0, 1.0, 3.0, 0.0)),
         Vec2(0.0, 1.0), Vec2(0.0, 1.0), 0, 0, 2, False)   # images near a zero line
@example(_system(None, (0.0, 0.0, 2.67e-155, 0.0), (0.0, 1.0, 0.0, 1.0)),
         Vec2(1.0, 0.0), Vec2(0.0, 1.0), 0, 5, 0, False)   # the last control is 1.4e309
@example(_system(None, (2.17292369e-314, 0.0, 2.0 ** -10, 0.0), (2.0 ** -10, 0.0, 0.0, 0.0)),
         Vec2(1.0, 0.0), Vec2(0.0, 1.0), 0, -1, 0, False)   # a subnormal input entry
def test_one_step_routes_are_scale_free(sys, xi, eta, k, j1, j2, on_line):
    """With both endpoints scaled by 2^k and input B_i by 2^j_i, the one-step,
    escape and nearly routes return the unscaled plan with control i divided
    by 2^j_i, or the same refusal; an escape under input scaling, a plan of as
    many steps or the same refusal.  Only ZeroState's absolute floor 1e-9 on
    an endpoint may refuse on one side alone, and only a subnormal control
    may differ."""
    pair = _pair(sys)
    assume(pair is not None)
    scaled = _inputs_scaled(pair, j1, j2)
    assume(scaled is not None)
    # Both sides must reach the same verdict on the same route; the absolute
    # floors of classification (ROADMAP item 2) are not what is tested here.
    klass = _verdict_class(pair)
    assume(klass not in (None, VerdictClass.UNCONTROLLABLE) and _verdict_class(scaled) is klass)
    assume(all(_takes_two_steps(p) is False for p in (pair, scaled)))
    xi = _placed(pair, xi, on_line)
    f = 2.0 ** k
    scaled_xi, scaled_eta = Vec2(xi.x * f, xi.y * f), Vec2(eta.x * f, eta.y * f)
    outcomes = []
    for p, x, e in ((pair, xi, eta), (scaled, scaled_xi, scaled_eta)):
        try:
            outcomes.append(_steps_or_refusal(p, x, e))
        except ValueError:
            # Only where the route's exact last control is beyond the float
            # range: escapes of u = 1 from tiny inputs can leave it so.
            assert _exact_control_overflows(p, x, e)
            return
    expected, got = outcomes
    escapes = expected is EscapeFailed or isinstance(expected, tuple) and len(expected) > 1
    if escapes and (j1, j2) != (0, 0):
        # Where A xi is zero or lost, the escape's control is u = 1 in the slot
        # it picks, so input scaling moves the landing and the controls after it.
        expected, got = (len(v) if isinstance(v, tuple) else v for v in (expected, got))
    elif isinstance(expected, tuple):
        expected = tuple((u1 / 2.0 ** j1, u2 / 2.0 ** j2) for u1, u2 in expected)
    if got != expected:
        # Only ZeroState's absolute floor on an endpoint refuses on one side
        # alone, and a subnormal control, which drops bits where it is formed
        # from a scaled input, is the one control that may differ.
        assert (ZeroState in (expected, got) and any(
            pair.tol.is_zero(v.norm()) for v in (xi, eta, scaled_xi, scaled_eta))) or (
            isinstance(got, tuple) and isinstance(expected, tuple)
            and len(got) == len(expected) and all(
                u == v or abs(v) < float_info.min
                for gu, eu in zip(got, expected) for u, v in zip(gu, eu)))


# Controllable pairs of inputs near 3e-5 and 1e-5: every coefficient of their
# steering forms is under the absolute floor 1e-9, and neither pair shares a
# left null direction.
SMALL_INPUTS = _system((0.0, 0.0, 2.0 ** -18, 0.0), (0.0, 2.0 ** -15, 0.0, 7.0 * 2.0 ** -18),
                       (-3.0 * 2.0 ** -17, 0.0, -3.0 * 2.0 ** -18, 0.0))
TINY_DRIFTLESS = _system(None, (0.0, -1e-5, 1e-5, 0.0), (1e-5, 0.0, 0.0, 2e-5))


@given(systems, st.integers(-40, 40), st.integers(-40, 40))
@example(SMALL_INPUTS, 15, 15)
@example(TINY_DRIFTLESS, 17, 17)
def test_route_is_scale_free(sys, j1, j2):
    """With input B_i scaled by 2^j_i, the pair takes the two-step
    construction exactly where the unscaled pair does, wherever both get the
    same verdict and a normal form scale."""
    pair = _pair(sys)
    assume(pair is not None)
    scaled = _inputs_scaled(pair, j1, j2)
    assume(scaled is not None)
    klass = _verdict_class(pair)
    assume(klass is not None and _verdict_class(scaled) is klass)
    assume(all(float_info.min <= _steering(p).scale < math.inf for p in (pair, scaled)))
    assert _takes_two_steps(scaled) == _takes_two_steps(pair)


@given(st.sampled_from(GOLDEN), st.integers(0, 1),
       st.one_of(small_int, st.floats(min_value=0.1, max_value=10.0)), st.integers(-60, 60))
def test_escape_step_is_homogeneous(sys, line, r, k):
    """escape_step(pair, 2^k xi) is (u, 2^k l) for escape_step(pair, xi) =
    (u, l), from xi on a zero line; or both raise EscapeFailed."""
    pair = _pair(sys)
    assume(pair is not None and r != 0.0)
    lines = pair_lines(*pair.inputs, pair.tol).lines
    assume(line < len(lines))
    xi = Vec2(lines[line].x * r, lines[line].y * r)
    f = 2.0 ** k
    try:
        u, landing = escape_step(pair, xi)
    except EscapeFailed:
        with pytest.raises(EscapeFailed):
            escape_step(pair, Vec2(f * xi.x, f * xi.y))
        return
    assert escape_step(pair, Vec2(f * xi.x, f * xi.y)) == (u, Vec2(f * landing.x,
                                                                 f * landing.y))
