"""Plan synthesis: one-step solves, escape steps, the two-step construction,
and the verdict-honoring front end."""

import collections
import functools
import math

import numpy as np
import pytest

from bilin2 import (
    BilinearSystem,
    EscapeFailed,
    InExcludedSet,
    NotCanonicalClass,
    NotControllablePair,
    SingularSubstitution,
    SystemKind,
    TolerancePolicy,
    Vec2,
    VerdictClass,
    ZeroState,
    analyze,
    apply_reduction,
    canonical_steer,
    escape_step,
    one_step,
    plan_transfer,
    verify_plan,
)
from bilin2 import classify, mat2, quadform, steer, structure
import classify_golden
from exact import lands_within, share_left_null_direction
import plan_golden
from helpers import (generic_drift_system, generic_driftless_system, mat, pinned_nearly_system,
                     unit_vec, xy)


@pytest.fixture
def coupled_shift_system() -> BilinearSystem:
    """Inputs act on the first coordinate only; the drift feeds it back."""
    return BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [1.0, 2.0]]),
                          (mat([[1.0, 0.0], [0.0, 0.0]]),
                           mat([[0.0, 1.0], [0.0, 0.0]])))


def test_one_step_known_control(rotation_drift_system):
    u = one_step(rotation_drift_system, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0))
    assert u == (5.0, 16.0)


def test_one_step_fails_on_singular_state(rotation_drift_system):
    assert one_step(rotation_drift_system, Vec2(1.0, 1.0), Vec2(3.0, 4.0)) is None


def test_one_step_forms_its_system_again_only_at_a_power_of_two_other_than_one():
    reads = []

    class CountedMat2(mat2.Mat2):
        """A Mat2 that records each read of its a11 entry."""

        __slots__ = ()

        def __getattribute__(self, name):
            if name == "a11":
                reads.append(name)
            return super().__getattribute__(name)

    # q(z) = z1 z2: xi = (c, 0) is on a zero line, where det = 0 is not a
    # normal float.  sqrt(|B1|_F |B2|_F) |xi|_max = 2^(1/4) c lies in [1, 2)
    # at c = 1, so f = 1 and the one pass is the answer; at c = 2^-600 the
    # system is formed again from f xi = (1, 0).
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (CountedMat2(1.0, 0.0, 0.0, 1.0), mat([[0.0, 0.0], [0.0, 1.0]])))
    record = steer._steering(sys)
    assert record.scale == math.sqrt(2.0)
    answers = []
    for c, passes in ((1.0, 1), (2.0 ** -600, 2)):
        reads.clear()
        answers.append(steer._one_step(record, c, 0.0, 2.0 * c, 3.0 * c))
        assert len(reads) == passes
    assert answers == [None, None]


def test_one_step_requires_two_inputs(rotation_drift_system):
    sys = BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                         rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))
    with pytest.raises(ValueError, match="two-input"):
        one_step(sys, Vec2(1.0, 0.0), Vec2(0.0, 1.0))


def test_escape_step_prefers_the_drift_alone(rotation_drift_system):
    u, mid = escape_step(rotation_drift_system, Vec2(1.0, 1.0))
    assert u == (0.0, 0.0)
    assert xy(mid) == (-1.0, 1.0)


def test_escape_step_is_scale_free(rotation_drift_system):
    # The clearance test is dimensionless: the drift alone escapes at 2^-17
    # as it does at scale 1.
    f = 2.0 ** -17
    u, mid = escape_step(rotation_drift_system, Vec2(f, f))
    assert u == (0.0, 0.0)
    assert xy(mid) == (-f, f)


def test_escape_step_raises_when_no_landing_clears():
    # B2 xi = 0, so every landing t * B1 xi stays on the zero line x2 = 0.
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1.0, 0.0], [0.0, 0.0]]),
                          mat([[0.0, 0.0], [0.0, 1.0]])))
    with pytest.raises(EscapeFailed):
        escape_step(sys, Vec2(1.0, 0.0))


def test_escape_step_raises_when_the_form_scale_underflows():
    # |B1|_F |B2|_F = 1e-340 is zero in floats, and so is every coefficient
    # of the steering form: no landing clears, and none divides by zero.
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1e-170, 0.0], [0.0, 0.0]]), mat([[0.0, 0.0], [1e-170, 0.0]])),
                         tol=TolerancePolicy(1e-320))
    assert steer._steering(sys).scale == 0.0
    with pytest.raises(EscapeFailed):
        escape_step(sys, Vec2(1.0, 0.0))


def test_escape_step_rejects_a_round_off_landing(shared_line_drift_system):
    # Every image of a state on the excluded line (1, -1) stays on it, so no
    # landing clears; the axis crossing of its landing line is the origin,
    # which the replay reaches only up to round-off, and that does not count.
    with pytest.raises(EscapeFailed):
        escape_step(shared_line_drift_system, Vec2(193.55578438376392, -193.55578438376392))


def test_plan_transfer_escapes_as_without_drift_when_the_drift_image_is_lost():
    # A xi = (0, 2.7e-59) clears the zero set, but it is zero next to
    # |A|_F |xi|: the one step after it would meet the determinant floor.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 1.0], [2.705506379799038e-59, 0.0]]),
                         (mat([[0.0, 0.0], [0.0, 1.0]]), mat([[0.0, 1.0], [1.0, 0.0]])))
    xi, eta = Vec2(1.0, 0.0), Vec2(0.0, 1.0)
    plan = plan_transfer(sys, xi, eta)
    assert plan.steps[0] == (0.0, 1.0)
    assert verify_plan(sys, xi, eta, plan)[0]


def test_escape_step_lands_on_the_principal_axis():
    # q(z) = z1^2 - z1 z2 is largest next to |z|^2, at (1 + sqrt(2)) / 2, on
    # its principal axis.  From xi = (1, 1) the drift alone lands on the
    # zero line x1 = x2, and every landing is A xi + t B2 xi = (1, 1 + t):
    # B2 xi = (0, 1) is the longer image next to its input, |B2|_F = 1 against
    # |B1 xi| / |B1|_F = 2 / sqrt(6).
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[1.0, 0.0], [1.0, 0.0]]),
                         (mat([[1.0, -1.0], [0.0, 2.0]]), mat([[0.0, 0.0], [1.0, 0.0]])))
    u, mid = escape_step(sys, Vec2(1.0, 1.0))
    q = mid.x * mid.x - mid.x * mid.y
    assert u[0] == 0.0 and q / (mid.x ** 2 + mid.y ** 2) == pytest.approx((1 + math.sqrt(2)) / 2)


def test_escape_step_stops_short_of_a_far_axis_crossing():
    # q(z) = z1 z2 has its principal axis on (1, 1), and from xi = (1, 0) the
    # input image c = B1 xi = (1, 1) lies on it: the crossing of A xi + t c
    # with the axis is at infinity.  The landing stops at |t| = 2^10 |A xi| / |c|.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [1.0, 0.0]]),
                         (mat([[1.0, 0.0], [1.0, 0.0]]), mat([[0.0, 0.0], [0.0, 1.0]])))
    (t, u2), mid = escape_step(sys, Vec2(1.0, 0.0))
    assert u2 == 0.0 and abs(t) == pytest.approx(1024.0 / math.sqrt(2.0))
    clearance = mid.x * mid.y / (mid.x ** 2 + mid.y ** 2) / math.sqrt(2.0)
    assert clearance >= (1.0 - 2.0 ** -16) * 0.5 / math.sqrt(2.0)


def test_canonical_steer_places_second_coordinate_first(coupled_shift_system):
    plan = canonical_steer(coupled_shift_system, Vec2(1.0, 1.0), Vec2(4.0, 9.0))
    assert plan.steps == ((3.0, 0.0), (4.0 / 3.0, 0.0))
    ok, err = verify_plan(coupled_shift_system, Vec2(1.0, 1.0), Vec2(4.0, 9.0), plan)
    assert ok and err <= 1e-9


def test_canonical_steer_degenerate_target_branch(coupled_shift_system):
    # eta2 equals A22 * (A21 xi1 + A22 xi2): the first branch divides by zero,
    # the second one routes through a plain drift step
    plan = canonical_steer(coupled_shift_system, Vec2(1.0, 1.0), Vec2(5.0, 6.0))
    assert plan.steps == ((0.0, 0.0), (0.0, 5.0 / 3.0))
    ok, _ = verify_plan(coupled_shift_system, Vec2(1.0, 1.0), Vec2(5.0, 6.0), plan)
    assert ok


def test_canonical_steer_prestep_for_zero_first_coordinate(coupled_shift_system):
    xi, eta = Vec2(0.0, 1.0), Vec2(4.0, 9.0)
    plan = canonical_steer(coupled_shift_system, xi, eta)
    assert len(plan) == 3
    ok, err = verify_plan(coupled_shift_system, xi, eta, plan)
    assert ok, err


def test_canonical_steer_prestep_for_dead_feedback(coupled_shift_system):
    # A21 xi1 + A22 xi2 = 0: without a pre-step the second coordinate dies
    xi, eta = Vec2(1.0, -0.5), Vec2(4.0, 9.0)
    plan = canonical_steer(coupled_shift_system, xi, eta)
    assert len(plan) == 3
    ok, err = verify_plan(coupled_shift_system, xi, eta, plan)
    assert ok, err


def test_canonical_steer_rejects_driftless(swap_pair_system):
    with pytest.raises(NotCanonicalClass, match="drift"):
        canonical_steer(swap_pair_system, Vec2(1.0, 0.0), Vec2(0.0, 1.0))


def test_canonical_steer_rejects_pairs_without_shared_kernel(rotation_drift_system):
    with pytest.raises(NotCanonicalClass):
        canonical_steer(rotation_drift_system, Vec2(1.0, 0.0), Vec2(0.0, 1.0))


def test_canonical_steer_rejects_uncoupled_drift():
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 3.0], [0.0, 2.0]]),
                         (mat([[1.0, 0.0], [0.0, 0.0]]),
                          mat([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(NotCanonicalClass, match="coupling"):
        canonical_steer(sys, Vec2(1.0, 1.0), Vec2(2.0, 2.0))


def test_canonical_steer_rejects_zero_start(coupled_shift_system):
    with pytest.raises(ZeroState):
        canonical_steer(coupled_shift_system, Vec2(0.0, 0.0), Vec2(1.0, 1.0))


@pytest.mark.parametrize("k", [0, 24, 48])
def test_canonical_prestep_scales_with_the_drift(k):
    # From x1 = 0 the pre-step (0, c) is needed.  With c of the drift's size
    # the plan for (A, B) * 2^k is as well conditioned as for (A, B); with a
    # fixed c = 1 the replayed landing was lost in round-off at k = 24.
    f = 2.0 ** k
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [f, f]]),
                         (mat([[1.875 * f, -5.0 * f], [0.0, 0.0]]),
                          mat([[f, -3.0 * f], [0.0, 0.0]])))
    xi, eta = Vec2(0.0, 1.0), Vec2(0.0, 1.0)
    plan = canonical_steer(sys, xi, eta)
    assert len(plan) == 3
    assert lands_within(sys, xi, eta, plan.steps, 1e-8)


@pytest.mark.parametrize("steer_fn", [plan_transfer, canonical_steer])
def test_canonical_prestep_without_a_clearing_scale_is_verified_or_escape_failed(steer_fn):
    # Neither pre-step scale c in (1, 2) clears c*A21 + A22^2 at this tiny
    # coupling; the route must end in a documented answer, not StopIteration.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [-1.5e-9, 4.74e-5]]),
                         (mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [0.0, 0.0]])))
    xi, eta = Vec2(0.0, 1.0), Vec2(1.0, 1.0)
    try:
        plan = steer_fn(sys, xi, eta)
    except EscapeFailed:
        return
    ok, err = verify_plan(sys, xi, eta, plan)
    assert ok, err


def test_plan_transfer_escape_then_solve(rotation_drift_system):
    plan = plan_transfer(rotation_drift_system, Vec2(1.0, 1.0), Vec2(-11.0, -7.0))
    assert plan.steps == ((0.0, 0.0), (5.0, 16.0))
    ok, err = verify_plan(rotation_drift_system, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), plan)
    assert ok and err == 0.0


def test_plan_transfer_single_step_off_the_singular_set(rotation_drift_system):
    plan = plan_transfer(rotation_drift_system, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0))
    assert plan.steps == ((5.0, 16.0),)


def test_plan_transfer_nearly_controllable_single_step(shared_line_drift_system):
    xi = Vec2(1.0, 0.0)
    for eta in (Vec2(0.0, 1.0), Vec2(3.0, -4.0), Vec2(0.0, 0.0)):
        plan = plan_transfer(shared_line_drift_system, xi, eta)
        assert len(plan) == 1
        ok, err = verify_plan(shared_line_drift_system, xi, eta, plan)
        assert ok, err


def test_plan_transfer_refuses_excluded_start(shared_line_drift_system):
    for xi in (Vec2(1.0, -1.0), Vec2(4.0, -7.0), Vec2(-8.0, 14.0)):
        with pytest.raises(InExcludedSet, match="initial state in excluded set"):
            plan_transfer(shared_line_drift_system, xi, Vec2(1.0, 0.0))


def test_plan_transfer_refuses_uncontrollable(trapped_triangular_system):
    with pytest.raises(NotControllablePair):
        plan_transfer(trapped_triangular_system, Vec2(1.0, 1.0), Vec2(2.0, 2.0))


def test_plan_transfer_refuses_zero_endpoints_when_controllable(rotation_drift_system):
    with pytest.raises(ZeroState):
        plan_transfer(rotation_drift_system, Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    with pytest.raises(ZeroState):
        plan_transfer(rotation_drift_system, Vec2(1.0, 1.0), Vec2(0.0, 0.0))


def test_plan_transfer_routes_identically_vanishing_forms(coupled_shift_system):
    xi, eta = Vec2(2.0, 1.0), Vec2(-3.0, 5.0)
    plan = plan_transfer(coupled_shift_system, xi, eta)
    assert len(plan) <= 3
    ok, err = verify_plan(coupled_shift_system, xi, eta, plan)
    assert ok, err


def test_plan_transfer_driftless_escape():
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1.0, 1.0], [0.0, 1.0]]),
                          mat([[0.0, 1.0], [1.0, 0.0]])))
    xi = Vec2((math.sqrt(5.0) - 1.0) / 2.0, 1.0)  # on a zero line of the form
    eta = Vec2(1.0, 1.0)
    plan = plan_transfer(sys, xi, eta)
    assert len(plan) == 2
    ok, err = verify_plan(sys, xi, eta, plan)
    assert ok, err


def _escape_twice_system() -> BilinearSystem:
    # The effective pair diag(1, -1), [[0, 1], [-1, 0]] has the zero lines
    # x1 = x2 and x1 = -x2, and the drift and both inputs map the first onto
    # the second: no landing of one escape step leaves the singular set.
    return BilinearSystem(SystemKind.WITH_DRIFT, mat([[1.0, -2.0], [1.0, 0.0]]),
                          (mat([[1.0, 0.0], [0.0, -1.0]]), mat([[0.0, 1.0], [-1.0, 0.0]]),
                           mat([[1.0, 1.0], [0.0, 1.0]])))


def test_plan_transfer_escapes_twice_when_every_image_stays_singular():
    sys = _escape_twice_system()
    xi, eta = Vec2(1.0, 1.0), Vec2(2.0, -3.0)
    with pytest.raises(EscapeFailed):
        escape_step(apply_reduction(sys, analyze(sys).reduction), xi)
    plan = plan_transfer(sys, xi, eta)
    assert len(plan) == 3
    ok, err = verify_plan(sys, xi, eta, plan)
    assert ok, err


def test_plan_transfer_after_a_small_escape_landing():
    # The drift is small next to the inputs, so the escape lands on the
    # principal axis at (-5e-7, 5e-7), where det[B1 l, B2 l] = 2.5e-13 is
    # small but its clearance det / (|B1|_F |B2|_F |l|^2) = 0.35 is not: the
    # one step from the landing is the plan's second step.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [0.0, 1e-6]]),
                         (mat([[0.0, 1.0], [0.0, 1.0]]), mat([[0.0, 0.0], [-1.0, 0.0]])))
    xi, eta = Vec2(0.0, 1.0), Vec2(0.0, 1.0)
    u, landing = escape_step(sys, xi)
    assert xy(landing) == pytest.approx((-5e-7, 5e-7))
    plan = plan_transfer(sys, xi, eta)
    assert plan.steps == (u, one_step(sys, landing, eta))
    assert verify_plan(sys, xi, eta, plan) == (True, plan.residual)
    assert lands_within(sys, xi, eta, plan.steps, 1e-8)


def test_plan_transfer_on_small_inputs_that_share_no_null_direction():
    # Inputs of size 3e-5: every form coefficient is under the absolute floor
    # 1e-9, but the form's largest clearance is not zero, so the pair is not
    # canonical; the state sits on a zero line, and the plan escapes first.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [2.0 ** -18, 0.0]]),
                         (mat([[0.0, 2.0 ** -15], [0.0, 7.0 * 2.0 ** -18]]),
                          mat([[-3.0 * 2.0 ** -17, 0.0], [-3.0 * 2.0 ** -18, 0.0]])))
    xi, eta = Vec2(1.0, 0.0), Vec2(0.0, 1.0)
    assert not share_left_null_direction(*sys.inputs)
    plan = plan_transfer(sys, xi, eta)
    assert len(plan) == 2
    assert verify_plan(sys, xi, eta, plan) == (True, plan.residual)
    assert lands_within(sys, xi, eta, plan.steps, 1e-8)


def test_plan_transfer_where_the_one_step_numerators_overflow():
    # The escape lands on A xi = (1.37e154, 0).  The one step from there back
    # to xi has a finite control, but its Cramer numerators (eta - A x) x (B x)
    # pass the float range; it is formed again on the rescaled states.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.002], [0.0, 0.0]]),
                         (mat([[0.0, 0.0], [0.001, 0.0]]), mat([[0.002, 0.0], [0.0, 0.0]])))
    xi = Vec2(0.0, 6.86e156)
    plan = plan_transfer(sys, xi, xi)
    assert len(plan) == 2
    assert lands_within(sys, xi, xi, plan.steps, 1e-8)


def test_plan_transfer_route_reads_no_drift():
    # q(z) = 2^-540 x^2 clears under this tolerance, so the pair steps in one
    # step.  The one step from q's axis (1, 0) to the zero target would need
    # u2 = 1e150 / 2^-540, beyond the float range; the route must not ask for
    # it.  (1, 1) is off the zero line and the drift sends it to 0.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, 0.0], [1e150, -1e150]]),
                         (mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [2.0 ** -540, 0.0]])),
                         tol=TolerancePolicy(1e-200))
    assert analyze(sys).klass is VerdictClass.CONTROLLABLE
    assert steer._steering(sys).route == ((1.0, 0.0), False)
    plan = plan_transfer(sys, Vec2(1.0, 1.0), Vec2(1.0, 0.0))
    assert plan.steps == ((1.0, 0.0),) and plan.residual == 0.0


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="a control that comes out subnormal keeps too few bits "
                          "to land within the acceptance bound")
def test_plan_transfer_to_a_subnormal_target():
    # Nearly controllable, so no zero-state floor applies: the one step's
    # control 2.2250738585e-313 / 2048 = 1.09e-316 is subnormal, and the
    # replay misses by 4.5e-321, twice the bound 1e-8 |eta|.
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[0.0, 0.0], [0.0, 2048.0]]), mat([[0.0, 2048.0], [0.0, 0.0]])))
    xi, eta = Vec2(0.0, 1.0), Vec2(0.0, 2.2250738585e-313)
    assert analyze(sys).klass is VerdictClass.NEARLY_CONTROLLABLE
    plan = plan_transfer(sys, xi, eta)
    assert verify_plan(sys, xi, eta, plan)[0]


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="ROADMAP item 12: under a coarse tolerance the two-step "
                          "construction takes a left null direction that holds only "
                          "within the tolerance, and its miss is reported as a bug, "
                          "not refused")
def test_plan_transfer_under_a_coarse_tolerance(rotation_drift_system):
    # The README system under abs_eps 0.5: the two-step plan misses by 14.8.
    # A plan that lands, or a documented refusal, is the expected answer.
    sys = BilinearSystem(rotation_drift_system.kind, rotation_drift_system.drift,
                         rotation_drift_system.inputs, TolerancePolicy(0.5))
    xi, eta = Vec2(10.0, 10.0), Vec2(-110.0, -70.0)
    try:
        plan = plan_transfer(sys, xi, eta)
    except (EscapeFailed, InExcludedSet, NotCanonicalClass, SingularSubstitution, ZeroState):
        return
    assert verify_plan(sys, xi, eta, plan)[0]


def test_plan_transfer_expands_reduced_controls(rotation_drift_system):
    sys = BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                         rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))
    plan = plan_transfer(sys, Vec2(1.0, 1.0), Vec2(-11.0, -7.0))
    assert plan.steps == ((0.0, 0.0, 0.0), (5.0, 16.0, 0.0))
    ok, err = verify_plan(sys, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), plan)
    assert ok and err == 0.0


def test_plan_transfer_plans_on_badly_scaled_inputs():
    # Independent, controllable families whose inputs share the left null
    # direction e2.  The substitution matrix is tested by det over its column
    # norms, which scaling input i by s_i leaves as it is: the two-step
    # construction plans, with the unscaled controls u_i / s_i, also where
    # its determinant would be subnormal or zero without the column scaling.
    xi, eta = Vec2(1.3, 0.4), Vec2(1.7, -0.6)
    for drift, (t1, t2), scales in (
            ([[0.0, 0.0], [1.0, 0.0]], ((1.0, 0.0), (0.0, 1.0)), (1e-3, 1e-8)),
            ([[0.0, -1.0], [1.0, 0.0]], ((1.0, 1.0), (1.0, -1.0)), (1e-6, 1e6)),
            ([[0.0, 0.0], [1.0, 0.0]], ((1.0, 0.0), (0.0, 1.0)), (1e-160, 1e-300)),
            ([[0.0, -1.0], [1.0, 0.0]], ((1.0, 1.0), (1.0, -1.0)), (1e300, 1e-160))):
        def system(s1, s2):
            return BilinearSystem(SystemKind.WITH_DRIFT, mat(drift), (
                mat([[s1 * t1[0], s1 * t1[1]], [0.0, 0.0]]),
                mat([[s2 * t2[0], s2 * t2[1]], [0.0, 0.0]])))

        unit, sys = plan_transfer(system(1.0, 1.0), xi, eta), system(*scales)
        assert analyze(sys).klass is VerdictClass.CONTROLLABLE
        plan = plan_transfer(sys, xi, eta)
        assert lands_within(sys, xi, eta, plan.steps, 1e-8)
        assert len(plan) == len(unit)
        for u, v in zip(plan.steps, unit.steps):
            assert u == pytest.approx(tuple(vi / si for vi, si in zip(v, scales)), rel=1e-9)


def test_plan_transfer_raises_singular_substitution_between_two_ratio_tests():
    # Independence is decided on the family's rows divided by their norms in
    # R^4, the substitution matrix [[1, 1], [1, 1 + eps]] by det over its
    # column norms in R^2.  Below the threshold the two differ by up to
    # sqrt(2): here the last pivot is 1.13e-9 and the determinant ratio
    # 0.8e-9, so the family is valid and the construction refuses.
    a = mat([[0.0, 0.0], [1.0, 0.0]])
    sys = BilinearSystem(SystemKind.WITH_DRIFT, a, (mat([[1.0, 1.0], [0.0, 0.0]]),
                                                    mat([[1.0, 1.0 + 1.6e-9], [0.0, 0.0]])))
    assert analyze(sys).klass is VerdictClass.CONTROLLABLE
    with pytest.raises(SingularSubstitution):
        plan_transfer(sys, Vec2(1.3, 0.4), Vec2(1.7, -0.6))


def test_plan_outcomes_match_the_golden():
    # A fixed, standard-library set of requests over every branch of the plan
    # path, a quarter of them scaled by 2^k: each plan's steps and residual,
    # each escape step's control and landing, bit for bit, or the refusal.
    cases = plan_golden.cases()
    outcomes = [plan_golden.outcome(c) for c in cases]
    assert {c["branch"] for c in cases} == set(plan_golden.BRANCHES)
    assert [c["name"] for c, o in zip(cases, outcomes) if not plan_golden.shows(c, o)] == []
    assert plan_golden.mismatches() == []


def test_plan_transfer_random_controllable_systems():
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        sys = generic_drift_system(rng)
        if analyze(sys).klass is not VerdictClass.CONTROLLABLE:
            continue
        xi, eta = unit_vec(rng), unit_vec(rng)
        plan = plan_transfer(sys, xi, eta)
        assert len(plan) <= 3
        ok, err = verify_plan(sys, xi, eta, plan)
        assert ok, (sys, xi, eta, err)
        done += 1


_MODULES = (classify, mat2, quadform, steer, structure)


def _counting(monkeypatch, name: str) -> list:
    """Count calls of a library function, under every module's binding of it."""
    calls = []
    original = next(getattr(m, name) for m in _MODULES if hasattr(m, name))

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in _MODULES:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["rotation_drift_system", "coupled_shift_system",
                                  "shared_line_drift_system", "swap_pair_system",
                                  "escape_twice", "driftless4", "pinned_nearly"])
def test_plan_transfer_reduces_once_and_finds_no_zero_lines(name, request, monkeypatch):
    built = {"escape_twice": _escape_twice_system,
             "driftless4": lambda: generic_driftless_system(np.random.default_rng(7), m=4),
             "pinned_nearly": pinned_nearly_system}
    sys = built[name]() if name in built else request.getfixturevalue(name)
    reductions = _counting(monkeypatch, "apply_reduction")
    line_sets = _counting(monkeypatch, "_zero_lines")
    # The verdict comes first, reduces nothing and finds the zero lines at
    # most once.  The plans find none: the clearance of a state decides its
    # one step, and the clearance of the form's principal axis the route.
    analyze(sys)
    assert reductions == []
    found = len(line_sets)
    assert found <= 1
    rng = np.random.default_rng(3)
    for k in range(100):
        xi = Vec2(1.0, 1.0) if k % 10 == 0 else unit_vec(rng)
        try:
            plan = plan_transfer(sys, xi, unit_vec(rng))
        except InExcludedSet:
            continue
        assert plan.residual is not None
    assert len(reductions) <= 1
    assert len(line_sets) == found


def test_each_memo_runs_once_per_instance(request, monkeypatch):
    # Every per-instance memo of a system and of its steering data, counted
    # per instance through repeated analyze and plan_transfer calls on systems
    # whose plans take the one-step, canonical, nearly and reduced routes.
    memos = {name: memo for cls in (BilinearSystem, steer._Steering)
             for name, memo in vars(cls).items() if isinstance(memo, mat2._memo)}
    assert set(memos) == {"_verdict", "route", "canonical"}
    runs = []
    for name, memo in memos.items():
        def counted(obj, name=name, func=memo.func):
            runs.append((name, obj))
            return func(obj)

        monkeypatch.setattr(memo, "func", counted)
    systems = [request.getfixturevalue(name) for name in (
        "rotation_drift_system", "coupled_shift_system", "shared_line_drift_system")]
    systems += [_escape_twice_system(), pinned_nearly_system(),
                generic_driftless_system(np.random.default_rng(7), m=4)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        for sys in systems:
            analyze(sys)
            for xi in (Vec2(1.0, 0.0), Vec2(0.0, 1.0), unit_vec(rng)):
                try:
                    plan_transfer(sys, xi, unit_vec(rng))
                except InExcludedSet:
                    pass
    per_instance = [(name, id(obj)) for name, obj in runs]
    assert len(per_instance) == len(set(per_instance))
    assert {name for name, _ in runs} == set(memos)


@pytest.mark.parametrize("name", ["rotation_drift_system", "coupled_shift_system",
                                  "shared_line_drift_system", "swap_pair_system",
                                  "escape_twice", "driftless4", "pinned_nearly"])
def test_plan_transfer_builds_one_steering_record_per_system(name, request, monkeypatch):
    # The steering record is built on the first plan, kept on the system, and
    # read by every later plan; a reduced system's is of its effective pair,
    # which apply_reduction builds once.
    built = {"escape_twice": _escape_twice_system,
             "driftless4": lambda: generic_driftless_system(np.random.default_rng(7), m=4),
             "pinned_nearly": pinned_nearly_system}
    sys = built[name]() if name in built else request.getfixturevalue(name)
    records, init = [], steer._Steering.__init__

    def counted(self, system):
        records.append(system)
        init(self, system)

    monkeypatch.setattr(steer._Steering, "__init__", counted)
    reductions = _counting(monkeypatch, "apply_reduction")
    rng = np.random.default_rng(11)
    for _ in range(20):
        try:
            plan_transfer(sys, unit_vec(rng), unit_vec(rng))
        except InExcludedSet:
            pass
    assert len(records) == 1 and records[0] is sys
    assert vars(sys)["_steering"] is steer._steering(sys)
    assert len(reductions) == (sys.m != 2)


def test_pair_kernels_read_no_verdict(rotation_drift_system, coupled_shift_system):
    # one_step, escape_step and canonical_steer on a pair build its steering
    # record from the pair itself, never from its verdict.
    for sys in (rotation_drift_system, coupled_shift_system):
        one_step(sys, Vec2(-1.0, 1.0), Vec2(-11.0, -7.0))
        try:
            escape_step(sys, Vec2(1.0, 1.0))
            canonical_steer(sys, Vec2(1.0, 1.0), Vec2(4.0, 9.0))
        except (EscapeFailed, NotCanonicalClass):
            pass
        assert "_steering" in vars(sys) and "_verdict" not in vars(sys)


@pytest.mark.parametrize("name", ["shared_line_drift_system", "trapped_triangular_system",
                                  "pinned_nearly"])
def test_analyze_certifies_each_member_once_per_direction(name, request, monkeypatch):
    # The triangular forms are built on the direction common_real_eigenvector
    # has just certified, with no second residual test per member.  The
    # residual test runs on floats, in _invariant.
    sys = pinned_nearly_system() if name == "pinned_nearly" else request.getfixturevalue(name)
    checks = _counting(monkeypatch, "_invariant")
    verdict = analyze(sys)
    assert verdict.structure is not None and verdict.structure.common_eigenvector is not None
    pairs = [(m, (x, y)) for m, x, y, *_ in checks]
    assert pairs and len(pairs) == len(set(pairs))


def test_plan_residual_is_the_verify_plan_error_and_not_compared(rotation_drift_system):
    xi, eta = Vec2(0.3, -1.2), Vec2(2.0, 0.7)
    plan = plan_transfer(rotation_drift_system, xi, eta)
    assert plan.residual == verify_plan(rotation_drift_system, xi, eta, plan)[1]
    bare = type(plan)(plan.steps)
    assert bare.residual is None
    assert bare == plan and hash(bare) == hash(plan)


@pytest.mark.parametrize("fixture, xi, eta, expected", [
    ("shared_line_drift_system", Vec2(1.0, -1.0), Vec2(1.7, -0.6), InExcludedSet),
    ("rotation_drift_system", Vec2(1.0, 1.0), Vec2(-11.0, -7.0), 2),
    ("rotation_drift_system", Vec2(-1.0, 1.0), Vec2(-11.0, -7.0), 1),
])
def test_plan_transfer_builds_no_singular_matrix(fixture, xi, eta, expected, request,
                                                 monkeypatch):
    # A singular one-step system is a zero test that answers None: the
    # excluded-set refusal and the escape route raise and catch nothing.
    sys = request.getfixturevalue(fixture)
    analyze(sys)
    made = []

    def counting_init(self, *args):
        made.append(args)
        ValueError.__init__(self, *args)

    monkeypatch.setattr(mat2.SingularMatrix, "__init__", counting_init)
    if isinstance(expected, int):
        assert len(plan_transfer(sys, xi, eta)) == expected
    else:
        with pytest.raises(expected):
            plan_transfer(sys, xi, eta)
    assert made == []
    with pytest.raises(mat2.SingularMatrix):   # the counter sees the ones that are built
        mat2.solve2(mat2.Mat2(1.0, 2.0, 2.0, 4.0), Vec2(1.0, 1.0))
    assert len(made) == 1


# The scale probe: the unscaled classify-golden families with every input
# times 2^k, planned from (1.3, 0.4) to (1.7, -0.6) and compared with k = 0.
PROBE_EXPONENTS = (-900, -540, 510, 520, 900)


@functools.cache
def _scale_probe() -> dict:
    """For k = 0 and each probe exponent, each family's (class, plan outcome):
    the class value, or the type name of what ingestion or analyze raised;
    plan{n} for a plan of n steps, or the type name of what plan_transfer raised."""
    families = [f for f in classify_golden.families() if ".2^" not in f["name"]]
    table = {}
    for k in (0,) + PROBE_EXPONENTS:
        rows = []
        for f in families:
            kind = SystemKind.WITH_DRIFT if f["kind"] == "drift" else SystemKind.DRIFTLESS
            try:
                sys = BilinearSystem(kind, f["drift"] and mat2.Mat2(*f["drift"]),
                                     tuple(mat2.Mat2(*(e * 2.0 ** k for e in b))
                                           for b in f["inputs"]))
                klass = analyze(sys).klass.value
            except Exception as exc:  # the row records which one
                rows.append((type(exc).__name__, None))
                continue
            try:
                plan = f"plan{len(plan_transfer(sys, Vec2(1.3, 0.4), Vec2(1.7, -0.6)))}"
            except Exception as exc:  # the row records which one
                plan = type(exc).__name__
            rows.append((klass, plan))
        table[k] = rows
    assert len(table[0]) == 282
    return table


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the anti-diagonal certificate's basis puts "
                          "-det B1 in the canonical forms, which overflows from inputs "
                          "near 1e154 up (14 families at 2^520 and 2^900)")
def test_scaling_the_inputs_keeps_every_verdict():
    table = _scale_probe()
    changed = {k: sum(v != v0 for (v, _), (v0, _) in zip(table[k], table[0]))
               for k in PROBE_EXPONENTS}
    assert changed == dict.fromkeys(PROBE_EXPONENTS, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the plan path reads the raw inputs, so "
                          "|B1|_F |B2|_F and the steering form over- or underflow")
def test_scaling_the_inputs_keeps_every_plan_outcome():
    # Compared where the verdict holds; each row counts the new outcomes.
    table = _scale_probe()
    changed = {k: collections.Counter(p for (v, p), (v0, p0) in zip(table[k], table[0])
                                      if v == v0 and p != p0)
               for k in PROBE_EXPONENTS}
    assert changed == {k: collections.Counter() for k in PROBE_EXPONENTS}
