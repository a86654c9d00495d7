"""Plan replay, verification, and the Monte-Carlo reachability probe."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bilin2 import (
    ArityMismatch,
    BilinearSystem,
    ControlPlan,
    Mat2,
    OracleReport,
    SystemKind,
    Vec2,
    reachability_oracle,
    run,
    step,
    verify_plan,
)
from bilin2.mat2 import canonical_direction
from bilin2.simulate import line_hits

ROTATION = Mat2(0.0, -1.0, 1.0, 0.0)
README_INPUTS = (Mat2(1.0, -1.0, 0.0, 2.0), Mat2(0.0, 0.0, 1.0, 0.0))
README = BilinearSystem(SystemKind.WITH_DRIFT, ROTATION, README_INPUTS)
TRAPPED = BilinearSystem(SystemKind.WITH_DRIFT, Mat2(1.0, 2.0, 0.0, 3.0),
                         (Mat2(1.0, 1.0, 0.0, 0.0), Mat2(0.0, 1.0, 0.0, 0.0)))
SHARED_LINE = BilinearSystem(SystemKind.WITH_DRIFT, Mat2(5.0, 3.0, -4.0, -2.0),
                             (Mat2(0.0, -1.0, 2.0, 3.0), Mat2(7.0, 1.0, -1.0, 5.0)))
# One system per kernel shape: drift with m = 2 and 3, driftless with m = 2 and 4.
KERNEL_SYSTEMS = {
    "drift2": README,
    "drift3": BilinearSystem(SystemKind.WITH_DRIFT, ROTATION,
                             README_INPUTS + (Mat2(1.5, 0.5, 0.0, -0.25),)),
    "driftless2": BilinearSystem(SystemKind.DRIFTLESS, None,
                                 (Mat2(-1.0, 0.0, 3.0, 1.0), Mat2(4.0, 3.0, -6.0, -4.0))),
    "driftless4": BilinearSystem(SystemKind.DRIFTLESS, None,
                                 (Mat2(1.0, 2.0, 0.0, -1.0), Mat2(0.0, 1.0, 3.0, 0.0),
                                  Mat2(2.0, 0.0, 1.0, 1.0), Mat2(0.5, -1.0, 1.0, 0.25))),
}


def test_control_plan_coerces_to_float():
    plan = ControlPlan(((1, 2), (0, -3)))
    assert plan.steps == ((1.0, 2.0), (0.0, -3.0))
    assert all(isinstance(c, float) for u in plan.steps for c in u)
    assert len(plan) == 2


def test_control_plan_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ControlPlan(((1.0, float("nan")),))


def test_step_known_transitions(rotation_drift_system):
    assert step(rotation_drift_system, Vec2(1.0, 1.0), (0.0, 0.0)) == Vec2(-1.0, 1.0)
    assert step(rotation_drift_system, Vec2(-1.0, 1.0), (5.0, 16.0)) == Vec2(-11.0, -7.0)


def test_step_checks_arity(rotation_drift_system):
    with pytest.raises(ArityMismatch, match="expected 2"):
        step(rotation_drift_system, Vec2(1.0, 0.0), (1.0,))


def test_run_collects_every_state(rotation_drift_system):
    plan = ControlPlan(((0.0, 0.0), (5.0, 16.0)))
    states = run(rotation_drift_system, Vec2(1.0, 1.0), plan)
    assert states == (Vec2(1.0, 1.0), Vec2(-1.0, 1.0), Vec2(-11.0, -7.0))


def test_trapped_line_is_exactly_invariant(trapped_triangular_system):
    x = Vec2(1.0, 0.0)
    for _ in range(50):
        x = step(trapped_triangular_system, x, (0.7, -1.3))
        assert x.y == 0.0


def test_second_coordinate_recursion_is_exact(trapped_triangular_system):
    # with zero bottom rows in every input, x2 evolves as a22 * x2 bit for bit
    a22 = trapped_triangular_system.drift.a22
    plan = ControlPlan(((0.4, 2.0), (-1.1, 0.3), (2.5, -0.7)))
    states = run(trapped_triangular_system, Vec2(0.3, 0.7), plan)
    for before, after in zip(states, states[1:]):
        assert after.y == a22 * before.y


def test_verify_plan_exact_hit(rotation_drift_system):
    plan = ControlPlan(((0.0, 0.0), (5.0, 16.0)))
    ok, err = verify_plan(rotation_drift_system, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), plan)
    assert ok and err == 0.0


def test_verify_plan_flags_a_miss(rotation_drift_system):
    plan = ControlPlan(((0.0, 0.0), (5.0, 16.1)))
    ok, err = verify_plan(rotation_drift_system, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), plan)
    assert not ok
    assert err == pytest.approx(0.1)


def test_verify_plan_rejects_a_miss_that_overflows(rotation_drift_system):
    plan = ControlPlan(((0.0, 0.0),))
    ok, err = verify_plan(rotation_drift_system, Vec2(1.0, 1.0), Vec2(1.7e308, 1.7e308), plan)
    assert (ok, err) == (False, math.inf)


def test_verify_plan_bound_stays_finite_when_the_reach_overflows():
    # The step 1e10 * [[1, 1], [1, 1]] maps xi = (1e298, -1e298) to 0 exactly,
    # while |M|_F |xi| = 2.8e308 overflows.  The bound is capped at 1e-8 times
    # the largest float: a miss of 1.4 passes, one of 1e305 does not.
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (Mat2(1.0, 1.0, 1.0, 1.0), Mat2(1.0, 0.0, 0.0, -1.0)))
    xi, plan = Vec2(1e298, -1e298), ControlPlan(((1e10, 0.0),))
    assert verify_plan(sys, xi, Vec2(1.0, 1.0), plan) == (True, math.sqrt(2.0))
    assert verify_plan(sys, xi, Vec2(1e305, 0.0), plan) == (False, 1e305)


@pytest.mark.parametrize("k", [-60, -20, 0, 20, 60])
def test_verify_plan_bound_scales_with_the_states(rotation_drift_system, k):
    # The bound is 1e-8 * max(|eta|, |M|_F |x|): a relative miss of 1e-7 is
    # rejected and one of 1e-9 accepted at every scale.
    f = 2.0 ** k
    xi, plan = Vec2(f, f), ControlPlan(((0.0, 0.0), (5.0, 16.0)))
    for rel, accepted in ((1e-7, False), (1e-9, True)):
        eta = Vec2(-11.0 * f * (1.0 + rel), -7.0 * f)
        assert verify_plan(rotation_drift_system, xi, eta, plan)[0] is accepted


def test_verify_plan_empty_plan(rotation_drift_system):
    empty = ControlPlan(())
    ok, err = verify_plan(rotation_drift_system, Vec2(2.0, 3.0), Vec2(2.0, 3.0), empty)
    assert ok and err == 0.0
    ok, _ = verify_plan(rotation_drift_system, Vec2(2.0, 3.0), Vec2(2.0, 4.0), empty)
    assert not ok


def test_oracle_is_deterministic(rotation_drift_system):
    first = reachability_oracle(rotation_drift_system, Vec2(1.0, 1.0), trials=40)
    second = reachability_oracle(rotation_drift_system, Vec2(1.0, 1.0), trials=40)
    assert first == second
    other_seed = reachability_oracle(rotation_drift_system, Vec2(1.0, 1.0),
                                     trials=40, seed=7)
    assert other_seed.samples != first.samples


def test_oracle_sees_the_full_plane(rotation_drift_system):
    report = reachability_oracle(rotation_drift_system, Vec2(1.0, 1.0), trials=300)
    assert isinstance(report, OracleReport)
    assert len(report.samples) == 300
    assert report.covariance_rank == 2


def test_oracle_sees_the_trapped_line(trapped_triangular_system):
    report = reachability_oracle(trapped_triangular_system, Vec2(1.0, 0.0), trials=300)
    assert all(s.y == 0.0 for s in report.samples)
    assert report.covariance_rank == 1


def test_oracle_rejects_empty_runs(rotation_drift_system):
    with pytest.raises(ValueError, match="trials"):
        reachability_oracle(rotation_drift_system, Vec2(1.0, 1.0), trials=0)


def _oracle_plan(sys, seed, trials, t) -> ControlPlan:
    """Trial t's plan, read from the oracle's documented draw layout."""
    m = sys.m
    row = np.random.default_rng(seed).random((trials, 1 + 3 * m))[t]
    length = 1 + int(3.0 * row[0])
    return ControlPlan(tuple(tuple(-3.0 + 6.0 * row[1 + k * m:1 + (k + 1) * m])
                             for k in range(length)))


def _bits(v: Vec2) -> tuple[str, str]:
    return v.x.hex(), v.y.hex()


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_oracle_samples_are_step_replays_bit_for_bit(name):
    sys, xi, trials, seed = KERNEL_SYSTEMS[name], Vec2(0.3, -0.7), 300, 11
    report = reachability_oracle(sys, xi, trials, seed=seed)
    lengths = set()
    for t in range(0, trials, 7):
        plan = _oracle_plan(sys, seed, trials, t)
        lengths.add(len(plan))
        assert _bits(run(sys, xi, plan)[-1]) == _bits(report.samples[t]), t
    assert lengths == {1, 2, 3}


def test_oracle_samples_behave_like_constructed_vectors():
    # The samples are built in bulk, without a constructor call each.
    samples = reachability_oracle(README, Vec2(0.3, -0.7), 60, seed=5).samples
    assert type(samples) is tuple and len(samples) == 60
    for s in samples:
        assert type(s) is Vec2 and not hasattr(s, "__dict__")
        built = Vec2(s.x, s.y)
        assert s == built and hash(s) == hash(built)
        for name in ("x", "y"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s == built
        assert copy.deepcopy(s) == s
        assert pickle.loads(pickle.dumps(s, protocol=0)) == s


def test_oracle_cloud_of_fewer_trials_is_a_prefix(shared_line_drift_system):
    xi = Vec2(0.8, 0.3)
    short = reachability_oracle(shared_line_drift_system, xi, 25, seed=3)
    long = reachability_oracle(shared_line_drift_system, xi, 1000, seed=3)
    assert short.samples == long.samples[:25]


@given(st.sampled_from([(README, Vec2(1.3, 0.4), 2), (TRAPPED, Vec2(1.0, 0.0), 1),
                        (SHARED_LINE, Vec2(1.0, -1.0), 1), (SHARED_LINE, Vec2(0.8, 0.3), 2)]),
       st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
@example((README, Vec2(1.3, 0.4), 2), -20, 42)
def test_oracle_rank_does_not_depend_on_the_scale_of_the_start(case, k, seed):
    # A power of two scales every sample exactly, so the rank must not move.
    sys, xi, rank = case
    scaled = Vec2(xi.x * 2.0 ** k, xi.y * 2.0 ** k)
    assert reachability_oracle(sys, xi, 200, seed=seed).covariance_rank == rank
    assert reachability_oracle(sys, scaled, 200, seed=seed).covariance_rank == rank


def test_oracle_rank_survives_huge_finite_clouds():
    report = reachability_oracle(README, Vec2(1e200, 1e200), 1000)
    assert max(s.norm() for s in report.samples) > 1e200
    assert report.covariance_rank == 2


def test_oracle_overflow_raises_value_error_without_warnings():
    # Inputs scaled by 1e4 push every plan from 1e300 past the largest float;
    # on the unscaled system the same start stays finite.
    loud = BilinearSystem(SystemKind.WITH_DRIFT, ROTATION,
                          tuple(Mat2(*(1e4 * e for e in (b.a11, b.a12, b.a21, b.a22)))
                                for b in README_INPUTS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite"):
            reachability_oracle(loud, Vec2(1e300, 1e300), 1000)
    assert caught == []


def test_oracle_rank_of_a_single_point_is_zero():
    assert reachability_oracle(README, Vec2(0.0, 0.0), 50).covariance_rank == 0
    assert reachability_oracle(README, Vec2(1.0, 0.0), 1).covariance_rank == 0


def test_line_hits_counts_samples_on_a_line_and_the_origin(shared_line_drift_system):
    lines = (canonical_direction(Vec2(1.0, -1.0)),)
    samples = (Vec2(2.0, -2.0), Vec2(0.0, 0.0), Vec2(1.0, -1.0 + 1e-6), Vec2(-3.0, 3.0))
    assert line_hits(shared_line_drift_system, samples, lines) == 3
    assert line_hits(shared_line_drift_system, samples, ()) == 1
