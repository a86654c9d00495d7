"""Verdicts, excluded sets, reductions, and their invariance under conjugation."""

import copy
import pickle

import numpy as np
import pytest

from bilin2 import (
    BilinearSystem,
    ControlPlan,
    FormClass,
    InvalidSystem,
    LineSetKind,
    Mat2,
    Reduction,
    SystemKind,
    Vec2,
    VerdictClass,
    analyze,
    apply_reduction,
    plan_transfer,
)
from bilin2 import mat2, structure
from bilin2.classify import expand_controls
from bilin2.mat2 import canonical_direction
from helpers import (
    assert_lines_match,
    conjugate_system,
    generic_drift_system,
    line_gap,
    mat,
    random_similarity,
    triangular_drift_system,
)


def test_system_requires_matching_kind_and_drift():
    b = (Mat2.identity(), mat([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, None, b)
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.DRIFTLESS, Mat2.identity(), b)


def test_system_input_count_bounds():
    ms = [mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [0.0, 0.0]]),
          mat([[0.0, 0.0], [1.0, 0.0]]), mat([[0.0, 0.0], [0.0, 1.0]])]
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, Mat2.identity(), ms[:1])
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, 2.0 * Mat2.identity(), ms)
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.DRIFTLESS, None, ms[:1])
    # four driftless inputs are allowed
    assert BilinearSystem(SystemKind.DRIFTLESS, None, ms).m == 4


def test_system_rejects_dependent_family():
    b1 = mat([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InvalidSystem, match="linearly dependent"):
        BilinearSystem(SystemKind.DRIFTLESS, None, (b1, 2.0 * b1))
    with pytest.raises(InvalidSystem, match="linearly dependent"):
        BilinearSystem(SystemKind.WITH_DRIFT, b1, (b1 * 0.5, Mat2.identity()))


def test_matrices_lists_drift_first(rotation_drift_system):
    ms = rotation_drift_system.matrices()
    assert ms[0] is rotation_drift_system.drift
    assert ms[1:] == rotation_drift_system.inputs


def test_analyze_controllable(rotation_drift_system):
    verdict = analyze(rotation_drift_system)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    assert verdict.excluded_initial is None
    assert verdict.largest_region is None
    assert verdict.structure is None
    assert verdict.reduction.is_identity()


def test_analyze_nearly_controllable_shared_line(shared_line_drift_system):
    verdict = analyze(shared_line_drift_system)
    assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
    assert verdict.largest_region is None
    assert verdict.structure.form_class is FormClass.UPPER_TRIANGULAR
    assert line_gap(verdict.structure.common_eigenvector,
                    canonical_direction(Vec2(1.0, -1.0))) <= 1e-12
    lu = verdict.excluded_initial
    assert lu.kind is LineSetKind.TWO_LINES
    assert_lines_match(lu.lines, [(1.0, -1.0), (4.0, -7.0)], tol_angle=1e-9)


def test_analyze_nearly_controllable_swap_pair(swap_pair_system):
    verdict = analyze(swap_pair_system)
    assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
    assert verdict.structure.form_class is FormClass.ANTI_DIAGONAL
    assert_lines_match(verdict.excluded_initial.lines, [(1.0, -1.0), (-1.0, 2.0)],
                       tol_angle=1e-9)


@pytest.mark.parametrize("s", [1.0, 1e6])
def test_scaled_antidiagonal_pair_keeps_its_excluded_lines(s):
    # At s = 1e6 the basis column b1 @ v is 1e6 times longer than v; a
    # homogeneous family must keep its verdict and lines under that scaling.
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[0.0, -s], [0.0, 0.0]]),
                          mat([[-2.0 * s, 2.0 * s], [-2.0 * s, 2.0 * s]])))
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
    assert verdict.structure.form_class is FormClass.ANTI_DIAGONAL
    assert_lines_match(verdict.excluded_initial.lines, [(1.0, 0.0), (1.0, 1.0)],
                       tol_angle=1e-9)


def test_analyze_uncontrollable(trapped_triangular_system):
    verdict = analyze(trapped_triangular_system)
    assert verdict.klass is VerdictClass.UNCONTROLLABLE
    assert verdict.excluded_initial is None
    assert verdict.largest_region.vector.as_tuple() == (1.0, 0.0)
    assert verdict.structure.form_class is FormClass.UPPER_TRIANGULAR


def test_uncontrollable_verdict_survives_conjugation(trapped_triangular_system):
    rng = np.random.default_rng(3)
    p = random_similarity(rng)
    conj = conjugate_system(trapped_triangular_system, p)
    verdict = analyze(conj)
    assert verdict.klass is VerdictClass.UNCONTROLLABLE
    mapped = canonical_direction(p @ Vec2(1.0, 0.0))
    assert line_gap(verdict.largest_region, mapped) <= 1e-9


def test_driftless_three_input_reduction_pins_drift_input():
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1.0, -1.0], [0.0, 2.0]]),
                          mat([[0.0, 0.0], [1.0, 0.0]]),
                          mat([[0.0, 1.0], [0.0, 0.0]])))
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    red = verdict.reduction
    assert red.pinned_index == 0 and red.pinned_value == 1.0
    assert red.combined_indices is None
    eff = apply_reduction(sys, red)
    assert eff.kind is SystemKind.WITH_DRIFT
    assert eff.drift.rows() == sys.inputs[0].rows()
    assert eff.inputs == sys.inputs[1:]
    assert expand_controls(red, 3, 5.0, 7.0) == (1.0, 5.0, 7.0)


def test_driftless_four_input_reduction_pins_and_combines():
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1.0, -1.0], [0.0, 2.0]]),
                          mat([[0.0, 0.0], [1.0, 0.0]]),
                          mat([[0.0, 1.0], [0.0, 0.0]]),
                          mat([[1.0, 0.0], [0.0, 1.0]])))
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    red = verdict.reduction
    assert red.pinned_index == 0 and red.pinned_value == 1.0
    assert red.combined_indices == (2, 3)
    ca, cb = red.combined_coeffs
    eff = apply_reduction(sys, red)
    assert eff.m == 2
    assert eff.inputs[1].rows() == (ca * sys.inputs[2] + cb * sys.inputs[3]).rows()
    assert expand_controls(red, 4, 5.0, 7.0) == (1.0, 5.0, ca * 7.0, cb * 7.0)


def test_drift_three_input_reduction_combines_last_two(rotation_drift_system):
    sys = BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                         rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    red = verdict.reduction
    assert red.pinned_index is None
    assert red.combined_indices == (1, 2)
    assert red.combined_coeffs == (1.0, 0.0)
    assert expand_controls(red, 3, 5.0, 16.0) == (5.0, 16.0, 0.0)


def test_driftless_three_input_nearly_pins_at_zero():
    sys = BilinearSystem(SystemKind.DRIFTLESS, None,
                         (mat([[1.0, 2.0], [0.0, 1.0]]),
                          mat([[0.0, 1.0], [0.0, 2.0]]),
                          mat([[2.0, -1.0], [0.0, 0.0]])))
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
    red = verdict.reduction
    assert red.pinned_index == 2 and red.pinned_value == 0.0
    assert_lines_match(verdict.excluded_initial.lines, [(1.0, 0.0), (3.0, -2.0)],
                       tol_angle=1e-9)
    assert expand_controls(red, 3, 4.0, 9.0) == (4.0, 9.0, 0.0)


def test_apply_reduction_identity_requires_two_inputs(rotation_drift_system):
    sys = BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                         rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))
    with pytest.raises(InvalidSystem):
        apply_reduction(sys, Reduction())


def test_excluded_set_only_for_nearly(rotation_drift_system,
                                      shared_line_drift_system,
                                      trapped_triangular_system):
    assert analyze(shared_line_drift_system).excluded_initial.kind is LineSetKind.TWO_LINES
    assert analyze(rotation_drift_system).excluded_initial is None
    assert analyze(trapped_triangular_system).excluded_initial is None


def test_verdict_class_is_similarity_invariant():
    rng = np.random.default_rng(29)
    for i in range(40):
        if i % 3 == 0:
            sys = generic_drift_system(rng)
        elif i % 3 == 1:
            sys = triangular_drift_system(rng, bottom_right=(1.0, 0.5))
        else:
            sys = triangular_drift_system(rng, bottom_right=(0.0, 0.0))
        p = random_similarity(rng)
        base = analyze(sys)
        conj = analyze(conjugate_system(sys, p))
        assert conj.klass is base.klass
        if base.excluded_initial is not None:
            mapped = [canonical_direction(p @ d.vector)
                      for d in base.excluded_initial.lines]
            assert_lines_match(conj.excluded_initial.lines, mapped, tol_angle=1e-6)
        if base.largest_region is not None:
            mapped = canonical_direction(p @ base.largest_region.vector)
            assert line_gap(conj.largest_region, mapped) <= 1e-6


def test_analyze_computes_the_verdict_once_per_system(shared_line_drift_system):
    sys = shared_line_drift_system
    assert analyze(sys) is analyze(sys)


@pytest.mark.parametrize("kind", [SystemKind.WITH_DRIFT, SystemKind.DRIFTLESS])
def test_analyze_computes_eigen_directions_once(kind, monkeypatch):
    # a and b1 share both axes; b2 keeps the first and b3 the second, so the
    # combination has to try all three coefficient pairs.
    a, b1 = mat([[1.0, 0.0], [0.0, 2.0]]), mat([[0.0, 0.0], [0.0, 1.0]])
    b2, b3 = mat([[1.0, 1.0], [0.0, 0.0]]), mat([[0.0, 0.0], [1.0, 0.0]])
    if kind is SystemKind.WITH_DRIFT:
        sys = BilinearSystem(kind, a, (b1, b2, b3))
    else:
        sys = BilinearSystem(kind, None, (a, b1, b2, b3))
    calls = []
    original = mat2.real_eigen_directions

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (mat2, structure):
        monkeypatch.setattr(module, "real_eigen_directions", counted)
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    assert verdict.reduction.combined_coeffs == (1.0, 1.0)
    assert calls == [(a, sys.tol)]


def test_equal_systems_get_equal_verdicts(shared_line_drift_system, swap_pair_system,
                                          trapped_triangular_system, rotation_drift_system):
    for sys in (shared_line_drift_system, swap_pair_system, trapped_triangular_system,
                rotation_drift_system):
        twin = BilinearSystem(sys.kind, sys.drift, tuple(sys.inputs), sys.tol)
        assert twin is not sys
        assert analyze(twin) == analyze(sys)


def test_analyze_keeps_equality_hash_and_repr(rotation_drift_system):
    sys = rotation_drift_system
    twin = BilinearSystem(sys.kind, sys.drift, sys.inputs, sys.tol)
    before = (hash(sys), repr(sys))
    analyze(sys)
    plan_transfer(sys, Vec2(1.0, 1.0), Vec2(-11.0, -7.0))
    assert (hash(sys), repr(sys)) == before
    assert sys == twin and twin == sys


def test_values_survive_copy_and_pickle(shared_line_drift_system):
    sys = shared_line_drift_system
    analyze(sys)
    plan = plan_transfer(sys, Vec2(1.0, 1.0), Vec2(-11.0, -7.0))
    for value in (Vec2(1.5, -2.0), Mat2(1.0, -2.0, 0.5, 3.0), ControlPlan(((1.0, 2.0),)),
                  plan, sys):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value
    assert analyze(pickle.loads(pickle.dumps(sys))) == analyze(sys)
