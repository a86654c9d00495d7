"""Verdicts, excluded sets, reductions, and their invariance under conjugation."""

import ast
import copy
from fractions import Fraction
import math
import pickle
import sys as sys_module
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bilin2 import (
    DEFAULT_TOL,
    BilinearSystem,
    ControlPlan,
    EscapeFailed,
    FormClass,
    InExcludedSet,
    InvalidSystem,
    LineSetKind,
    Mat2,
    NotCanonicalClass,
    Reduction,
    SingularSubstitution,
    SystemKind,
    Vec2,
    VerdictClass,
    ZeroState,
    analyze,
    apply_reduction,
    plan_transfer,
)
from bilin2 import classify, mat2, steer, structure
from bilin2.classify import expand_controls
from bilin2.mat2 import canonical_direction
import classify_golden
from helpers import (
    assert_lines_match,
    conjugate_system,
    generic_drift_system,
    generic_driftless_system,
    lincomb,
    line_gap,
    mat,
    pinned_nearly_system,
    random_similarity,
    rotation,
    triangular_drift_system,
    xy,
)


def test_system_requires_matching_kind_and_drift():
    b = (Mat2(1.0, 0.0, 0.0, 1.0), mat([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, None, b)
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.DRIFTLESS, Mat2(1.0, 0.0, 0.0, 1.0), b)


@pytest.mark.parametrize("kind", ["driftless", "drift", None, 1, SystemKind])
def test_system_requires_a_system_kind(kind):
    # Any other kind used to pass as driftless and match neither kind in the
    # classifier: this trace-free swap pair came out controllable.
    swap = (mat([[-1.0, 0.0], [3.0, 1.0]]), mat([[4.0, 3.0], [-6.0, -4.0]]))
    with pytest.raises(InvalidSystem, match="kind must be a SystemKind"):
        BilinearSystem(kind, None, swap)
    assert analyze(BilinearSystem(SystemKind.DRIFTLESS, None, swap)).klass is (
        VerdictClass.NEARLY_CONTROLLABLE)


@pytest.mark.parametrize("drift, inputs", [
    (None, ("a", "b")),
    ([[1.0, 0.0], [0.0, 1.0]], (mat([[1.0, -1.0], [0.0, 2.0]]), mat([[0.0, 0.0], [1.0, 0.0]]))),
], ids=["inputs", "drift"])
def test_system_refuses_a_member_that_is_not_a_mat2(drift, inputs):
    # Such a member used to leak AttributeError from the independence test.
    kind = SystemKind.DRIFTLESS if drift is None else SystemKind.WITH_DRIFT
    with pytest.raises(InvalidSystem, match="must be a Mat2"):
        BilinearSystem(kind, drift, inputs)


@pytest.mark.parametrize("inputs, tol, match", [
    (None, DEFAULT_TOL, "inputs must be an iterable of Mat2"),
    (5, DEFAULT_TOL, "inputs must be an iterable of Mat2"),
    ((mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [0.0, 0.0]])), 1e-9,
     "tol must be a TolerancePolicy"),
    ((mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [0.0, 0.0]])), None,
     "tol must be a TolerancePolicy"),
], ids=["inputs-None", "inputs-int", "tol-float", "tol-None"])
def test_system_refuses_a_malformed_input_list_or_tolerance(inputs, tol, match):
    # These used to leak TypeError from tuple(inputs) and AttributeError from
    # the independence test.
    with pytest.raises(InvalidSystem, match=match):
        BilinearSystem(SystemKind.DRIFTLESS, None, inputs, tol)


def test_system_input_count_bounds():
    ms = [mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 1.0], [0.0, 0.0]]),
          mat([[0.0, 0.0], [1.0, 0.0]]), mat([[0.0, 0.0], [0.0, 1.0]])]
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, Mat2(1.0, 0.0, 0.0, 1.0), ms[:1])
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, Mat2(2.0, 0.0, 0.0, 2.0), ms)
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.DRIFTLESS, None, ms[:1])
    # four driftless inputs are allowed
    assert BilinearSystem(SystemKind.DRIFTLESS, None, ms).m == 4


def test_system_rejects_dependent_family():
    b1 = mat([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InvalidSystem, match="linearly dependent"):
        BilinearSystem(SystemKind.DRIFTLESS, None, (b1, mat([[2.0, 4.0], [6.0, 8.0]])))
    with pytest.raises(InvalidSystem, match="linearly dependent"):
        BilinearSystem(SystemKind.WITH_DRIFT, b1, (mat([[0.5, 1.0], [1.5, 2.0]]), Mat2(1.0, 0.0, 0.0, 1.0)))


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
    assert xy(verdict.largest_region) == (1.0, 0.0)
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
    assert eff.inputs[1] == lincomb(ca, sys.inputs[2], cb, sys.inputs[3])
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


# One system per reduction shape, each with the reduction analyze gives it and
# where v1 and v2 go: "v1", "v2", a pinned value, or "ca"/"cb" times v2.
_ROTATION_PAIR = (mat([[1.0, -1.0], [0.0, 2.0]]), mat([[0.0, 0.0], [1.0, 0.0]]))
LAYOUT_SYSTEMS = {
    "identity": (BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, -1.0], [1.0, 0.0]]),
                                _ROTATION_PAIR),
                 Reduction(), ("v1", "v2")),
    "pinned 1.0": (BilinearSystem(SystemKind.DRIFTLESS, None,
                                  _ROTATION_PAIR + (mat([[0.0, 1.0], [0.0, 0.0]]),)),
                   Reduction(pinned_index=0, pinned_value=1.0), (1.0, "v1", "v2")),
    "pinned 0.0": (BilinearSystem(SystemKind.DRIFTLESS, None,
                                  (mat([[1.0, 2.0], [0.0, 1.0]]), mat([[0.0, 1.0], [0.0, 2.0]]),
                                   mat([[2.0, -1.0], [0.0, 0.0]]))),
                   Reduction(pinned_index=2, pinned_value=0.0), ("v1", "v2", 0.0)),
    "combined": (BilinearSystem(SystemKind.WITH_DRIFT, mat([[0.0, -1.0], [1.0, 0.0]]),
                                _ROTATION_PAIR + (mat([[1.0, 0.0], [0.0, 0.0]]),)),
                 Reduction(combined_indices=(1, 2), combined_coeffs=(1.0, 0.0)),
                 ("v1", "ca", "cb")),
    "pinned and combined": (BilinearSystem(SystemKind.DRIFTLESS, None,
                                           _ROTATION_PAIR + (mat([[0.0, 1.0], [0.0, 0.0]]),
                                                             Mat2(1.0, 0.0, 0.0, 1.0))),
                            Reduction(pinned_index=0, pinned_value=1.0,
                                      combined_indices=(2, 3), combined_coeffs=(1.0, 0.0)),
                            (1.0, "v1", "ca", "cb")),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_SYSTEMS))
@pytest.mark.parametrize("v1, v2", [(5.0, -7.0), (-0.0, 3.0), (2.5, -0.0)])
def test_control_layout_expands_bit_for_bit(name, v1, v2):
    # repr tells -0.0 from 0.0: with cb = 0.0, cb * v2 is -0.0 for v2 < 0.
    sys, red, places = LAYOUT_SYSTEMS[name]
    assert analyze(sys).reduction == red
    ca, cb = red.combined_coeffs or (0.0, 0.0)
    sources = {"v1": v1, "v2": v2, "ca": ca * v2, "cb": cb * v2}
    expected = tuple(sources[p] if isinstance(p, str) else p for p in places)
    # A pair's steering record expands nothing: plan_transfer keeps (v1, v2).
    expand = steer._steering(sys).expand
    assert (expand is None) == (sys.m == 2)
    per_system = expand(v1, v2) if expand is not None else (v1, v2)
    assert repr(per_system) == repr(expand_controls(red, sys.m, v1, v2)) == repr(expected)
    assert all(type(c) is float for c in per_system)


def _entrywise(f, *ms) -> Mat2:
    """The matrix of f applied to the matching entries of ms."""
    return Mat2(*map(f, *((m.a11, m.a12, m.a21, m.a22) for m in ms)))


# Reductions of one family, each with the effective drift and inputs spelled
# out entry by entry.  Every case makes a -0.0 that a different order of
# operations, or a 0.0 * B term, would turn into 0.0.
_A, _B, _C, _D = (mat([[-0.0, 1.0], [0.0, 2.0]]), mat([[1.0, 0.0], [-0.0, -1.0]]),
                  mat([[0.0, -0.0], [1.0, 3.0]]), mat([[2.0, -0.0], [1.0, 0.0]]))
_DRIFT = mat([[-0.0, -0.0], [1.0, 0.0]])
REDUCED = {
    "pinned 1.0": (None, (_A, _B, _C), Reduction(pinned_index=0, pinned_value=1.0),
                   _entrywise(lambda a: 1.0 * a, _A), (_B, _C)),
    "pinned -1.0": (None, (_A, _B, _C), Reduction(pinned_index=1, pinned_value=-1.0),
                    _entrywise(lambda b: -1.0 * b, _B), (_A, _C)),
    "pinned 1.0 onto drift": (_DRIFT, (_A, _B, _C), Reduction(pinned_index=0, pinned_value=1.0),
                              _entrywise(lambda d, a: d + 1.0 * a, _DRIFT, _A), (_B, _C)),
    "combined": (_DRIFT, (_A, _B, _C),
                 Reduction(combined_indices=(1, 2), combined_coeffs=(-1.0, 0.5)),
                 _DRIFT, (_A, _entrywise(lambda b, c: -1.0 * b + 0.5 * c, _B, _C))),
    "pinned and combined": (None, (_A, _B, _C, _D),
                            Reduction(pinned_index=0, pinned_value=1.0,
                                      combined_indices=(2, 3), combined_coeffs=(1.0, 2.0)),
                            _entrywise(lambda a: 1.0 * a, _A),
                            (_B, _entrywise(lambda c, d: 1.0 * c + 2.0 * d, _C, _D))),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_apply_reduction_matches_the_entrywise_expressions(name):
    drift, inputs, red, want_drift, want_inputs = REDUCED[name]
    kind = SystemKind.DRIFTLESS if drift is None else SystemKind.WITH_DRIFT
    eff = apply_reduction(BilinearSystem(kind, drift, inputs), red)
    assert "-0.0" in repr((want_drift,) + want_inputs[-1:])
    assert eff.kind is SystemKind.WITH_DRIFT
    assert repr((eff.drift, eff.inputs)) == repr((want_drift, want_inputs))


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


def _count_candidate_stage(monkeypatch):
    """The calls to _eigen_units, the (matrix, unit vector) pairs given to
    _invariant, under every module's binding, and the commutator kernels
    normalized (structure's calls to _unit): the candidate stage and its
    residual tests run on floats."""
    calls, tested, kernels = [], [], []
    eigen_units, residual_test, unit = mat2._eigen_units, mat2._invariant, mat2._unit

    def counted(*args):
        calls.append(args)
        return eigen_units(*args)

    def counted_test(m, x, y, tol):
        tested.append((m, (x, y)))
        return residual_test(m, x, y, tol)

    def counted_unit(*args):
        kernels.append(args)
        return unit(*args)

    for module in (mat2, structure):
        monkeypatch.setattr(module, "_eigen_units", counted)
        monkeypatch.setattr(module, "_invariant", counted_test)
    monkeypatch.setattr(structure, "_unit", counted_unit)
    return calls, tested, kernels


@pytest.mark.parametrize("kind", [SystemKind.WITH_DRIFT, SystemKind.DRIFTLESS])
def test_analyze_computes_eigen_directions_once(kind, monkeypatch):
    # a and b1 do not commute and share the first axis, so det[a, b1] = 0 and
    # the candidates are a's eigen-directions; b2 keeps the first axis and b3
    # does not, so the combination has to try two coefficient pairs.
    a, b1 = mat([[1.0, 1.0], [0.0, 2.0]]), mat([[0.0, 0.0], [0.0, 1.0]])
    b2, b3 = mat([[1.0, 0.0], [0.0, 0.0]]), mat([[0.0, 0.0], [1.0, 0.0]])
    if kind is SystemKind.WITH_DRIFT:
        sys = BilinearSystem(kind, a, (b1, b2, b3))
    else:
        sys = BilinearSystem(kind, None, (a, b1, b2, b3))
    calls, _, _ = _count_candidate_stage(monkeypatch)
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    assert verdict.reduction.combined_coeffs == (0.0, 1.0)
    # Eigen-directions are computed once for the family and at most once for
    # each of the two combinations tried, and only a's.
    assert len(calls) <= 1 + 2 and all(args[0] == mat2._pow2(a) for args in calls)


@pytest.mark.parametrize("kind", [SystemKind.WITH_DRIFT, SystemKind.DRIFTLESS])
def test_analyze_computes_eigen_directions_once_per_combination(kind, monkeypatch):
    # a and b1 commute and share both axes; b2 keeps the first and b3 the
    # second, so the combination has to try all three coefficient pairs.  The
    # candidate stage of the family pairs a with b2, not b1, so each
    # combination runs a stage of its own.
    a, b1 = mat([[1.0, 0.0], [0.0, 2.0]]), mat([[0.0, 0.0], [0.0, 1.0]])
    b2, b3 = mat([[1.0, 1.0], [0.0, 0.0]]), mat([[0.0, 0.0], [1.0, 0.0]])
    if kind is SystemKind.WITH_DRIFT:
        sys = BilinearSystem(kind, a, (b1, b2, b3))
    else:
        sys = BilinearSystem(kind, None, (a, b1, b2, b3))
    calls, _, _ = _count_candidate_stage(monkeypatch)
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    assert verdict.reduction.combined_coeffs == (1.0, 1.0)
    # Eigen-directions are computed once for the family and at most once for
    # each combination tried, and only a's.
    assert len(calls) <= 1 + 3 and all(args[0] == mat2._pow2(a) for args in calls)


def _rotated_system(kind, t, forms):
    """The system of the members R(t) F R(-t), for F given by its entries in
    forms, the drift first where kind has one."""
    ms = tuple(rotation(t) @ Mat2(*f) @ rotation(-t) for f in forms)
    if kind is SystemKind.WITH_DRIFT:
        return BilinearSystem(kind, ms[0], ms[1:])
    return BilinearSystem(kind, None, ms)


@st.composite
def combined_systems(draw):
    """A drift system with three inputs, or a driftless one with four.  Where
    ``shared`` is drawn, the first two members, and each later one drawn to,
    keep the line of (cos t, sin t): they are upper triangular in the frame
    rotated by t, so the commutator of the first two settles nothing."""
    entry = st.integers(-3, 3).map(float) | st.floats(-2.0, 2.0)
    keeps = [True, True, draw(st.booleans()), draw(st.booleans())]
    shared = draw(st.booleans())
    forms = [(draw(entry), draw(entry), 0.0 if shared and keep else draw(entry), draw(entry))
             for keep in keeps]
    try:
        return _rotated_system(draw(st.sampled_from(SystemKind)),
                               draw(st.floats(0.0, math.pi)), forms)
    except InvalidSystem:
        assume(False)


# a, b1 and b2 keep the line of (cos 1, sin 1) and b3 does not: (0, 1) is taken.
_KEPT_BY_B2 = [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0),
               (0.0, 0.0, 1.0, 0.0)]


@given(combined_systems())
@example(_rotated_system(SystemKind.WITH_DRIFT, 1.0, _KEPT_BY_B2))
@example(_rotated_system(SystemKind.DRIFTLESS, 1.0, _KEPT_BY_B2))
def test_a_combined_reduction_is_the_public_combination(sys):
    # analyze takes (1, 0) untested only where the commutator of the first two
    # members settled that they share nothing; every other combination is
    # combine_inputs' own.
    verdict = analyze(sys)
    if verdict.klass is VerdictClass.CONTROLLABLE:
        assert verdict.reduction.combined_coeffs == structure.combine_inputs(*sys.matrices())


def _doubled(sys):
    """sys with every member times 2: a different system, decided bit for bit alike."""
    def twice(m):
        return Mat2(2.0 * m.a11, 2.0 * m.a12, 2.0 * m.a21, 2.0 * m.a22)
    return BilinearSystem(sys.kind, sys.drift and twice(sys.drift), tuple(map(twice, sys.inputs)))


def test_analyze_builds_no_controllable_record(rotation_drift_system, monkeypatch):
    # A controllable verdict and its reduction are built once, at import, and
    # shared: analyze builds neither, whatever the shape, and whether the
    # commutator settled the combination or combine_inputs tested it.
    rng = np.random.default_rng(3)
    third = mat([[1.0, 0.0], [0.0, 0.0]])
    systems = [rotation_drift_system,
               BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                              rotation_drift_system.inputs + (third,)),
               _rotated_system(SystemKind.WITH_DRIFT, 1.0, _KEPT_BY_B2),
               _rotated_system(SystemKind.DRIFTLESS, 1.0, _KEPT_BY_B2)]
    systems += [generic_driftless_system(rng, m) for m in (2, 3, 4)]
    twins = [_doubled(sys) for sys in systems]
    assert {(sys.drift is None, sys.m) for sys in systems} == {
        (False, 2), (False, 3), (True, 2), (True, 3), (True, 4)}
    built = []
    for cls in (Reduction, classify.Verdict):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    verdicts = [analyze(sys) for sys in systems]
    assert [analyze(twin) for twin in twins] == verdicts
    assert built == []
    assert [v.reduction.combined_coeffs for v in verdicts[1:4]] == [(1.0, 0.0), (0.0, 1.0),
                                                                   (0.0, 1.0)]
    for sys, twin, verdict in zip(systems, twins, verdicts):
        assert twin != sys and analyze(twin) is verdict
        assert verdict.klass is VerdictClass.CONTROLLABLE
        with pytest.raises(AttributeError):
            verdict.reduction = Reduction()
        with pytest.raises(AttributeError):
            verdict.reduction.pinned_value = 0.5
        made = copy.copy(verdict), copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))
        assert all(m == verdict and repr(m) == repr(verdict) for m in made)


def test_a_family_settled_by_the_commutator_runs_no_eigen_step(rotation_drift_system,
                                                               monkeypatch):
    # det[A, B1] is not zero, so the family shares no eigenvector: no
    # eigen-direction is computed, no kernel is normalized and no residual
    # test runs, neither for the verdict nor for its combination.
    calls, tested, kernels = _count_candidate_stage(monkeypatch)
    for sys in (rotation_drift_system,
                BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                               rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))):
        assert analyze(sys).klass is VerdictClass.CONTROLLABLE
        assert structure.common_real_eigenvector(sys.matrices()) is None
    assert calls == [] and tested == [] and kernels == []


@pytest.mark.parametrize("name", ["shared_line_drift_system", "trapped_triangular_system",
                                  "pinned_nearly"])
def test_a_shared_eigen_direction_of_m_normalizes_no_kernel(name, request, monkeypatch):
    # A member does not commute with M, so ker[M, N] is a candidate; but one
    # of M's eigen-directions is certified first, and the kernel is never
    # normalized.
    sys = pinned_nearly_system() if name == "pinned_nearly" else request.getfixturevalue(name)
    calls, _, kernels = _count_candidate_stage(monkeypatch)
    assert analyze(sys).structure.common_eigenvector is not None
    assert len(calls) == 1 and kernels == []


def _count_zero_tests(monkeypatch) -> list:
    """The ratios given to every TolerancePolicy.is_zero."""
    tested, is_zero = [], mat2.TolerancePolicy.is_zero

    def counted(self, x):
        tested.append(x)
        return is_zero(self, x)

    monkeypatch.setattr(mat2.TolerancePolicy, "is_zero", counted)
    return tested


@pytest.mark.parametrize("shape", ["drift2", "driftless3"])
def test_the_uncontrollable_decision_repeats_no_22_test(shape, monkeypatch):
    # Nearly controllable triangular families.  With drift, the drift's (2,2)
    # entry vanishes in the frame, so the class test goes on to the first
    # input's, which the uncontrollable decision needs too.  Each (2,2) ratio
    # is tested at most once, and the first input's is tested.
    sys = pinned_nearly_system() if shape == "driftless3" else BilinearSystem(
        SystemKind.WITH_DRIFT, mat([[1.0, 1.0], [0.0, 0.0]]),
        (mat([[0.0, 2.0], [0.0, 3.0]]), mat([[1.0, 0.5], [0.0, 0.0]])))
    tested = _count_zero_tests(monkeypatch)
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
    ratios = [f.a22 / m.frob() for f, m in zip(verdict.structure.canonical_forms,
                                               sys.matrices()) if f.a22 != 0.0]
    assert ratios and all(tested.count(r) <= 1 for r in ratios)
    assert ratios[0] in tested


# det[B1, B2] / (|B1|_F |B2|_F)^2 = 1.36e-9 is above the default tolerance,
# but B1's eigen-direction (1, 1.41e-9) passes the residual test on B1 and, at
# 8.5e-10, on B2: the pair shares it, so the commutator must not settle it
# (test_reference.py compares the pair with the reference).
NEAR_TOLERANCE_PAIR = {"kind": "driftless", "drift": None, "inputs": [
    (0.7071067811865476, 0.0, 2e-9, -0.7071067811865476), (0.6, 0.8, 0.0, 0.0)]}


# Two classify-mix families (benchmark seed 1, block 2, family 2614; held-out
# seed 20261017, block 1, family 764) whose first member has a near-double
# eigenvalue.  Its computed eigen-directions miss the shared eigenvector by
# more than the residual test allows; ker[M, N] of the first pair finds it.
NEAR_DOUBLE_TRIANGULAR = {"kind": "driftless", "drift": None, "inputs": [
    (7.904053647747323, 3.2525898366185473, -13.741345258401761, -5.466804205415039),
    (7.162761518138625, 3.919231458375825, -12.258478382794248, -6.856897991322428),
    (-3.958392605922825, -2.7325026293079353, 9.972956017539161, 6.510081883542586)]}
NEAR_DOUBLE_TRAPPED = {
    "kind": "drift",
    "drift": (-0.9054603850318306, 13.047063169763948, -0.3893817626932543, 3.6024386676000892),
    "inputs": [(3.353941062361969, -20.87976791127879, 0.5793827941716057, -3.6069143879266363),
               (2.13547546335952, -4.06007039308933, 0.3688966853743162, -0.7013644202873689)]}


@pytest.mark.parametrize("family, klass", [
    (NEAR_DOUBLE_TRIANGULAR, VerdictClass.NEARLY_CONTROLLABLE),
    (NEAR_DOUBLE_TRAPPED, VerdictClass.UNCONTROLLABLE),
])
def test_shared_eigenvector_of_a_near_double_root_is_found(family, klass):
    sys = _family_system(family, [1.0] * 4, 1.0)
    verdict = analyze(sys)
    assert verdict.klass is klass
    v = verdict.structure.common_eigenvector
    assert klass is not VerdictClass.UNCONTROLLABLE or verdict.largest_region is v
    # |cross(v, M v)| / (|M|_F |v|^2) <= 1e-15 for every member, in exact arithmetic
    x, y = Fraction(v.x), Fraction(v.y)
    for m in sys.matrices():
        a11, a12, a21, a22 = map(Fraction, (m.a11, m.a12, m.a21, m.a22))
        twist = x * (a21 * x + a22 * y) - y * (a11 * x + a12 * y)
        frob2 = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
        assert twist * twist <= Fraction(1e-15) ** 2 * frob2 * (x * x + y * y) ** 2


def test_first_analyze_from_racing_threads_returns_one_verdict():
    # The verdict memo takes no lock: threads that race to the first analyze
    # may each classify, and every one must return the verdict that is kept.
    workers, rounds = 4, 40
    switch = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        for k in range(rounds):
            sys = BilinearSystem(SystemKind.WITH_DRIFT, mat([[5.0, 3.0], [-4.0, -2.0]]),
                                 (mat([[0.0, -1.0], [2.0, 3.0 + k]]),
                                  mat([[7.0, 1.0], [-1.0, 5.0]])))
            barrier = threading.Barrier(workers)
            results = []

            def first_analyze():
                barrier.wait(timeout=10)
                results.append(analyze(sys))

            threads = [threading.Thread(target=first_analyze) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == workers
            assert all(v is analyze(sys) for v in results)
            assert results[0] == analyze(BilinearSystem(sys.kind, sys.drift, sys.inputs))
    finally:
        sys_module.setswitchinterval(switch)


def test_classify_outcomes_match_the_golden():
    # A fixed, standard-library set of families over all five shapes and three
    # classes, a quarter of them scaled by 2^k: each verdict's class, reduction,
    # excluded lines and invariant line, bit for bit, or its exception type.
    families = classify_golden.families()
    outcomes = [classify_golden.outcome(f) for f in families]
    assert {f["name"].split(".")[0] for f in families} == {
        "drift2", "drift3", "driftless2", "driftless3", "driftless4"}
    assert {o.get("class") for o in outcomes} >= {v.value for v in VerdictClass}
    assert classify_golden.mismatches() == []


def test_golden_scaled_families_get_their_unscaled_outcome():
    # A scaled family is 2^k times a family of the golden's unit share, and
    # scaling by a power of two is exact: every zero test is a ratio, so the
    # outcome is the unscaled one, bit for bit.
    scaled = 0
    for family in classify_golden.families():
        _, _, k = family["name"].partition(".2^")
        if not k:
            continue
        f = 2.0 ** -int(k)
        unscaled = dict(family, drift=family["drift"] and tuple(e * f for e in family["drift"]),
                        inputs=[tuple(e * f for e in b) for b in family["inputs"]])
        assert classify_golden.outcome(family) == classify_golden.outcome(unscaled)
        scaled += 1
    assert scaled >= 80


factor = st.one_of(st.integers(-40, 40).map(lambda k: 2.0 ** k),
                   st.floats(min_value=-8.0, max_value=8.0).map(lambda x: 10.0 ** x))


def _family_system(family, input_factors, c):
    """The family's system with input i times input_factors[i], then every
    matrix times c."""
    kind = SystemKind.WITH_DRIFT if family["kind"] == "drift" else SystemKind.DRIFTLESS
    drift = family["drift"] and Mat2(*(c * e for e in family["drift"]))
    return BilinearSystem(kind, drift, tuple(Mat2(*(c * (s * e) for e in b))
                                             for s, b in zip(input_factors, family["inputs"])))


def _certificates(family, input_factors=(1.0,) * 4, c=1.0):
    """The class, excluded lines and invariant line analyze reports, or the
    type of the exception construction or classification raised."""
    try:
        verdict = analyze(_family_system(family, input_factors, c))
    except ValueError as exc:
        return type(exc)
    lines = verdict.excluded_initial
    return verdict.klass, lines and lines.kind, lines and lines.lines, verdict.largest_region


def _plan(family, input_factors):
    try:
        return plan_transfer(_family_system(family, input_factors, 1.0),
                             Vec2(1.3, 0.4), Vec2(1.7, -0.6)).steps
    except (EscapeFailed, InExcludedSet, NotCanonicalClass, SingularSubstitution,
            ZeroState) as exc:
        return type(exc)


SHARED_EIGENVECTOR = {"kind": "driftless", "drift": None,
                      "inputs": [(1.0, -2.0, -2.0, -2.0), (0.0, 1.0, 0.0, 2.0)]}
ZERO_BOTTOM_ROTATION = {"kind": "drift", "drift": (0.0, -1.0, 1.0, 0.0),
                        "inputs": [(1.0, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0)]}
# Nearly controllable on the shared eigenvector (1, 0).  At 2^-600 the raw
# tr^2 - 4 det of each member underflows to 0, and at 2^600 it overflows.
TRIANGULAR_PAIR = {"kind": "driftless", "drift": None,
                   "inputs": [(1.0, 0.0, 0.0, 2.0), (1.0, 1.0, 0.0, 3.0)]}


@given(st.sampled_from(classify_golden.families()), st.lists(factor, min_size=4, max_size=4),
       factor)
@example(SHARED_EIGENVECTOR, [1.0] * 4, 1e-6)   # the shared eigenvector (1, 2) at 1e-6
@example(ZERO_BOTTOM_ROTATION, [1e-6, 1e6, 1.0, 1.0], 1.0)   # the two-step construction
@example(ZERO_BOTTOM_ROTATION, [2.0 ** -300, 2.0 ** 300, 1.0, 1.0], 2.0 ** -600)
@example(TRIANGULAR_PAIR, [1.0] * 4, 2.0 ** -600)
@example(TRIANGULAR_PAIR, [1.0] * 4, 2.0 ** 600)
@example(NEAR_DOUBLE_TRIANGULAR, [2.0 ** -20, 1e3, 3.0, 1.0], 1e-6)
@example(NEAR_DOUBLE_TRAPPED, [1e-5, 2.0 ** 40, 1.0, 1.0], 2.0 ** -30)
@example(NEAR_TOLERANCE_PAIR, [2.0 ** -20, 2.0 ** 30, 1.0, 1.0], 2.0 ** -100)
def test_verdicts_are_homogeneous(family, input_factors, c):
    """B_i -> s_i B_i and (A, B) -> c (A, B) leave the class, the excluded
    lines and the invariant line as they are: bit for bit under powers of
    two, to 1e-9 rad otherwise.  Under input scaling a plan keeps its length,
    or the same refusal; a pair's one step and two-step construction under
    powers of two give the controls u_i / s_i exactly."""
    expected = _certificates(family)
    exact = all(math.frexp(f)[0] == 0.5 for f in input_factors + [c])
    for got in (_certificates(family, input_factors), _certificates(family, c=c)):
        if exact or isinstance(expected, type):
            assert got == expected
            continue
        assert got[:2] == expected[:2]
        for d, e in zip(got[2] or (), expected[2] or ()):
            assert line_gap(d, e) <= 1e-9
        assert (got[3] is None) == (expected[3] is None)
        if got[3] is not None:
            assert line_gap(got[3], expected[3]) <= 1e-9
    if isinstance(expected, type) or expected[0] is VerdictClass.UNCONTROLLABLE:
        return
    unit, scaled = _plan(family, [1.0] * 4), _plan(family, input_factors)
    if isinstance(unit, type) or isinstance(scaled, type):
        assert scaled == unit
        return
    assert len(scaled) == len(unit)
    sys = _family_system(family, [1.0] * 4, 1.0)
    if exact and sys.m == 2 and (len(unit) == 1 or steer._steering(sys).route[1]):
        assert scaled == tuple((u1 / input_factors[0], u2 / input_factors[1])
                               for u1, u2 in unit)


@pytest.mark.parametrize("red", [
    Reduction(pinned_index=3, pinned_value=1.0),                           # out of range
    Reduction(combined_indices=(1, 5), combined_coeffs=(1.0, 0.0)),         # out of range
    Reduction(pinned_index=0, pinned_value=1.0, combined_indices=(0, 1),
              combined_coeffs=(1.0, 0.0)),                                  # named twice
    Reduction(combined_indices=(1, 1), combined_coeffs=(1.0, 0.0)),         # named twice
    Reduction(pinned_index=0, pinned_value=0.0, combined_indices=(1, 2),
              combined_coeffs=(1.0, 0.0)),                                  # one left
    Reduction(),                                                            # three left
], ids=["pinned", "combined", "pinned-and-combined", "combined-twice", "one-left", "identity"])
def test_a_malformed_reduction_is_refused(red, rotation_drift_system):
    # A reduction that does not leave exactly two of the inputs, each named
    # once, is refused by both readers of a Reduction alike.
    sys = BilinearSystem(SystemKind.WITH_DRIFT, rotation_drift_system.drift,
                         rotation_drift_system.inputs + (mat([[1.0, 0.0], [0.0, 0.0]]),))
    with pytest.raises(InvalidSystem, match="exactly two effective inputs"):
        apply_reduction(sys, red)
    with pytest.raises(InvalidSystem, match="exactly two effective inputs"):
        expand_controls(red, sys.m, 1.0, 2.0)


def test_classify_keeps_the_verdict_alone_and_imports_no_steer():
    # The steering record belongs to steer: a system's one memo is its
    # verdict, and classify imports nothing from steer, at any depth.
    memos = {name for name, value in vars(BilinearSystem).items()
             if isinstance(value, mat2._memo)}
    assert memos == {"_verdict"}
    with open(classify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and not any("steer" in name.split(".") for name in names)


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
