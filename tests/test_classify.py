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
from bilin2 import classify, mat2, structure
from bilin2.classify import expand_controls
from bilin2.mat2 import canonical_direction
from helpers import (
    assert_lines_match,
    conjugate_system,
    generic_drift_system,
    lincomb,
    line_gap,
    mat,
    random_similarity,
    triangular_drift_system,
    xy,
)


def test_system_requires_matching_kind_and_drift():
    b = (Mat2(1.0, 0.0, 0.0, 1.0), mat([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.WITH_DRIFT, None, b)
    with pytest.raises(InvalidSystem):
        BilinearSystem(SystemKind.DRIFTLESS, Mat2(1.0, 0.0, 0.0, 1.0), b)


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
    per_system = classify._expand(sys._control_layout, v1, v2)
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

    tested = []
    residual_test = structure.is_eigenvector

    def counted_test(m, d, tol):
        tested.append((m, d))
        return residual_test(m, d, tol)

    for module in (mat2, structure):
        monkeypatch.setattr(module, "real_eigen_directions", counted)
    monkeypatch.setattr(structure, "is_eigenvector", counted_test)
    verdict = analyze(sys)
    assert verdict.klass is VerdictClass.CONTROLLABLE
    assert verdict.reduction.combined_coeffs == (1.0, 1.0)
    assert calls == [(a, sys.tol)]
    # No (matrix, direction) residual test runs twice; b2 + b3 is the only
    # combination tested as a matrix of its own.
    assert len(tested) == len(set(tested))
    assert {m for m, _ in tested} == {a, b1, b2, b3, lincomb(1.0, b2, 1.0, b3)}


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
