"""Structure detectors: common eigenvectors, triangularization, shared left
kernels, anti-diagonalization, input combination."""

import math

import numpy as np
import pytest

from bilin2 import (
    DEFAULT_TOL,
    AllIsotropic,
    BilinearSystem,
    FormClass,
    LineSetKind,
    Mat2,
    NoCombinationFound,
    NotCommonEigenvector,
    SystemKind,
    Vec2,
    VerdictClass,
    analyze,
    antidiagonalize_pair,
    combine_inputs,
    common_real_eigenvector,
    linearly_independent,
    triangularize,
    zero_bottom_row_pair,
)
from bilin2 import mat2
from bilin2.mat2 import _det2, canonical_direction, cross, is_eigenvector
from bilin2.quadform import pair_lines
from helpers import inverse, lincomb, line_gap, mat, rotation


def test_common_real_eigenvector_found_on_shared_line(shared_line_drift_system):
    d = common_real_eigenvector(shared_line_drift_system.matrices())
    assert d is not None
    assert line_gap(d, canonical_direction(Vec2(1.0, -1.0))) <= 1e-12


def test_common_real_eigenvector_absent(rotation_drift_system):
    assert common_real_eigenvector(rotation_drift_system.matrices()) is None


def test_common_real_eigenvector_all_isotropic_raises():
    with pytest.raises(AllIsotropic):
        common_real_eigenvector([Mat2(1.0, 0.0, 0.0, 1.0), Mat2(2.0, 0.0, 0.0, 2.0)])


def test_common_real_eigenvector_skips_isotropic_members():
    family = [Mat2(2.0, 0.0, 0.0, 2.0), mat([[2.0, 1.0], [0.0, 3.0]])]
    d = common_real_eigenvector(family)
    assert d is not None
    assert all(is_eigenvector(m, d) for m in family)


def test_common_real_eigenvector_takes_candidates_from_the_first_constraining_member():
    # The second member lies inside the absolute zero band: its own eigenvector
    # cannot be oriented (ZeroVector), so it may only be certified against.
    big, tiny = Mat2(1.0, 2.0, 0.5, 3.0), Mat2(1e-8, 0.0, 0.0, 1.15e-8)
    d = common_real_eigenvector([big, tiny])
    assert d is not None and is_eigenvector(big, d)
    sys = BilinearSystem(SystemKind.DRIFTLESS, None, (big, tiny))
    assert analyze(sys).klass is VerdictClass.NEARLY_CONTROLLABLE


def test_triangularize_golden(shared_line_drift_system):
    ms = shared_line_drift_system.matrices()
    d = common_real_eigenvector(ms)
    report = triangularize(ms, d)
    assert report.form_class is FormClass.UPPER_TRIANGULAR
    assert report.common_eigenvector is d
    for f, m in zip(report.canonical_forms, ms):
        assert abs(f.a21) <= 1e-12 * m.frob()
    # the transform is a rotation sending d to the first axis
    image = report.transform @ d.vector
    assert abs(image.x - 1.0) <= 1e-12 and abs(image.y) <= 1e-12
    round_trip = report.transform @ report.transform_inv
    assert abs(round_trip.a11 - 1.0) <= 1e-14 and abs(round_trip.a22 - 1.0) <= 1e-14
    assert abs(round_trip.a12) <= 1e-14 and abs(round_trip.a21) <= 1e-14


def test_triangularize_rejects_non_eigenvector(rotation_drift_system):
    d = canonical_direction(Vec2(1.0, 0.0))
    with pytest.raises(NotCommonEigenvector):
        triangularize(rotation_drift_system.matrices(), d)


def test_triangularize_flags_zero_bottom_rows():
    family = (mat([[1.0, 2.0], [0.0, 0.0]]), mat([[0.0, 3.0], [0.0, 0.0]]))
    d = canonical_direction(Vec2(1.0, 0.0))
    report = triangularize(family, d)
    assert report.form_class is FormClass.ZERO_BOTTOM_ROW
    for f in report.canonical_forms:
        assert f.a21 == 0.0 and f.a22 == 0.0


def test_triangularize_random_conjugated_families():
    rng = np.random.default_rng(11)
    for _ in range(25):
        tri = [Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, rng.uniform(-2, 2))
               for _ in range(3)]
        r = rotation(rng.uniform(0.0, 2.0 * math.pi))
        family = [r @ m @ inverse(r) for m in tri]
        d = common_real_eigenvector(family)
        assert d is not None
        report = triangularize(family, d)
        for f, m in zip(report.canonical_forms, family):
            assert abs(f.a21) <= 1e-9 * max(1.0, m.frob())


def test_zero_bottom_row_pair_identity_frame():
    p = zero_bottom_row_pair(mat([[1.0, 2.0], [0.0, 0.0]]),
                             mat([[3.0, -1.0], [0.0, 0.0]]))
    assert p is not None
    assert p.rows() == ((1.0, 0.0), (0.0, 1.0))


def test_zero_bottom_row_pair_rotated_frame():
    r = rotation(0.6)
    b1 = r @ mat([[1.0, 2.0], [0.0, 0.0]]) @ inverse(r)
    b2 = r @ mat([[3.0, -1.0], [0.0, 0.0]]) @ inverse(r)
    p = zero_bottom_row_pair(b1, b2)
    assert p is not None
    # the second row of P is the canonical common left null direction
    assert line_gap(canonical_direction(Vec2(p.a21, p.a22)),
                    canonical_direction(r @ Vec2(0.0, 1.0))) <= 1e-9
    p_inv = Mat2(p.a11, p.a21, p.a12, p.a22)
    for b in (b1, b2):
        f = p @ b @ p_inv
        assert abs(f.a21) <= 1e-12 * b.frob()
        assert abs(f.a22) <= 1e-12 * b.frob()


def test_zero_bottom_row_pair_rejects_nonsingular():
    assert zero_bottom_row_pair(Mat2(1.0, 0.0, 0.0, 1.0), mat([[1.0, 2.0], [0.0, 0.0]])) is None


def test_zero_bottom_row_pair_rejects_crossed_kernels():
    # both singular, but the left kernels are perpendicular
    assert zero_bottom_row_pair(mat([[1.0, 0.0], [0.0, 0.0]]),
                                mat([[0.0, 0.0], [0.0, 1.0]])) is None


def test_zero_bottom_row_pair_zero_matrix_defers_to_partner():
    p = zero_bottom_row_pair(Mat2(0.0, 0.0, 0.0, 0.0),
                             mat([[1.0, 2.0], [0.0, 0.0]]))
    assert p is not None
    assert (p.a21, p.a22) == (0.0, 1.0)


def test_antidiagonalize_golden(swap_pair_system):
    b1, b2 = swap_pair_system.inputs
    report = antidiagonalize_pair(b1, b2)
    assert report is not None
    assert report.form_class is FormClass.ANTI_DIAGONAL
    for f in report.canonical_forms:
        assert abs(f.a11) <= 1e-12 * f.frob()
        assert abs(f.a22) <= 1e-12 * f.frob()
    assert report.common_eigenvector is None


def test_antidiagonalize_canonical_pair_recovered():
    b1 = mat([[0.0, 2.0], [0.5, 0.0]])
    b2 = mat([[0.0, -1.0], [3.0, 0.0]])
    report = antidiagonalize_pair(b1, b2)
    assert report is not None
    for f in report.canonical_forms:
        assert abs(f.a11) <= 1e-12 and abs(f.a22) <= 1e-12


def test_antidiagonalize_rejects_nonzero_trace():
    assert antidiagonalize_pair(mat([[1.0, 0.0], [3.0, 1.0]]),
                                mat([[0.0, 1.0], [1.0, 0.0]])) is None


def test_antidiagonalize_rejects_definite_form():
    # trace-free pair whose steering form never vanishes: not this class
    assert antidiagonalize_pair(mat([[0.0, 1.0], [1.0, 0.0]]),
                                mat([[1.0, 0.0], [0.0, -1.0]])) is None


def test_antidiagonalize_rejects_shared_eigenvector_pair():
    # the single zero line is itself a common eigenvector, so the swap
    # construction cannot start there
    assert antidiagonalize_pair(mat([[1.0, 0.0], [0.0, -1.0]]),
                                mat([[0.0, 1.0], [0.0, 0.0]])) is None


# Trace-free, and anti-diagonal in the basis v = (3, 4)/5, b1 @ v, where |b1 @ v|
# is about 1e7 and its line is 1e-4 rad off the line of v.  Each zero line of
# the pair passes the swap tests, and the basis it gives fails the
# determinant zero test.
NEAR_PARALLEL_BASIS = (Mat2(-230400562496.0, 172801921672.0, -307198083128.0, 230400562496.0),
                       Mat2(249599442304.0, -187198081928.0, 332801923272.0, -249599442304.0))


def test_antidiagonalize_skips_a_singular_basis_without_raising(monkeypatch):
    made = []

    def counting_init(self, *args):
        made.append(args)
        ValueError.__init__(self, *args)

    monkeypatch.setattr(mat2.SingularMatrix, "__init__", counting_init)
    b1, b2 = NEAR_PARALLEL_BASIS
    lines = pair_lines(b1, b2)
    assert lines.kind is LineSetKind.TWO_LINES
    for d in lines.lines:
        w = b1 @ d.vector
        assert not DEFAULT_TOL.is_zero(cross(d.vector, w), w.norm())
        assert _det2(d.x, w.x, d.y, w.y, DEFAULT_TOL) is None
    assert antidiagonalize_pair(b1, b2) is None
    assert made == []


def test_combine_inputs_first_candidate_when_pair_already_free(rotation_drift_system):
    a = rotation_drift_system.drift
    b1, b2 = rotation_drift_system.inputs
    b3 = mat([[0.0, 1.0], [0.0, 0.0]])
    assert combine_inputs(a, b1, b2, b3) == (1.0, 0.0)


def test_combine_inputs_skips_blocked_candidate():
    a = mat([[1.0, 1.0], [0.0, 2.0]])
    b1 = mat([[0.0, 1.0], [0.0, 1.0]])
    b2 = mat([[1.0, 2.0], [0.0, 3.0]])   # keeps the family triangular
    b3 = mat([[0.0, 0.0], [1.0, 0.0]])   # breaks the shared line
    ca, cb = combine_inputs(a, b1, b2, b3)
    assert (ca, cb) == (0.0, 1.0)
    assert common_real_eigenvector([a, b1, lincomb(ca, b2, cb, b3)]) is None


def test_combine_inputs_exhausts_and_raises():
    a = mat([[1.0, 1.0], [0.0, 2.0]])
    b1 = mat([[0.0, 1.0], [0.0, 1.0]])
    b2 = mat([[1.0, 2.0], [0.0, 3.0]])
    b3 = mat([[0.0, 3.0], [0.0, 7.0]])   # every combination stays triangular
    with pytest.raises(NoCombinationFound):
        combine_inputs(a, b1, b2, b3)


def test_combine_inputs_result_is_certified():
    rng = np.random.default_rng(23)
    families = [[Mat2(*rng.uniform(-2.0, 2.0, 4)) for _ in range(4)] for _ in range(20)]
    # Integer families with three upper-triangular members and one free
    # matrix, placed anywhere: the first candidate is often blocked, and now
    # and then the second too.
    for _ in range(600):
        ms = [Mat2(x, y, 0.0, z) for x, y, z in rng.integers(-2, 3, (3, 3)).tolist()]
        ms.insert(int(rng.integers(4)), Mat2(*rng.integers(-2, 3, 4).tolist()))
        families.append(ms)
    for ms in families:
        if not linearly_independent(ms):
            continue
        try:
            ca, cb = combine_inputs(*ms)
        except NoCombinationFound:
            assert common_real_eigenvector(ms) is not None
            continue
        assert (ca, cb) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert common_real_eigenvector([ms[0], ms[1], lincomb(ca, ms[2], cb, ms[3])]) is None
