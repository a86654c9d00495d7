"""End-to-end acceptance checks.

Each criterion is one test that prints a single PASS or FAIL line (visible
under ``pytest -s`` and in failure reports), so the whole gate reads as a
checklist.  Golden values come from worked examples checked by hand; the
property criteria drive randomized populations against independent oracles.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from bilin2 import (
    BilinearSystem,
    Direction,
    FormClass,
    Mat2,
    SystemKind,
    Vec2,
    VerdictClass,
    analyze,
    canonical_steer,
    cli,
    gram_form,
    form_scale,
    plan_transfer,
    step,
    verify_plan,
    zero_lines,
    ControlPlan,
    DEFAULT_TOL,
)
from bilin2.mat2 import canonical_direction, cross
from helpers import (
    angles_match,
    antidiagonal_system,
    assert_lines_match,
    conjugate_system,
    direction_angle,
    frob_gap,
    generic_drift_system,
    generic_driftless_system,
    inverse,
    line_gap,
    mat,
    rand_mat,
    random_similarity,
    sweep_classify,
    sweep_zero_angles,
    triangular_drift_system,
    unit_vec,
    xy,
    zero_bottom_drift_system,
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title}")


ROTATION_DRIFT = {"kind": "drift", "A": [[0, -1], [1, 0]],
                  "B": [[[1, -1], [0, 2]], [[0, 0], [1, 0]]]}


def test_criterion_1_worked_drift_example(tmp_path, capsys):
    with criterion(1, "drift example: verdict, steering, exact replay"):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(ROTATION_DRIFT), encoding="utf-8")
        sys = cli.load_system(str(path))

        assert cli.main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "controllable"

        assert cli.main(["steer", str(path), "--from", "1,1", "--to", "-11,-7"]) == 0
        steer_doc = json.loads(capsys.readouterr().out)
        assert steer_doc["residual"] <= 1e-9
        plan = ControlPlan(tuple(tuple(u) for u in steer_doc["steps"]))
        _, err = verify_plan(sys, Vec2(1.0, 1.0), Vec2(-11.0, -7.0), plan)
        assert err <= 1e-9

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps([[0, 0], [5, 16]]), encoding="utf-8")
        assert cli.main(["simulate", str(path), "--from", "1,1",
                         "--plan", str(plan_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        states = [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]
        assert states == [(1.0, 1.0), (-1.0, 1.0), (-11.0, -7.0)]


def test_criterion_2_shared_eigenvector_example():
    with criterion(2, "shared-eigenvector example: forms, line, swept excluded set"):
        a = mat([[5.0, 3.0], [-4.0, -2.0]])
        b1 = mat([[0.0, -1.0], [2.0, 3.0]])
        b2 = mat([[7.0, 1.0], [-1.0, 5.0]])
        sys = BilinearSystem(SystemKind.WITH_DRIFT, a, (b1, b2))
        verdict = analyze(sys)
        assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE

        common = verdict.structure.common_eigenvector
        assert line_gap(common, canonical_direction(Vec2(1.0, -1.0), sys.tol)) <= 1e-9

        p_inv = Mat2(1.0, 0.0, -1.0, 1.0)
        p = inverse(p_inv)
        forms = [p @ m @ p_inv for m in (a, b1, b2)]
        expected = [Mat2(2.0, 3.0, 0.0, 1.0),
                    Mat2(1.0, -1.0, 0.0, 2.0),
                    Mat2(6.0, 1.0, 0.0, 6.0)]
        for got, want in zip(forms, expected):
            assert frob_gap(got, want) <= 1e-12

        q = gram_form(b1, b2)
        swept = sweep_zero_angles(q, 3600)
        reported = [direction_angle(d) for d in verdict.excluded_initial.lines]
        assert len(swept) == len(reported) == 2
        assert angles_match(reported, swept, tol=1e-6)


def test_criterion_3_antidiagonal_example():
    with criterion(3, "anti-diagonal example: class, excluded lines, exact forms"):
        b1 = mat([[-1.0, 0.0], [3.0, 1.0]])
        b2 = mat([[4.0, 3.0], [-6.0, -4.0]])
        sys = BilinearSystem(SystemKind.DRIFTLESS, None, (b1, b2))
        verdict = analyze(sys)
        assert verdict.klass is VerdictClass.NEARLY_CONTROLLABLE
        assert verdict.structure.form_class is FormClass.ANTI_DIAGONAL

        assert_lines_match(verdict.excluded_initial.lines,
                           [(1.0, -1.0), (-1.0, 2.0)], tol_angle=1e-9)

        p_ret = verdict.structure.transform
        p_ret_inv = verdict.structure.transform_inv
        for b in (b1, b2):
            form = p_ret @ b @ p_ret_inv
            assert abs(form.a11) <= 1e-9 and abs(form.a22) <= 1e-9

        p = Mat2(2.0, 1.0, 1.0, 1.0)
        p_inv = inverse(p)
        assert p @ b1 @ p_inv == Mat2(0.0, 1.0, 1.0, 0.0)
        assert p @ b2 @ p_inv == Mat2(0.0, 2.0, -1.0, 0.0)


def test_criterion_4_random_controllable_steering():
    with criterion(4, "1000 random controllable drift systems steer in <= 3 steps"):
        rng = np.random.default_rng(104)
        done = 0
        while done < 1000:
            sys = generic_drift_system(rng)
            if analyze(sys).klass is not VerdictClass.CONTROLLABLE:
                continue
            xi, eta = unit_vec(rng), unit_vec(rng)
            plan = plan_transfer(sys, xi, eta)
            assert len(plan) <= 3
            _, err = verify_plan(sys, xi, eta, plan)
            assert err <= 1e-6, (sys, xi, eta, err)
            done += 1


def _random_population_member(rng, i):
    pick = i % 5
    if pick == 0:
        return generic_drift_system(rng)
    if pick == 1:
        live = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        return triangular_drift_system(rng, bottom_right=(0.0, live))
    if pick == 2:
        return triangular_drift_system(rng, bottom_right=(0.0, 0.0))
    if pick == 3:
        return antidiagonal_system(rng)
    return generic_driftless_system(rng)


def test_criterion_5_similarity_invariance():
    with criterion(5, "500 random conjugations preserve class and map lines"):
        rng = np.random.default_rng(105)
        seen = set()
        for i in range(500):
            sys = _random_population_member(rng, i)
            verdict = analyze(sys)
            seen.add(verdict.klass)
            p = random_similarity(rng, max_cond=20.0)
            p_inv = inverse(p)
            other = conjugate_system(sys, p_inv)
            mapped = analyze(other)
            assert mapped.klass is verdict.klass
            if verdict.excluded_initial is not None:
                expected = [xy(p_inv @ d.vector)
                            for d in verdict.excluded_initial.lines]
                assert_lines_match(mapped.excluded_initial.lines, expected,
                                   tol_angle=1e-6)
            if verdict.largest_region is not None:
                want = canonical_direction(p_inv @ verdict.largest_region.vector,
                                           sys.tol)
                assert line_gap(mapped.largest_region, want) <= 1e-6
        assert seen == {VerdictClass.CONTROLLABLE, VerdictClass.NEARLY_CONTROLLABLE,
                        VerdictClass.UNCONTROLLABLE}


def test_criterion_6_uncontrollable_certification():
    with criterion(6, "200 trapped triangular systems: line kept, exact recursion"):
        rng = np.random.default_rng(106)
        for _ in range(200):
            sys = triangular_drift_system(rng, bottom_right=(0.0, 0.0))
            verdict = analyze(sys)
            assert verdict.klass is VerdictClass.UNCONTROLLABLE
            assert line_gap(verdict.largest_region,
                            Direction(Vec2(1.0, 0.0))) <= 1e-12

            x = Vec2(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)), 0.0)
            for _ in range(100):
                x = step(sys, x, rng.uniform(-2.0, 2.0, 2))
                assert x.y == 0.0
                # rescale by an exact power of two so a decaying trajectory
                # never collapses into the zero band; the direction is untouched
                x = Vec2(math.ldexp(x.x, -math.frexp(x.x)[1]), 0.0)
                assert line_gap(canonical_direction(x, sys.tol),
                                verdict.largest_region) <= 1e-9

            a22 = sys.drift.a22
            y = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
            for _ in range(100):
                after = step(sys, y, rng.uniform(-2.0, 2.0, 2))
                assert after.y == a22 * y.y
                exp = math.frexp(abs(after.x) + abs(after.y))[1]
                y = Vec2(math.ldexp(after.x, -exp), math.ldexp(after.y, -exp))


def test_criterion_7_two_step_construction():
    with criterion(7, "200 coupled-shift systems: both branches and the pre-step"):
        rng = np.random.default_rng(107)
        for _ in range(200):
            sys = zero_bottom_drift_system(rng, canonical=True)
            a21, a22 = sys.drift.a21, sys.drift.a22
            while True:
                xi = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                s = a21 * xi.x + a22 * xi.y
                if abs(xi.x) >= 0.1 and abs(s) >= 0.1:
                    break
            while True:
                eta = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                if eta.norm() >= 0.1 and abs(eta.y - a22 * s) >= 0.1:
                    break

            plan = canonical_steer(sys, xi, eta)
            assert len(plan) == 2 and plan.steps[0] != (0.0, 0.0)
            _, err = verify_plan(sys, xi, eta, plan)
            assert err <= 1e-8 * (1.0 + eta.norm())

            degenerate = Vec2(eta.x, a22 * s)
            plan = canonical_steer(sys, xi, degenerate)
            assert len(plan) == 2 and plan.steps[0] == (0.0, 0.0)
            _, err = verify_plan(sys, xi, degenerate, plan)
            assert err <= 1e-8 * (1.0 + degenerate.norm())

            for blocked in (Vec2(0.0, xi.y if abs(xi.y) >= 0.1 else 1.0),
                            Vec2(a22 * 1.25, -(a21 * 1.25))):
                plan = canonical_steer(sys, blocked, eta)
                assert len(plan) == 3
                _, err = verify_plan(sys, blocked, eta, plan)
                assert err <= 1e-8 * (1.0 + eta.norm())


def test_criterion_8_gram_form_oracle():
    with criterion(8, "500 random pairs: probes match, sweep agrees with roots"):
        rng = np.random.default_rng(108)
        kinds = set()
        for _ in range(500):
            b1, b2 = rand_mat(rng), rand_mat(rng)
            q = gram_form(b1, b2)

            def probe(z):
                return cross(b1 @ z, b2 @ z)

            a_p = probe(Vec2(1.0, 0.0))
            c_p = probe(Vec2(0.0, 1.0))
            b_p = probe(Vec2(1.0, 1.0)) - a_p - c_p
            assert abs(q.a - a_p) <= 1e-12
            assert abs(q.b - b_p) <= 1e-12
            assert abs(q.c - c_p) <= 1e-12

            lu = zero_lines(q, DEFAULT_TOL, scale=form_scale(b1, b2))
            kind, swept = sweep_classify(q, 3600)
            assert lu.kind.value == kind
            if lu.lines:
                reported = [direction_angle(d) for d in lu.lines]
                assert angles_match(reported, swept, tol=1e-6)
            kinds.add(lu.kind.value)
        assert "two-lines" in kinds and "point-only" in kinds
