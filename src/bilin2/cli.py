"""Command line front end: analyze, steer, simulate, oracle.

System files are JSON:

    {"kind": "drift" | "driftless",
     "A": [[..,..],[..,..]],          # drift systems only
     "B": [[[..,..],[..,..]], ...],   # 2 to 4 input matrices
     "tolerance": {"abs": 1e-9, "rel": 1e-9}}   # optional

``steer`` prints the plan and the replay residual it was accepted on, within
``verify_plan``'s bound 1e-8 * max(|eta|, max_k |M_k|_F |x_k|, 2^-1042).  Exit
codes: 0 on success, 2 on parse or validation failure, on a verdict whose
certificate leaves the float range, or on a simulated, sampled or replayed
state that overflows, 3 when a steering request is refused (uncontrollable
verdict, excluded initial state, zero endpoint under a controllable verdict,
or no plan found: no closed-form escape step cleared the singular set, no
usable two-step construction, or a singular input substitution).
BILIN2_TOL_ABS / BILIN2_TOL_REL override the tolerance from the environment,
over the file.  Every zero test compares a dimensionless ratio with ``abs``;
``rel`` must still be positive and finite, and decides nothing:
``TolerancePolicy`` takes ``abs_eps`` alone (a contract change).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from typing import Optional

from .classify import (
    BilinearSystem,
    InvalidSystem,
    Reduction,
    SystemKind,
    Verdict,
    analyze,
)
from .mat2 import Direction, Mat2, TolerancePolicy, Vec2, cross
from .quadform import LineUnion
from .simulate import ControlPlan, line_hits, reachability_oracle, run
from .steer import (
    EscapeFailed,
    InExcludedSet,
    NotCanonicalClass,
    NotControllablePair,
    SingularSubstitution,
    ZeroState,
    plan_transfer,
)

REFUSALS = (InExcludedSet, NotControllablePair, ZeroState,
            EscapeFailed, NotCanonicalClass, SingularSubstitution)


class SystemFileError(ValueError):
    """A system file that does not parse or validate."""


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_mat(node, where: str) -> Mat2:
    error = SystemFileError(f"{where} must be a 2x2 array of finite numbers")
    try:
        (a, b), (c, d) = node
        if all(map(_is_number, (a, b, c, d))):
            return Mat2(a, b, c, d)
    except (TypeError, ValueError) as exc:
        raise error from exc
    raise error


def _resolve_tolerance(node) -> TolerancePolicy:
    if node is not None and not isinstance(node, dict):
        raise SystemFileError("tolerance must be an object with keys 'abs' and 'rel'")
    eps = {key: (node or {}).get(key, 1e-9) for key in ("abs", "rel")}
    for key in eps:
        if not _is_number(eps[key]):
            raise SystemFileError(f"tolerance.{key} must be a number, got {eps[key]!r}")
        env = f"BILIN2_TOL_{key.upper()}"
        raw = os.environ.get(env)
        if raw is None:
            continue
        try:
            eps[key] = float(raw)
        except ValueError as exc:
            raise SystemFileError(f"{env} must be a number, got {raw!r}") from exc
    try:
        rel = float(eps["rel"])   # validated; rel decides nothing
        tol = TolerancePolicy(eps["abs"])
    except OverflowError as exc:
        raise SystemFileError("tolerance beyond the float range") from exc
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc
    if not 0.0 < rel < math.inf:
        raise SystemFileError("rel_eps must be positive and finite")
    return tol


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from exc


def load_system(path: str) -> BilinearSystem:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SystemFileError(f"{path}: top level must be an object")
    kind_raw = doc.get("kind")
    if kind_raw not in ("drift", "driftless"):
        raise SystemFileError(f"{path}: field 'kind' must be 'drift' or 'driftless'")
    kind = SystemKind.WITH_DRIFT if kind_raw == "drift" else SystemKind.DRIFTLESS
    tol = _resolve_tolerance(doc.get("tolerance"))
    drift = None
    if kind is SystemKind.WITH_DRIFT:
        if "A" not in doc:
            raise SystemFileError(f"{path}: drift systems need field 'A'")
        drift = _as_mat(doc["A"], "A")
    elif "A" in doc:
        raise SystemFileError(f"{path}: driftless systems must not carry field 'A'")
    raw_inputs = doc.get("B")
    if not isinstance(raw_inputs, list) or not raw_inputs:
        raise SystemFileError(f"{path}: field 'B' must be a list of 2x2 matrices")
    inputs = tuple(_as_mat(node, f"B[{i}]") for i, node in enumerate(raw_inputs))
    try:
        return BilinearSystem(kind, drift, inputs, tol)
    except ValueError as exc:   # InvalidSystem, or a member whose norm overflows
        raise SystemFileError(f"{path}: {exc}") from exc


def _parse_state(raw: str, flag: str) -> Vec2:
    parts = raw.split(",")
    if len(parts) != 2:
        raise SystemFileError(f"{flag} expects 'x1,x2', got {raw!r}")
    try:
        return Vec2(parts[0], parts[1])
    except ValueError as exc:
        raise SystemFileError(f"{flag} expects two numbers, got {raw!r}") from exc


def _integer_form(d: Direction) -> Optional[list[int]]:
    """Small integer vector on the line of d, when one matches to 1e-9."""
    from fractions import Fraction  # imported on first use: it loads decimal and numbers

    if abs(d.x) >= abs(d.y):
        fr = Fraction(d.y / d.x).limit_denominator(32)
        cand = (fr.denominator, fr.numerator)
    else:
        fr = Fraction(d.x / d.y).limit_denominator(32)
        cand = (fr.numerator, fr.denominator) if d.y > 0 else (-fr.numerator, -fr.denominator)
    norm = (cand[0] ** 2 + cand[1] ** 2) ** 0.5  # >= 1: one entry is a denominator
    sin_gap = abs(cross(Vec2(cand[0] / norm, cand[1] / norm), d.vector))
    return [cand[0], cand[1]] if sin_gap <= 1e-9 else None


def _direction_json(d: Optional[Direction]):
    return None if d is None else {"unit": [d.x, d.y], "integer": _integer_form(d)}


def _lines_json(lu: Optional[LineUnion]):
    return None if lu is None else [_direction_json(d) for d in lu.lines]


def _mat_json(m: Optional[Mat2]):
    return None if m is None else [[m.a11, m.a12], [m.a21, m.a22]]


def _reduction_json(red: Reduction):
    if red.is_identity():
        return None
    return {
        "pinned_index": red.pinned_index,
        "pinned_value": red.pinned_value if red.pinned_index is not None else None,
        "combined_indices": list(red.combined_indices) if red.combined_indices else None,
        "combined_coeffs": list(red.combined_coeffs) if red.combined_coeffs else None,
    }


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _analyze(sys: BilinearSystem) -> Verdict:
    try:
        return analyze(sys)
    except ValueError as exc:  # e.g. a certificate beyond the float range
        raise SystemFileError(str(exc)) from exc


def cmd_analyze(args) -> int:
    sys = load_system(args.file)
    verdict = _analyze(sys)
    structure = verdict.structure
    _emit({
        "class": verdict.klass.value,
        "excluded_initial": _lines_json(verdict.excluded_initial),
        "excluded_terminal": [] if verdict.excluded_initial is not None else None,
        "largest_region": _direction_json(verdict.largest_region),
        "transform": _mat_json(structure.transform if structure else None),
        "canonical_forms": ([_mat_json(f) for f in structure.canonical_forms]
                            if structure else None),
        "reduction": _reduction_json(verdict.reduction),
    })
    return 0


def cmd_steer(args) -> int:
    sys = load_system(args.file)
    xi = _parse_state(args.from_state, "--from")
    eta = _parse_state(args.to_state, "--to")
    try:
        plan = plan_transfer(sys, xi, eta)
    except REFUSALS as exc:
        _emit({"reason": str(exc)})
        return 3
    except ValueError as exc:  # the replay overflowed to inf or nan
        raise SystemFileError(str(exc)) from exc
    _emit({"steps": [list(u) for u in plan.steps], "residual": plan.residual})
    return 0


def _load_plan(path: str, m: int) -> ControlPlan:
    doc = _read_json(path)
    steps = doc.get("steps") if isinstance(doc, dict) else doc
    if not isinstance(steps, list):
        raise SystemFileError(f"{path}: plan must be a list of control tuples "
                              "or an object with key 'steps'")
    for i, step_node in enumerate(steps):
        if not isinstance(step_node, list) or len(step_node) != m:
            raise SystemFileError(f"{path}: steps[{i}] must list {m} control values")
        if not all(map(_is_number, step_node)):
            raise SystemFileError(f"{path}: steps[{i}] must be numeric")
    try:
        return ControlPlan(steps)
    except ValueError as exc:
        raise SystemFileError(f"{path}: {exc}") from exc


def cmd_simulate(args) -> int:
    import csv  # imported here: only simulate writes CSV

    sys = load_system(args.file)
    xi = _parse_state(args.from_state, "--from")
    plan = _load_plan(args.plan, sys.m)
    try:
        states = run(sys, xi, plan)
    except ValueError as exc:  # a state overflowed to inf or nan
        raise SystemFileError(str(exc)) from exc
    rows = []
    for k, state in enumerate(states):
        controls = ([repr(c) for c in plan.steps[k]] if k < len(plan)
                    else [""] * sys.m)
        rows.append([str(k), repr(state.x), repr(state.y)] + controls)
    header = ["k", "x1", "x2"] + [f"u{i + 1}" for i in range(sys.m)]
    try:
        sink = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else _sys.stdout
    except OSError as exc:
        raise SystemFileError(f"cannot write {args.csv}: {exc}") from exc
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.csv:
            sink.close()
    final = states[-1]
    print(f"terminal state: {final.x!r},{final.y!r}", file=_sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    sys = load_system(args.file)
    xi = _parse_state(args.from_state, "--from")
    if args.trials < 1:
        raise SystemFileError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise SystemFileError(f"--seed must not be negative, got {args.seed}")
    try:
        report = reachability_oracle(sys, xi, args.trials, seed=args.seed)
    except ValueError as exc:  # a sample overflowed to inf or nan
        raise SystemFileError(str(exc)) from exc
    verdict = _analyze(sys)
    hits = None
    if verdict.excluded_initial is not None:
        hits = line_hits(sys, report.samples, verdict.excluded_initial.lines)
    _emit({
        "samples": [[s.x, s.y] for s in report.samples],
        "covariance_rank": report.covariance_rank,
        "excluded_set_hits": hits,
    })
    return 0


def _glue_flag_values(argv: list[str]) -> list[str]:
    """Join value-taking flags with their argument so negative components
    such as '--to -11,-7' survive argparse."""
    taking = {"--from", "--to", "--plan", "--csv", "--trials", "--seed"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in taking and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilin2",
        description="Controllability analysis and short-plan synthesis for "
                    "planar two-to-four input bilinear systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a system and print certificates")
    p_analyze.add_argument("file", help="system JSON file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_steer = sub.add_parser("steer", help="synthesize a plan between two states")
    p_steer.add_argument("file", help="system JSON file")
    p_steer.add_argument("--from", dest="from_state", required=True, metavar="X1,X2")
    p_steer.add_argument("--to", dest="to_state", required=True, metavar="X1,X2")
    p_steer.set_defaults(func=cmd_steer)

    p_sim = sub.add_parser("simulate", help="replay a plan and print the trajectory as CSV")
    p_sim.add_argument("file", help="system JSON file")
    p_sim.add_argument("--from", dest="from_state", required=True, metavar="X1,X2")
    p_sim.add_argument("--plan", required=True, help="plan JSON file")
    p_sim.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_oracle = sub.add_parser("oracle", help="sample reachable states with random plans")
    p_oracle.add_argument("file", help="system JSON file")
    p_oracle.add_argument("--from", dest="from_state", required=True, metavar="X1,X2")
    p_oracle.add_argument("--trials", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    raw = list(_sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_glue_flag_values(raw))
    try:
        return args.func(args)
    except (SystemFileError, InvalidSystem) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
