"""Spans around the benchmark's own calls into each layer of bilin2.

Nothing inside the library is instrumented: a span times one call the
benchmark makes into a public function, and carries the id of the request
that caused it.  The layer sweep (``Workload.sweep``) replays, for each input
of a workload, the public calls its op is made of, so every layer gets a
per-call time measured on that workload's own inputs.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys as _sys
from time import perf_counter, perf_counter_ns

import checks
from inputs import FIXTURES, ORACLE_TRIALS, UNCONTROLLABLE

# Per-layer metrics, each with the end-to-end metric and workload it should
# move, and where it should move nothing.
LAYER_METRICS = (
    ("mat2.Mat2_new_us", "us", "ops_per_s on plan-stream and classify-mix; barely cli-cold"),
    ("mat2.Vec2_new_us", "us", "ops_per_s on plan-stream and classify-mix; barely cli-cold"),
    ("mat2.solve2_us", "us", "ops_per_s on plan-stream and classify-mix; barely cli-cold"),
    ("mat2.real_eigen_directions_us", "us", "ops_per_s on classify-mix"),
    ("mat2.linearly_independent_us", "us", "ops_per_s on classify-mix"),
    ("classify.BilinearSystem_us", "us",
     "ops_per_s on classify-mix; plan-stream through apply_reduction when m > 2"),
    ("classify.analyze_us", "us",
     "latency_p50_us on plan-stream, ops_per_s on classify-mix; not oracle-cloud"),
    ("classify.apply_reduction_us", "us",
     "latency_p50_us on plan-stream, ops_per_s on classify-mix; not oracle-cloud"),
    ("quadform.gram_form_us", "us", "latency_p50_us on plan-stream"),
    ("quadform.zero_lines_us", "us", "latency_p50_us on plan-stream"),
    ("structure.common_real_eigenvector_us", "us", "latency_tail_us on classify-mix"),
    ("structure.triangularize_us", "us", "latency_tail_us on classify-mix"),
    ("structure.antidiagonalize_pair_us", "us", "latency_tail_us on classify-mix"),
    ("structure.zero_bottom_row_pair_us", "us", "latency_tail_us on classify-mix"),
    ("structure.combine_inputs_us", "us", "latency_tail_us on classify-mix"),
    ("steer.plan_transfer_us.one_step", "us", "latency_tail_us on plan-stream"),
    ("steer.plan_transfer_us.escape", "us", "latency_tail_us on plan-stream"),
    ("steer.plan_transfer_us.canonical", "us", "latency_tail_us on plan-stream"),
    ("steer.plan_transfer_us.nearly", "us", "latency_tail_us on plan-stream"),
    ("steer.plan_transfer_us.refused", "us", "latency_tail_us on plan-stream"),
    ("steer.one_step_us", "us", "latency_tail_us on plan-stream"),
    ("steer.escape_step_us", "us", "latency_tail_us on plan-stream"),
    ("steer.canonical_steer_us", "us", "latency_tail_us on plan-stream"),
    ("simulate.step_us", "us", "ops_per_s on oracle-cloud, latency_p50_us on plan-stream"),
    ("simulate.run_us", "us", "ops_per_s on oracle-cloud, latency_p50_us on plan-stream"),
    ("simulate.verify_plan_us", "us", "ops_per_s on oracle-cloud, latency_p50_us on plan-stream"),
    ("simulate.reachability_oracle_ms_per_1k", "ms", "oracle-cloud only"),
    ("cli.interpreter_ms", "ms", "latency_p50_us on cli-cold only"),
    ("cli.import_ms", "ms", "latency_p50_us on cli-cold only"),
    ("cli.main_us", "us", "latency_p50_us on cli-cold only"),
)

# Plan requests on the fixed systems, one per route, so that every layer
# metric has samples on every workload.  All but the trapped one expect a plan.
PROBES = (
    ("readme", (1.3, 0.4), (1.7, -0.6)),
    ("readme", (1.0, 1.0), (-11.0, -7.0)),
    ("zero_bottom", (1.3, 0.4), (1.7, -0.6)),
    ("shared", (1.3, 0.4), (1.7, -0.6)),
    ("trapped", (1.3, 0.4), (1.7, -0.6)),
    ("swap", (1.3, 0.4), (1.7, -0.6)),
    ("drift3", (1.3, 0.4), (1.7, -0.6)),
    ("driftless4", (1.3, 0.4), (1.7, -0.6)),
)
ORACLE_PROBES = (("readme", (1.3, 0.4)), ("shared", (1.3, 0.4)))
CHILD_PROBES = 3


class Spans:
    """In-memory spans: (request id, name, start ns, end ns)."""

    def __init__(self):
        self.items = []
        self.probe_plans = 0       # probe requests that expect a plan
        self.probe_plans_ok = 0    # ... and got one that lands
        self.cal = None            # reference-kernel samples of the layer sweep

    def call(self, rid, name, fn, *args, **kwargs):
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the outcome is data here, never a crash
            out = exc
        self.items.append((rid, name, t0, perf_counter_ns()))
        return out

    def durations(self, name, rids=None) -> list:
        return [t1 - t0 for rid, n, t0, t1 in self.items
                if n == name and (rids is None or rid in rids)]

    def scaled_durations(self, name) -> list:
        """Durations of the named spans at the reference speed (speed.py)."""
        spans = [(t1 - t0, self.cal.window(t0)) for _, n, t0, t1 in self.items if n == name]
        return self.cal.scale([d for d, _ in spans], [w for _, w in spans])

    def per_request(self, names, rids) -> list:
        """Sum of the named spans per request, for the requests in rids."""
        totals = dict.fromkeys(rids, 0)
        for rid, n, t0, t1 in self.items:
            if n in names and rid in totals:
                totals[rid] += t1 - t0
        return list(totals.values())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rid, name, t0, t1 in self.items:
                fh.write(json.dumps({"request": rid, "name": name, "start_ns": t0,
                                     "dur_ns": t1 - t0}) + "\n")


def build_system(sp, rid, lib, spec):
    """Mat2 values and the BilinearSystem for a plain-float system, timed."""
    mats = [sp.call(rid, "mat2.Mat2_new_us", lib.Mat2, *m) for m in spec.matrices()]
    drift = mats[0] if spec.drift is not None else None
    inputs = tuple(mats[1:] if drift is not None else mats)
    kind = lib.SystemKind.WITH_DRIFT if spec.kind == "drift" else lib.SystemKind.DRIFTLESS
    sp.call(rid, "mat2.linearly_independent_us", lib.linearly_independent, mats, lib.DEFAULT_TOL)
    return mats, sp.call(rid, "classify.BilinearSystem_us", lib.BilinearSystem, kind, drift, inputs)


def sweep_structure(sp, rid, lib, spec, mats, sys):
    """The verdict and the structure detectors analyze is built from."""
    tol = lib.DEFAULT_TOL
    verdict = sp.call(rid, "classify.analyze_us", lib.analyze, sys)
    for m in mats:
        sp.call(rid, "mat2.real_eigen_directions_us", lib.real_eigen_directions, m, tol)
    common = sp.call(rid, "structure.common_real_eigenvector_us",
                     lib.common_real_eigenvector, mats, tol)
    if isinstance(common, lib.Direction):
        sp.call(rid, "structure.triangularize_us", lib.triangularize, mats, common, tol)
    if spec.kind == "driftless" and len(mats) == 2:
        sp.call(rid, "structure.antidiagonalize_pair_us", lib.antidiagonalize_pair,
                mats[0], mats[1], tol)
    if len(mats) == 4:
        sp.call(rid, "structure.combine_inputs_us", lib.combine_inputs, *mats, tol)
    return verdict


def sweep_plan(sp, rid, lib, sys, verdict, xi, eta):
    """plan_transfer, then the public calls it is made of, in its own order.

    The plan_transfer span is named after the route the request took.
    """
    xv = sp.call(rid, "mat2.Vec2_new_us", lib.Vec2, *xi)
    ev = sp.call(rid, "mat2.Vec2_new_us", lib.Vec2, *eta)
    plan = sp.call(rid, "steer.plan_transfer", lib.plan_transfer, sys, xv, ev)
    at = len(sp.items) - 1
    route = _route(lib, plan, verdict)
    if isinstance(verdict, lib.Verdict) and verdict.klass is not lib.VerdictClass.UNCONTROLLABLE:
        eff = sp.call(rid, "classify.apply_reduction_us", lib.apply_reduction, sys,
                      verdict.reduction)
        if isinstance(eff, lib.BilinearSystem):
            if _sweep_route(sp, rid, lib, eff, verdict, xv, ev):
                route = "canonical" if isinstance(plan, lib.ControlPlan) else route
            b1, b2 = eff.inputs
            sp.call(rid, "structure.zero_bottom_row_pair_us", lib.zero_bottom_row_pair,
                    b1, b2, sys.tol)
            c1, c2 = b1 @ xv, b2 @ xv
            sp.call(rid, "mat2.solve2_us", lib.solve2, lib.Mat2(c1.x, c2.x, c1.y, c2.y), ev,
                    sys.tol)
    if isinstance(plan, lib.ControlPlan):
        sp.call(rid, "simulate.run_us", lib.run, sys, xv, plan)
        sp.call(rid, "simulate.verify_plan_us", lib.verify_plan, sys, xv, ev, plan)
        sp.call(rid, "simulate.step_us", lib.step, sys, xv, plan.steps[0])
    r, _, t0, t1 = sp.items[at]
    sp.items[at] = (r, f"steer.plan_transfer_us.{route}", t0, t1)
    return plan


def _route(lib, plan, verdict) -> str:
    if isinstance(plan, (lib.InExcludedSet, lib.NotControllablePair, lib.ZeroState)):
        return "refused"
    if isinstance(plan, Exception):
        return "failed"
    if verdict.klass is lib.VerdictClass.NEARLY_CONTROLLABLE:
        return "nearly"
    return "escape" if len(plan) == 2 else "one_step"


def _sweep_route(sp, rid, lib, eff, verdict, xv, ev) -> bool:
    """The steering calls plan_transfer makes; True on the two-step route."""
    if verdict.klass is lib.VerdictClass.NEARLY_CONTROLLABLE:
        sp.call(rid, "steer.one_step_us", lib.one_step, eff, xv, ev)
        return False
    b1, b2 = eff.inputs
    q = sp.call(rid, "quadform.gram_form_us", lib.gram_form, b1, b2)
    scale = lib.form_scale(b1, b2)
    lu = sp.call(rid, "quadform.zero_lines_us", lib.zero_lines, q, eff.tol, scale=scale)
    if lu.kind is lib.LineSetKind.ALL_OF_PLANE:
        sp.call(rid, "steer.canonical_steer_us", lib.canonical_steer, eff, xv, ev)
        return True
    if sp.call(rid, "steer.one_step_us", lib.one_step, eff, xv, ev) is None:
        escape = sp.call(rid, "steer.escape_step_us", lib.escape_step, eff, xv)
        if isinstance(escape, tuple):
            sp.call(rid, "steer.one_step_us", lib.one_step, eff, escape[1], ev)
    return False


def sweep_steps(sp, rid, lib, sys, xi, seed, trials=ORACLE_TRIALS):
    """The oracle's work as single step calls: random plans of length 1 to 3."""
    rng = random.Random(seed)
    x0 = lib.Vec2(*xi)
    for _ in range(trials):
        x = x0
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.uniform(-3.0, 3.0) for _ in range(sys.m))
            x = sp.call(rid, "simulate.step_us", lib.step, sys, x, u)


def child_probes(sp, rid_prefix, env, cwd):
    """Bare interpreter and bare import, each as a child process."""
    for k in range(CHILD_PROBES):
        for name, code in (("cli.interpreter_ms", "pass"), ("cli.import_ms", "import bilin2")):
            sp.call(f"{rid_prefix}{k}", name, subprocess.run, [_sys.executable, "-c", code], env=env,
                    cwd=cwd, stdout=subprocess.DEVNULL, check=True, timeout=120)


def cli_main(sp, rid, lib, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        return sp.call(rid, "cli.main_us", lib.cli.main, argv)


def probe_round(sp, lib, systems, round_no, cli_argvs, env, cwd):
    """The fixed probes: one plan request per route, one in-process CLI call per
    command, two oracle calls, and the bare interpreter and import children."""
    for k, (name, xi, eta) in enumerate(PROBES):
        rid = f"probe{round_no}.{k}"
        spec = FIXTURES[name]
        mats, sys = build_system(sp, rid, lib, spec)
        verdict = sweep_structure(sp, rid, lib, spec, mats, sys)
        plan = sweep_plan(sp, rid, lib, sys, verdict, xi, eta)
        if spec.klass != UNCONTROLLABLE:
            sp.probe_plans += 1
            sp.probe_plans_ok += (isinstance(plan, lib.ControlPlan)
                                  and checks.check_plan(spec, xi, eta, plan.steps) is None)
    for k, argv in enumerate(cli_argvs):
        cli_main(sp, f"probe{round_no}.cli{k}", lib, argv)
    for k, (name, xi) in enumerate(ORACLE_PROBES):
        sp.call(f"probe{round_no}.oracle{k}", "simulate.reachability_oracle_ms_per_1k",
                lib.reachability_oracle, systems[name], lib.Vec2(*xi), 1000, seed=round_no)
    child_probes(sp, f"probe{round_no}.child", env, cwd)


def layer_metrics(sp) -> dict:
    """Median span per layer metric at the reference speed, in the metric's unit."""
    out = {}
    for name, unit, _ in LAYER_METRICS:
        durs = sp.scaled_durations(name)
        if not durs:
            raise RuntimeError(f"no spans recorded for {name}")
        out[name] = {"value": statistics.median(durs) / (1e6 if unit == "ms" else 1e3),
                     "unit": unit}
    return out


def timed_rounds(budget_s, round_fn):
    """Call round_fn(k) for k = 0, 1, ... until budget_s is spent (at least once)."""
    deadline = perf_counter() + budget_s
    k = 0
    while k == 0 or perf_counter() < deadline:
        round_fn(k)
        k += 1

