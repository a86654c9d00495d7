"""The four workloads and the closed loop that drives them.

Each workload has one caller in one process that sends its next request
only after the previous one returns.  An op is one call into the library
(or one CLI child process); only that call is inside the timed interval.
Every outcome is judged against the construction of its input, and the first
``count_ops`` outcomes of a run are tallied into exact counts that depend on
the seed alone.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys as _sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple, Optional

import checks
import inputs
import speed
import layers
from inputs import FIXTURES, ORACLE_TRIALS

class Outcome(NamedTuple):
    key: str                  # what happened, for the exact counts
    failure: Optional[str]    # None when the outcome is the expected one
    signature: object         # bit-exact fingerprint, compared when a request repeats
    plan_expected: bool = False
    plan_ok: bool = False


class LoopResult(NamedTuple):
    raw_ns: list              # op latencies as timed
    scaled_ns: list           # the same at the reference speed (speed.py)
    traced: list              # whether each op ran under spans
    speed: float              # run-wide kernel median over speed.REF_NS
    attempted: int
    failed: int
    failures: Counter
    checked_failed: int       # failures among the first count_ops ops (the count pass)


class Workload:
    """Base: a request sequence, the timed call, and the judge of its outcome."""

    name = ""
    count_ops = 0
    # The gated tail: the highest rung whose run-to-run spread stayed under a
    # third of its bound on a shared 2-core host.  Every rung of the whole
    # run is printed and kept in the details file as well.
    tail_pct = 90.0
    tail_segments = 10    # the tail is the median of this many parts of the run
    trace_block = 64      # traced runs alternate blocks of this many ops
    parts = frozenset()   # span names that together make up one op
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, lib, root: Path, out_dir: Path):
        self.lib = lib
        self.root = root
        self.out_dir = out_dir
        self.counts = Counter()
        self.plan_expected = 0
        self.plan_ok = 0
        self.mismatches = 0
        self._seen = {}
        self.kinds = {"drift": lib.SystemKind.WITH_DRIFT, "driftless": lib.SystemKind.DRIFTLESS}

    def build(self, spec):
        m = self.lib.Mat2
        drift = m(*spec.drift) if spec.drift is not None else None
        return self.lib.BilinearSystem(self.kinds[spec.kind], drift,
                                       tuple(m(*b) for b in spec.inputs))

    def fixture_systems(self) -> dict:
        return {name: self.build(spec) for name, spec in FIXTURES.items()}

    # Subclasses provide these.
    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def request(self, i: int):
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def judge(self, req, result) -> Outcome:
        raise NotImplementedError

    def pool_index(self, i: int) -> Optional[int]:
        return None

    def sweep_requests(self, k: int) -> list:
        raise NotImplementedError

    def sweep_parts(self, sp, rid, req) -> None:
        """The public calls one op is made of, each under its own span."""
        raise NotImplementedError

    def sweep(self, sp, budget_s: float) -> list:
        """Rounds of traced layer calls on this workload's own requests, each
        beside a span of the whole op, then the fixed probes; returns the
        request ids of the workload's own requests."""
        rids = []
        systems = self.fixture_systems()
        files = write_fixture_files(self.out_dir / "systems")
        argvs = [cli_argv(cmd, files) for cmd in inputs.cli_commands(0)]
        env, cwd = child_env(self.root), str(self.out_dir)

        sp.cal = speed.Calibration(perf_counter_ns())

        def one_round(k):
            for n, req in enumerate(self.sweep_requests(k)):
                rid = f"r{k}.{n}"
                window = sp.cal.window(perf_counter_ns())
                sp.call(rid, "op", self.call, req)
                self.sweep_parts(sp, rid, req)
                sp.cal.after_op(window, perf_counter_ns())
                rids.append(rid)
            window = sp.cal.window(perf_counter_ns())
            layers.probe_round(sp, self.lib, systems, k, argvs, env, cwd)
            sp.cal.after_op(window, perf_counter_ns())

        layers.timed_rounds(budget_s, one_round)
        return rids

    def run_loop(self, seconds: float, sp=None, block: int = 0) -> LoopResult:
        """Closed loop for ``seconds``, and at least over the first count_ops requests.

        With spans, every other run of ``block`` ops is traced, so traced and
        untraced ops share the same stretch of machine time.  The reference
        kernel runs between ops (see speed.py).
        """
        raw, windows, traced = [], [], []
        failures = Counter()
        attempted = failed = checked_failed = 0
        cal = speed.Calibration(perf_counter_ns())
        deadline = perf_counter() + seconds
        i = 0
        while i < self.count_ops or perf_counter() < deadline:
            req = self.request(i)
            t0 = perf_counter_ns()
            try:
                result = self.call(req)
            except Exception as exc:  # a leaked exception is an outcome to judge
                result = exc
            t1 = perf_counter_ns()
            out = self.judge(req, result)
            is_traced = sp is not None and bool((i // block) % 2)
            if is_traced:
                sp.items.append((i, "op", t0, t1))
                sp.items.append((i, "check", t1, perf_counter_ns()))
            raw.append(t1 - t0)
            traced.append(is_traced)
            windows.append(cal.window(t0))
            cal.after_op(windows[-1], perf_counter_ns())
            attempted += 1
            if out.failure is not None:
                failed += 1
                failures[out.failure] += 1
            if i < self.count_ops:
                self.counts[out.key] += 1
                checked_failed += out.failure is not None
                self.plan_expected += out.plan_expected
                self.plan_ok += out.plan_ok
                if i == self.count_ops - 1:
                    # Read here, after a fixed amount of work, so that a faster
                    # library (more ops, longer latency lists) reads the same.
                    self.peak_rss_kb = resource.getrusage(self.rusage_who).ru_maxrss
            j = self.pool_index(i)
            if j is not None and self._seen.setdefault(j, out.signature) != out.signature:
                self.mismatches += 1
            i += 1
        return LoopResult(raw, cal.scale(raw, windows), traced, cal.speed(),
                          attempted, failed, failures, checked_failed)

    def coverage(self, sp, rids) -> float:
        """Median summed time of the op's parts over the median op, per request."""
        return (statistics.median(sp.per_request(self.parts, rids))
                / statistics.median(sp.durations("op", set(rids))))


def write_fixture_files(directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, spec in FIXTURES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(inputs.system_json(spec)), encoding="utf-8")
        files[name] = str(path)
    return files


def cli_argv(cmd, files) -> list:
    argv = [cmd.command, files[cmd.system]]
    if cmd.command == "steer":
        argv += ["--from", f"{cmd.xi[0]!r},{cmd.xi[1]!r}", "--to", f"{cmd.eta[0]!r},{cmd.eta[1]!r}"]
    return argv


def _exc_name(result) -> Optional[str]:
    return type(result).__name__ if isinstance(result, Exception) else None


class ClassifyMix(Workload):
    name = "classify-mix"
    count_ops = 2000
    parts = frozenset({"mat2.Mat2_new_us", "classify.BilinearSystem_us", "classify.analyze_us"})
    block = 4096
    pregenerated_blocks = 1

    def setup(self, seed):
        self.seed = seed
        self.blocks = {b: inputs.classify_block(seed, b, self.block)
                       for b in range(self.pregenerated_blocks)}
        for spec in self.blocks[0][:50]:
            try:
                self.call(spec)
            except Exception:  # warm-up only; outcomes are judged in the loop
                pass

    def request(self, i):
        b = i // self.block
        if b not in self.blocks:
            self.blocks[b] = inputs.classify_block(self.seed, b, self.block)
            self.blocks.pop(b - self.pregenerated_blocks, None)
        return self.blocks[b][i % self.block]

    def call(self, spec):
        return self.lib.analyze(self.build(spec))

    def judge(self, spec, result):
        scale = "scaled" if spec.name.endswith(".scaled") else "unit"
        observed = _exc_name(result)
        failure = observed
        if observed is None:
            observed = result.klass.value
            region = result.largest_region
            failure = checks.check_verdict(spec, observed, (region.x, region.y) if region else None)
        return Outcome(f"{spec.shape}.{scale}.{spec.klass}->{observed}", failure, None)

    def sweep_requests(self, k):
        return [self.request(k * 200 + n) for n in range(200)]

    def sweep_parts(self, sp, rid, spec):
        mats, sys = layers.build_system(sp, rid, self.lib, spec)
        if not isinstance(sys, Exception):
            layers.sweep_structure(sp, rid, self.lib, spec, mats, sys)


class PlanStream(Workload):
    name = "plan-stream"
    count_ops = inputs.PLAN_REQUESTS
    parts = frozenset({"mat2.Vec2_new_us", "classify.analyze_us", "classify.apply_reduction_us",
                       "quadform.gram_form_us", "quadform.zero_lines_us", "steer.one_step_us",
                       "steer.escape_step_us", "steer.canonical_steer_us", "simulate.run_us"})

    def setup(self, seed):
        self.systems = self.fixture_systems()
        self.pool = inputs.plan_requests(seed)
        firsts = {}
        for req in self.pool:
            firsts.setdefault(req.route, req)
        for req in firsts.values():
            try:
                self.call(req)
            except Exception:  # warm-up only
                pass

    def request(self, i):
        return self.pool[i % len(self.pool)]

    def pool_index(self, i):
        return i % len(self.pool)

    def call(self, req):
        vec = self.lib.Vec2
        return self.lib.plan_transfer(self.systems[req.system], vec(*req.xi), vec(*req.eta))

    def judge(self, req, result):
        observed = _exc_name(result)
        expects_plan = req.expect == "plan"
        if observed is not None:
            failure = None if observed == req.expect else observed
            signature = observed
        else:
            steps = result.steps
            observed = f"plan{len(steps)}"
            failure = (checks.check_plan(FIXTURES[req.system], req.xi, req.eta, steps)
                       if expects_plan else "unexpected_plan")
            signature = steps
        scale = "scaled" if req.scaled else "unit"
        return Outcome(f"{req.route}.{scale}.{observed}", failure, signature,
                       expects_plan, expects_plan and failure is None)

    def sweep_requests(self, k):
        return self.pool[600 * k % len(self.pool):][:600]

    def sweep_parts(self, sp, rid, req):
        sys = self.systems[req.system]
        verdict = layers.sweep_structure(sp, rid, self.lib, FIXTURES[req.system],
                                        sys.matrices(), sys)
        layers.sweep_plan(sp, rid, self.lib, sys, verdict, req.xi, req.eta)


class OracleCloud(Workload):
    name = "oracle-cloud"
    tail_pct = 75.0
    tail_segments = 1
    trace_block = 1
    parts = frozenset({"simulate.step_us"})

    def setup(self, seed):
        self.systems = self.fixture_systems()
        self.pool = inputs.oracle_requests(seed)
        self.count_ops = len(self.pool)
        self.lib.reachability_oracle(self.systems["readme"], self.lib.Vec2(1.0, 1.0), 20)

    def request(self, i):
        return self.pool[i % len(self.pool)]

    def pool_index(self, i):
        return i % len(self.pool)

    def call(self, req):
        return self.lib.reachability_oracle(self.systems[req.system], self.lib.Vec2(*req.xi),
                                            ORACLE_TRIALS, seed=req.seed)

    def judge(self, req, result):
        observed = _exc_name(result)
        if observed is not None:
            return Outcome(f"{req.start}.{observed}", observed, observed)
        samples = tuple((s.x, s.y) for s in result.samples)
        rank = result.covariance_rank
        failure = checks.check_oracle(FIXTURES[req.system], req.xi, req.rank, ORACLE_TRIALS,
                                      rank, samples)
        return Outcome(f"{req.start}.rank{rank}", failure, (rank, samples))

    def sweep_requests(self, k):
        return self.pool[3 * k % len(self.pool):][:3]

    def sweep_parts(self, sp, rid, req):
        sys = self.systems[req.system]
        layers.sweep_structure(sp, rid, self.lib, FIXTURES[req.system], sys.matrices(), sys)
        layers.sweep_steps(sp, rid, self.lib, sys, req.xi, req.seed)


class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 75.0
    tail_segments = 1
    trace_block = 1
    rusage_who = resource.RUSAGE_CHILDREN
    parts = frozenset({"cli.main_us"})

    def setup(self, seed):
        self.files = write_fixture_files(self.out_dir / "systems")
        self.pool = inputs.cli_commands(seed)
        self.count_ops = len(self.pool)
        self.env = child_env(self.root)
        self.cwd = str(self.out_dir)
        # First-call warm-up, and proof that children import this checkout.
        proc = subprocess.run([_sys.executable, "-c", "import bilin2; print(bilin2.__file__)"],
                              env=self.env, cwd=self.cwd, capture_output=True, text=True,
                              timeout=120)
        where = proc.stdout.strip()
        if proc.returncode != 0 or not checkout_module(where, self.root):
            raise CheckoutError(f"child processes import bilin2 from {where or proc.stderr!r}, "
                                f"not from {self.root / 'src'}")

    def request(self, i):
        return self.pool[i % len(self.pool)]

    def pool_index(self, i):
        return i % len(self.pool)

    def call(self, cmd):
        return subprocess.run([_sys.executable, "-m", "bilin2.cli"] + cli_argv(cmd, self.files),
                              env=self.env, cwd=self.cwd, capture_output=True, text=True,
                              timeout=120)

    def judge(self, cmd, result):
        observed = _exc_name(result)
        expects_plan = cmd.expect == "plan"
        if observed is not None:
            return Outcome(f"{cmd.command}.{cmd.system}.{observed}", observed, observed,
                           expects_plan)
        failure = checks.check_cli(cmd, FIXTURES[cmd.system], result.returncode, result.stdout)
        return Outcome(f"{cmd.command}.{cmd.system}.exit{result.returncode}", failure,
                       (result.returncode, result.stdout), expects_plan,
                       expects_plan and failure is None)

    def sweep_requests(self, k):
        return self.pool

    def sweep_parts(self, sp, rid, cmd):
        layers.cli_main(sp, rid, self.lib, cli_argv(cmd, self.files))

    def coverage(self, sp, rids):
        """Bare import (which includes interpreter start) and the in-process
        CLI call, over the child process."""
        parts = (statistics.median(sp.durations("cli.import_ms"))
                 + statistics.median(sp.per_request(self.parts, rids)))
        return parts / statistics.median(sp.durations("op", set(rids)))


class CheckoutError(RuntimeError):
    """bilin2 resolved somewhere other than the checkout under test."""


def checkout_module(path: str, root: Path) -> bool:
    try:
        return Path(path).resolve().is_relative_to((root / "src" / "bilin2").resolve())
    except (OSError, ValueError):
        return False


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BILIN2_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (ClassifyMix, PlanStream, OracleCloud, CliCold)}
