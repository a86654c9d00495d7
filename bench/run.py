"""bilin2 benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload plan-stream --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures that checkout's ``src``: the
library is imported from there, CLI children get it first on PYTHONPATH,
and the run stops with an error when ``bilin2`` resolves anywhere else.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans around the benchmark's own calls into each
module.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (environment, exact counts with their bases, the tail
percentile) also go to ``.bench_out/`` in the checkout, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# The default seed is the one the benchmark was tuned on; claims must also
# hold on the held-out seed, which was not used while tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

SETUP_REPEATS = 7
# Share of a traced run spent in the loop; the layer sweep gets the rest.
TRACE_LOOP_SHARE = 0.7
THROUGHPUT_PARTS = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10


def import_checkout():
    """Import bilin2 from this checkout's src, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bilin2
        import bilin2.cli  # noqa: F401  (the CLI layer is measured in process too)
    except ImportError as exc:
        sys.exit(f"error: cannot import bilin2 from {src}: {exc}")
    import workloads
    if not workloads.checkout_module(bilin2.__file__, ROOT):
        sys.exit(f"error: bilin2 resolves to {bilin2.__file__}, not to {src}")
    return bilin2


IMPORT_PROBE = ("from time import perf_counter as t; t0 = t(); import bilin2, bilin2.cli; "
                "print(t() - t0, bilin2.__file__)")


def import_in_child() -> float:
    """Seconds a fresh interpreter takes to import this checkout's bilin2."""
    import workloads
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=workloads.child_env(ROOT),
                          cwd=str(OUT_DIR), capture_output=True, text=True, timeout=120)
    seconds, _, where = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or not workloads.checkout_module(where, ROOT):
        sys.exit(f"error: a fresh interpreter imports bilin2 from {where or proc.stderr!r}, "
                 f"not from {ROOT / 'src'}")
    return float(seconds)


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def source_digest() -> str:
    """Digest of the library and benchmark sources, to key stored counts."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(ordered: list, pct: float):
    """(value, samples beyond) at pct of a sorted list, by nearest rank."""
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def tail(latencies_ns: list, pct: float, segments: int):
    """(value, percentile, samples beyond it per segment).

    The run is cut into ``segments`` equal consecutive parts; the value is
    the median over the parts of each part's percentile, so a burst of
    interference in one part does not set it.  The percentile is the
    workload's, or the highest rung below it that leaves MIN_BEYOND_TAIL
    samples beyond it in every part.
    """
    n = len(latencies_ns)
    parts = [sorted(latencies_ns[k * n // segments:(k + 1) * n // segments])
             for k in range(segments)]
    rungs = [p for p in TAIL_LADDER if p <= pct]
    for p in reversed(rungs):
        found = [percentile(part, p) for part in parts]
        beyond = min(b for _, b in found)
        if beyond >= MIN_BEYOND_TAIL or p == rungs[0]:
            return statistics.median(v for v, _ in found), p, beyond
    raise AssertionError("unreachable")


def throughput(latencies_ns: list) -> float:
    """Ops per second of op time: the median over THROUGHPUT_PARTS equal
    consecutive parts of the run, so a slow stretch in one part does not set it."""
    n = len(latencies_ns)
    parts = [latencies_ns[k * n // THROUGHPUT_PARTS:(k + 1) * n // THROUGHPUT_PARTS]
             for k in range(THROUGHPUT_PARTS)]
    return statistics.median(len(p) / (sum(p) / 1e9) for p in parts if p)


def stored_counts(work, seed: int, counts: dict) -> bool:
    """Store the exact counts of this seed and source, or compare with a stored copy."""
    directory = OUT_DIR / "counts"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{work.name}-seed{seed}-{source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8")) == counts
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return True


def main(argv=None) -> int:
    import workloads as wl
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import speed
    env = environment()
    t0 = perf_counter()
    lib = import_checkout()
    import_s = perf_counter() - t0

    import checks
    import layers
    OUT_DIR.mkdir(exist_ok=True)
    work = wl.WORKLOADS[args.workload](lib, ROOT, OUT_DIR)
    # The import can happen once in this process, so it is also timed in
    # fresh interpreters.  Each set-up time is scaled by reference-kernel runs
    # made just before and just after it, so that a drift of the machine's
    # speed between set-up and loop does not move it.
    imports, imports_scaled, setups, setups_scaled = [], [], [], []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        imports.append(import_in_child())
        imports_scaled.append(speed.scaled(imports[-1], before + speed.sample()))
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        t0 = perf_counter()
        try:
            work.setup(args.seed)
        except wl.CheckoutError as exc:
            sys.exit(f"error: {exc}")
        setups.append(perf_counter() - t0)
        setups_scaled.append(speed.scaled(setups[-1], before + speed.sample()))
    self_test = checks.self_test()

    sp = layers.Spans() if args.trace else None
    if args.trace:
        loop = work.run_loop(args.seconds * TRACE_LOOP_SHARE, sp=sp, block=work.trace_block)
        rids = work.sweep(sp, args.seconds * (1.0 - TRACE_LOOP_SHARE))
    else:
        loop = work.run_loop(args.seconds)

    setup_s = statistics.median(imports_scaled) + statistics.median(setups_scaled)
    lat = loop.scaled_ns
    ops_per_s = throughput(lat)
    p50 = statistics.median(lat)
    tail_ns, tail_pct, beyond = tail(lat, work.tail_pct, work.tail_segments)
    ordered = sorted(lat)
    ladder = [(p, *percentile(ordered, p)) for p in TAIL_LADDER]
    peak_rss_mb = work.peak_rss_kb / 1024.0

    counts = dict(sorted(work.counts.items()))
    counts_base = work.count_ops
    plan_base = work.plan_expected
    plan_ok = work.plan_ok
    reproduced = stored_counts(work, args.seed, {"counts": counts, "plan_ok": plan_ok,
                                                 "plan_expected": plan_base,
                                                 "failed": loop.checked_failed})
    problems = []
    if not all(ok for _, ok in self_test):
        problems.append("checker self-test failed: "
                        + ", ".join(name for name, ok in self_test if not ok))
    if work.mismatches:
        problems.append(f"{work.mismatches} repeated requests gave a different outcome")
    if not reproduced:
        problems.append("exact counts differ from an earlier run with the same seed and sources")

    if args.trace:
        metrics = layers.layer_metrics(sp)
        if plan_base == 0:
            # No op of this workload expects a plan: use the sweep's plan probes.
            plan_base, plan_ok = sp.probe_plans, sp.probe_plans_ok
        # Ops per second of the traced ops over that of the untraced ops
        # interleaved with them: the mean latencies, inverted.
        plain = [ns for ns, t in zip(lat, loop.traced) if not t]
        traced = [ns for ns, t in zip(lat, loop.traced) if t]
        overhead = (sum(plain) / len(plain)) / (sum(traced) / len(traced))
        metrics["steer.plan_ok_ratio"] = {"value": plan_ok / plan_base, "unit": "ratio"}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        metrics["trace.coverage_ratio"] = {"value": work.coverage(sp, rids), "unit": "ratio"}
        (OUT_DIR / "trace").mkdir(exist_ok=True)
        sp.write(OUT_DIR / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_us": {"value": p50 / 1e3, "unit": "us"},
            "latency_tail_us": {"value": tail_ns / 1e3, "unit": "us"},
            "ok_ratio": {"value": 1.0 - loop.failed / loop.attempted, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "latency": {"samples": len(lat), "p50_us": p50 / 1e3, "tail_pct": tail_pct,
                    "tail_us": tail_ns / 1e3, "tail_segments": work.tail_segments,
                    "samples_beyond_tail_per_segment": beyond,
                    "whole_run_us": {f"p{p:g}": v / 1e3 for p, v, _ in ladder},
                    "raw_p50_us": statistics.median(loop.raw_ns) / 1e3,
                    "machine_speed": loop.speed},
        "failure_ratio": {"failed": loop.failed, "attempted": loop.attempted,
                          "value": loop.failed / loop.attempted},
        "failures_by_type": dict(sorted(loop.failures.items())),
        "exact_counts": {"base": counts_base, "counts": counts, "failed": loop.checked_failed,
                         "plan_ok": plan_ok, "plan_expected": plan_base},
        "setup_s_repeats": setups, "setup_s_repeats_scaled": setups_scaled,
        "import_s_in_process": import_s, "import_s_repeats": imports,
        "import_s_repeats_scaled": imports_scaled,
        "self_test": dict(self_test), "problems": problems, "metrics": metrics,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    print(f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"cpu {env['cpu']}  loadavg {env['loadavg_at_start']}")
    print(f"# latency at reference speed: {len(lat)} samples, p50 {p50 / 1e3:.3f} us, "
          f"p{tail_pct:g} {tail_ns / 1e3:.3f} us (median over {work.tail_segments} parts of the "
          f"run, each with at least {beyond} samples beyond it)")
    print("# whole run: " + ", ".join(f"p{p:g} {v / 1e3:.3f} us ({b} beyond)" for p, v, b in ladder))
    print(f"# as timed: p50 {statistics.median(loop.raw_ns) / 1e3:.3f} us; reference kernel "
          f"{loop.speed:.4f} x its reference time")
    print(f"failure_ratio {loop.failed / loop.attempted!r} ratio  "
          f"# {loop.failed} failed / {loop.attempted} attempted")
    for key, n in sorted(loop.failures.items()):
        print(f"#   failed.{key} {n} / {loop.attempted}")
    print(f"# exact counts over the first {counts_base} ops ({loop.checked_failed} failed; "
          f"the result line's attempted and failed):")
    for key, n in counts.items():
        print(f"#   {key} {n} / {counts_base}")
    if plan_base:
        print(f"# verified plans {plan_ok} / {plan_base} expected to succeed")
    print(f"# checker self-test: {sum(ok for _, ok in self_test)} / {len(self_test)} cases right")
    moves = {name: where for name, _, where in layers.LAYER_METRICS}
    for name, metric in metrics.items():
        note = f"  # should move {moves[name]}" if name in moves else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    # attempted and failed are those of the count pass, which the seed and the
    # code fix, so runs of the same seed report the same figures however fast
    # the machine is; failures over the whole loop are in failure_ratio above.
    print(json.dumps({"correct": not problems, "attempted": counts_base,
                      "failed": loop.checked_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
