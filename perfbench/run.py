"""amalg's benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload {decompose,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  One caller, no threads: each operation
starts only after the previous one returns, and the cli workload runs one
child process at a time.  The seed draws a pass: a fixed mix of input
families whose sizes come from fixed strata.  The pass runs over and over,
in a new order each time, until S seconds have passed (the first pass
always completes).  Each input's latency is its fastest run, which drops the
time lost to other tenants of a shared host (their load slows the same code
by up to 2x for seconds at a time), read at the host's nominal speed by the
probes either side of it (hostspeed.py).  Every output of every run is checked against the benchmark's
own arithmetic (oracle.py), never against amalg's evaluator.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics
from a traced run (tracer.py), whose spans are also written to
.perfbench-out/.  The line before it reports the tail percentile, counts,
unscaled and first-pass figures and any failures.  Exit code 2 means the benchmark could
not run.  perfbench/design.json records the design.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import child
import hostspeed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"

SETUP_REPEATS = 7
# A run that is still going after this many seconds stops and reports what it
# has, with the operation in flight counted as failed (timed out).
DEADLINE_S = 160
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Per-layer metrics that only some workloads measure; the others report 0.
WORKLOAD_SPECIFIC = ("matgroup.euclid_steps", "matgroup.form_syllables",
                     "cli.process_s", "cli.run_s", "cli.startup_s", "cli.import_s")
# The self-check draws its inputs from --seed plus this offset.
SELF_CHECK_SEED_OFFSET = 7919


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no op handler swallows it."""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_amalg() -> None:
    if not (SRC / "amalg" / "__init__.py").is_file():
        fail(f"no amalg sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import amalg

    if Path(amalg.__file__).resolve().parent != (SRC / "amalg").resolve():
        fail(f"imported amalg from {amalg.__file__}, not from {SRC}")


def percentile(sorted_xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(n: int, preferred: float) -> float:
    """The workload's tail percentile, or the highest lower rung of the ladder
    that leaves at least TAIL_MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if p <= preferred and n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def cold_setup_seconds(workload: str) -> list[float]:
    """Nominal-speed wall times of SETUP_REPEATS cold set-ups, each in a
    fresh child."""
    out = []
    before = hostspeed.between()
    for _ in range(SETUP_REPEATS):
        code, _, err, dt = child.run([sys.executable, str(BENCH / "cold_setup.py"), workload],
                                     None, ROOT)
        if code:
            fail(f"cold set-up of {workload} failed: {err[-500:]!r}")
        after = hostspeed.between()
        out.append(hostspeed.scaled(dt, before, after))
        before = after
    return out


class Tally:
    """Attempted and failed runs, with the first few reasons per family."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, list[str]] = {}

    def record(self, family: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            shown = self.reasons.setdefault(family, [])
            if len(shown) < 3:
                shown.append(reason)


def attempt(run, check, op):
    """Run one op; returns (output, seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        out = run(op)
    except Exception as e:  # an unexpected exception is a failed op
        return None, time.perf_counter() - t0, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return out, dt, check(op, out)


def self_check(wl, seed: int) -> None:
    """Smallest sizes: real outputs must pass the checks, corrupted ones fail."""
    ops = wl.make_pass(random.Random(seed + SELF_CHECK_SEED_OFFSET), small=True)
    if wl.name == "cli":
        ops = [op for op in ops if op.code == 0][:1] + [op for op in ops if op.code != 0][:1]
    for op in ops:
        out, _, reason = attempt(wl.run, wl.check, op)
        if reason is not None:
            fail(f"self-check: {wl.name} op {op!r:.200} failed: {reason}")
        if wl.check(op, wl.corrupt(op, out)) is None:
            fail(f"self-check: a corrupted {wl.name} output passed the check")


def passes(rng: random.Random, n: int, seconds: float):
    """Indices 0..n-1 pass after pass, each pass in a new order, until
    `seconds` have passed; the first pass always completes.  Yields
    (pass number, index)."""
    start = time.perf_counter()
    k = 0
    while True:
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            if k and time.perf_counter() - start >= seconds:
                return
            yield k, i
        k += 1


def untraced_phase(wl, ops: list, rng: random.Random, seconds: float, tally: Tally) -> dict:
    """Per op: the fastest run, that run at nominal speed, and the first-pass
    run; and the number of passes and the median probe."""
    best = [float("inf")] * len(ops)
    best_scaled = [0.0] * len(ops)
    first = [0.0] * len(ops)
    probes = [hostspeed.between()]
    k = 0
    for k, i in passes(rng, len(ops), seconds):
        try:
            _, dt, reason = attempt(wl.run, wl.check, ops[i])
        except Deadline:
            tally.record(ops[i].family, "timeout")
            raise
        tally.record(ops[i].family, reason)
        probes.append(hostspeed.between())
        if dt < best[i]:
            best[i] = dt
            best_scaled[i] = hostspeed.scaled(dt, probes[-2], probes[-1])
        if k == 0:
            first[i] = dt
    return {"best": best, "scaled": best_scaled, "first": first, "passes": k + 1,
            "probe": statistics.median(probes)}


def traced_phase(wl, ops: list, rng: random.Random, seconds: float, tally: Tally,
                 tracer) -> dict[str, float]:
    """Each op runs once untraced and once traced; returns the per-op counters
    and the timings the per-layer metrics need besides the spans."""
    cli = wl.name == "cli"
    # In the cli workload the traced and untraced runs are in-process
    # cli.run(argv) calls, next to the child process that users pay for.
    run = wl.run_in_process if cli else wl.run
    counters: dict[str, float] = {}
    untraced = traced = 0.0
    process_s, run_s, startup_s = [], [], []
    for _, i in passes(rng, len(ops), seconds):
        op = ops[i]
        try:
            reasons = []
            if cli:
                _, p_dt, reason = attempt(wl.run, wl.check, op)
                reasons.append(reason)
            # Alternate which of the pair goes first, so that neither always
            # finds the caches warmed by the other.
            for traced_run in (False, True) if tally.attempted % 2 else (True, False):
                if traced_run:
                    with tracer.installed():
                        _, dt_t, reason = attempt(lambda o: tracer.call(tracing.OP, run, o), wl.check, op)
                else:
                    out, dt, reason = attempt(run, wl.check, op)
                reasons.append(reason)
        except Deadline:
            tally.record(op.family, "timeout")
            raise
        tally.record(op.family, next((r for r in reasons if r is not None), None))
        untraced += dt
        traced += dt_t
        if cli:
            process_s.append(p_dt)
            run_s.append(dt)
            startup_s.append(p_dt - dt)
        if out is not None:
            for k, v in wl.counters(op, out).items():
                counters[k] = counters.get(k, 0.0) + v
    n = max(tally.attempted, 1)
    extra = dict.fromkeys(WORKLOAD_SPECIFIC, 0.0)
    extra.update({k: v / n for k, v in counters.items()})
    extra["trace.untraced_ops_per_s"] = n / untraced
    extra["trace.traced_ops_per_s"] = n / traced
    extra["trace.overhead"] = traced / untraced
    if cli:
        extra["cli.process_s"] = statistics.median(process_s)
        extra["cli.run_s"] = statistics.median(run_s)
        extra["cli.startup_s"] = statistics.median(startup_s)
        extra["cli.import_s"] = statistics.median(wl.import_seconds() for _ in range(SETUP_REPEATS))
    return extra


def summarize(latencies: list[float], p: float) -> dict[str, float]:
    lat = sorted(latencies)
    return {"ops_per_s": len(lat) / sum(lat), "p50_ms": 1e3 * statistics.median(lat),
            "tail_ms": 1e3 * percentile(lat, p)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    wanted = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    load_amalg()
    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}")
    wl = workloads.make(args.workload, ROOT)

    def on_alarm(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)

    setup_s = statistics.median(cold_setup_seconds(wl.name)) if not args.trace else 0.0
    wl.setup()
    self_check(wl, args.seed)

    rng = random.Random(args.seed)
    ops = wl.make_pass(rng)
    tally = Tally()
    tracer = tracing.Tracer()
    metrics: dict[str, float] = {}
    timed = {}
    timed_out = False
    try:
        if args.trace:
            metrics.update(traced_phase(wl, ops, rng, args.seconds, tally, tracer))
        else:
            timed = untraced_phase(wl, ops, rng, args.seconds, tally)
    except Deadline:
        timed_out = True
    signal.alarm(0)

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "inputs": len(ops),
            "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
            "timed_out": timed_out}
    if args.trace and not timed_out:
        metrics.update(tracer.summary(max(tally.attempted, 1)))
        out_path = ROOT / ".perfbench-out" / f"spans-{wl.name}-{args.seed}.csv.gz"
        tracer.write(out_path)
        info.update(spans=tracer.spans_seen, spans_kept=len(tracer.span_name),
                    spans_file=str(out_path.relative_to(ROOT)),
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    elif timed:
        p = tail_percentile(len(ops), wl.tail_percentile)
        info.update(tail_percentile=p, passes=timed["passes"],
                    host_slowdown=timed["probe"] / hostspeed.NOMINAL_S,
                    fastest=summarize(timed["best"], p), first_pass=summarize(timed["first"], p))
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        metrics = summarize(timed["scaled"], p)
        metrics.update(setup_s=setup_s, peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
                       success_rate=(tally.attempted - tally.failed) / tally.attempted)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not timed_out:
        fail(f"metrics not computed: {missing}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and not timed_out,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
