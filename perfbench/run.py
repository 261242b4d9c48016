"""ldga benchmark: one workload, one seed, timed end to end or traced by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory, and nothing outside the checkout is read or written.  Every op's
answer is checked against an oracle (see workloads.py).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s        median of SETUP_PROBES fresh processes, spread through the
                 run, of the time from spawn until the `ldga` import and the
                 workload's inputs are loaded, i.e. until a first pass could
                 start; in reference seconds, from PROBE_LOOPS reference
                 loops the probe runs once it is ready
  pass_s.ref     median over passes of the pass time in reference seconds
                 (see RefClock): the time the pass would take on a machine
                 that runs the reference loop in REF_LOOP_S
  ops_per_s.ref  ops answered correctly per pass / pass_s.ref
  peak_rss_mb    peak resident memory of the process doing the work (the CLI
                 subprocesses for cli-small)
A pass's time is the sum of its timed steps.  The raw median pass time
(pass_s.p50), its tail (the highest percentile with ten passes beyond it, or
the slowest pass when there are 20 passes or fewer) and the raw ops_per_s
are printed with their sample count but are not bounded metrics: the speed
of a shared host drifts by more than their bounds between runs (README.md
gives the measurements).  failed_frac (failed ops / attempted ops) is
printed with its base; the same counts are the `failed` and `attempted`
keys of the JSON line.

--trace 1 alternates untraced and traced passes and reports per-layer self
times and counters per traced pass (see tracing.py), trace.unattributed_s
(the benchmark's own time plus library code outside the traced entry
points) and trace.overhead_frac (median traced over median untraced pass
time, - 1; alternating passes see the same machine speed).
Spans are written to .perfbench/spans-<workload>-<seed>.jsonl.

Both modes run one untimed warm-up pass first, so lazily built tables are
in place.  A new pass starts only while it is expected to end within
--seconds, after a minimum of MIN_PASSES.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
REF_LOOP_S = 0.0008  # nominal reference loop time that defines a reference second
REF_EVERY_S = 0.01  # one reference loop per this much timed work
PROBE_LOOPS = 10  # reference loops a set-up probe runs once it is ready


def reference_loop() -> int:
    """Fixed plain-Python work, about REF_LOOP_S on a 2-core x86 VM: int
    arithmetic and dict updates, then list-of-lists row operations.  It calls
    no ldga code, so no change to the program can change its speed."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        acc ^= k
    rows = [[(i * 31 + j * 17) % 3 & 1 for j in range(48)] for i in range(48)]
    for i in range(1, 48):
        if rows[i][0]:
            rows[i] = [x ^ y for x, y in zip(rows[i], rows[0])]
    return acc + len(table) + sum(map(sum, rows))


def loop_time(n: int) -> float:
    """Mean time of n reference loops, after one untimed loop."""
    reference_loop()
    start = time.perf_counter()
    for _ in range(n):
        reference_loop()
    return (time.perf_counter() - start) / n


class RefClock:
    """Measures how fast the machine runs while a pass runs.

    On a shared host the speed of one core drifts by tens of percent over
    seconds to minutes, more than a run can average out (README.md).  After
    each timed step, the clock runs the reference loop once per REF_EVERY_S
    of the step's time, outside the timing, so its samples follow the
    machine through the pass.  A pass's time in reference seconds is its
    time scaled by REF_LOOP_S / the mean loop time during that pass.
    """

    def __init__(self):
        self.owed = 0.0
        self.samples: list[float] = []

    def after_step(self, elapsed: float) -> None:
        self.owed += elapsed
        while self.owed >= REF_EVERY_S:
            self.owed -= REF_EVERY_S
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def take(self) -> float:
        """Mean loop time since the last take; samples once if there is none."""
        if not self.samples:
            self.sample()
        mean = statistics.fmean(self.samples)
        self.samples = []
        return mean


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when that percentile is not above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1  # index with TAIL_BEYOND samples after it
    if k >= 0 and (k + 1) / n > 0.5:
        return 100.0 * (k + 1) / n, ordered[k]
    return 100.0, ordered[-1]


def probe_setup(args) -> tuple[float, float]:
    """(wall time from spawning a fresh process until it has loaded its
    inputs, mean reference loop time in that process just after).

    The probe prints the monotonic clock when it is ready; on Linux both
    processes read the same clock.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    word, *values = proc.stdout.split()
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    ready, loop = map(float, values)
    return ready - start, loop


def timed_pass(workload, tally, tracer=None) -> tuple[float, int]:
    """Run one pass; (seconds in its timed steps, correct ops)."""
    tally.work = 0.0
    before = tally.succeeded
    workload.run_pass(tally, tracer)
    return tally.work, tally.succeeded - before


def run_untraced(args, workload, tally) -> dict:
    setup = [probe_setup(args)]
    tally.clock = clock = RefClock()
    timed_pass(workload, tally)  # warm-up, of the reference loop too
    clock.take()
    passes: list[tuple[float, float, int]] = []  # (seconds, mean loop, correct ops)
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        work, ok = timed_pass(workload, tally)
        passes.append((work, clock.take(), ok))
        walls.append(time.perf_counter() - began)
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    times = [work for work, _, _ in passes]
    loops = [loop for _, loop, _ in passes]
    ref_times = [work * REF_LOOP_S / loop for work, loop, _ in passes]
    pass_ref = statistics.median(ref_times)
    correct = statistics.median(ok for _, _, ok in passes)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kb = children if getattr(workload, "runs_in_children", False) else own
    pct, tail_value = tail(times)
    ref_pct, ref_tail = tail(ref_times)
    setup_raw = [raw for raw, _ in setup]
    setup_ref = [raw * REF_LOOP_S / loop for raw, loop in setup]
    print(f"set-up: {len(setup)} fresh processes, raw s: "
          + ", ".join(f"{t:.4f}" for t in setup_raw))
    print(f"setup_s.raw = {statistics.median(setup_raw)!r} s (raw median, not bounded)")
    print(f"passes: {len(times)} timed after 1 warm-up")
    print(f"reference loop: median over passes of the mean loop time "
          f"{statistics.median(loops) * 1e3:.4f} ms (nominal {REF_LOOP_S * 1e3:g} ms), "
          f"range {min(loops) * 1e3:.4f}-{max(loops) * 1e3:.4f} ms")
    print(f"pass_s.p50 = {statistics.median(times)!r} s (raw, not bounded)")
    print(f"pass_s.tail = {tail_value!r} s (raw, not bounded): "
          f"p{pct:.1f} of {len(times)} passes")
    print(f"pass_s.ref tail = {ref_tail!r} s: p{ref_pct:.1f} of {len(times)} passes")
    print(f"ops_per_s = {correct / statistics.median(times)!r} 1/s (raw, not bounded)")
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "pass_s.ref": (pass_ref, "s"),
        "ops_per_s.ref": (correct / pass_ref, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_traced(args, workload, tally) -> dict:
    from tracing import COUNTER_KINDS, ROOT_SPAN, SPAN_NAMES, Tracer, self_times

    timed_pass(workload, tally)  # warm-up
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(timed_pass(workload, tally)[0])
        with tracer.installed():
            with tracer.span(ROOT_SPAN):
                traced.append(timed_pass(workload, tally, tracer)[0])
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    n = len(traced)
    selfs = self_times(tracer.spans)
    metrics = {f"{name}_s": (selfs.get(name, 0.0) / n, "s") for name in SPAN_NAMES}
    for counter, how in COUNTER_KINDS.items():
        value = tracer.counts.get(counter, 0)
        # `cells` counters are computed from matrix shapes, not measured
        unit = "cells" if counter.endswith("_cells") else "count"
        metrics[counter] = (value if how == "max" else value / n, unit)
    metrics["trace.unattributed_s"] = (selfs[ROOT_SPAN] / n, "s")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    # the root span covers the whole traced pass, the checks between steps too
    mean_traced = sum(e - s for name, s, e, _ in tracer.spans if name == ROOT_SPAN) / n
    print(f"passes: {len(untraced)} untraced and {n} traced, alternating, after 1 warm-up")
    print(f"median pass time in timed steps: untraced {statistics.median(untraced):.4f} s, "
          f"traced {statistics.median(traced):.4f} s, overhead {overhead:+.4f}")
    print("self time per traced pass, and its share of the mean traced pass:")
    for name, (value, unit) in metrics.items():
        if unit == "s" and value:
            print(f"  {name:34s} {value:10.4f} s  {value / mean_traced:7.2%}")
    accounted = sum(v for v, u in metrics.values() if u == "s")
    print(f"  {'sum':34s} {accounted:10.4f} s  {accounted / mean_traced:7.2%}")
    print("cells counters are computed from matrix shapes (rows x cols)")

    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        for i, (name, s, e, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([i, parent, name, s, e]) + "\n")
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ldga" / "__init__.py").is_file():
        print(f"error: no ldga sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        ready = time.perf_counter()
        print(f"ready {ready!r} {loop_time(PROBE_LOOPS)!r}", flush=True)
        return 0

    tally = workloads.Tally()
    if args.trace:
        metrics = run_traced(args, workload, tally)
    else:
        metrics = run_untraced(args, workload, tally)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{workload.ops_per_pass} ops per pass")
    print(f"failed_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f} ratio")
    for reason, count in tally.reasons.most_common():
        print(f"  failed x{count}: {reason}")
    for error in tally.check_errors:
        print(f"  check failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
