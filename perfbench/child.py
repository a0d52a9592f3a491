"""One workload in one process: set-up, timed passes, output checks.

Started by run.py from the root of the checkout; prints one JSON line.  With
--setup-only it stops at the first timed call and reports the set-up time,
counted from --t0-ns (the parent's CLOCK_MONOTONIC reading just before it
started this process).

Untraced mode repeats the timed part while another pass still fits in
--seconds.  Traced mode alternates untraced and traced passes the same way,
so the tracing overhead is the difference of their medians, then adds one
allocation pass (tracemalloc inside the tracked spans) whose times it
discards.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))  # mulab from the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out_dir))
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        result = Runner(wl, args).run()
    finally:
        wl.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


class Runner:
    def __init__(self, wl, args):
        self.wl = wl
        self.args = args
        self.checks = workloads.Checks()
        ref_path = Path(__file__).resolve().parent / "reference.json"
        ref = json.loads(ref_path.read_text())["workloads"][wl.name]
        self.ref_fixed = ref["fixed"]
        self.ref_seeded = ref["seeds"].get(str(args.seed))
        self.first = None
        self.peak_rss_mib = None
        self.spans = {}

    # one pass ---------------------------------------------------------------

    def timed(self, tracer=None):
        """(wall nanoseconds, outputs or None if the pass raised)."""
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = self.wl.run()
            else:
                with tracing.instrumented(tracer):
                    t0 = time.perf_counter_ns()
                    out = self.wl.run()
                    t1 = time.perf_counter_ns()
        except Exception:
            traceback.print_exc()
            self.checks.fail(f"{self.wl.name}.pass_raised")
            return time.perf_counter_ns() - t0, None
        if tracer is None:
            t1 = time.perf_counter_ns()
        if self.peak_rss_mib is None:  # before any check allocates
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.verify(out)
        return t1 - t0, out

    def verify(self, out) -> None:
        wl, checks = self.wl, self.checks
        wl.cross_check(out, checks)
        fixed, seeded = wl.summarize(out)
        if self.first is None:
            self.first = (fixed, seeded)
            workloads.compare(checks, "reference.fixed", fixed, self.ref_fixed)
            if self.ref_seeded is not None:
                workloads.compare(checks, "reference.seeded", seeded, self.ref_seeded)
            wl.oracle_check(out, checks)
        else:
            workloads.compare(checks, f"{wl.name}.repeat", [fixed, seeded], list(self.first))

    # the loops --------------------------------------------------------------

    def run(self) -> dict:
        if self.args.trace:
            layer = self.traced_loop()
            walls = self.untraced
        else:
            layer = None
            walls = self.untraced_loop()
        return {
            "walls": walls,
            "peak_rss_mib": self.peak_rss_mib,
            "attempted": self.checks.attempted,
            "failed": len(self.checks.failed),
            "failures": self.checks.failed[:20],
            "layer_metrics": layer,
            "spans_file": self.write_spans(),
            "input_properties": self.wl.input_properties(),
            "numpy": workloads.np.__version__,
        }

    def write_spans(self) -> str | None:
        if not self.spans:
            return None
        path = Path(self.args.out_dir) / f"spans_{self.wl.name}_seed{self.args.seed}.json"
        path.write_text(json.dumps(self.spans))
        return str(path.relative_to(Path.cwd()))

    def untraced_loop(self) -> list[float]:
        walls = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            wall_ns, out = self.timed()
            walls.append(wall_ns / 1e9)
            if out is None:
                break
            del out
            step = time.perf_counter() - t
            if len(walls) == 1:
                step = walls[0]  # the first step also ran the one-off oracle checks
            if time.perf_counter() - start + step > self.args.seconds:
                break
        return walls

    def traced_loop(self) -> dict:
        self.untraced, traced, per_pass = [], [], []
        self.spans["traced_passes"] = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            wall_ns, out = self.timed()
            self.untraced.append(wall_ns / 1e9)
            del out
            tracer = tracing.Tracer()
            wall_ns, out = self.timed(tracer)
            traced.append(wall_ns / 1e9)
            self.spans["traced_passes"].append([sp.as_dict() for sp in tracer.spans])
            if out is None:
                break
            metrics = tracing.pass_metrics(tracer.spans, wall_ns, self.wl.facts(out))
            del out
            parts = sum(metrics[k] for k in tracing.SELF_TIME_METRICS)
            self.checks.check(f"{self.wl.name}.trace_self_times_add_up",
                              abs(parts - metrics["trace.traced_wall_s"]) < 1e-6)
            per_pass.append(metrics)
            step = time.perf_counter() - t
            if len(per_pass) == 1:
                step = self.untraced[0] + traced[0]
            if time.perf_counter() - start + step > self.args.seconds:
                break
        if not per_pass:
            return None
        alloc = tracing.alloc_metrics([])
        if any(sp.name in tracing.ALLOC_TRACKED for sp in tracer.spans):
            mem = tracing.Tracer(track_alloc=True)
            _, out = self.timed(mem)
            del out
            alloc = tracing.alloc_metrics(mem.spans)
            self.spans["alloc_pass"] = [sp.as_dict() for sp in mem.spans]
        overhead = statistics.median(traced) - statistics.median(self.untraced)
        return tracing.combine(per_pass, alloc, overhead)


if __name__ == "__main__":
    sys.exit(main())
