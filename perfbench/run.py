"""Benchmark of mulab: one seeded workload per invocation.

    python3 perfbench/run.py --workload mu_scan --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each workload runs in fresh single-threaded
child processes (BLAS/OpenMP pinned to one thread), one after another: one
that repeats the timed part for --seconds and checks every output, with
SETUP_REPEATS processes that stop at the first timed call before it and as
many after it, so that the median set-up time spans the whole run.  The
last line of standard output is one JSON object with `correct`, `attempted`
(output checks), `failed` (failed checks plus passes that raised) and
`metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The full record, with host facts
and input properties, is printed above it and written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

WORKLOADS = ("mu_scan", "irrational_exact")
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60
PASS_LIMIT_S = 60  # well above the longest pass of either workload
OUT_DIR = ".perfbench_out"


def host_facts(root: Path) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_rev": git_rev(root),
    }


def size_bytes(text: str | None) -> int | None:
    """'307200K' -> bytes, as /sys reports cache sizes."""
    if not text:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(root: Path, args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(root / "perfbench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(root / OUT_DIR), "--t0-ns", str(time.monotonic_ns()), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mulab" / "__init__.py").is_file():
        print(f"perfbench: no mulab sources under {root / 'src'}; run from the "
              f"root of a mulab checkout", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    host = host_facts(root)

    try:
        setups = [run_child(root, args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        # the passes stop within --seconds, but a traced run makes one
        # untraced, one traced and one allocation pass however short it is
        child = run_child(root, args, [],
                          SETUP_TIMEOUT_S + args.seconds + 3 * PASS_LIMIT_S)
        setups.append(child["setup_s"])
        setups += [run_child(root, args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                   for _ in range(SETUP_REPEATS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        if child["layer_metrics"] is None:
            print("perfbench: the traced pass raised; no layer metrics", file=sys.stderr)
            return 1
        metrics = child["layer_metrics"]
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(child["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": child["peak_rss_mib"],
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    props = child["input_properties"]
    l3 = size_bytes(host["cache"].get("L3"))
    largest = max(props["largest_arrays_bytes_computed"].values(), default=0)
    props["largest_array_share_of_l3"] = largest / l3 if l3 else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host, "numpy": child["numpy"]},
        "input_properties": props,
        "passes": len(child["walls"]),
        "walls_s": child["walls"],
        "setups_s": setups,
        "peak_rss_mib": child["peak_rss_mib"],
        "failures": child["failures"],
        "spans_file": child["spans_file"],
        "metrics": metrics,
    }
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (root / OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
