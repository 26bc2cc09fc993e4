"""Benchmark harness for sparsesums: one command, named workloads, checked outputs.

    python3 perfbench/run.py --workload ratio-scan --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's own `src/`, never from an installed copy. With `--trace 0` the run
times passes of the workload with nothing patched and reports the end-to-end
metrics. With `--trace 1` it times untraced passes for half of `--seconds`,
then traced passes for the other half, then one more traced pass with
allocation tracing, and reports the per-layer metrics and the tracing
overhead of the traced passes without allocation tracing. Every pass checks
every output against its reference; a wrong output makes the result
`"correct": false` and the exit code 1. Pass times leave out the checking.

The last line of standard output is the result object. The lines before it
give each metric with its unit, the provenance of the run and the failures.
The full result, with per-pass times and exact-repeat counts, is also written
to perfbench/out/, and a traced run writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = ("errors", "field", "subgroups", "sums", "energy", "bounds", "sweep")

# Set-up is timed in this process and again in fresh interpreters, half of
# them before the passes and half after, and reported as the median: the
# speed of the shared host drifts over tens of seconds.
SETUP_PROBES = 4


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def load_package() -> SimpleNamespace:
    """Import sparsesums from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "sparsesums" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'sparsesums'}")
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("sparsesums")
        mods = {name: importlib.import_module(f"sparsesums.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import sparsesums: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != (src / "sparsesums").resolve():
        raise SetupError(f"sparsesums imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(package=pkg, **mods)


def build(args) -> tuple[SimpleNamespace, object]:
    """Import the package and generate the workload's inputs: the timed set-up."""
    pkg = load_package()
    import workloads

    try:
        workload = workloads.WORKLOADS[args.workload](pkg, ROOT, args.seed, args.size)
    except OSError as exc:
        raise SetupError(f"cannot read workload inputs: {exc}") from exc
    return pkg, workload


def probe_setup(args) -> float:
    """Time the set-up once more in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparsesums").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args, load_at_start, passes: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_at_start),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Totals:
    def __init__(self):
        self.attempted = self.skipped = self.failed = 0
        self.failures: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.skipped += res.skipped
        self.failed += res.failed
        self.failures += res.failures[: 10 - len(self.failures)]


def run_passes(workload, lru, budget_s: float, totals: Totals, before=None, after=None):
    """Run passes until the next one would end past budget_s; at least one.

    Each pass starts with an empty context cache, as a fresh CLI run does.
    Returns the (wall seconds, items) of each pass.
    """
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start + statistics.median(w for w, _ in out) <= budget_s:
        lru.cache_clear()
        gc.collect()
        if before:
            before(len(out))
        t0 = time.perf_counter()
        res = workload.run_pass()
        wall = time.perf_counter() - t0 - res.check_s
        if after:
            after()
        totals.add(res)
        out.append((wall, res.items))
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ratio-scan", "verify-sweep", "large-p"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few-second version of the workload, for the self-test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return measure(args, t_start, load_at_start)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(args, t_start: float, load_at_start) -> int:
    pkg, workload = build(args)
    setup_samples = [time.perf_counter() - t_start]
    if args.probe_setup:
        print(setup_samples[0])
        return 0
    setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES // 2)]

    import spans

    lru = pkg.sweep.cached_ctx
    totals = Totals()
    untraced = run_passes(workload, lru, args.seconds / 2 if args.trace else args.seconds, totals)
    wall = statistics.median(w for w, _ in untraced)
    passes = {"untraced": len(untraced)}
    result_extra: dict = {"untraced_walls": [w for w, _ in untraced]}
    repeat_ok = True

    if args.trace:
        tracer = spans.Tracer(
            {name: getattr(pkg, name) for name in spans.LAYERS},
            pkg.errors.BudgetExceeded,
            pkg.energy.DIRECT_CONV_MAX,
        )
        per_pass: list[tuple[dict, dict]] = []

        def before(i):
            tracer.reset()
            tracer.run_id = f"{args.workload}:{args.seed}:{i}"

        def after():
            per_pass.append(tracer.pass_metrics(lru.cache_info()))

        tracer.install()
        try:
            traced = run_passes(workload, lru, args.seconds / 2, totals, before, after)
            tracer.track_alloc = True
            alloc = run_passes(workload, lru, 0, totals, before, after)
        finally:
            tracer.uninstall()
        passes.update(traced=len(traced), alloc=len(alloc))
        timing_passes, (alloc_timings, _) = per_pass[:-1], per_pass[-1]
        counts = per_pass[0][1]
        repeat_ok = all(c == counts for _, c in per_pass)
        metrics = {}
        for name, unit, _ in spans.per_layer_specs():
            if name == "trace_overhead_frac":
                value = (statistics.median(w for w, _ in traced) - wall) / wall
            elif name in counts:
                value = counts[name]
            elif name.endswith(".peak_alloc_mb"):
                value = alloc_timings[name]
            else:
                value = statistics.median(t[name] for t, _ in timing_passes)
            metrics[name] = {"value": value, "unit": unit}
        result_extra.update(traced_walls=[w for w, _ in traced], alloc_wall=alloc[0][0],
                            counts=counts, counts_repeat=repeat_ok)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = {
            "wall_s": (wall, "s"),
            "items_per_s": (statistics.median(n / w for w, n in untraced), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_skipped_frac": (totals.skipped / totals.attempted, "frac"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    correct = totals.failed == 0 and repeat_ok
    prov = provenance(args, load_at_start, passes)
    # ops_failed_frac is 0 whenever the run is correct, so it is printed here
    # and carried by "failed"/"attempted", not reported as a metric.
    failed_frac = totals.failed / totals.attempted
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric ops_failed_frac {failed_frac!r} frac")
    for what in totals.failures:
        print(f"FAILED {what}", file=sys.stderr)
    if not repeat_ok:
        print("FAILED exact-repeat counts differ between traced passes", file=sys.stderr)

    result = {"correct": correct, "attempted": totals.attempted, "failed": totals.failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, setup_samples=setup_samples,
                  ops_failed_frac=failed_frac, failures=totals.failures, **result_extra)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
