"""Self-test of the benchmark harness, on the tiny size of every workload.

    python3 perfbench/selftest.py

Checks that each workload passes its own correctness gate; that a counter
wrapped to return count+1 is caught as a failure by every workload; that the
printed metric names and units are exactly those of BENCHMARK.json, with and
without tracing; that the exact-repeat counts of two traced runs are equal;
and that in a directory holding only the benchmark the command exits nonzero
without printing a result. Takes about a minute; exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

from run import BENCH_DIR, OUT_DIR, ROOT, build
from spans import patch_everywhere, unpatch
from workloads import WORKLOADS

SEED = 7


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def run_cli(workload: str, trace: int, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the workloads the harness runs")

    pkgs = {}
    for name in WORKLOADS:
        pkg, workload = build(SimpleNamespace(workload=name, seed=SEED, size="tiny"))
        pkgs[name] = (pkg, workload)
        res = workload.run_pass()
        check(res.attempted > 0 and res.failed == 0, f"{name}: tiny pass is correct")

    pkg = next(iter(pkgs.values()))[0]
    original = pkg.energy.n_triples

    def off_by_one(*args, **kwargs):
        value = original(*args, **kwargs)
        return pkg.energy.CountValue(count=value.count + 1, method=value.method)

    undo = patch_everywhere(original, off_by_one)
    try:
        for name, (_, workload) in pkgs.items():
            pkg.sweep.cached_ctx.cache_clear()
            res = workload.run_pass()
            check(res.failed > 0, f"{name}: n_triples returning count+1 is caught "
                                  f"({res.failed} failed ops)")
    finally:
        unpatch(undo)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            counts = []
            for _ in range(2 if trace else 1):
                proc = run_cli(name, trace)
                result = last_json(proc.stdout)
                check(proc.returncode == 0 and result is not None and result["correct"],
                      f"{name} --trace {trace}: exits 0 with a correct result")
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{name} --trace {trace}: result has exactly the four keys")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected,
                      f"{name} --trace {trace}: metrics match BENCHMARK.json {key}")
                if trace:
                    out = json.loads((OUT_DIR / f"{name}-seed{SEED}-trace1.json").read_text())
                    counts.append(out["counts"])
            if trace:
                check(counts[0] == counts[1], f"{name}: exact-repeat counts equal across runs")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.suffix == ".py":
            shutil.copy(path, bare / "perfbench")
    shutil.copytree(BENCH_DIR / "data", bare / "perfbench" / "data")
    for name in WORKLOADS:
        proc = run_cli(name, 0, cwd=bare, script=bare / "perfbench" / "run.py")
        check(proc.returncode != 0 and last_json(proc.stdout) is None,
              f"{name}: without the package source, exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
