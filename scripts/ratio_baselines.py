"""Regenerate the frozen observed/bound ratio maxima used by the test suite.

Reduces the ratio suite's records on every subgroup of every odd prime up to
the limit (`sweep.ratio_scan`) to the worst observed/bound ratio of the three
counting quantities, and writes the result to tests/data/ratio_baselines.json.
Rerun after any intentional change to the counting routines or the bound
formulas, and review the diff by hand.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from sparsesums.sweep import DEFAULT_BUDGETS, ratio_scan

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "ratio_baselines.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-limit", type=int, default=2003)
    ap.add_argument("--triple-budget", type=int, default=DEFAULT_BUDGETS["ratio_triple"])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()

    t0 = time.time()
    scan = ratio_scan(args.p_limit, args.triple_budget)
    payload = {
        "p_limit": args.p_limit,
        "triple_budget": args.triple_budget,
        **scan,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.time() - t0:.1f}s")
    for key in ("dx", "shifted", "ntriples"):
        row = scan[key]
        print(f"  {key:9s} max {row['max_ratio']:.6f} at p={row['p']} |G|={row['cardinality']}")
    print(f"  skipped {scan['skipped_triples']} triple tasks over budget")


if __name__ == "__main__":
    main()
