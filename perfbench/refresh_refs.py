"""Regenerate the benchmark's own reference data in perfbench/data/.

    python3 perfbench/refresh_refs.py

Writes the record-body digests of the verify-sweep workload at the digest
seed (both sizes) and the ratio maxima of the tiny ratio-scan. The full
ratio-scan is checked against tests/data/ratio_baselines.json instead, which
this script never writes. Rerun only after an intentional change to sweep
records or ratio values, and review the diff.
"""

from __future__ import annotations

import json

from run import ROOT, load_package
from workloads import DATA, DIGEST_SEED, VERIFY_PRIMES, record_digest, verify_config

TINY_RATIO_LIMIT = 211
TINY_TRIPLE_BUDGET = 4_000_000


def main() -> None:
    pkg = load_package()
    digests = {}
    for size in VERIFY_PRIMES:
        records = pkg.sweep.run_sweep(verify_config(pkg, ROOT, DIGEST_SEED, size))
        digests[size] = {"seed": DIGEST_SEED, "primes": VERIFY_PRIMES[size],
                         "records": len(records), "sha256": record_digest(records)}
    scan = pkg.sweep.ratio_scan(TINY_RATIO_LIMIT, TINY_TRIPLE_BUDGET)
    tiny = {"p_limit": TINY_RATIO_LIMIT, "triple_budget": TINY_TRIPLE_BUDGET, **scan}
    DATA.mkdir(exist_ok=True)
    for name, payload in (("verify_sweep_digest.json", digests), ("ratio_scan_tiny.json", tiny)):
        (DATA / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
