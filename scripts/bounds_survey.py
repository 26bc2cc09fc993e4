"""Survey the bound catalog on structured quadrinomials over a prime range.

Runs the bounds suite from a config file, writes the records as JSONL and
CSV, emits the winner-map and bound-vs-p plot files, and prints the winner
distribution. With the shipped config (primes 8000..10007, three structured
polynomials per prime, two characters) this takes a few seconds per worker.
The output directory is made before the survey runs; a directory or file
that cannot be made or written prints one `error:` line and exits 3, as the
CLI does.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from sparsesums.errors import IoFailure, SparseSumsError
from sparsesums.sweep import SweepConfig, emit_plot_data, run_sweep, write_records, write_text

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "bounds_survey.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--out-dir", type=Path, default=Path("survey_out"))
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    try:
        cfg = SweepConfig.from_file(args.config)
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)  # checked as the config file is
    except SparseSumsError as exc:
        ap.error(str(exc))

    try:
        run(cfg, args.out_dir)
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)


def run(cfg: SweepConfig, out_dir: Path) -> None:
    """Make `out_dir`, run the survey, write its files and print its summary.
    A directory or file that cannot be made or written raises IoFailure."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    t0 = time.time()
    records = run_sweep(cfg)
    elapsed = time.time() - t0

    write_records(records, cfg, out_dir / "bounds.jsonl", "jsonl")
    write_records(records, cfg, out_dir / "bounds.csv", "csv")
    for kind in ("winner-map", "bound-vs-p"):
        write_text(out_dir / f"{kind.replace('-', '_')}.dat", emit_plot_data(records, kind))

    live = [r for r in records if not r["skipped"]]
    winners = Counter(r["data"]["winner"] for r in live if "winner" in r["data"])
    failures = [r for r in live if not r["passed"]]
    print(f"{len(records)} records in {elapsed:.1f}s ({cfg.workers} workers)")
    print(f"winners: {dict(winners.most_common())}")
    print(f"bound violations: {len(failures)}")
    for rec in failures[:5]:
        print(f"  rerun: {rec['data'].get('rerun', '?')}")
    print(f"wrote jsonl/csv and plot files under {out_dir}/")


if __name__ == "__main__":
    main()
