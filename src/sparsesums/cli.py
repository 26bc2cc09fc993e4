"""Command-line entry points.

Subcommands: sum, count, bounds, compare, verify, sweep, plotdata.
Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import (
    ccp_bound,
    compare_bounds,
    cp_bound,
    quadrinomial_gcd_bound,
    threshold,
    weil_bound,
)
from .energy import (
    d_times,
    i_distribution,
    j_distribution,
    mult_energy,
    n_triples,
    shifted_energy,
)
from .errors import IoFailure, SparseSumsError
from .field import SparsePoly, check_modulus, make_field_ctx
from .subgroups import check_order, subgroup_of_order
from .sums import CharacterIndex, decomposition_orders, sum_decomposed, sum_exact
from .sweep import (
    DEFAULT_CONFIG,
    PLOT_KINDS,
    SweepConfig,
    emit_plot_data,
    load_records,
    run_sweep,
    run_verify,
    write_records,
)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _complex_fields(value: complex, magnitude: float) -> dict:
    return {"re": value.real, "im": value.imag, "magnitude": magnitude}


def cmd_sum(args) -> int:
    # the input and the decomposition budget are checked before the context
    # (8 bytes per residue) is built
    check_modulus(args.p)
    psi = SparsePoly.parse(args.p, args.poly)
    if args.route != "exact":
        if psi.t != 4:
            raise ValueError(f"sum: the decomposed route needs four terms, got {psi.t}")
        decomposition_orders(args.p, psi.exponents)
    ctx = make_field_ctx(args.p)
    chi = CharacterIndex(args.chi)
    out = {"p": args.p, "poly": str(psi), "j": chi.j % (args.p - 1)}
    if args.route in ("exact", "both"):
        sv = sum_exact(ctx, psi, chi)
        out["exact"] = _complex_fields(sv.value, sv.magnitude)
    if args.route in ("decomposed", "both"):
        sv = sum_decomposed(ctx, psi, chi)
        out["decomposed"] = _complex_fields(sv.value, sv.magnitude)
        out["term_count"] = sv.term_count
    if args.route == "both":
        diff = abs(complex(out["exact"]["re"], out["exact"]["im"])
                   - complex(out["decomposed"]["re"], out["decomposed"]["im"]))
        out["rel_err"] = diff / (out["exact"]["magnitude"] + 1.0)
    _emit(out, args.out)
    return 0


def _parse_sets(args) -> list:
    """The sets of `count`: subgroup orders, each checked to divide p-1, or
    sorted residue lists; their number is checked against the quantity."""
    if (args.elements is None) == (args.orders is None):
        raise ValueError("count: provide exactly one of --elements or --orders")
    if args.orders is not None:
        sets = [int(tok) for tok in args.orders.split(",") if tok.strip()]
        for d in sets:
            check_order(args.p, d)
    else:
        sets = []
        for group in args.elements.split(";"):
            els = [int(tok) % args.p for tok in group.split(",") if tok.strip()]
            if not els:
                raise ValueError("count: empty element set")
            sets.append(sorted(set(els)))
    need = _SET_ARITY[args.quantity]
    if args.quantity == "energy" and args.shift is not None:
        need = 1
    if len(sets) != need:
        raise ValueError(f"count: {args.quantity} expects {need} set(s), got {len(sets)}")
    return sets


_SET_ARITY = {"energy": 2, "dtimes": 1, "ntriples": 3, "idist": 2, "jdist": 2}


def cmd_count(args) -> int:
    check_modulus(args.p)
    sets = _parse_sets(args)
    ctx = make_field_ctx(args.p)
    if args.orders is not None:
        sets = [subgroup_of_order(ctx, d) for d in sets]
    out = {"p": args.p, "quantity": args.quantity, "method": args.method,
           "sizes": [len(s) for s in sets]}
    if args.quantity == "energy":
        if args.shift is not None:
            cv = shifted_energy(ctx, sets[0], args.shift, method=args.method)
            out["shift"] = args.shift
        else:
            cv = mult_energy(ctx, sets[0], sets[1], method=args.method)
        out["count"] = cv.count
    elif args.quantity == "dtimes":
        cv = d_times(ctx, sets[0], method=args.method)
        out["count"] = cv.count
    elif args.quantity == "ntriples":
        cv = n_triples(ctx, sets[0], sets[1], sets[2], method=args.method)
        out["count"] = cv.count
    else:
        fn = i_distribution if args.quantity == "idist" else j_distribution
        dist = fn(ctx, sets[0], sets[1], method=args.method)
        out["total"] = dist.total
        out["zero_count"] = dist.zero_count
        out["table"] = {str(k): v for k, v in sorted(dist.table.items())}
    _emit(out, args.out)
    return 0


def _poly_exponents(args) -> tuple[SparsePoly, tuple[int, ...]]:
    psi = SparsePoly.parse(args.p, args.poly)
    if psi.t != 4:
        raise ValueError("bounds: polynomial must have exactly four terms")
    return psi, psi.exponents


def cmd_bounds(args) -> int:
    check_modulus(args.p)  # the catalog builds no context, which would check p
    psi, exps = _poly_exponents(args)
    k, l, m, n = exps
    ccp_val, ccp_ok = ccp_bound(args.p, k, l, m, n)
    cp_val, cp_ok = cp_bound(args.p, k, l, m, n)
    gb = quadrinomial_gcd_bound(args.p, k, l, m, n, mode=args.mode)
    out = {
        "p": args.p,
        "poly": str(psi),
        "mode": args.mode,
        "threshold": threshold(args.p),
        "weil": weil_bound(args.p, exps),
        "ccp": {"value": ccp_val, "classical_condition": ccp_ok},
        "cp": {"value": cp_val, "classical_condition": cp_ok},
        "gcd": {
            "value": gb.value,
            "regime": gb.regime,
            "leading_term": gb.leading_term,
            "regime_term": gb.regime_term,
            "params": {
                "alpha": gb.params.alpha,
                "beta": gb.params.beta,
                "gamma": gb.params.gamma,
                "delta": gb.params.delta,
                "f": gb.params.f,
                "g": gb.params.g,
                "h": gb.params.h,
                "role_perm": list(gb.params.role_perm),
            },
        },
    }
    _emit(out, args.out)
    return 0


def cmd_compare(args) -> int:
    check_modulus(args.p)
    psi, _ = _poly_exponents(args)
    ctx = make_field_ctx(args.p)
    report = compare_bounds(ctx, psi, CharacterIndex(args.chi), mode=args.mode)
    out = {
        "p": args.p,
        "poly": str(psi),
        "j": args.chi % (args.p - 1),
        "mode": args.mode,
        "winner": report.winner,
        "exact_magnitude": report.exact_magnitude,
        "bounds": {
            name: {"value": e.value, "regime": e.regime, "nontrivial": e.nontrivial}
            for name, e in report.bounds.items()
        },
    }
    _emit(out, args.out)
    return 0


def _config_from_args(args) -> SweepConfig:
    if args.config is not None:
        cfg = SweepConfig.from_file(args.config)
    else:
        cfg = SweepConfig.from_dict(DEFAULT_CONFIG)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    report = run_verify(cfg)
    if args.out:
        write_records(report.records, cfg, args.out, fmt=args.format)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    records = run_sweep(cfg)
    write_records(records, cfg, args.out, fmt=args.format)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def cmd_plotdata(args) -> int:
    records = load_records(args.data)
    text = emit_plot_data(records, args.kind)
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {args.out}: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsesums",
        description="Exponential sums with sparse polynomials over prime fields: "
        "exact evaluation, counting oracles, bound catalog, verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp, required=True):
        sp.add_argument("--p", type=int, required=required, help="odd prime modulus")

    def add_poly(sp):
        sp.add_argument("--poly", type=str, required=True,
                        help="terms as 'a,k;b,l;c,m;d,n'")

    def add_out(sp):
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    sp = sub.add_parser("sum", help="evaluate one twisted exponential sum")
    add_p(sp)
    add_poly(sp)
    sp.add_argument("--chi", type=int, default=0, help="character index j")
    sp.add_argument("--route", choices=("exact", "decomposed", "both"), default="exact")
    add_out(sp)
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("count", help="counting quantities over subsets/subgroups")
    add_p(sp)
    sp.add_argument("--quantity", choices=sorted(_SET_ARITY), required=True)
    sp.add_argument("--elements", type=str, default=None,
                    help="semicolon-separated element lists, e.g. '1,3,9;1,5,8,12'")
    sp.add_argument("--orders", type=str, default=None,
                    help="comma-separated subgroup orders, e.g. '3,4'")
    sp.add_argument("--shift", type=int, default=None,
                    help="additive shift for energy of G+shift")
    sp.add_argument("--method", choices=("optimized", "oracle"), default="optimized")
    add_out(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("bounds", help="evaluate the bound catalog for a quadrinomial")
    add_p(sp)
    add_poly(sp)
    sp.add_argument("--mode", choices=("canonical", "best"), default="canonical")
    add_out(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("compare", help="bound catalog plus exact magnitude and winner")
    add_p(sp)
    add_poly(sp)
    sp.add_argument("--chi", type=int, default=0)
    sp.add_argument("--mode", choices=("canonical", "best"), default="canonical")
    add_out(sp)
    sp.set_defaults(func=cmd_compare)

    for name, helptext in (
        ("verify", "run verification suites; exit 0 iff all checks pass"),
        ("sweep", "run suites and persist every record"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--mode", choices=("canonical", "best"), default=None)
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        if name == "sweep":
            sp.add_argument("--out", type=str, required=True)
            sp.set_defaults(func=cmd_sweep)
        else:
            add_out(sp)
            sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plotdata", help="columnar plot files from a sweep dataset")
    sp.add_argument("--kind", choices=PLOT_KINDS, required=True)
    sp.add_argument("--data", type=str, required=True, help="JSONL records file")
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SparseSumsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
