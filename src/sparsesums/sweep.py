"""Batch driver: config ingestion, instance generation, suite execution, I/O.

A sweep turns a SweepConfig into a flat list of tasks, each producing exactly
one ResultRecord-shaped dict; a task `(fn, *args)` carries its function.
Tasks are generated up front in a deterministic order, executed serially or
by a process pool, and re-sorted by index before writing, so workers=1 and
workers=N produce identical output. JSONL output is byte-identical across runs
of the same (config, seed) except for the header line, which carries a
timestamp. Records never include wall times. `ratio_scan` is a streaming
reduction over the ratio suite's records, not a second evaluation path.
"""

from __future__ import annotations

import io
import json
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from pathlib import Path

import numpy as np

from .bounds import (
    compare_bounds,
    dx_bound,
    n_triples_bound,
    shifted_energy_bound,
    weil_bound,
)
from .energy import (
    DTIMES_ORACLE_MAX,
    cauchy_step_report,
    d_times,
    i_distribution,
    j_distribution,
    mult_energy,
    n_triples,
    shifted_energy,
)
from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    IoFailure,
    SparseSumsError,
    UnknownKind,
)
from .field import MAX_MODULUS, SparsePoly, check_modulus, divisors, is_prime, make_field_ctx
from .subgroups import subgroup_of_order
from .sums import (
    DECOMPOSITION_BUDGET,
    CharacterIndex,
    bilinear_sum,
    sum_decomposed,
    sum_exact,
)

SCHEMA_VERSION = 1
SUITE_NAMES = ("identity", "weil", "bilinear", "energy", "cauchy", "ratio", "bounds")

DEFAULT_CONFIG: dict = {
    "primes": {"start": 11, "stop": 199},
    "polynomials": {"random": {"count": 2}},
    "characters": [0, 1],
    "suites": list(SUITE_NAMES),
    "budgets": {},
    "seed": 1,
    "ratio_ceiling": 100.0,
    "workers": 1,
    "mode": "canonical",
}

DEFAULT_BUDGETS = {
    "decomposition": DECOMPOSITION_BUDGET,
    "ratio_triple": 4_000_000,
}


# One entry: tasks come grouped by prime and pool workers get their chunks in
# task order, so an evicted context (8 B per residue) is not asked for again.
@lru_cache(maxsize=1)
def cached_ctx(p: int):
    return make_field_ctx(p)


@dataclass(frozen=True)
class SweepConfig:
    primes: tuple[int, ...]
    poly_kind: str  # "explicit" | "random" | "gcd_structured"
    poly_args: tuple  # explicit: term tuples; otherwise: (count,)
    characters: tuple  # ints and/or the token "random"
    suites: tuple[str, ...]
    budgets: tuple[tuple[str, int], ...]
    seed: int
    ratio_ceiling: float
    workers: int
    mode: str

    def __post_init__(self) -> None:
        # The scalar checks live here so that dataclasses.replace (the CLI
        # overrides) is checked exactly as a config file is.
        seed = self.seed
        if not _is_int(seed) or not 0 <= seed < 2**64:
            raise ConfigInvalid("seed: must be an integer in [0, 2**64)")
        ceiling = self.ratio_ceiling
        if not isinstance(ceiling, (int, float)) or isinstance(ceiling, bool) or ceiling <= 0:
            raise ConfigInvalid("ratio_ceiling: must be a positive number")
        object.__setattr__(self, "ratio_ceiling", float(ceiling))
        workers = self.workers
        if not _is_int(workers) or workers < 1:
            raise ConfigInvalid("workers: must be an integer >= 1")
        if self.mode not in ("canonical", "best"):
            raise ConfigInvalid("mode: must be 'canonical' or 'best'")

    def budget(self, name: str) -> int:
        return dict(self.budgets).get(name, DEFAULT_BUDGETS[name])

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("config: top level must be a JSON object")
        merged = dict(DEFAULT_CONFIG)
        for key in raw:
            if key not in merged:
                raise ConfigInvalid(f"{key}: unknown configuration key")
        merged.update(raw)

        primes = _validate_primes(merged["primes"])
        poly_kind, poly_args = _validate_polynomials(merged["polynomials"])
        characters = _validate_characters(merged["characters"])
        suites = _validate_suites(merged["suites"])
        budgets = _validate_budgets(merged["budgets"])
        return cls(
            primes=primes,
            poly_kind=poly_kind,
            poly_args=poly_args,
            characters=characters,
            suites=suites,
            budgets=budgets,
            seed=merged["seed"],
            ratio_ceiling=merged["ratio_ceiling"],
            workers=merged["workers"],
            mode=merged["mode"],
        )

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        try:
            raw = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config: not valid JSON ({exc})") from exc
        return cls.from_dict(raw)


def _is_int(value) -> bool:
    """A JSON integer: no float, string or bool is taken for one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_primes(raw) -> tuple[int, ...]:
    if isinstance(raw, dict):
        extra = set(raw) - {"start", "stop"}
        if extra:
            raise ConfigInvalid(f"primes: unknown range keys {sorted(extra)}")
        start, stop = raw.get("start"), raw.get("stop")
        if not (_is_int(start) and _is_int(stop)):
            raise ConfigInvalid("primes: range needs integer 'start' and 'stop'")
        if stop >= MAX_MODULUS:  # checked before the range is enumerated
            raise ConfigInvalid(f"primes: range stop {stop} must be < 2**31")
        out = [p for p in range(max(start, 3), stop + 1) if is_prime(p)]
    elif isinstance(raw, list):
        out = []
        for p in raw:
            if not _is_int(p):
                raise ConfigInvalid(f"primes: {p!r} is not an integer")
            try:
                check_modulus(p)
            except (SparseSumsError, ValueError) as exc:
                raise ConfigInvalid(f"primes: {exc}") from exc
            out.append(p)
    else:
        raise ConfigInvalid("primes: must be a list or a {start, stop} range")
    if not out:
        raise ConfigInvalid("primes: empty prime list")
    return tuple(out)


def _validate_polynomials(raw) -> tuple[str, tuple]:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigInvalid(
            "polynomials: must be an object with exactly one of "
            "'explicit', 'random', 'gcd_structured'"
        )
    kind, body = next(iter(raw.items()))
    if kind == "explicit":
        if not isinstance(body, list) or not body:
            raise ConfigInvalid("polynomials: explicit needs a non-empty list of term lists")
        polys = []
        for poly in body:
            if (
                not isinstance(poly, list)
                or len(poly) != 4
                or not all(isinstance(t, list) and len(t) == 2 for t in poly)
                or not all(_is_int(x) for t in poly for x in t)
            ):
                raise ConfigInvalid(
                    "polynomials: each explicit polynomial is a list of four "
                    "[coeff, exp] pairs of integers"
                )
            polys.append(tuple((c, k) for c, k in poly))
        return kind, tuple(polys)
    if kind in ("random", "gcd_structured"):
        if not isinstance(body, dict) or set(body) != {"count"}:
            raise ConfigInvalid(f"polynomials: {kind} needs an object {{'count': n}}")
        count = body["count"]
        if not _is_int(count) or count < 1:
            raise ConfigInvalid(f"polynomials: {kind}.count must be an integer >= 1")
        return kind, (count,)
    raise ConfigInvalid(f"polynomials: unknown generator '{kind}'")


def _validate_characters(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigInvalid("characters: must be a non-empty list")
    out = []
    for c in raw:
        if c in ("random", "all-orders"):
            out.append(c)
        elif _is_int(c) and c >= 0:
            out.append(c)
        else:
            raise ConfigInvalid(
                f"characters: {c!r} is neither an index >= 0 nor 'random'/'all-orders'"
            )
    return tuple(out)


def _validate_suites(raw) -> tuple[str, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigInvalid("suites: must be a non-empty list")
    for s in raw:
        if s not in SUITE_NAMES:
            raise ConfigInvalid(f"suites: unknown suite '{s}' (known: {', '.join(SUITE_NAMES)})")
    return tuple(dict.fromkeys(raw))


def _validate_budgets(raw) -> tuple[tuple[str, int], ...]:
    if not isinstance(raw, dict):
        raise ConfigInvalid("budgets: must be an object")
    out = []
    for key, value in raw.items():
        if key not in DEFAULT_BUDGETS:
            raise ConfigInvalid(f"budgets: unknown budget '{key}'")
        if not _is_int(value) or value < 1:
            raise ConfigInvalid(f"budgets: {key} must be an integer >= 1")
        out.append((key, value))
    return tuple(out)


# --- instance generation -----------------------------------------------------


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def random_quadrinomial(p: int, seed: int, index: int) -> SparsePoly:
    """Seeded quadrinomial: distinct exponents mod p-1, nonzero coefficients."""
    rng = _rng(seed, p, index, 0x0001)
    exps = rng.choice(p - 2, size=4, replace=False) + 1  # residues in [1, p-2]
    coeffs = rng.integers(1, p, size=4)
    return SparsePoly.from_terms(p, list(zip(coeffs.tolist(), exps.tolist())))


def gcd_structured_quadrinomial(p: int, seed: int, index: int) -> SparsePoly:
    """Quadrinomial built to have large gcds on three exponents, small on one.

    The first three exponents are multiples of large divisors of p-1 (chosen
    coprime to the cofactor so the gcd is exactly the divisor); the last
    exponent is coprime to p-1, so the reduced quotients stay large.
    """
    rng = _rng(seed, p, index, 0x0002)
    n = p - 1
    large = [d for d in divisors(n) if d * d >= n and d < n] or [n]
    for _ in range(100):
        exps = []
        for _ in range(3):
            d = int(rng.choice(large))
            cof = n // d
            u = int(rng.integers(1, cof + 1))
            while gcd(u, cof) != 1:
                u = int(rng.integers(1, cof + 1))
            exps.append(d * u)
        m = int(rng.integers(1, n))
        while gcd(m, n) != 1:
            m = int(rng.integers(1, n))
        exps.append(m)
        if len({e % n for e in exps}) == 4:
            coeffs = rng.integers(1, p, size=4)
            return SparsePoly.from_terms(p, list(zip(coeffs.tolist(), exps)))
    return random_quadrinomial(p, seed, index)


def polynomials_for(cfg: SweepConfig, p: int) -> list[SparsePoly]:
    if cfg.poly_kind == "explicit":
        try:
            return [SparsePoly.from_terms(p, terms) for terms in cfg.poly_args]
        except (ValueError, SparseSumsError) as exc:
            raise ConfigInvalid(f"polynomials: invalid for p={p}: {exc}") from exc
    count = cfg.poly_args[0]
    make = random_quadrinomial if cfg.poly_kind == "random" else gcd_structured_quadrinomial
    return [make(p, cfg.seed, i) for i in range(count)]


def characters_for(cfg: SweepConfig, p: int, poly_index: int) -> list[int]:
    out = []
    for pos, c in enumerate(cfg.characters):
        if c == "random":
            out.append(int(_rng(cfg.seed, p, poly_index, pos, 0x0003).integers(0, p - 1)))
        elif c == "all-orders":
            # One character of each multiplicative order d | p-1: chi_{(p-1)/d}.
            out.extend((p - 1) // d % (p - 1) for d in divisors(p - 1))
        else:
            out.append(c % (p - 1))
    return list(dict.fromkeys(out))


def _cauchy_triples(divs: list[int]) -> list[tuple[int, int, int]]:
    """The size-eligible (df, dg, dh) over the ascending divisors `divs`:
    dh <= dg and df * dg**2 <= 200,000, in (df, dg, dh) order."""
    out = []
    for df in divs:
        dgs = divs[: bisect_right(divs, isqrt(200_000 // df))]
        out.extend((df, dg, dh) for i, dg in enumerate(dgs) for dh in dgs[: i + 1])
    return out


def generate_tasks(cfg: SweepConfig) -> list[tuple]:
    """Deterministic flat list of `(fn, *args)` tasks; each yields exactly one record."""
    tasks: list[tuple] = []
    poly_suites = [s for s in cfg.suites if s in ("identity", "weil", "bounds")]
    for p in cfg.primes:
        if poly_suites:
            for i, psi in enumerate(polynomials_for(cfg, p)):
                for j in characters_for(cfg, p, i):
                    if "identity" in cfg.suites:
                        tasks.append((_task_identity, p, str(psi), j, cfg.budget("decomposition")))
                    if "weil" in cfg.suites:
                        tasks.append((_task_weil, p, str(psi), j))
                    if "bounds" in cfg.suites:
                        tasks.append((_task_bounds, p, str(psi), j, cfg.mode))
        if "bilinear" in cfg.suites:
            for i in range(2):
                tasks.append((_task_bilinear, p, cfg.seed, i))
        divs = divisors(p - 1)
        if "energy" in cfg.suites:
            for d in divs:
                tasks.append((_task_energy_cube, p, d))
                if d <= DTIMES_ORACLE_MAX:
                    tasks.append((_task_energy_dtimes, p, d))
            for dw, dz in zip(divs, divs[1:]):
                tasks.append((_task_energy_idist, p, dw, dz))
                tasks.append((_task_energy_jdist, p, dw, dz))
        if "cauchy" in cfg.suites:
            # Unbiased seeded sample over all size-eligible triples; a skewed
            # pick (say, F trivial only) would miss the failing region of the
            # collapsed inequality and make this suite vacuous.
            eligible = _cauchy_triples(divs)
            rng = _rng(cfg.seed, p, 0x0005)
            take = min(12, len(eligible))
            for i in sorted(rng.choice(len(eligible), size=take, replace=False).tolist()):
                tasks.append((_task_cauchy, p, *eligible[i]))
        if "ratio" in cfg.suites:
            for d in divs[1:]:
                tasks.append((_task_ratio_dx, p, d, cfg.ratio_ceiling))
                tasks.append((_task_ratio_shifted, p, d, cfg.ratio_ceiling))
                tasks.append(
                    (_task_ratio_ntriples, p, d, cfg.ratio_ceiling, cfg.budget("ratio_triple"))
                )
    return tasks


# --- task execution ----------------------------------------------------------


def _record(
    suite: str,
    quantity: str,
    p: int,
    poly: str | None,
    j: int | None,
    passed: bool | None,
    data: dict,
    skipped: bool = False,
    reason: str | None = None,
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "quantity": quantity,
        "p": p,
        "poly": poly,
        "j": j,
        "passed": passed,
        "skipped": skipped,
        "reason": reason,
        "data": data,
    }


def _task_identity(p: int, poly: str, j: int, budget: int) -> dict:
    ctx = cached_ctx(p)
    psi = SparsePoly.parse(p, poly)
    chi = CharacterIndex(j)
    rerun = f"sum --p {p} --poly '{poly}' --chi {j} --route decomposed"
    try:
        direct = sum_exact(ctx, psi, chi)
        grouped = sum_decomposed(ctx, psi, chi, budget=budget)
    except BudgetExceeded as exc:
        return _record("identity", "decomposition", p, poly, j, None, {"rerun": rerun},
                       skipped=True, reason=str(exc))
    rel = abs(direct.value - grouped.value) / (direct.magnitude + 1.0)
    return _record(
        "identity", "decomposition", p, poly, j, rel < 1e-6,
        {"rel_err": rel, "magnitude": direct.magnitude, "rerun": rerun},
    )


def _task_weil(p: int, poly: str, j: int) -> dict:
    ctx = cached_ctx(p)
    psi = SparsePoly.parse(p, poly)
    mag = sum_exact(ctx, psi, CharacterIndex(j)).magnitude
    bound = weil_bound(p, psi.exponents)
    return _record(
        "weil", "weil_inequality", p, poly, j, mag <= bound + 1e-6,
        {"magnitude": mag, "bound": bound, "rerun": f"sum --p {p} --poly '{poly}' --chi {j}"},
    )


def _task_bounds(p: int, poly: str, j: int, mode: str) -> dict:
    ctx = cached_ctx(p)
    psi = SparsePoly.parse(p, poly)
    report = compare_bounds(ctx, psi, CharacterIndex(j), mode=mode)
    data = {name: entry.value for name, entry in report.bounds.items()}
    data["regime"] = report.bounds["gcd"].regime
    data["winner"] = report.winner
    data["klmn"] = prod(psi.exponents)
    data["exact"] = report.exact_magnitude
    data["rerun"] = f"compare --p {p} --poly '{poly}' --chi {j} --mode {mode}"
    passed = True
    if report.exact_magnitude is not None:
        passed = report.exact_magnitude <= min(data["weil"], data["trivial"]) + 1e-6
    return _record("bounds", "bound_catalog", p, poly, j, passed, data)


def _task_bilinear(p: int, seed: int, index: int) -> dict:
    ctx = cached_ctx(p)
    rng = _rng(seed, p, index, 0x0004)
    nx = int(rng.integers(2, min(p, 40)))
    ny = int(rng.integers(2, min(p, 40)))
    xs = rng.choice(p, size=nx, replace=False)
    ys = rng.choice(p, size=ny, replace=False)
    aw = np.exp(2j * np.pi * rng.random(nx))
    bw = np.exp(2j * np.pi * rng.random(ny))
    val = bilinear_sum(ctx, xs, ys, aw, bw)
    bound = float(np.sqrt(p * nx * ny))  # A = nx, B = ny for unit weights
    return _record(
        "bilinear", "bilinear_inequality", p, None, None, val.magnitude <= bound + 1e-6,
        {"magnitude": val.magnitude, "bound": bound, "nx": nx, "ny": ny,
         "rerun": f"verify (bilinear suite, p={p}, seed={seed}, index={index})"},
    )


def _task_energy_cube(p: int, d: int) -> dict:
    ctx = cached_ctx(p)
    sub = subgroup_of_order(ctx, d)
    e = mult_energy(ctx, sub, sub).count
    return _record(
        "energy", "subgroup_energy_cube", p, None, None, e == d**3,
        {"order": d, "energy": e,
         "rerun": f"count --p {p} --quantity energy --orders {d},{d}"},
    )


def _task_energy_dtimes(p: int, d: int) -> dict:
    ctx = cached_ctx(p)
    sub = subgroup_of_order(ctx, d)
    rerun = f"count --p {p} --quantity dtimes --orders {d}"
    a = d_times(ctx, sub, method="oracle").count
    b = d_times(ctx, sub, method="optimized").count
    return _record("energy", "dtimes_agreement", p, None, None, a == b,
                   {"order": d, "oracle": a, "optimized": b, "rerun": rerun})


def _task_energy_idist(p: int, dw: int, dz: int) -> dict:
    ctx = cached_ctx(p)
    w = subgroup_of_order(ctx, dw)
    z = subgroup_of_order(ctx, dz)
    dist = i_distribution(ctx, w, z)
    mass_ok = dist.total == dw * dw * dz
    square_sum = sum(v * v for v in dist.table.values())
    ident = n_triples(ctx, z, w, w).count
    return _record(
        "energy", "idist_mass_and_identity", p, None, None,
        mass_ok and square_sum == ident,
        {"w_order": dw, "z_order": dz, "mass": dist.total,
         "square_sum": square_sum, "n_triples": ident,
         "rerun": f"count --p {p} --quantity idist --orders {dw},{dz}"},
    )


def _task_energy_jdist(p: int, dx: int, dy: int) -> dict:
    ctx = cached_ctx(p)
    x = subgroup_of_order(ctx, dx)
    y = subgroup_of_order(ctx, dy)
    dist = j_distribution(ctx, x, y)
    mass_ok = dist.total + dist.zero_count == dx * dx * dy * dy
    return _record(
        "energy", "jdist_mass", p, None, None, mass_ok,
        {"x_order": dx, "y_order": dy, "mass": dist.total, "zero_count": dist.zero_count,
         "rerun": f"count --p {p} --quantity jdist --orders {dx},{dy}"},
    )


def _task_cauchy(p: int, df: int, dg: int, dh: int) -> dict:
    ctx = cached_ctx(p)
    rep = cauchy_step_report(
        ctx, subgroup_of_order(ctx, df), subgroup_of_order(ctx, dg), subgroup_of_order(ctx, dh)
    )
    return _record(
        "cauchy", "cauchy_step_collapsed", p, None, None, rep.collapsed_holds,
        {"f_order": df, "g_order": dg, "h_order": dh, "n_triples": rep.n,
         "product_order": rep.product_order, "energy_g": rep.energy_g,
         "energy_h": rep.energy_h, "lambda_square_sum": rep.lambda_square_sum,
         "intermediate_holds": rep.intermediate_holds,
         "rerun": f"count --p {p} --quantity ntriples --orders {df},{dg},{dh}"},
    )


def _task_ratio_dx(p: int, d: int, ceiling: float) -> dict:
    ctx = cached_ctx(p)
    sub = subgroup_of_order(ctx, d)
    value = d_times(ctx, sub, method="optimized").count
    bound, regime = dx_bound(p, d)
    ratio = value / bound
    return _record(
        "ratio", "dx_ratio", p, None, None, ratio <= ceiling,
        {"cardinality": d, "value": value, "bound": bound, "ratio": ratio, "regime": regime,
         "rerun": f"count --p {p} --quantity dtimes --orders {d}"},
    )


def _task_ratio_shifted(p: int, d: int, ceiling: float) -> dict:
    ctx = cached_ctx(p)
    sub = subgroup_of_order(ctx, d)
    value = shifted_energy(ctx, sub, 1).count
    bound, regime = shifted_energy_bound(p, d)
    deviation = abs(value - d**4 / p)
    ratio = deviation / bound
    return _record(
        "ratio", "shifted_energy_ratio", p, None, None, ratio <= ceiling,
        {"cardinality": d, "value": value, "deviation": deviation, "bound": bound,
         "ratio": ratio, "regime": regime, "shift": 1,
         "rerun": f"count --p {p} --quantity energy --orders {d},{d} --shift 1"},
    )


def _task_ratio_ntriples(p: int, d: int, ceiling: float, triple_budget: int) -> dict:
    ctx = cached_ctx(p)
    rerun = f"count --p {p} --quantity ntriples --orders {d},{d},{d}"
    if d**3 > triple_budget:
        return _record("ratio", "ntriples_ratio", p, None, None, None,
                       {"cardinality": d, "rerun": rerun}, skipped=True,
                       reason=f"diagonal triple {d}^3 exceeds budget {triple_budget}")
    sub = subgroup_of_order(ctx, d)
    value = n_triples(ctx, sub, sub, sub).count
    bound, regime = n_triples_bound(p, d, d, d)
    ratio = value / bound
    return _record(
        "ratio", "ntriples_ratio", p, None, None, ratio <= ceiling,
        {"cardinality": d, "value": value, "bound": bound, "ratio": ratio,
         "regime": regime, "rerun": rerun},
    )


def execute_task(indexed_task: tuple[int, tuple]) -> tuple[int, dict]:
    idx, (fn, *args) = indexed_task
    try:
        record = fn(*args)
    except BudgetExceeded as exc:
        # Blanket skipped-not-failed semantics so mixed-size sweeps complete.
        # Quantity: the task's tag (`_task_energy_jdist` -> energy_jdist).
        tag = fn.__name__.removeprefix("_task_")
        record = _record(tag.partition("_")[0], tag, args[0], None, None, None,
                         {"task": list(map(str, args))}, skipped=True, reason=str(exc))
    record["idx"] = idx
    return idx, record


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Execute all tasks; records come back sorted by task index."""
    tasks = list(enumerate(generate_tasks(cfg)))
    if cfg.workers == 1:
        results = [execute_task(t) for t in tasks]
    else:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(cfg.workers) as pool:
            results = pool.map(execute_task, tasks, chunksize=8)
    results.sort(key=lambda pair: pair[0])
    return [rec for _, rec in results]


@dataclass(frozen=True)
class VerifyReport:
    records: list
    per_suite: dict  # suite -> {"pass": n, "fail": n, "skip": n}
    max_ratios: dict  # quantity -> max ratio
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = []
        for suite, counts in sorted(self.per_suite.items()):
            lines.append(
                f"suite {suite:<9} pass={counts['pass']:<5} "
                f"fail={counts['fail']:<4} skip={counts['skip']}"
            )
        for quantity, ratio in sorted(self.max_ratios.items()):
            lines.append(f"max ratio {quantity:<22} {ratio:.6g}")
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            for rec in self.failures[:20]:
                lines.append(
                    f"  suite={rec['suite']} quantity={rec['quantity']} p={rec['p']} "
                    f"poly={rec['poly']} j={rec['j']} rerun: {rec['data'].get('rerun', '-')}"
                )
            if len(self.failures) > 20:
                lines.append(f"  ... and {len(self.failures) - 20} more")
        else:
            lines.append("all checks passed")
        return lines


def run_verify(cfg: SweepConfig) -> VerifyReport:
    records = run_sweep(cfg)
    per_suite: dict = {}
    max_ratios: dict = {}
    failures = []
    for rec in records:
        counts = per_suite.setdefault(rec["suite"], {"pass": 0, "fail": 0, "skip": 0})
        if rec["skipped"]:
            counts["skip"] += 1
        elif rec["passed"]:
            counts["pass"] += 1
        else:
            counts["fail"] += 1
            failures.append(rec)
        ratio = rec["data"].get("ratio")
        if ratio is not None:
            q = rec["quantity"]
            max_ratios[q] = max(max_ratios.get(q, 0.0), ratio)
    return VerifyReport(
        records=records, per_suite=per_suite, max_ratios=max_ratios, failures=failures
    )


# --- persistence -------------------------------------------------------------

ENVELOPE_FIELDS = ("schema", "idx", "suite", "quantity", "p", "poly", "j",
                   "passed", "skipped", "reason")


def header_line(cfg: SweepConfig) -> str:
    return json.dumps(
        {
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "seed": cfg.seed,
            "suites": list(cfg.suites),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
        sort_keys=True,
    )


def records_to_jsonl(records: list[dict], cfg: SweepConfig) -> str:
    lines = [header_line(cfg)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[dict]) -> str:
    import csv  # here: at module level it cost up to 0.45 MB of peak RSS in runs writing no CSV

    data_keys = sorted({k for rec in records for k in rec["data"]})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ENVELOPE_FIELDS + tuple(data_keys))
    for rec in records:
        row = [rec[f] for f in ENVELOPE_FIELDS] + [rec["data"].get(k) for k in data_keys]
        writer.writerow(row)
    return out.getvalue()


def read_text(path) -> str:
    """The text of a user-named file; an OSError becomes IoFailure (CLI exit 3)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write a user-named file; an OSError becomes IoFailure (CLI exit 3)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_records(records: list[dict], cfg: SweepConfig, path, fmt: str = "jsonl") -> None:
    write_text(path, records_to_jsonl(records, cfg) if fmt == "jsonl" else records_to_csv(records))


def load_records(path) -> list[dict]:
    records = []
    for line in read_text(path).splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IoFailure(f"{path}: bad JSONL line: {exc}") from exc
        if obj.get("kind") == "header":
            continue
        records.append(obj)
    return records


_SCAN_KEYS = {"dx_ratio": "dx", "shifted_energy_ratio": "shifted", "ntriples_ratio": "ntriples"}


def ratio_scan(p_limit: int, triple_budget: int = DEFAULT_BUDGETS["ratio_triple"]) -> dict:
    """Max observed ratio of each counting quantity to its bound expression.

    A streaming reduction over the ratio suite's records on every subgroup of
    order >= 2 of every odd prime p <= p_limit: the difference-product count
    against its two-regime bound, the deviation of shifted energy (shift 1)
    from |G|^4/p against its three-regime bound, and the diagonal triple count
    F=G=H against its bound. Records arrive in (p, d) order, so a strict `>`
    keeps the first maximum. Diagonal triples over triple_budget are skipped
    and tallied; any other skip raises BudgetExceeded with its reason.
    """
    cfg = SweepConfig.from_dict({"primes": {"start": 3, "stop": p_limit}, "suites": ["ratio"],
                                 "budgets": {"ratio_triple": triple_budget}})
    out = {key: {"max_ratio": 0.0} for key in _SCAN_KEYS.values()}
    out["skipped_triples"] = 0
    for _, rec in map(execute_task, enumerate(generate_tasks(cfg))):
        if rec["skipped"]:
            if rec["quantity"] != "ntriples_ratio":
                raise BudgetExceeded(rec["reason"])
            out["skipped_triples"] += 1
            continue
        slot, data = out[_SCAN_KEYS[rec["quantity"]]], rec["data"]
        if data["ratio"] > slot["max_ratio"]:
            slot.update(max_ratio=data["ratio"], p=rec["p"], cardinality=data["cardinality"],
                        regime=data["regime"])
    return out


PLOT_KINDS = ("ratio-vs-cardinality", "bound-vs-p", "winner-map")


def emit_plot_data(records: list[dict], kind: str) -> str:
    """Columnar whitespace-separated text with a commented header row."""
    if kind == "ratio-vs-cardinality":
        lines = ["# cardinality p ratio regime quantity"]
        for rec in records:
            if rec["suite"] != "ratio" or rec["skipped"]:
                continue
            d = rec["data"]
            lines.append(
                f"{d['cardinality']} {rec['p']} {d['ratio']:.10g} {d['regime']} {rec['quantity']}"
            )
    elif kind == "bound-vs-p":
        lines = ["# p klmn weil ccp cp gcd trivial exact winner"]
        for rec in records:
            if rec["suite"] != "bounds" or rec["skipped"]:
                continue
            d = rec["data"]
            exact = "nan" if d.get("exact") is None else f"{d['exact']:.10g}"
            lines.append(
                f"{rec['p']} {d['klmn']} {d['weil']:.10g} {d['ccp']:.10g} "
                f"{d['cp']:.10g} {d['gcd']:.10g} {d['trivial']:.10g} {exact} {d['winner']}"
            )
    elif kind == "winner-map":
        lines = ["# p klmn winner"]
        for rec in records:
            if rec["suite"] != "bounds" or rec["skipped"]:
                continue
            lines.append(f"{rec['p']} {rec['data']['klmn']} {rec['data']['winner']}")
    else:
        raise UnknownKind(f"unknown plot kind '{kind}' (known: {', '.join(PLOT_KINDS)})")
    return "\n".join(lines) + "\n"
