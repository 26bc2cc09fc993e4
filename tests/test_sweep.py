"""Config validation, sweep determinism, record schema, and plot emission."""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from sparsesums import ConfigInvalid, SweepConfig, UnknownKind, emit_plot_data, run_sweep, run_verify
from sparsesums import CharacterIndex, SparsePoly, field, sum_exact, sums, sweep
from sparsesums.bounds import dx_bound, n_triples_bound, shifted_energy_bound
from sparsesums.energy import d_times, n_triples, shifted_energy
from sparsesums.errors import BudgetExceeded
from sparsesums.field import is_prime, make_field_ctx
from sparsesums.subgroups import subgroup_of_order
from sparsesums.sweep import (
    DEFAULT_CONFIG,
    characters_for,
    gcd_structured_quadrinomial,
    generate_tasks,
    polynomials_for,
    ratio_scan,
    records_to_csv,
    records_to_jsonl,
)

TINY = {
    "primes": [11, 13],
    "polynomials": {"random": {"count": 1}},
    "characters": [0, 1],
    "seed": 5,
}


def tiny_config(**over):
    raw = dict(TINY)
    raw.update(over)
    return SweepConfig.from_dict(raw)


def test_config_defaults_fill_in():
    cfg = SweepConfig.from_dict({"primes": [11]})
    assert cfg.ratio_ceiling == 100.0
    assert cfg.workers == 1
    assert cfg.mode == "canonical"
    assert set(cfg.suites) == {
        "identity", "weil", "bilinear", "energy", "cauchy", "ratio", "bounds"
    }


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid, match="frobnicate"):
        SweepConfig.from_dict({"primes": [11], "frobnicate": 1})


def test_config_rejects_bad_primes():
    with pytest.raises(ConfigInvalid, match="primes"):
        SweepConfig.from_dict({"primes": []})
    with pytest.raises(ConfigInvalid, match="primes"):
        SweepConfig.from_dict({"primes": [15]})
    with pytest.raises(ConfigInvalid, match="primes"):
        SweepConfig.from_dict({"primes": [2**31]})
    with pytest.raises(ConfigInvalid, match="primes"):
        SweepConfig.from_dict({"primes": {"start": 24, "stop": 28}})
    with pytest.raises(ConfigInvalid, match="primes"):
        SweepConfig.from_dict({"primes": {"start": 11, "whoops": 1}})
    # a range's ends are JSON integers, not numbers or strings that convert to one
    for start, stop in ((10.9, "30"), (10, 30.0), (True, 30)):
        with pytest.raises(ConfigInvalid, match="primes"):
            SweepConfig.from_dict({"primes": {"start": start, "stop": stop}})


@pytest.mark.parametrize(
    "primes", [{"start": 2**31, "stop": 2**31 + 10**6}, {"start": 3, "stop": 2**40}]
)
def test_config_rejects_a_range_past_the_cap_before_enumerating_it(monkeypatch, primes):
    tested = []
    monkeypatch.setattr(sweep, "is_prime", lambda n: tested.append(n) or is_prime(n))
    with pytest.raises(ConfigInvalid, match=r"primes: range stop \d+ must be < 2\*\*31"):
        SweepConfig.from_dict({"primes": primes})
    assert tested == []


def test_config_prime_range_filters():
    cfg = SweepConfig.from_dict({"primes": {"start": 10, "stop": 31}})
    assert cfg.primes == (11, 13, 17, 19, 23, 29, 31)


def test_config_rejects_bad_fields():
    bad_cases = [
        ({"primes": [11], "polynomials": {"random": {"count": 0}}}, "count"),
        ({"primes": [11], "polynomials": {"weird": {}}}, "polynomials"),
        ({"primes": [11], "polynomials": {}}, "polynomials"),
        ({"primes": [11], "characters": []}, "characters"),
        ({"primes": [11], "characters": [-1]}, "characters"),
        ({"primes": [11], "suites": ["nope"]}, "suites"),
        ({"primes": [11], "seed": -1}, "seed"),
        ({"primes": [11], "ratio_ceiling": 0}, "ratio_ceiling"),
        ({"primes": [11], "workers": 0}, "workers"),
        ({"primes": [11], "mode": "fastest"}, "mode"),
        ({"primes": [11], "budgets": {"nope": 1}}, "budgets"),
        ({"primes": [11], "budgets": {"decomposition": "big"}}, "decomposition"),
        # explicit terms are integers: none is truncated, parsed or read from a bool
        ({"primes": [11], "polynomials": {"explicit": [[[1.5, 3], [2, 5], [3, 7], [4, 9.9]]]}},
         "polynomials"),
        ({"primes": [11], "polynomials": {"explicit": [[["x", 3], [2, 5], [3, 7], [4, 9]]]}},
         "polynomials"),
        ({"primes": [11], "polynomials": {"explicit": [[[1, True], [2, 5], [3, 7], [4, 9]]]}},
         "polynomials"),
    ]
    for raw, needle in bad_cases:
        with pytest.raises(ConfigInvalid, match=needle):
            SweepConfig.from_dict(raw)


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    cfg = SweepConfig.from_file(path)
    assert cfg.primes == (11, 13)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_file(bad)


def test_generated_polynomials_are_reproducible():
    cfg = tiny_config()
    a = [str(q) for q in polynomials_for(cfg, 13)]
    b = [str(q) for q in polynomials_for(cfg, 13)]
    assert a == b
    other = [str(q) for q in polynomials_for(replace(cfg, seed=6), 13)]
    assert a != other


def test_gcd_structured_generator_shapes_gcds():
    from math import gcd

    psi = gcd_structured_quadrinomial(1009, 5, 0)
    gcds = sorted(gcd(k, 1008) for k in psi.exponents)
    assert gcds[0] <= 2  # the small-gcd exponent
    assert gcds[-1] ** 2 >= 1008  # at least one large divisor hit


def test_characters_for_handles_tokens():
    cfg = tiny_config(characters=[0, 1, "random"])
    js = characters_for(cfg, 13, 0)
    assert js[0] == 0 and js[1] == 1
    assert all(0 <= j < 12 for j in js)
    allo = tiny_config(characters=["all-orders"])
    js2 = characters_for(allo, 13, 0)
    # one character per multiplicative order dividing 12
    assert sorted(js2) == sorted({12 // d % 12 for d in (1, 2, 3, 4, 6, 12)})


def test_run_sweep_is_deterministic_and_order_indexed():
    cfg = tiny_config()
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    assert [r["idx"] for r in a] == list(range(len(a)))
    assert records_to_jsonl(a, cfg).split("\n", 1)[1] == records_to_jsonl(b, cfg).split("\n", 1)[1]


def test_run_sweep_parallel_equivalence(monkeypatch):
    cfg = tiny_config()
    serial = run_sweep(cfg)
    # the pool forks after a threaded sum: the sum's threads are gone by then
    monkeypatch.setattr(field, "CPUS", 2)
    p = 65539
    sum_exact(make_field_ctx(p), SparsePoly.from_terms(p, [(1, 3), (2, 5)]), CharacterIndex(1))
    parallel = run_sweep(replace(cfg, workers=2))
    assert serial == parallel


def test_records_are_self_describing():
    cfg = tiny_config(suites=["identity", "ratio"])
    for rec in run_sweep(cfg):
        assert rec["schema"] == 1
        assert rec["suite"] in ("identity", "ratio")
        assert "rerun" in rec["data"] or rec["skipped"]
        assert isinstance(rec["p"], int)


def test_ratio_ceiling_forces_failures():
    cfg = tiny_config(suites=["ratio"], ratio_ceiling=0.001)
    report = run_verify(cfg)
    assert not report.ok
    assert all(rec["suite"] == "ratio" for rec in report.failures)


def test_budget_skips_are_not_failures():
    cfg = tiny_config(suites=["ratio"], budgets={"ratio_triple": 1})
    report = run_verify(cfg)
    skipped = [r for r in report.records if r["skipped"]]
    assert skipped
    assert all(r["passed"] is None and r["reason"] for r in skipped)
    assert report.ok  # skips never count as failures


def test_cauchy_suite_reports_known_violations():
    report = run_verify(tiny_config(suites=["cauchy"]))
    assert not report.ok
    failing = report.failures[0]
    assert failing["quantity"] == "cauchy_step_collapsed"
    assert failing["data"]["intermediate_holds"]


def test_cauchy_tasks_are_those_of_the_cubic_filter():
    # the triples the suite samples from, by the scan over every ordered
    # triple of divisors, and the seeded picks the sweep makes from them
    def cubic(divs):
        return [
            (df, dg, dh)
            for df in divs
            for dg in divs
            for dh in divs
            if dg >= dh and df * dg * dg <= 200_000 and df * dh * dh <= 200_000
        ]

    primes = [p for p in range(3, 3000) if is_prime(p)] + [982_801, 1_053_361]
    for p in primes:
        divs = field.divisors(p - 1)
        eligible = cubic(divs)
        assert sweep._cauchy_triples(divs) == eligible, p
        if p > 3000:
            assert len(divs) == 240
            picks = sweep._rng(5, p, 0x0005).choice(len(eligible), size=12, replace=False)
            tasks = generate_tasks(tiny_config(primes=[p], suites=["cauchy"]))
            assert [t[1:] for t in tasks] == [(p, *eligible[i]) for i in sorted(picks.tolist())]


def test_jsonl_roundtrip_and_header(tmp_path):
    from sparsesums import load_records, write_records

    cfg = tiny_config(suites=["weil"])
    records = run_sweep(cfg)
    path = tmp_path / "out.jsonl"
    write_records(records, cfg, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["seed"] == cfg.seed
    assert load_records(path) == records


def test_csv_mirror_has_no_timestamp():
    cfg = tiny_config(suites=["bounds"])
    records = run_sweep(cfg)
    csv_text = records_to_csv(records)
    head = csv_text.splitlines()[0].split(",")
    assert head[:4] == ["schema", "idx", "suite", "quantity"]
    assert "winner" in head
    assert "timestamp" not in csv_text
    assert len(csv_text.splitlines()) == len(records) + 1


def test_emit_plot_data_kinds():
    cfg = tiny_config(suites=["ratio", "bounds"])
    records = run_sweep(cfg)
    ratio = emit_plot_data(records, "ratio-vs-cardinality")
    assert ratio.startswith("# cardinality p ratio regime")
    assert len(ratio.splitlines()) > 1
    winners = emit_plot_data(records, "winner-map")
    assert winners.startswith("# p klmn winner")
    bounds = emit_plot_data(records, "bound-vs-p")
    assert bounds.startswith("# p klmn weil")
    with pytest.raises(UnknownKind):
        emit_plot_data(records, "histogram")


def test_emit_plot_data_empty_dataset_is_header_only():
    assert emit_plot_data([], "winner-map") == "# p klmn winner\n"


def _per_subgroup_ratio_loop(p_limit, triple_budget):
    """The scan as one loop over the subgroups: the specification of ratio_scan."""
    def note_max(slot, ratio, p, d, regime):
        if ratio > slot["max_ratio"]:
            slot.update(max_ratio=ratio, p=p, cardinality=d, regime=regime)

    out = {"dx": {"max_ratio": 0.0}, "shifted": {"max_ratio": 0.0},
           "ntriples": {"max_ratio": 0.0}}
    skipped = 0
    for p in range(3, p_limit + 1):
        if not is_prime(p):
            continue
        ctx = make_field_ctx(p)
        for d in range(2, p):
            if (p - 1) % d:
                continue
            sub = subgroup_of_order(ctx, d)
            bound, regime = dx_bound(p, d)
            note_max(out["dx"], d_times(ctx, sub).count / bound, p, d, regime)
            energy = shifted_energy(ctx, sub, 1).count
            sbound, sregime = shifted_energy_bound(p, d)
            note_max(out["shifted"], abs(energy - d**4 / p) / sbound, p, d, sregime)
            if d**3 <= triple_budget:
                nbound, nregime = n_triples_bound(p, d, d, d)
                note_max(out["ntriples"], n_triples(ctx, sub, sub, sub).count / nbound,
                         p, d, nregime)
            else:
                skipped += 1
    out["skipped_triples"] = skipped
    return out


def test_ratio_scan_equals_per_subgroup_loop():
    for p_limit in (61, 211):
        for triple_budget in (4_000_000, 1_000, 1):
            expected = _per_subgroup_ratio_loop(p_limit, triple_budget)
            assert ratio_scan(p_limit, triple_budget) == expected, (p_limit, triple_budget)
    assert expected["skipped_triples"] > 0


def test_ratio_scan_raises_on_any_skip_but_the_triple_budget(monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetExceeded("shifted energy over budget")

    monkeypatch.setattr(sweep, "shifted_energy", over_budget)
    with pytest.raises(BudgetExceeded, match="shifted energy over budget"):
        ratio_scan(61)


def test_budget_fallback_record_takes_quantity_and_suite_from_the_task(monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetExceeded("jdist over budget")

    monkeypatch.setattr(sweep, "j_distribution", over_budget)
    idx, rec = sweep.execute_task((7, (sweep._task_energy_jdist, 13, 2, 3)))
    assert idx == 7
    assert rec == {
        "schema": 1, "suite": "energy", "quantity": "energy_jdist", "p": 13, "poly": None,
        "j": None, "passed": None, "skipped": True, "reason": "jdist over budget",
        "data": {"task": ["13", "2", "3"]}, "idx": 7,
    }


def test_context_cache_holds_one_prime():
    sweep.cached_ctx.cache_clear()
    run_sweep(SweepConfig.from_dict({"primes": [11, 13, 17], "seed": 5}))
    info = sweep.cached_ctx.cache_info()
    assert info.misses == 3
    assert info.currsize == 1


def test_the_identity_weil_and_bounds_suites_evaluate_each_sum_once(monkeypatch):
    # the three suites ask for the same (p, Psi, chi) back to back: sum_exact
    # evaluates it for the first and answers the other two from the context
    path = Path(__file__).resolve().parent.parent / "configs" / "quick_verify.json"
    cfg = replace(SweepConfig.from_file(path), suites=("identity", "weil", "bounds"))
    made = []
    t_terms = sums._t_terms

    def spy(ctx, psi, chi):  # records which sum started each term evaluation
        made.append((sys._getframe(1).f_code.co_name, ctx.p, psi, chi))
        return t_terms(ctx, psi, chi)

    monkeypatch.setattr(sums, "_t_terms", spy)
    sweep.cached_ctx.cache_clear()  # no context of another test, nor its last sum
    records = run_sweep(cfg)
    asked = [(p, SparsePoly.parse(p, poly), CharacterIndex(j))
             for _, p, poly, j, *_ in generate_tasks(cfg)]
    exact = Counter(tuple(key) for caller, *key in made if caller == "sum_exact")
    assert set(exact) == set(asked) and set(exact.values()) == {1}
    assert len(asked) == 3 * len(exact)  # each asked for by the three suites
    decomposed = [r for r in records if r["suite"] == "identity" and not r["skipped"]]
    assert len(made) == len(exact) + len(decomposed)  # sum_decomposed always evaluates
    assert all(r["passed"] for r in records) and len(records) == len(asked)


def test_generate_tasks_near_the_modulus_cap_does_not_scan_p():
    cfg = SweepConfig.from_dict({"primes": [2_147_483_647], "suites": ["weil"]})
    tasks = generate_tasks(cfg)
    assert len(tasks) == 4  # two random polynomials x characters 0, 1
    assert all(task[0] is sweep._task_weil and task[1] == 2_147_483_647 for task in tasks)


def test_bounds_klmn_is_exact_past_float_precision():
    from math import prod

    from sparsesums import SparsePoly

    p = 1_000_003
    terms = [[3, 999983], [5, 999979], [7, 999961], [11, 999953]]
    cfg = SweepConfig.from_dict(
        {"primes": [p], "polynomials": {"explicit": [terms]}, "characters": [1],
         "suites": ["bounds"]}
    )
    (rec,) = run_sweep(cfg)
    klmn = prod(SparsePoly.parse(p, rec["poly"]).exponents)
    assert klmn == 999983 * 999979 * 999961 * 999953 > 2**53
    assert int(float(999983) * 999979 * 999961 * 999953) != klmn
    assert rec["data"]["klmn"] == klmn


def test_default_config_is_valid():
    cfg = SweepConfig.from_dict(DEFAULT_CONFIG)
    assert cfg.primes[0] == 11
    assert cfg.primes[-1] == 199
    tasks = generate_tasks(cfg)
    assert len(tasks) > 1000
