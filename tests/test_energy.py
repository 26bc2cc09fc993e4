"""Counting quantities: both routes, exact identities, frozen oracle values."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesums import energy, subgroups
from sparsesums import (
    BudgetExceeded,
    all_subgroups,
    cauchy_step_report,
    d_times,
    i_distribution,
    j_distribution,
    lambda_square_sum,
    make_field_ctx,
    mult_energy,
    n_triples,
    product_set,
    shifted_energy,
    subgroup_of_order,
)
from conftest import cauchy_separated_forms, ctx_for

# (DIRECT_CONV_MAX, ENUM_PAIRS_PER_POINT) that pin every primitive call to one
# side of the enumeration-vs-transform choice.
ROUTES = {"enumerate": (10**9, 10**9), "transform": (0, 0)}


def each_route():
    """Yield once with the routes as chosen, then once pinned to each side."""
    yield None
    for name, (direct_max, per_point) in ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy, "DIRECT_CONV_MAX", direct_max)
            mp.setattr(energy, "ENUM_PAIRS_PER_POINT", per_point)
            yield name


def _random_multisets(rng, p: int, count: int, top: int):
    """Multisets of residues: repeats, 0 and representatives >= p included."""
    out = []
    for _ in range(count):
        size = int(rng.integers(1, top + 1))
        elems = rng.integers(0, p, size=size) + p * rng.integers(0, 3, size=size)
        out.append(elems.tolist())
    return out


def test_mult_energy_worked_value(ctx13):
    # E of the set {2,4,10} against itself
    for method in ("optimized", "oracle"):
        assert mult_energy(ctx13, [2, 4, 10], [2, 4, 10], method=method).count == 15


def test_mult_energy_subgroup_cube():
    for p in (13, 31, 101):
        ctx = ctx_for(p)
        for sub in all_subgroups(ctx):
            assert mult_energy(ctx, sub, sub).count == sub.order**3


def test_mult_energy_routes_agree_on_random_sets(ctx31):
    cases = [
        ([0, 1, 5], [0, 1, 5]),  # 0 on both sides, U == V
        ([0], [3, 7]),  # no nonzero element in U
        ([0, 0, 2], [4, 0]),  # 0 repeated
        ([2, 2, 2, 9], [2, 9, 9]),  # repeated elements
        ([-1, -30, 33, 62], [31, -31, 5]),  # negative, >= p, and 0 in disguise
    ]
    for _route in each_route():
        for us, vs in cases:
            expected = mult_energy(ctx31, us, vs, method="oracle").count
            assert mult_energy(ctx31, us, vs).count == expected, (us, vs)
            assert mult_energy(ctx31, vs, us).count == expected
        rng = np.random.default_rng(2)
        for _ in range(25):
            us = rng.choice(30, size=int(rng.integers(2, 12)), replace=False) + 1
            vs = rng.choice(30, size=int(rng.integers(2, 12)), replace=False) + 1
            a = mult_energy(ctx31, us, vs, method="optimized").count
            b = mult_energy(ctx31, us, vs, method="oracle").count
            assert a == b
        # multisets with 0 and with elements >= p, on both sides of the route choice
        ctx = ctx_for(101)
        for us, vs in zip(*[iter(_random_multisets(rng, 101, 40, 70))] * 2):
            a = mult_energy(ctx, us, vs, method="optimized").count
            b = mult_energy(ctx, us, vs, method="oracle").count
            assert a == b


def test_element_list_logs_are_int64_and_counts_agree_with_the_oracle_at_p_100003():
    # the context stores int32 logs; the element-list tables widen the logs
    # they gather, since _cyclic_conv adds two of them (past int32 above 2**30)
    p = 100_003
    ctx = ctx_for(p)
    assert ctx.dlog.dtype == np.int32
    rng = np.random.default_rng(p)
    us = rng.integers(0, p, size=50).tolist() + [0, p - 1, p - 1]
    vs = rng.integers(p - 1_000, p, size=40).tolist()
    for s in (us, vs):
        _, _, m, e, _ = energy._indicator(ctx, s)
        assert m == p - 1 and e.dtype == np.int64
        assert e.tolist() == [int(ctx.dlog[x]) for x in s if x]
        _, _, m, e, _ = energy._differences(ctx, s)
        assert m == p - 1 and e.dtype == np.int64
        assert sorted(ctx.g_pow[e].tolist()) == sorted({(a - b) % p for a in s for b in s} - {0})
    xs, ys = us[:20], vs[:25]
    energy_uv = mult_energy(ctx, us, vs, method="oracle").count
    d_u = d_times(ctx, us, method="oracle").count
    j_xy = j_distribution(ctx, xs, ys, method="oracle")
    for _route in each_route():
        assert mult_energy(ctx, us, vs).count == energy_uv
        assert d_times(ctx, us).count == d_u
        assert j_distribution(ctx, xs, ys) == j_xy


def _d_times_by_hand(p: int, us) -> int:
    """sum over mu of r(mu)^2, r(mu) = #{(x1, y1, x2, y2) : (x1 - y1)(x2 - y2) == mu}."""
    diffs = [(x - y) % p for x in us for y in us]
    r = Counter(a * b % p for a in diffs for b in diffs)
    return sum(c * c for c in r.values())


@pytest.mark.parametrize("block", [1, 60, energy.ORACLE_BLOCK_PAIRS])
def test_d_times_oracle_matches_pure_python_count(monkeypatch, block):
    monkeypatch.setattr(energy, "ORACLE_BLOCK_PAIRS", block)
    p = 37
    ctx = ctx_for(p)
    rng = np.random.default_rng(8)
    sets = [[5], [0], [3, 3], [-1, 36, 73], [1, 2, 3, 4, 5, 6, 7]]
    sets += [rng.integers(-p, 2 * p, size=int(rng.integers(1, 9))).tolist() for _ in range(12)]
    for us in sets:
        assert d_times(ctx, us, method="oracle").count == _d_times_by_hand(p, us), us
    assert d_times(ctx, [5], method="oracle").count == 1  # |U| = 1: empty off-zero support


def test_d_times_worked_value():
    ctx = ctx_for(5)
    for method in ("optimized", "oracle"):
        assert d_times(ctx, [1, 4], method=method).count == 152


def test_d_times_frozen_subgroup_value():
    ctx = ctx_for(101)
    sub = subgroup_of_order(ctx, 25)
    assert d_times(ctx, sub).count == 2233890625


def test_d_times_routes_agree():
    for _route in each_route():
        for p in (13, 31, 61):
            ctx = ctx_for(p)
            for sub in all_subgroups(ctx):
                if sub.order > 40:
                    continue
                a = d_times(ctx, sub, method="optimized").count
                b = d_times(ctx, sub, method="oracle").count
                assert a == b
        rng = np.random.default_rng(4)
        ctx = ctx_for(211)
        for us in _random_multisets(rng, 211, 12, 60):
            a = d_times(ctx, us, method="optimized").count
            b = d_times(ctx, us, method="oracle").count
            assert a == b


def test_diff_counts_matches_pair_enumeration():
    for _route in each_route():
        rng = np.random.default_rng(6)
        for p in (13, 101, 211):
            for us in _random_multisets(rng, p, 10, 3 * p):
                diffs = np.subtract.outer(us, us) % p
                expected = np.bincount(diffs.reshape(-1), minlength=p)
                assert np.array_equal(energy.diff_counts(p, us), expected)


def test_d_times_fft_path_matches_full_group_closed_form():
    # as a list, order 4098 > the direct-convolution cutoff walks the FFT
    # route; as a Subgroup it takes the class route on Z/1
    p = 4099
    ctx = make_field_ctx(p)
    sub = subgroup_of_order(ctx, p - 1)
    # full group: d(0) = p-1 and d(c) = p-2 for every nonzero c, so the
    # product-frequency table is uniform and the count has a closed form
    n = p - 1
    r0 = 2 * (p - 1) * n**2 - (p - 1) ** 2
    r_nonzero = n * (p - 2) ** 2
    for us in (sub, list(sub.elements)):
        assert d_times(ctx, us).count == r0**2 + n * r_nonzero**2


def test_shifted_energy_contains_zero_case(ctx13):
    for _route in each_route():
        # -1 is in the order-2 subgroup, so G+1 contains 0
        sub = subgroup_of_order(ctx13, 2)
        val = shifted_energy(ctx13, sub, 1).count
        assert val == mult_energy(ctx13, [2, 0], [2, 0]).count
        # even orders put -1 in G, so G+1 holds 0; both sides of the route choice
        ctx = ctx_for(211)
        for d in (2, 6, 30, 70):
            sub = subgroup_of_order(ctx, d)
            shifted = ((sub.as_array() + 1) % 211).tolist()
            assert 0 in shifted
            val = shifted_energy(ctx, sub, 1).count
            assert val == mult_energy(ctx, shifted, shifted, method="oracle").count


def test_n_triples_worked_value(ctx13):
    f = subgroup_of_order(ctx13, 3)
    g = subgroup_of_order(ctx13, 4)
    h = subgroup_of_order(ctx13, 2)
    for method in ("optimized", "oracle"):
        assert n_triples(ctx13, f, g, h, method=method).count == 90


def test_n_triples_routes_agree_random():
    for _route in each_route():
        ctx = ctx_for(31)
        rng = np.random.default_rng(9)
        for _ in range(20):
            sets = [
                (rng.choice(30, size=int(rng.integers(2, 8)), replace=False) + 1)
                for _ in range(3)
            ]
            a = n_triples(ctx, *sets, method="optimized").count
            b = n_triples(ctx, *sets, method="oracle").count
            assert a == b
        # |F| |G|^2 up to the oracle budget at p = 101; G == H takes the shared side
        ctx = ctx_for(101)
        for f, g, h in zip(*[iter(_random_multisets(rng, 101, 45, 12))] * 3):
            f = (f * 4)[:30]
            for hh in (h, g):
                a = n_triples(ctx, f, g, hh, method="optimized").count
                b = n_triples(ctx, f, g, hh, method="oracle").count
                assert a == b
        g = subgroup_of_order(ctx, 10)
        f = ((g.as_array() + 1) % 101).tolist()  # contains 0
        assert 0 in f
        a = n_triples(ctx, f, g, g, method="optimized").count
        assert a == n_triples(ctx, f, g, g, method="oracle").count


def test_i_distribution_worked_value(ctx13):
    w = subgroup_of_order(ctx13, 2)
    z = subgroup_of_order(ctx13, 1)
    for method in ("optimized", "oracle"):
        dist = i_distribution(ctx13, w, z, method=method)
        assert dist.table == {0: 2, 11: 1, 2: 1}
        assert dist.total == 4


def test_i_distribution_square_sum_identity():
    for p in (13, 31):
        ctx = ctx_for(p)
        subs = all_subgroups(ctx)
        for w in subs:
            for z in subs:
                if w.order * w.order * z.order > 20_000:
                    continue
                dist = i_distribution(ctx, w, z)
                assert dist.total == w.order**2 * z.order
                square_sum = sum(v * v for v in dist.table.values())
                assert square_sum == n_triples(ctx, z, w, w).count


def test_distributions_routes_agree():
    for _route in each_route():
        rng = np.random.default_rng(11)
        ctx = ctx_for(101)
        sets = _random_multisets(rng, 101, 24, 24)
        for w, z in zip(sets[::2], sets[1::2]):
            z = z + [0, 101]  # z == 0 puts mass at lambda == 0
            opt = i_distribution(ctx, w, z)
            ora = i_distribution(ctx, w, z, method="oracle")
            assert opt == ora
            x, y = w[:12], z[:12]
            opt = j_distribution(ctx, x, y)
            ora = j_distribution(ctx, x, y, method="oracle")
            assert opt.table == ora.table and opt.zero_count == ora.zero_count


def test_j_distribution_mass_and_frozen_square_sum(ctx13):
    x = subgroup_of_order(ctx13, 3)
    y = subgroup_of_order(ctx13, 4)
    dist = j_distribution(ctx13, x, y)
    assert dist.total + dist.zero_count == 3 * 3 * 4 * 4
    assert sum(v * v for v in dist.table.values()) == 432
    oracle = j_distribution(ctx13, x, y, method="oracle")
    assert oracle.table == dist.table
    assert oracle.zero_count == dist.zero_count


def _agreed(result):
    """What two routes must agree on: the count, or the table and its key order."""
    return result.count if isinstance(result, energy.CountValue) else (result, list(result.table))


def _mixes_agree(ctx, fn, args, oracle: bool, mixes=()):
    """fn on args gives the all-list value with every Subgroup argument kept
    and with only the positions of each mix kept, the others as element
    lists; so does the oracle when asked."""
    as_list = lambda a: list(a.elements) if isinstance(a, subgroups.Subgroup) else a
    value = _agreed(fn(ctx, *map(as_list, args)))
    for kept in [range(len(args)), *mixes]:
        mixed = [a if i in kept else as_list(a) for i, a in enumerate(args)]
        assert _agreed(fn(ctx, *mixed)) == value, (fn.__name__, args, list(kept))
    if oracle:
        assert _agreed(fn(ctx, *args, method="oracle")) == value, (fn.__name__, args)


# Subgroups kept beside element lists in N: F alone, G and H alone or together
TRIPLE_MIXES = [(0,), (1, 2), (1,), (0, 2), (2,), (0, 1)]


def _class_and_set_routes_agree(ctx, subs, oracle_max: int = 0):
    """Every counter on the given subgroups as Subgroups, as element lists
    (the set route) and mixed: d_times on each, n_triples on each ordered
    triple (one mix of TRIPLE_MIXES each, in turn), I and J on each ordered
    pair (each Subgroup beside the other as a list). A multiset holding 0 and
    repeats joins beside each Subgroup as F of N (G = H), W and Z of I, and X
    and Y of J.

    The oracle joins where its budget allows and its enumeration (solutions
    compared for N, Python-loop steps for I and J) is at most oracle_max."""
    p = ctx.p
    multiset = [0, 0, 1, p + 1, p - 1, 2 * p - 1]  # 0, 1 and -1 twice each
    for s in subs:
        _mixes_agree(ctx, d_times, (s,), oracle_max and len(s) <= energy.DTIMES_ORACLE_MAX)
    turn = 0
    for f in subs:
        for g in subs:
            triples = [(f, g, h) for h in subs] + ([(multiset, f, f)] if f is g else [])
            for x, y, z in triples:
                left, right = len(x) * len(y) ** 2, len(x) * len(z) ** 2
                oracle = (
                    max(left, right) <= energy.ORACLE_PAIR_BUDGET and left * right <= oracle_max
                )
                _mixes_agree(ctx, n_triples, (x, y, z), oracle, [TRIPLE_MIXES[turn % 6]])
                turn += 1
            for x, y in [(f, g), (multiset, g), (f, multiset)] if f is g else [(f, g)]:
                oracle = len(x) ** 2 * len(y) <= oracle_max
                _mixes_agree(ctx, i_distribution, (x, y), oracle, [(0,), (1,)])
                if len(x) ** 2 * len(y) ** 2 <= energy.FREQ_BUDGET:
                    oracle = len(x) ** 2 * len(y) ** 2 <= oracle_max
                    _mixes_agree(ctx, j_distribution, (x, y), oracle, [(0,), (1,)])


def test_class_route_matches_set_route_and_oracle_on_all_subgroups():
    # every subgroup, ordered triple and ordered pair for p < 140, with the
    # oracle; p < 50 also with the convolutions pinned to each side of the
    # route choice (the oracle does not depend on it)
    primes = [p for p in range(3, 140) if all(p % q for q in range(2, p))]
    for route in each_route():
        for p in primes if route is None else [p for p in primes if p < 50]:
            ctx = ctx_for(p)
            _class_and_set_routes_agree(ctx, all_subgroups(ctx), 5_000 if route is None else 0)


@settings(deadline=None, max_examples=25)
@given(
    p=st.sampled_from([181, 241, 421, 601, 1009, 1201, 1801, 2003]),
    data=st.data(),
)
def test_class_route_matches_set_route_property(p, data):
    ctx = ctx_for(p)
    orders = [d for d in range(1, p) if (p - 1) % d == 0 and d <= 200]
    picked = data.draw(st.lists(st.sampled_from(orders), min_size=1, max_size=3, unique=True))
    for route in each_route():
        subs = [subgroup_of_order(ctx, d) for d in picked]
        _class_and_set_routes_agree(ctx, subs, 5_000 if route is None else 0)


def _raises_budget(call) -> bool:
    try:
        call()
    except BudgetExceeded:
        return True
    return False


def test_class_route_raises_budget_exceeded_where_the_set_route_does(monkeypatch):
    # budgets small enough to split the subgroups of p = 61 both ways
    monkeypatch.setattr(energy, "FREQ_BUDGET", 3_000)
    ctx = ctx_for(61)
    subs = all_subgroups(ctx)
    raised = []
    for f in subs:
        for g in subs:
            pairs = [(f, g), (list(f.elements), list(g.elements))]
            for fn in (i_distribution, j_distribution):
                outcome = [_raises_budget(lambda: fn(ctx, *args)) for args in pairs]
                assert outcome[0] == outcome[1]
                raised.append(outcome[0])
            for h in subs:
                triples = [(f, g, h), (list(f.elements), list(g.elements), list(h.elements))]
                outcome = [_raises_budget(lambda: n_triples(ctx, *args)) for args in triples]
                assert outcome[0] == outcome[1]
                raised.append(outcome[0])
    assert any(raised) and not all(raised)


def test_d_times_set_route_budget_is_the_frequency_budget():
    # |U|^2 > FREQ_BUDGET exactly when |U| > 10_000
    assert 10_000**2 == energy.FREQ_BUDGET
    ctx = ctx_for(10_007)
    with pytest.raises(BudgetExceeded):
        d_times(ctx, list(range(10_001)))
    assert d_times(ctx, list(range(10_000))).method == "optimized"


def test_class_vector_is_counted_once_per_subgroup(monkeypatch):
    counted = []
    count_classes = subgroups._count_classes
    monkeypatch.setattr(
        subgroups, "_count_classes", lambda ctx, sub: counted.append(sub) or count_classes(ctx, sub)
    )
    ctx = make_field_ctx(109)  # a fresh context: no subgroup has counted its classes
    g, h = subgroup_of_order(ctx, 12), subgroup_of_order(ctx, 9)
    for _ in range(3):
        d_times(ctx, g)
        n_triples(ctx, h, g, g)
        j_distribution(ctx, g, g)
    assert counted == [g]
    assert g.classes(ctx) is g.classes(ctx) and not g.classes(ctx).flags.writeable


def test_d_times_class_route_above_the_set_route_p_cap():
    # p above 10**6: neither route has a p cap, and element lists are
    # guarded by FREQ_BUDGET on |U|^2 alone, as N, I and J are
    p = 1_000_033  # 96 divides p - 1
    ctx = ctx_for(p)
    sub = subgroup_of_order(ctx, 96)
    assert d_times(ctx, sub).count == d_times(ctx, list(sub.elements)).count


def _peak_bytes(call) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subgroup_energy_is_a_fold_on_the_classes():
    # E(G) folds the one-point indicator on Z/9,450: nothing of length p
    p = 982_801
    ctx = ctx_for(p)
    sub = subgroup_of_order(ctx, 104)
    assert mult_energy(ctx, sub, sub).count == 104**3
    assert _peak_bytes(lambda: mult_energy(ctx, sub, sub)) < 2**20


def test_subgroup_counts_allocate_nothing_of_length_p():
    p = 1_000_033  # 96 divides p - 1; the classes live on Z/10,417
    ctx = ctx_for(p)
    sub = subgroup_of_order(ctx, 96)
    for call in (lambda: d_times(ctx, sub), lambda: n_triples(ctx, sub, sub, sub)):
        assert _peak_bytes(call) < p
    # the same elements as a list take the length-p route, which the peak sees
    els = list(sub.elements)
    assert _peak_bytes(lambda: n_triples(ctx, els, els, els)) > p


def test_product_set_multiplicative_span(ctx31):
    a = subgroup_of_order(ctx31, 3)
    b = subgroup_of_order(ctx31, 5)
    prod = product_set(ctx31, [a, b])
    assert prod.order == 15


def test_counters_reject_a_subgroup_from_another_field():
    # 3 divides both 7 - 1 and 13 - 1; D of F_13's subgroup of order 3 is 2241
    ctx7, ctx13 = make_field_ctx(7), make_field_ctx(13)
    wrong, right = subgroup_of_order(ctx7, 3), subgroup_of_order(ctx13, 3)
    assert d_times(ctx13, right).count == 2241
    calls = [
        lambda s: mult_energy(ctx13, s, s),
        lambda s: mult_energy(ctx13, right, s, method="oracle"),
        lambda s: shifted_energy(ctx13, s, 1),
        lambda s: d_times(ctx13, s),
        lambda s: d_times(ctx13, s, method="oracle"),
        lambda s: n_triples(ctx13, right, s, right),
        lambda s: n_triples(ctx13, s, right, right, method="oracle"),
        lambda s: i_distribution(ctx13, s, right),
        lambda s: i_distribution(ctx13, right, s, method="oracle"),
        lambda s: j_distribution(ctx13, right, s),
        lambda s: j_distribution(ctx13, s, right, method="oracle"),
        lambda s: lambda_square_sum(ctx13, right, right, s),
        lambda s: cauchy_step_report(ctx13, s, right, right),
        lambda s: s.classes(ctx13),
    ]
    for call in calls:
        call(right)
        with pytest.raises(ValueError, match="F_7"):
            call(wrong)


def test_cauchy_step_counterexample_is_stable():
    ctx = ctx_for(11)
    rep = cauchy_step_report(
        ctx,
        subgroup_of_order(ctx, 5),
        subgroup_of_order(ctx, 2),
        subgroup_of_order(ctx, 2),
    )
    assert rep.n == 110
    assert rep.product_order == 10
    assert rep.energy_g == 10
    assert rep.energy_h == 10
    assert rep.lambda_square_sum == 13
    assert not rep.collapsed_holds
    assert rep.intermediate_holds
    # degenerate pair kept separate: (a) 13 <= 10 + 10, (b) 121000 <= 200000
    assert cauchy_separated_forms(rep, 5, 2, 2) == (True, True)


def _lambda_square_sum_by_hand(p: int, s, g, h) -> int:
    """sum over lam in S of #{(x, y) in G x H : lam (x - 1) == y - 1}, squared."""
    return sum(
        sum(lam * (x - 1) % p == (y - 1) % p for x in g.elements for y in h.elements) ** 2
        for lam in s.elements
    )


@settings(deadline=None, max_examples=30)
@given(
    p=st.sampled_from([11, 13, 31, 43]),
    data=st.data(),
)
def test_cauchy_intermediate_inequality_property(p, data):
    ctx = ctx_for(p)
    orders = [d for d in range(1, p) if (p - 1) % d == 0]
    df = data.draw(st.sampled_from(orders))
    dg = data.draw(st.sampled_from(orders))
    dh = data.draw(st.sampled_from([d for d in orders if d <= dg]))
    rep = cauchy_step_report(
        ctx,
        subgroup_of_order(ctx, df),
        subgroup_of_order(ctx, dg),
        subgroup_of_order(ctx, dh),
    )
    assert rep.intermediate_holds
    # identity behind the report: lambda square sum over the product subgroup
    s = product_set(ctx, [subgroup_of_order(ctx, d) for d in (df, dg, dh)])
    g, h = subgroup_of_order(ctx, dg), subgroup_of_order(ctx, dh)
    direct = lambda_square_sum(ctx, s, g, h)
    assert direct == rep.lambda_square_sum
    assert direct == _lambda_square_sum_by_hand(p, s, g, h)


def test_budget_exceeded_is_raised_for_oracle_blowups():
    ctx = ctx_for(1009)
    big = subgroup_of_order(ctx, 1008)
    with pytest.raises(BudgetExceeded):
        mult_energy(ctx, big, big, method="oracle")


def _direct_cyclic(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Length-n cyclic convolution in Python ints."""
    n = len(x)
    xs, ys = [int(v) for v in x], [int(v) for v in y]
    return [sum(xs[s] * ys[(t - s) % n] for s in range(n)) for t in range(n)]


def test_fft_error_bound_covers_observed_error():
    rng = np.random.default_rng(13)
    for n in (50, 300, 1000, 4000):
        for top in (1, 2**10, 2**20):
            x = rng.integers(0, top + 1, size=n)
            y = rng.integers(0, top + 1, size=n)
            size = 1 << (2 * n - 2).bit_length()
            approx = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[: 2 * n - 1]
            exact = np.convolve(x, y)  # int64 is exact: n * top^2 < 2**63
            observed = np.max(np.abs(approx - exact))
            bound = energy._fft_error_bound(energy._dot(x, x), energy._dot(y, y), size)
            assert observed <= bound
            assert np.max(np.abs(approx - np.rint(approx))) <= bound


def test_inputs_failing_the_bound_take_the_exact_route(monkeypatch):
    ctx = ctx_for(101)
    rng = np.random.default_rng(17)
    a = rng.integers(2**22, 2**23, size=101)
    b = rng.integers(2**22, 2**23, size=101)
    # dense tables at n = 100: the transform would be chosen, but its bound fails
    assert energy._transform_pays(100 * 100, 100)
    x, y = a[ctx.g_pow], b[ctx.g_pow]
    assert energy._fft_error_bound(energy._dot(x, x), energy._dot(y, y), 256) >= 0.25
    returned = []
    transform = energy._cyclic_fft
    monkeypatch.setattr(
        energy, "_cyclic_fft", lambda *args: returned.append(transform(*args)) or returned[-1]
    )
    # the periodic forms on Z/(p-1) of the two dense tables
    nonzero = np.arange(1, 101)
    table_a, table_b = (
        (int(t[0]), int(t.sum()), 100, ctx.dlog[nonzero], t[nonzero]) for t in (a, b)
    )
    r0, c, r = energy._mult_conv(ctx, table_a, table_b)
    assert returned == [None]
    assert c == 1  # both tables on Z/(p-1)
    assert r.tolist() == _direct_cyclic(x, y)  # r[t] = r(g**t)
    a0, b0 = int(a[0]), int(b[0])
    assert r0 == a0 * int(b.sum()) + b0 * int(a.sum()) - a0 * b0


def test_cyclic_conv_matches_python_ints():
    rng = np.random.default_rng(19)
    for route in each_route():
        for n in (1, 48, 49, 100):
            for size in (1, 7, 3 * n):
                # residues with repeats, weights up to 2**20 (unit weights too)
                xs = rng.integers(0, n, size=size)
                ys = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 2)))
                for top in (1, 2**20):
                    wx = rng.integers(1, top + 1, size=len(xs))
                    wy = rng.integers(1, top + 1, size=len(ys))
                    dx, dy = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
                    np.add.at(dx, xs, wx)
                    np.add.at(dy, ys, wy)
                    got = energy._cyclic_conv(n, xs, ys, wx, wy).tolist()
                    assert got == _direct_cyclic(dx, dy), route
                    got = energy._cyclic_conv(n, xs, xs, wx, wx).tolist()
                    assert got == _direct_cyclic(dx, dx), route
        # 2,500 x 2,000 pairs: two blocks of the enumeration, the second partial
        n = 4099
        sx, sy = rng.integers(0, n, size=2500), rng.integers(0, n, size=2000)
        wx, wy = rng.integers(1, 2**10, size=len(sx)), rng.integers(1, 2**10, size=len(sy))
        dx, dy = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        np.add.at(dx, sx, wx)
        np.add.at(dy, sy, wy)
        linear = np.convolve(dx, dy)  # int64 is exact: n * (2**10 * 2,500)^2 < 2**63
        expected = linear[:n]
        expected[: n - 1] += linear[n:]
        assert np.array_equal(energy._cyclic_conv(n, sx, sy, wx, wy), expected), route


def test_dot_is_exact_past_int64():
    v = np.full(1000, 2**32 - 5, dtype=np.int64)
    exact = 1000 * (2**32 - 5) ** 2
    assert exact >= 2**63  # an int64 np.dot would wrap
    assert energy._dot(v, v) == exact
    mixed = np.arange(1000, dtype=np.int64)
    mixed[7] = 2**40
    assert energy._dot(mixed, mixed) == sum(int(c) ** 2 for c in mixed)
    assert energy._dot(mixed, v) == sum(int(c) * (2**32 - 5) for c in mixed)
