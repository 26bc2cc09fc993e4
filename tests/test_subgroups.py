"""Subgroups, product sets, power images, and gcd parameter packing."""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesums import (
    NotADivisor,
    all_subgroups,
    gcd_params,
    make_field_ctx,
    power_image,
    product_set,
    subgroup_of_order,
)
from conftest import ctx_for


def test_subgroup_of_order_basics():
    ctx = ctx_for(13)
    s = subgroup_of_order(ctx, 3)
    assert s.order == 3
    assert s.elements == (1, 3, 9)
    assert all(type(x) is int for x in s.elements)
    s4 = subgroup_of_order(ctx, 4)
    assert s4.elements == (1, 5, 8, 12)
    with pytest.raises(NotADivisor):
        subgroup_of_order(ctx, 5)


def test_subgroup_is_built_once_per_context():
    ctx = make_field_ctx(31)
    s = subgroup_of_order(ctx, 5)
    assert subgroup_of_order(ctx, 5) is s
    assert all_subgroups(ctx)[3] is s
    other = make_field_ctx(31)
    t = subgroup_of_order(other, 5)
    assert t is not s and t == s
    with pytest.raises(NotADivisor):
        subgroup_of_order(ctx, 7)
    assert 7 not in ctx.subgroups


def test_subgroup_array_is_shared_and_read_only():
    sub = subgroup_of_order(ctx_for(61), 12)
    arr = sub.as_array()
    assert sub.as_array() is arr is sub.array
    assert arr.dtype == np.int64
    assert [f.name for f in dataclasses.fields(sub)] == ["p", "order", "array"]
    assert sub.elements == tuple(arr.tolist())
    assert all(type(x) is int for x in sub.elements)
    assert list(arr) == sorted(arr)
    with pytest.raises(ValueError):
        arr[0] = 2
    assert arr[0] == 1
    other = subgroup_of_order(make_field_ctx(61), 12)
    assert other is not sub and other == sub and hash(other) == hash(sub)
    assert subgroup_of_order(ctx_for(61), 6) != sub != subgroup_of_order(ctx_for(13), 12)


def test_subgroup_array_is_widened_from_the_int32_context():
    # the context stores int32 powers; the oracle routes multiply a subgroup's
    # elements, and two residues of F_100003 multiply past int32
    p = 100_003  # p - 1 = 2 * 3 * 7 * 2381
    ctx = ctx_for(p)
    assert ctx.g_pow.dtype == np.int32
    for d in (42, 2381, p - 1):
        arr = subgroup_of_order(ctx, d).array
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.tolist() == sorted(pow(ctx.g, k * ((p - 1) // d), p) for k in range(d))
        top = arr[-40:]  # the largest elements: their products stay in the subgroup
        assert np.isin((top[:, None] * top[None, :]) % p, arr).all()


@pytest.mark.parametrize("p", [7, 13, 31, 101])
def test_subgroups_are_closed_under_product(p):
    ctx = ctx_for(p)
    for sub in all_subgroups(ctx):
        els = set(sub.elements)
        assert 1 in els
        for a in sub.elements:
            assert a * sub.elements[-1] % p in els


def test_all_subgroups_orders_are_divisors():
    ctx = ctx_for(31)
    orders = [s.order for s in all_subgroups(ctx)]
    assert orders == [1, 2, 3, 5, 6, 10, 15, 30]


@pytest.mark.parametrize("p", [13, 31, 101])
def test_product_set_is_lcm_subgroup(p):
    ctx = ctx_for(p)
    subs = all_subgroups(ctx)  # orders 1 through p-1
    for a in subs:
        assert product_set(ctx, [a]) is a
        for b in subs:
            assert product_set(ctx, [a, b]) is subgroup_of_order(ctx, lcm(a.order, b.order))
            for c in subs:
                prod = product_set(ctx, [a, b, c])
                assert prod is subgroup_of_order(ctx, lcm(a.order, b.order, c.order))


@pytest.mark.parametrize("p", [13, 31, 61])
def test_product_set_is_the_set_of_products(p):
    ctx = ctx_for(p)
    subs = all_subgroups(ctx)
    for r in (2, 3):
        for factors in combinations_with_replacement(subs, r):
            products = {1}
            for sub in factors:
                products = {x * y % p for x in products for y in sub.elements}
            assert product_set(ctx, list(factors)).elements == tuple(sorted(products))


def test_product_set_and_power_image_reject_another_field():
    ctx7, ctx13 = make_field_ctx(7), make_field_ctx(13)
    sub = subgroup_of_order(ctx7, 3)
    with pytest.raises(ValueError, match="F_7"):
        product_set(ctx13, [sub])
    with pytest.raises(ValueError, match="F_7"):
        power_image(ctx13, sub, 2)


def test_power_image_full_group():
    ctx = ctx_for(13)
    img = power_image(ctx, None, 3)
    # delta = gcd(3, 12) = 3: image size 4, each hit 3 times
    assert img.multiplicity == 3
    assert len(img.image) == 4
    assert img.source_size == 12
    assert img.image.elements == (1, 5, 8, 12)


def test_power_image_on_subgroup():
    ctx = ctx_for(13)
    sub = subgroup_of_order(ctx, 6)
    img = power_image(ctx, sub, 4)
    d = gcd(6, gcd(4, 12))
    assert img.multiplicity == d == gcd(6, 4)
    assert len(img.image) == 6 // d


@settings(deadline=None, max_examples=80)
@given(
    p=st.sampled_from([11, 13, 31, 61, 101]),
    n=st.integers(min_value=1, max_value=200),
)
def test_power_image_formulas(p, n):
    ctx = ctx_for(p)
    if n % (p - 1) == 0:
        n = p - 1
    delta = gcd(n, p - 1)
    img = power_image(ctx, None, n)
    assert len(img.image) == (p - 1) // delta
    assert img.multiplicity == delta
    for sub in all_subgroups(ctx):
        alpha = sub.order
        shared = gcd(alpha, delta)
        sub_img = power_image(ctx, sub, n)
        assert len(sub_img.image) == alpha // shared
        assert sub_img.multiplicity == shared


@pytest.mark.parametrize("p", [11, 13, 31, 61, 101])
def test_power_image_is_the_set_of_powers_with_its_multiplicity(p):
    ctx = ctx_for(p)
    for n in (0, 1, 2, p - 1, 2 * (p - 1) + 3):
        for sub in [None, *all_subgroups(ctx)]:
            xs = range(1, p) if sub is None else sub.elements
            fibres = Counter(pow(x, n, p) for x in xs)
            img = power_image(ctx, sub, n)
            assert img.image.elements == tuple(sorted(fibres))
            assert set(fibres.values()) == {img.multiplicity}
            assert img.source_size == len(xs)


def test_gcd_params_worked_example():
    # p=13, exponents (4,6,3,2): alpha,beta,gamma from (k,l,m), delta from n
    params = gcd_params(13, 4, 6, 3, 2)
    assert params.delta == 2
    assert (params.f, params.g, params.h) == (3, 3, 2)
    assert params.f >= params.g >= params.h
    assert params.f * params.delta <= 13


def test_gcd_params_role_permutation_keeps_f_le_p_over_delta():
    for p in [13, 31, 61, 101, 199]:
        for k in range(1, p - 1, 7):
            for n in range(1, p - 1, 11):
                exps = [k, (k + 3) % (p - 1), (k + 7) % (p - 1), n]
                if len({e % (p - 1) for e in exps}) < 4 or any(
                    e % (p - 1) == 0 for e in exps
                ):
                    continue
                params = gcd_params(p, *exps)
                assert params.f >= params.g >= params.h >= 1
                assert params.f * params.delta <= p - 1


def test_gcd_params_best_mode_returns_all_packs():
    packs = gcd_params(13, 4, 6, 3, 2, mode="best")
    assert len(packs) == 4
    deltas = {pk.delta for pk in packs}
    assert len(deltas) >= 2
    for pk in packs:
        assert pk.f >= pk.g >= pk.h
