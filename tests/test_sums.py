"""Exact sums, the grouped decomposition, and the inequality-shaped sums."""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
import weakref
from inspect import getclosurevars
from math import copysign, fsum, gcd, isnan, ldexp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesums import (
    BudgetExceeded,
    CharacterIndex,
    NonzeroRequired,
    SparsePoly,
    bilinear_sum,
    quadlinear_sum,
    subgroup_of_order,
    sum_decomposed,
    sum_exact,
    unit_weights,
)
from sparsesums import field, make_field_ctx, sums
from sparsesums.sums import _ExactSum, _t_terms
from conftest import ctx_for


@pytest.fixture
def evaluations(monkeypatch):
    """The (p, psi, chi) of every term evaluation the sums start, in order.

    `sum_exact` answers a repeated (psi, chi) from the context's last result
    without starting one, so a test that compares calls counts these to know
    that each call evaluated."""
    made = []
    t_terms = sums._t_terms

    def spy(ctx, psi, chi):
        made.append((ctx.p, psi, chi))
        return t_terms(ctx, psi, chi)

    monkeypatch.setattr(sums, "_t_terms", spy)
    return made


def brute_sum(p: int, terms, j: int) -> complex:
    """Direct double-precision oracle, no tables."""
    from math import pi

    ctx = ctx_for(p)
    total = 0.0 + 0.0j
    for x in range(1, p):
        val = sum(c * pow(x, k, p) for c, k in terms) % p
        t = ctx.dlog[x]
        total += np.exp(2j * pi * j * t / (p - 1)) * np.exp(2j * pi * val / p)
    return total


def test_sum_exact_trivial_character_is_real_plus_noise(ctx13):
    psi = SparsePoly.parse(13, "1,3;1,1")
    sv = sum_exact(ctx13, psi, CharacterIndex(0))
    # for j=0 the sum is a real algebraic number
    assert abs(sv.value.imag) < 1e-12
    assert sv.value.real == pytest.approx(4.6799784917049525, abs=1e-12)


def test_sum_exact_frozen_value_p31():
    ctx = ctx_for(31)
    psi = SparsePoly.parse(31, "2,6;3,10;5,15;7,5")
    sv = sum_exact(ctx, psi, CharacterIndex(1))
    assert sv.value.real == pytest.approx(9.291842982352723, abs=1e-12)
    assert sv.value.imag == pytest.approx(-0.8635608470892147, abs=1e-12)


@pytest.mark.parametrize("p", [11, 13, 31, 101])
def test_sum_exact_matches_brute_oracle(p):
    ctx = ctx_for(p)
    rng = np.random.default_rng(p)
    for _ in range(5):
        exps = rng.choice(p - 2, size=3, replace=False) + 1
        coeffs = rng.integers(1, p, size=3)
        terms = list(zip(coeffs.tolist(), exps.tolist()))
        j = int(rng.integers(0, p - 1))
        psi = SparsePoly.from_terms(p, terms)
        sv = sum_exact(ctx, psi, CharacterIndex(j))
        assert abs(sv.value - brute_sum(p, terms, j)) < 1e-9


def _exact_sum(real, imag=()) -> complex:
    real = np.asarray(real, dtype=np.float64)
    z = np.zeros(len(real), dtype=np.complex128)
    z.real = real
    z.imag[: len(imag)] = imag
    acc = _ExactSum()
    acc.add(z)
    return acc.value()


def _adversarial_inputs():
    rng = np.random.default_rng(11)
    yield []
    yield [0.0]
    yield [-0.0]
    yield [-0.0, -0.0, -0.0]
    yield [0.0, -0.0] * 5
    yield [ldexp(1.0, -1074)]
    yield [ldexp(1.0, -1074)] * 3 + [-ldexp(3.0, -1074)]  # subnormals cancelling exactly
    yield [ldexp(1.0, 50), 1.0, -ldexp(1.0, 50), ldexp(1.0, -1074)]
    yield [1e16, 1.0, -1e16, 1.0, 1e-300, -1e-300]
    yield [0.1] * 10
    for sign in (1.0, -1.0):  # every level value at its 2**46 limit
        yield np.full(sums.CHUNK + 3, sign * (1.0 - ldexp(1.0, -53)))
    for n in (1, 2, 1000, sums.CHUNK - 1, sums.CHUNK, sums.CHUNK + 1, 2 * sums.CHUNK + 5):
        signs = rng.choice([-1.0, 1.0], n)
        x = np.ldexp(rng.random(n) * signs, rng.integers(-1074, 51, n))  # 2**-1074 .. 2**50
        yield x
        yield np.concatenate([x, -x[::-1]])  # exact cancellation to zero
        yield np.concatenate([x, -x[: n // 2], np.full(3, -0.0)])
        yield np.exp(2j * np.pi * rng.random(n)).real


def test_exact_sum_is_correctly_rounded_like_fsum():
    for values in _adversarial_inputs():
        x = np.asarray(values, dtype=np.float64)
        got = _exact_sum(x, np.roll(x, 1)[::-1])  # imaginary part: a permutation of x
        assert got.real == fsum(x) and got.imag == fsum(x)
        for part in (got.real, got.imag):
            if part == 0.0:
                assert copysign(1.0, part) == 1.0  # an exact zero is +0.0, whatever the zero signs


def test_exact_sum_spans_calls_and_rejects_huge_terms():
    acc = _ExactSum()
    parts = [[ldexp(1.0, 50)], [1.0, ldexp(1.0, -60)], [], [-ldexp(1.0, 50)]]
    for part in parts:
        acc.add(np.asarray(part, dtype=np.complex128) * 1j)
    assert acc.value() == complex(0.0, 1.0 + ldexp(1.0, -60)) == 1j * fsum(sum(parts, []))
    nan_part = _exact_sum([1.0, 2.0], [float("nan"), 1.0])
    assert nan_part.real == 3.0 and np.isnan(nan_part.imag)
    assert _exact_sum([1.0, float("inf")]) == complex(float("inf"), 0.0)
    with pytest.raises(OverflowError):
        _exact_sum([ldexp(1.0, 1017)])


def test_exact_sums_merge_as_one_accumulator():
    # one stream split across accumulators, with the specials and the extreme
    # magnitudes in different parts, merged in two orders
    def same(a: complex, b: complex) -> bool:
        return all(
            (isnan(x) and isnan(y)) or (x == y and copysign(1.0, x) == copysign(1.0, y))
            for x, y in ((a.real, b.real), (a.imag, b.imag))
        )

    streams = (
        [[1e300, -0.0, 3e-300j], [-1e300, 1e-300, 0.1j], [-0.0, ldexp(1.0, -1074), -0.1j]],
        [[float("inf"), 1e300j, 1.0], [-0.0, float("-inf")], [float("nan") * 1j, -1e-300]],
    )
    for stream in streams:
        one = _ExactSum()
        accs = [_ExactSum() for _ in stream]
        for acc, values in zip(accs, stream):
            one.add(np.asarray(values, dtype=np.complex128))
            acc.add(np.asarray(values, dtype=np.complex128))
        for order in ((0, 1, 2), (2, 0, 1)):
            merged = _ExactSum()
            for i in order:
                merged.merge(accs[i])
            assert same(merged.value(), one.value())
    assert one.value().real != one.value().real  # inf + -inf is nan
    assert same(_ExactSum().value(), 0j)


def _bits(z) -> bytes:
    return np.asarray(z, dtype=np.complex128).tobytes()


def term_array(ctx, psi, chi) -> np.ndarray:
    """chi(x) * e_p(Psi(x)) indexed by residue x (entry 0 is 0): `_t_terms` scattered by g_pow."""
    out = np.zeros(ctx.p, dtype=np.complex128)
    for start, terms in _t_terms(ctx, psi, chi)():
        out[ctx.g_pow[start : start + len(terms)]] = terms
    return out


@pytest.mark.parametrize(
    "p, chunks",
    [
        (13, (1, 7, 2**16)),  # p-1 = 12 just below a multiple of 7
        (29, (1, 7, 2**16)),  # p-1 = 28 a multiple of 7
        (23, (1, 7, 2**16)),  # p-1 = 22 just above a multiple of 7
        (65521, (1000, 2**16)),  # p-1 just below 2**16
        (65537, (1000, 2**16)),  # p-1 = 2**16
        (65539, (1000, 2**16)),  # p-1 just above 2**16
    ],
)
def test_sum_exact_and_term_array_do_not_depend_on_chunk(monkeypatch, evaluations, p, chunks):
    ctx = make_field_ctx(p)  # its last sum is none of these
    rng = np.random.default_rng(p)
    exps = (rng.choice(p - 2, size=4, replace=False) + 1).tolist()
    psi = SparsePoly.from_terms(p, list(zip(rng.integers(1, p, 4).tolist(), exps)))
    chi = CharacterIndex(int(rng.integers(0, p - 1)))
    other = CharacterIndex(chi.j + 1)  # between two calls for chi: each one evaluates
    seen = set()
    for chunk in chunks:
        monkeypatch.setattr(sums, "CHUNK", chunk)
        seen.add((_bits(sum_exact(ctx, psi, chi).value), _bits(sum_exact(ctx, psi, other).value),
                  term_array(ctx, psi, chi).tobytes()))
    assert len(seen) == 1
    assert len(evaluations) == 2 * len(chunks)  # term_array reads _t_terms itself


def test_sums_do_not_depend_on_the_thread_count(monkeypatch, evaluations):
    # CHUNK 1000 gives p = 10009 eleven chunks, and the 36 rows of
    # sum_decomposed (gcds 4, 6, 9) threads of their own; one, two, three and
    # eleven threads give the same bits
    p = 10009
    ctx = ctx_for(p)
    rng = np.random.default_rng(p)
    psi = SparsePoly.from_terms(p, [(3, 5), (1, 2), (7, 9), (2, 11)])
    heavy = _gcd_structured_quadrinomial(rng, p, (4, 6, 9))
    assert [gcd(k, p - 1) for k in heavy.exponents[:3]] == [4, 6, 9]
    monkeypatch.setattr(sums, "CHUNK", 1000)
    seen = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(field, "CPUS", cpus)
            bits = [_bits(sum_exact(ctx, psi, CharacterIndex(j)).value) for j in (0, 1, p - 1, 34)]
            bits += [_bits(sum_decomposed(ctx, heavy, CharacterIndex(j)).value) for j in (0, 5)]
            seen.add(tuple(bits))
    finally:
        sys.setswitchinterval(interval)
    assert gcd(34, p - 1) > 1 and len(seen) == 1
    assert len(evaluations) == 4 * 6  # every call at every CPU count evaluated


def test_a_failing_part_fails_the_call_and_leaves_no_thread(monkeypatch, evaluations):
    ctx = make_field_ctx(65539)  # p - 1 > CHUNK: two chunks, two threads
    psi = SparsePoly.from_terms(ctx.p, [(3, 5), (1, 2), (7, 9), (2, 11)])
    monkeypatch.setattr(field, "CPUS", 2)
    kept = sum_exact(ctx, psi, CharacterIndex(0))  # the failing calls ask for another sum
    roots = sums.roots_of_unity
    for fail_in_caller in (True, False):  # part 0 runs in the calling thread

        def flaky(u, n, out, fail_in_caller=fail_in_caller):
            if (threading.current_thread() is threading.main_thread()) == fail_in_caller:
                raise ZeroDivisionError("part failed")
            return roots(u, n, out)

        monkeypatch.setattr(sums, "roots_of_unity", flaky)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="part failed"):
            sum_exact(ctx, psi, CharacterIndex(1))
        assert threading.active_count() == before
    assert len(evaluations) == 3
    assert ctx.last_sum[0] == ((psi, CharacterIndex(0)), kept)


def test_threaded_sum_exact_memory_is_a_few_chunks(monkeypatch, evaluations):
    # the parts share one chunk's buffers: fifteen threads (one per chunk at
    # this p) use no more memory than one
    p = 982_801
    ctx = ctx_for(p)
    psi = SparsePoly.from_terms(p, [(3, 5), (1, 2), (7, 9), (2, 11)])
    peaks = {}
    for cpus in (1, 2, 16):
        monkeypatch.setattr(field, "CPUS", cpus)
        sum_exact(ctx, psi, CharacterIndex(2))  # warms the threads' allocations
        tracemalloc.start()
        try:
            sum_exact(ctx, psi, CharacterIndex(1))  # another sum: evaluated, not the last one
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(evaluations) == 2 * 3
    assert max(peaks.values()) < 16 * 2**20
    assert peaks[16] < peaks[1] + 2**20  # numpy's casting buffers are per thread


def test_decomposition_memory_does_not_grow_with_the_cpus(monkeypatch):
    # at most ROW_BUFFERS rows are gathered at once, whatever the CPU count
    p = 100801
    ctx = ctx_for(p)
    psi = _gcd_structured_quadrinomial(np.random.default_rng(7), p, (16, 18, 10))
    chi = CharacterIndex(3)
    peaks = {}
    for cpus in (1, 16):
        monkeypatch.setattr(field, "CPUS", cpus)
        sum_decomposed(ctx, psi, chi)
        tracemalloc.start()
        try:
            sum_decomposed(ctx, psi, chi)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 16 * 2**20
    assert peaks[16] < peaks[1] + (sums.ROW_BUFFERS - 1) * 16 * (p - 1) + 2**18


@pytest.mark.parametrize("p, chunk", [(101, 7), (65539, 1000)])
def test_per_chunk_characters_equal_the_table_expression(monkeypatch, p, chunk):
    # e_p(Psi(g**t)) and chi_j(g**t) are evaluated chunk by chunk as
    # exp(2 pi i u/p) of the phase and exp(2 pi i u/(p-1)), u = j t mod p-1:
    # bit for bit the values of whole-array tables, across chunk boundaries,
    # one e_p evaluation per chunk, and no chi evaluation when j == 0 mod p-1
    ctx = ctx_for(p)
    n = p - 1
    psi = SparsePoly.from_terms(p, [(3, 5), (1, 2), (7, 9), (2, 11)])
    t = np.arange(n, dtype=np.int64)
    phase = np.zeros(n, dtype=np.int64)
    for c, k in psi.terms:
        phase = (phase + c * ctx.g_pow[(k * t) % n]) % p
    e_vals = ctx.e_table[phase]
    calls = []

    def spy(u, m, out=None):
        values = sums_roots(u, m, out)
        calls.append((u.copy(), m, values.copy()))
        return values

    def evaluations(modulus):  # the arguments and values of the calls mod `modulus`
        made = [(u, v) for u, m, v in calls if m == modulus]
        assert len(made) == -(-n // chunk)
        return np.concatenate([u for u, _ in made]), np.concatenate([v for _, v in made])

    sums_roots = sums.roots_of_unity
    monkeypatch.setattr(sums, "CHUNK", chunk)
    monkeypatch.setattr(sums, "roots_of_unity", spy)
    for j in (0, 1, 10, n, n + 3):  # gcd(10, p-1) > 1; n == 0 and n + 3 == 3 mod p-1
        calls.clear()
        terms = np.concatenate([x.copy() for _, x in _t_terms(ctx, psi, CharacterIndex(j))()])
        assert {m for _, m, _ in calls} == ({p} if j % n == 0 else {p, n})
        u, values = evaluations(p)
        assert u.tolist() == phase.tolist()
        assert values.tobytes() == e_vals.tobytes()
        if j % n == 0:
            assert terms.tobytes() == e_vals.tobytes()
            continue
        u = j * t % n
        chi_vals = np.exp(2j * np.pi * u / (p - 1))
        args, values = evaluations(n)
        assert args.tolist() == u.tolist()
        assert values.tobytes() == chi_vals.tobytes()
        assert terms.tobytes() == np.multiply(chi_vals, e_vals).tobytes()


def test_phase_sums_are_reduced_before_they_can_overflow(monkeypatch):
    for p in (3, 101, 9_959_041, 2**30 + 3, 2**31 - 1):
        b = sums._unreduced_terms(p)
        assert p - 1 + b * (p - 1) ** 2 < 2**63 <= p - 1 + (b + 1) * (p - 1) ** 2
    assert sums._unreduced_terms(2**31 - 1) == 2
    # grouped as near 2**31, the phases and terms are the same
    p = 101
    ctx = ctx_for(p)
    psi = SparsePoly.from_terms(p, [(3, 5), (1, 2), (7, 9), (2, 11), (5, 13)])
    chi = CharacterIndex(7)
    whole = np.concatenate([x.copy() for _, x in _t_terms(ctx, psi, chi)()])
    for batch in (1, 2):
        monkeypatch.setattr(sums, "_unreduced_terms", lambda p, b=batch: b)
        grouped = np.concatenate([x.copy() for _, x in _t_terms(ctx, psi, chi)()])
        assert grouped.tobytes() == whole.tobytes()


def test_monomial_tables_are_widened_from_the_int32_context():
    # a stored power times a coefficient overflows int32 above p = 46,341: the
    # tables `_t_terms` scales per chunk are int64 copies, one CHUNK each, and
    # the phases are the exact residues
    p = 100_003
    ctx = ctx_for(p)
    assert ctx.g_pow.dtype == np.int32
    psi = SparsePoly.from_terms(p, [(p - 1, 5), (p - 2, 2), (p - 3, 9), (p - 4, 11)])
    chunks = _t_terms(ctx, psi, CharacterIndex(0))
    groups = getclosurevars(chunks).nonlocals["groups"]
    s = np.arange(sums.CHUNK)
    for (c, k), (_, _, table) in zip(psi.terms, [t for group in groups for t in group]):
        assert table.dtype == np.int64 and len(table) == sums.CHUNK
        assert table.tolist() == ctx.g_pow[(k * s) % (p - 1)].tolist()
    start, terms = next(chunks())
    t = np.linspace(0, sums.CHUNK - 1, 500).astype(int)
    phases = np.array([psi.evaluate(pow(ctx.g, int(x), p)) for x in t])
    expected = field.roots_of_unity(phases, p, out=np.empty(len(t), dtype=np.complex128))
    assert start == 0 and terms[t].tobytes() == expected.tobytes()


def test_sums_and_bounds_never_build_the_character_table():
    # e_p and chi are evaluated per chunk or per phase array: no length-p
    # complex table, additive or multiplicative
    from sparsesums.bounds import compare_bounds
    from sparsesums.field import make_field_ctx

    p = 1801
    ctx = make_field_ctx(p)  # a fresh context: no other test has read its tables
    rng = np.random.default_rng(p)
    psi = _gcd_structured_quadrinomial(rng, p, (9, 10, 4))
    for j in (0, 1, 5):
        chi = CharacterIndex(j)
        sum_exact(ctx, psi, chi)
        sum_decomposed(ctx, psi, chi)
        compare_bounds(ctx, psi, chi)
    xs, ys = rng.integers(0, p, 7), rng.integers(0, p, 5)
    bilinear_sum(ctx, xs, ys, np.ones(7), np.ones(5))
    w, x, y, z = xs[:2], xs[2:5], ys[:2], ys[2:]
    quadlinear_sum(ctx, w, x, y, z, unit_weights(2, 3, 2), unit_weights(2, 3, 3),
                   unit_weights(2, 2, 3), unit_weights(3, 2, 3), 3)
    assert "e_table" not in ctx.__dict__
    assert "chi_unit" not in ctx.__dict__


@pytest.mark.parametrize("p", [101, 16381, 16411])
def test_sum_exact_equals_fsum_of_residue_order_product(p):
    # residue order, x**k = g_pow[k*dlog[x]], one out-of-place multiply: the
    # terms match bit for bit on both sides of p-1 = 16384 (256 KiB of terms)
    ctx = ctx_for(p)
    n = p - 1
    rng = np.random.default_rng(p + 1)
    for _ in range(3):
        exps = (rng.choice(p - 2, size=4, replace=False) + 1).tolist()
        psi = SparsePoly.from_terms(p, list(zip(rng.integers(1, p, 4).tolist(), exps)))
        j = int(rng.integers(0, n))
        dl = ctx.dlog[1:]
        phase = np.zeros(n, dtype=np.int64)
        for c, k in psi.terms:
            phase = (phase + c * ctx.g_pow[(k * dl) % n]) % p
        chi_vals = ctx.chi_unit[(j * dl) % n]
        e_vals = ctx.e_table[phase]
        ref = np.multiply(chi_vals, e_vals)
        chi = CharacterIndex(j)
        assert term_array(ctx, psi, chi)[1:].tobytes() == ref.tobytes()
        assert _bits(sum_exact(ctx, psi, chi).value) == _bits(
            complex(fsum(ref.real), fsum(ref.imag))
        )


def test_character_index_normalizes_mod_p_minus_1(ctx13):
    psi = SparsePoly.parse(13, "1,3;1,1")
    a = sum_exact(ctx13, psi, CharacterIndex(5))
    b = sum_exact(ctx13, psi, CharacterIndex(5 + 12))
    assert a.value == b.value


@pytest.mark.parametrize("p", [101, 65539])
def test_a_repeated_sum_has_the_bits_of_a_fresh_evaluation(evaluations, p):
    # the sweep parses each task's polynomial again: an equal SparsePoly and
    # CharacterIndex are the same key
    ctx = make_field_ctx(p)
    psi = SparsePoly.from_terms(p, [(3, 5), (1, 2), (7, 9), (2, 11)])
    first = sum_exact(ctx, psi, CharacterIndex(7))
    again = sum_exact(ctx, SparsePoly.parse(p, str(psi)), CharacterIndex(7))
    assert again is first and len(evaluations) == 1
    fresh = sum_exact(make_field_ctx(p), psi, CharacterIndex(7))
    assert len(evaluations) == 2
    assert _bits(fresh.value) == _bits(again.value) and fresh.term_count == again.term_count


def test_another_p_psi_or_chi_evaluates_again(evaluations):
    p, q = 101, 103
    ctx, other_ctx = make_field_ctx(p), make_field_ctx(q)
    terms = [(3, 5), (1, 2), (7, 9), (2, 11)]
    psi, psi2 = SparsePoly.from_terms(p, terms), SparsePoly.from_terms(p, terms[:3])
    calls = [
        (ctx, psi, 4),
        (ctx, psi, 4 + p - 1),  # chi_j and chi_(j+p-1): equal values, two evaluations
        (ctx, psi2, 4 + p - 1),
        (ctx, psi2, 5),
        (other_ctx, SparsePoly.from_terms(q, terms), 5),  # the same terms mod another p
        (ctx, psi, 4),  # the slot now holds (psi2, chi_5)
    ]
    values = [sum_exact(c, f, CharacterIndex(j)) for c, f, j in calls]
    assert evaluations == [(c.p, f, CharacterIndex(j)) for c, f, j in calls]
    assert _bits(values[0].value) == _bits(values[1].value) == _bits(values[5].value)
    assert len({_bits(v.value) for v in values[1:5]}) == 4
    # each context keeps its own last sum
    assert sum_exact(other_ctx, SparsePoly.from_terms(q, terms), CharacterIndex(5)) is values[4]
    assert len(evaluations) == len(calls)


def test_a_failed_evaluation_leaves_the_last_sum_as_it_was(monkeypatch, evaluations):
    ctx = make_field_ctx(101)
    psi = SparsePoly.from_terms(101, [(3, 5), (1, 2), (7, 9), (2, 11)])
    kept = sum_exact(ctx, psi, CharacterIndex(0))

    def failing(u, n, out):
        raise FloatingPointError("evaluation failed")

    with monkeypatch.context() as m:
        m.setattr(sums, "roots_of_unity", failing)
        for j in (1, 2):
            with pytest.raises(FloatingPointError):
                sum_exact(ctx, psi, CharacterIndex(j))
            assert ctx.last_sum[0] == ((psi, CharacterIndex(0)), kept)
    assert sum_exact(ctx, psi, CharacterIndex(0)) is kept
    assert len(evaluations) == 3
    assert sum_exact(ctx, psi, CharacterIndex(1)).value != kept.value  # evaluated, not kept
    assert len(evaluations) == 4


def test_a_dropped_context_is_collected_with_its_last_sum():
    # the last sum lives on the context, so it keeps nothing alive after the
    # context is dropped, as `sweep.cached_ctx` drops it
    ctx = make_field_ctx(65539)
    sum_exact(ctx, SparsePoly.from_terms(65539, [(3, 5), (1, 2)]), CharacterIndex(1))
    assert ctx.last_sum[0] is not None
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([11, 13, 31, 61]),
    j=st.integers(min_value=0, max_value=100),
    data=st.data(),
)
def test_decomposition_identity_property(p, j, data):
    exps = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=p - 2),
            min_size=4,
            max_size=4,
            unique=True,
        )
    )
    coeffs = data.draw(
        st.lists(st.integers(min_value=1, max_value=p - 1), min_size=4, max_size=4)
    )
    ctx = ctx_for(p)
    psi = SparsePoly.from_terms(p, list(zip(coeffs, exps)))
    chi = CharacterIndex(j)
    direct = sum_exact(ctx, psi, chi)
    grouped = sum_decomposed(ctx, psi, chi)
    assert abs(direct.value - grouped.value) / (direct.magnitude + 1.0) < 1e-6


def test_decomposition_term_count_and_budget(ctx13):
    psi = SparsePoly.parse(13, "1,4;1,6;1,3;1,2")
    sv = sum_decomposed(ctx13, psi, CharacterIndex(0))
    a, b, c = gcd(4, 12), gcd(6, 12), gcd(3, 12)
    assert sv.term_count == a * b * c * 12
    with pytest.raises(BudgetExceeded):
        sum_decomposed(ctx13, psi, CharacterIndex(0), budget=10)


def _decomposed_by_block_gather(ctx, psi, chi) -> complex:
    """The residue-order block gather that sum_decomposed once ran: its bits are the spec.

    Rows of T(v*w) for w = 1..p-1, gathered from the residue-order term array
    about 2**22 terms at a time, each row summed by numpy, weighted by the
    number of (x, y, z) with xyz = v and summed exactly.
    """
    p = ctx.p
    a, b, c = (gcd(e, p - 1) for e in psi.exponents[:3])
    ga, gb, gc_ = (subgroup_of_order(ctx, d).as_array() for d in (a, b, c))
    xy = (ga[:, None] * gb[None, :]).reshape(-1) % p
    xyz = (xy[:, None] * gc_[None, :]).reshape(-1) % p
    counts = np.bincount(xyz, minlength=p)
    terms = term_array(ctx, psi, chi)
    ws = np.arange(1, p, dtype=np.int64)
    vs = np.nonzero(counts)[0]
    rows = max(1, 2**22 // (p - 1))
    total = _ExactSum()
    for start in range(0, len(vs), rows):
        block = vs[start : start + rows]
        inner = terms[(block[:, None] * ws[None, :]) % p].sum(axis=1)
        total.add(inner * counts[block])
    return total.value() / (a * b * c)


def _gcd_structured_quadrinomial(rng, p: int, gcds) -> SparsePoly | None:
    """Quadrinomial whose first three exponents have exactly the given gcds with p-1.

    None when the gcds repeat more often than p-1 has exponents with that gcd.
    """
    n = p - 1
    exps = []
    for d in list(gcds) + [1]:
        units = [u for u in range(1, n // d) if gcd(u, n // d) == 1 and d * u not in exps]
        if not units:
            return None
        exps.append(d * int(rng.choice(units)))
    return SparsePoly.from_terms(p, list(zip(rng.integers(1, p, 4).tolist(), exps)))


def _decomposition_cases():
    primes = [q for q in range(11, 301) if all(q % d for d in range(2, int(q**0.5) + 1))]
    for p in primes:  # the verify-sweep range
        rng = np.random.default_rng(p)
        divisors = [d for d in range(1, p - 1) if (p - 1) % d == 0]
        for _ in range(3):
            psi = None
            while psi is None:
                psi = _gcd_structured_quadrinomial(rng, p, rng.choice(divisors, 3).tolist())
            for j in (0, 1, int(rng.integers(2, p - 1))):
                yield p, psi, j
    # p-1 = 16410 lies above the 16,384 terms (256 KiB) where numpy's in-place
    # elision once moved bits; p = 100801 is the large-p rung, 720 rows
    for p, gcds in ((1801, (9, 10, 4)), (16411, (6, 10, 15)), (100801, (16, 18, 10))):
        rng = np.random.default_rng(p)
        yield p, _gcd_structured_quadrinomial(rng, p, gcds), int(rng.integers(2, p - 1))


def test_decomposition_matches_residue_order_block_gather_bit_for_bit():
    seen = 0
    for p, psi, j in _decomposition_cases():
        ctx = ctx_for(p)
        chi = CharacterIndex(j)
        assert _bits(sum_decomposed(ctx, psi, chi).value) == _bits(
            _decomposed_by_block_gather(ctx, psi, chi)
        ), (p, psi.terms, j)
        seen += 1
    assert seen == 58 * 3 * 3 + 3  # primes x quadrinomials x characters, then the three large p


def test_decomposition_memory_is_linear_in_p_not_in_rows():
    p = 100801
    ctx = ctx_for(p)
    rng = np.random.default_rng(7)
    peaks = {}
    for gcds in ((2, 3, 5), (16, 18, 10)):  # lcm(a, b, c) = 30 and 720 rows
        psi = _gcd_structured_quadrinomial(rng, p, gcds)
        chi = CharacterIndex(3)
        sum_decomposed(ctx, psi, chi)  # subgroups and caches warm, outside the trace
        tracemalloc.start()
        try:
            sum_decomposed(ctx, psi, chi)
            peaks[gcds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = peaks[(2, 3, 5)], peaks[(16, 18, 10)]
    assert large < 16 * 2**20
    assert large < small + 2**20  # 24x the rows, no more memory


def test_decomposition_needs_four_terms(ctx13):
    psi = SparsePoly.parse(13, "1,3;1,1")
    with pytest.raises(ValueError):
        sum_decomposed(ctx13, psi, CharacterIndex(0))


def test_bilinear_sum_unit_weights_inequality():
    ctx = ctx_for(101)
    rng = np.random.default_rng(5)
    for _ in range(20):
        nx, ny = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        xs = rng.choice(101, size=nx, replace=False)
        ys = rng.choice(101, size=ny, replace=False)
        sv = bilinear_sum(ctx, xs, ys, unit_weights(nx), unit_weights(ny))
        assert sv.magnitude <= sqrt(101 * nx * ny) + 1e-9


def test_bilinear_sum_oracle(ctx13):
    xs, ys = [1, 2, 5], [3, 4]
    aw = np.array([1.0, 1j, -1.0])
    bw = np.array([0.5, -0.5j])
    sv = bilinear_sum(ctx13, xs, ys, aw, bw)
    expect = sum(
        a * b * np.exp(2j * np.pi * (x * y % 13) / 13)
        for x, a in zip(xs, aw)
        for y, b in zip(ys, bw)
    )
    assert abs(sv.value - expect) < 1e-12


def test_quadlinear_sum_matches_direct(ctx13):
    ws = subgroup_of_order(ctx13, 3).elements
    xs = subgroup_of_order(ctx13, 2).elements
    ys = (1, 2)
    zs = (1, 5, 8)
    nw, nx, ny, nz = len(ws), len(xs), len(ys), len(zs)
    theta = unit_weights(nw, nx, ny)
    rho = unit_weights(nw, nx, nz)
    sigma = unit_weights(nw, ny, nz)
    tau = unit_weights(nx, ny, nz)
    sv = quadlinear_sum(ctx13, ws, xs, ys, zs, theta, rho, sigma, tau, a=1)
    expect = sum(
        np.exp(2j * np.pi * (w * x * y * z % 13) / 13)
        for w in ws
        for x in xs
        for y in ys
        for z in zs
    )
    assert abs(sv.value - expect) < 1e-12


def test_quadlinear_sum_weighted_oracle(ctx13):
    # non-unit triple weights on unsorted sets exercise the axis alignment
    ws, xs, ys, zs = (3, 1), (1, 5), (2, 1, 6), (4,)
    rng = np.random.default_rng(42)

    def w3(*shape):
        return np.exp(2j * np.pi * rng.random(shape))

    theta, rho = w3(2, 2, 3), w3(2, 2, 1)
    sigma, tau = w3(2, 3, 1), w3(2, 3, 1)
    sv = quadlinear_sum(ctx13, ws, xs, ys, zs, theta, rho, sigma, tau, a=2)
    expect = 0j
    for iw, w in enumerate(ws):
        for ix, x in enumerate(xs):
            for iy, y in enumerate(ys):
                for iz, z in enumerate(zs):
                    expect += (
                        theta[iw, ix, iy]
                        * rho[iw, ix, iz]
                        * sigma[iw, iy, iz]
                        * tau[ix, iy, iz]
                        * np.exp(2j * np.pi * (2 * w * x * y * z % 13) / 13)
                    )
    assert abs(sv.value - expect) < 1e-12


def test_quadlinear_sum_rejects_zero_scale(ctx13):
    sets = ((1,), (1,), (1,), (1,))
    one = unit_weights(1, 1, 1)
    with pytest.raises(NonzeroRequired):
        quadlinear_sum(ctx13, *sets, one, one, one, one, a=13)


def test_quadlinear_sum_rejects_weights_of_another_shape(ctx13):
    # sets of sizes (W, X, Y, Z) = (2, 1, 2, 1): theta (W, X, Y), rho (W, X, Z),
    # sigma (W, Y, Z), tau (X, Y, Z); a larger theta is not truncated
    sets = ((1, 5), (2,), (3, 4), (6,))
    shapes = [(2, 1, 2), (2, 1, 1), (2, 2, 1), (1, 2, 1)]
    quadlinear_sum(ctx13, *sets, *(unit_weights(*s) for s in shapes), a=1)
    for k, wrong in ((0, (3, 2, 5)), (0, (2, 2, 1)), (1, (2, 1, 2)), (2, (2, 1, 2)),
                     (3, (2, 1, 2)), (3, (1, 2))):
        weights = [unit_weights(*s) for s in shapes]
        weights[k] = unit_weights(*wrong)
        with pytest.raises(ValueError):
            quadlinear_sum(ctx13, *sets, *weights, a=1)


def _random_quadlinear(rng, p, dims):
    sets = [rng.choice(np.arange(1, p), size=d, replace=False) for d in dims]
    nw, nx, ny, nz = dims

    def phases(*shape):
        return np.exp(2j * np.pi * rng.random(shape))

    return sets, [phases(nw, nx, ny), phases(nw, nx, nz), phases(nw, ny, nz), phases(nx, ny, nz)]


@pytest.mark.parametrize("chunk", [3, 10, 64, sums.CHUNK])
def test_quadlinear_sum_is_the_correctly_rounded_sum_of_its_terms(monkeypatch, chunk):
    # the terms (((theta rho) sigma) tau) e_p(a wxyz) on the full grid, summed
    # by math.fsum part by part: blocks of one row (chunk 3 < |Z|), of several
    # rows, and all rows in one block
    p, a = 101, 7
    rng = np.random.default_rng(chunk)
    (w, x, y, z), (theta, rho, sigma, tau) = _random_quadlinear(rng, p, (5, 4, 3, 7))
    phase = a * w[:, None, None, None] * x[None, :, None, None] % p
    phase = phase * y[None, None, :, None] % p * z[None, None, None, :] % p
    terms = (
        theta[:, :, :, None] * rho[:, :, None, :] * sigma[:, None, :, :] * tau[None, :, :, :]
        * np.exp(2j * np.pi * phase / p)
    )
    monkeypatch.setattr(sums, "CHUNK", chunk)
    sv = quadlinear_sum(ctx_for(p), w, x, y, z, theta, rho, sigma, tau, a)
    assert _bits(sv.value) == _bits(complex(fsum(terms.real.ravel()), fsum(terms.imag.ravel())))
    assert sv.term_count == terms.size


def test_quadlinear_sum_does_not_depend_on_the_order_of_the_sets():
    p = 7681
    ctx = ctx_for(p)
    rng = np.random.default_rng(11)
    (w, x, y, z), (theta, rho, sigma, tau) = _random_quadlinear(rng, p, (9, 6, 5, 40))
    value = quadlinear_sum(ctx, w, x, y, z, theta, rho, sigma, tau, 3).value
    for _ in range(3):
        pw, px, py, pz = (rng.permutation(len(s)) for s in (w, x, y, z))
        permuted = quadlinear_sum(
            ctx, w[pw], x[px], y[py], z[pz],
            theta[np.ix_(pw, px, py)], rho[np.ix_(pw, px, pz)],
            sigma[np.ix_(pw, py, pz)], tau[np.ix_(px, py, pz)], 3,
        )
        assert _bits(permuted.value) == _bits(value)


def test_bilinear_sum_keeps_the_bits_of_its_whole_array_terms(monkeypatch):
    # the terms as one (|X|, |Y|) array, summed exactly, against the row
    # blocks: several blocks of several rows, and rows longer than a chunk
    p = 1009
    ctx = ctx_for(p)
    rng = np.random.default_rng(5)
    for (nx, ny), chunk in (((300, 500), sums.CHUNK), ((40, 70), 1000), ((9, 70), 64)):
        x, y = rng.integers(0, 3 * p, nx), rng.integers(0, 3 * p, ny)
        aw, bw = np.exp(2j * np.pi * rng.random(nx)), rng.random(ny) - 0.5
        phase = (x[:, None] * y[None, :]) % p
        whole = _ExactSum()
        whole.add((aw[:, None] * bw[None, :]) * field.roots_of_unity(
            phase, p, out=np.empty(phase.shape, dtype=np.complex128)))
        monkeypatch.setattr(sums, "CHUNK", chunk)
        sv = bilinear_sum(ctx, x, y, aw, bw)
        assert _bits(sv.value) == _bits(whole.value())
        assert sv.term_count == nx * ny


def test_bilinear_and_quadlinear_memory_is_bounded_by_a_block():
    # 4e6 and 9e6 terms: held at once, their terms alone would take 64 and 144 MB
    ctx = ctx_for(65537)
    rng = np.random.default_rng(2)
    (w, x, y, z), weights = _random_quadlinear(rng, 65537, (1, 1, 2000, 2000))
    xs, ys = rng.integers(1, 65537, 3000), rng.integers(1, 65537, 3000)
    ones = unit_weights(3000)
    for run in (lambda: quadlinear_sum(ctx, w, x, y, z, *weights, 5),
                lambda: bilinear_sum(ctx, xs, ys, ones, ones)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
