"""Field context tables, primality, and sparse polynomial handling."""

from __future__ import annotations

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesums import (
    CompositeModulus,
    DegenerateExponents,
    ModulusTooLarge,
    SparsePoly,
    is_prime,
    make_field_ctx,
    smallest_primitive_root,
)
from sparsesums.field import DIRECT_ROOTS, UnitRoots, _powers, divisors
from conftest import ctx_for

SMALL_PRIMES = [3, 5, 7, 11, 13, 31, 101, 499]


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in known)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2_147_483_647)  # 2^31 - 1
    assert not is_prime(2_147_483_645)


def test_divisors_match_brute_force():
    for n in range(1, 3_001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    n = 2**31 - 2  # = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
    out = divisors(n)
    assert len(out) == 2 * 3 * 2**5
    assert all(n % d == 0 for d in out)
    assert out == sorted(set(out)) == sorted(n // d for d in out)


def test_smallest_primitive_roots():
    # classical table values
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(13) == 2
    assert smallest_primitive_root(41) == 6
    assert smallest_primitive_root(191) == 19


def _order(g: int, p: int) -> int:
    """Multiplicative order of g mod p, by stepping through its powers."""
    x, k = g % p, 1
    while x != 1:
        x, k = x * g % p, k + 1
    return k


def test_smallest_primitive_root_by_brute_force():
    for p in range(3, 3000):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            g = smallest_primitive_root(p)
            assert _order(g, p) == p - 1
            assert all(_order(h, p) < p - 1 for h in range(2, g))
    # the known smallest roots of two word-sized primes
    assert smallest_primitive_root(2**31 - 1) == 7
    assert smallest_primitive_root(10**9 + 7) == 5


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_tables_are_mutually_inverse(p):
    ctx = ctx_for(p)
    assert ctx.dlog[0] == -1
    for x in range(1, p):
        assert ctx.g_pow[ctx.dlog[x]] == x
    # g_pow is a bijection from exponents onto F_p^*
    assert sorted(ctx.g_pow.tolist()) == list(range(1, p))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_power_via_tables_matches_builtin_pow(p):
    ctx = ctx_for(p)
    rng = np.random.default_rng(p)
    for _ in range(40):
        x = int(rng.integers(1, p))
        k = int(rng.integers(0, 3 * p))
        via_tables = ctx.g_pow[(k * ctx.dlog[x]) % (p - 1)]
        assert via_tables == pow(x, k, p)


def test_e_table_and_chi_unit_are_roots_of_unity(ctx13):
    p = 13
    assert np.allclose(ctx13.e_table ** p, 1.0)
    assert np.allclose(ctx13.chi_unit ** (p - 1), 1.0)
    assert ctx13.e_table[0] == 1.0
    # orthogonality: sum of e_p over all residues vanishes
    assert abs(ctx13.e_table.sum()) < 1e-9


@pytest.mark.parametrize(
    "p, block",
    [(13, 4), (29, 7), (31, 7), (65521, 2**16), (65537, 2**16), (65539, 2**16)],
)
def test_block_built_tables_equal_the_whole_array_formulas(monkeypatch, p, block):
    # p-1 or p lands just below, on and just above a block boundary
    from sparsesums import field

    monkeypatch.setattr(field, "TABLE_BLOCK", block)
    whole_e = np.exp(2j * np.pi * np.arange(p) / p)
    whole_chi = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
    for cpus in (1, 2, 3, 16):  # the blocks shared out over one to five threads
        monkeypatch.setattr(field, "CPUS", cpus)
        ctx = make_field_ctx(p)
        whole_dlog = np.full(p, -1, dtype=np.int32)
        whole_dlog[ctx.g_pow] = np.arange(p - 1, dtype=np.int32)
        assert ctx.dlog.tobytes() == whole_dlog.tobytes()
        # the context stores two int32 tables, 8 bytes per residue
        stored = {name: t for name, t in vars(ctx).items() if isinstance(t, np.ndarray)}
        assert list(stored) == ["dlog", "g_pow"]
        assert [t.dtype for t in stored.values()] == [np.int32, np.int32]
        assert sum(t.nbytes for t in stored.values()) == 8 * p - 4
        # the character tables are built only when asked for, by the same expression
        assert ctx.e_table.tobytes() == whole_e.tobytes()
    assert ctx.e_table is ctx.e_table
    assert "chi_unit" not in ctx.__dict__
    assert ctx.chi_unit.tobytes() == whole_chi.tobytes()
    assert ctx.chi_unit is ctx.chi_unit


@pytest.mark.parametrize("p", [3, 5, 13, 1999, 65537, 100003])
def test_powers_by_doubling_equal_builtin_pow(p):
    g = smallest_primitive_root(p)
    for count in (1, 2, 3, p - 2, p - 1):
        t = np.unique(np.linspace(0, count - 1, 300).astype(np.int64)).tolist()
        assert _powers(g, count, p)[t].tolist() == [pow(g, x, p) for x in t]


def test_powers_stored_as_int32_are_exact_at_the_largest_modulus():
    # a product of two residues near 2**31 overflows int32: each is formed in
    # int64, so no stored power wraps, in the first block and in the three
    # after it, on both sides of every block boundary
    from sparsesums.field import TABLE_BLOCK

    p, g = 2**31 - 1, 7
    count = 3 * TABLE_BLOCK + 12_345
    powers = _powers(g, count, p)
    assert powers.dtype == np.int32 and powers.nbytes == 4 * count
    edges = [b * TABLE_BLOCK + d for b in (1, 2, 3) for d in (-2, -1, 0, 1)]
    spread = np.linspace(0, count - 1, 2_000).astype(int).tolist()
    t = sorted(set(range(40)) | set(edges) | set(spread))
    assert powers[t].tolist() == [pow(g, x, p) for x in t]
    # every stored value is a residue: none wrapped below 1 or past p - 1
    assert int(powers.min()) >= 1 and int(powers.max()) < p


def test_powers_do_not_depend_on_the_thread_count(monkeypatch):
    # the blocks after the first are shared out among the CPUs: every power is
    # the same exact integer at 1, 2 and 16 CPUs, with a partial last block,
    # whole blocks only, and one entry past the first block; the small block
    # gives sixteen CPUs sixteen parts
    from sparsesums import field

    p, g = 2**31 - 1, 7
    for block, counts in ((field.TABLE_BLOCK, (3 * field.TABLE_BLOCK + 12_345,)),
                          (1000, (20 * 1000 + 37, 20 * 1000, 1001))):
        monkeypatch.setattr(field, "TABLE_BLOCK", block)
        for count in counts:
            seen = set()
            for cpus in (1, 2, 16):
                monkeypatch.setattr(field, "CPUS", cpus)
                seen.add(_powers(g, count, p).tobytes())
            assert len(seen) == 1
            powers = np.frombuffer(seen.pop(), dtype=np.int32)
            t = np.unique(np.linspace(0, count - 1, 500).astype(int)).tolist()
            t = sorted(set(t) | {count - 2, count - 1, block - 1, block})
            assert powers[t].tolist() == [pow(g, x, p) for x in t]


def test_make_field_ctx_allocates_its_tables_and_one_block_of_scratch():
    # 8 bytes per residue (dlog 4, g_pow 4) plus block temporaries whatever
    # p is: no character table and no length-p scratch
    import tracemalloc

    p = 982_801
    tracemalloc.start()
    try:
        ctx = make_field_ctx(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "e_table" not in ctx.__dict__ and "chi_unit" not in ctx.__dict__
    assert peak < 8 * p + 4 * 2**20


def test_make_field_ctx_scratch_does_not_grow_with_the_cpus(monkeypatch):
    # fifteen blocks at this p: fifteen threads share the one block of scratch
    import tracemalloc

    from sparsesums import field

    p = 982_801
    peaks = {}
    for cpus in (1, 16):
        monkeypatch.setattr(field, "CPUS", cpus)
        tracemalloc.start()
        try:
            make_field_ctx(p)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 8 * p + 4 * 2**20
    assert peaks[16] < peaks[1] + 2**20  # numpy's casting buffers are per thread


def test_run_parts_covers_the_loop_once_in_disjoint_shares(monkeypatch):
    import threading
    from itertools import chain

    from sparsesums import field

    def part(share, stretches):  # what each part is handed, and where it ran
        runs = np.fromiter(chain.from_iterable(stretches), dtype=np.int64).reshape(-1, 2)
        return share, runs, threading.get_ident()

    splits = set()
    for cpus in (1, 2, 3, 16):
        monkeypatch.setattr(field, "CPUS", cpus)
        for n in (1, 2, 7, 2**16 - 1, 2**16, 2**16 + 1, 5 * 2**16 + 3):
            for block in (1, 2, 7, 2**16):
                parts = min(cpus, -(-n // block), block)
                if (parts, n, block) in splits:  # the same split as at fewer CPUs
                    continue
                splits.add((parts, n, block))
                results = field._run_parts(part, n, block)
                assert len(results) == parts <= min(cpus, block)
                assert results[0][2] == threading.get_ident()  # part 0 in the caller
                scratch = np.zeros(min(n, block), dtype=np.int64)
                runs = []
                for i, (share, stretches, _) in enumerate(results):
                    width = len(range(min(n, block))[share])
                    assert width == share.stop - share.start >= 1
                    scratch[share] += 1
                    starts, ms = stretches.T
                    # part order: part i's first stretch starts its i-th share
                    assert starts[0] == share.start == i * width
                    assert (np.diff(starts) > 0).all()
                    assert (ms >= 1).all() and (ms <= width).all()
                    runs.append(stretches)
                assert (scratch <= 1).all()
                runs = np.concatenate(runs)
                runs = runs[np.argsort(runs[:, 0])]
                ends = runs[:, 0] + runs[:, 1]
                assert runs[0, 0] == 0 and ends[-1] == n
                assert (runs[1:, 0] == ends[:-1]).all()


def test_make_field_ctx_rejects_bad_moduli():
    with pytest.raises(CompositeModulus):
        make_field_ctx(15)
    with pytest.raises(ModulusTooLarge):
        make_field_ctx(2**31)
    with pytest.raises(ValueError):
        make_field_ctx(2)


def _sample(n: int, size: int = 2**16) -> np.ndarray:
    """u in [0, n): both ends, both sides of the split 2**k, and random values."""
    k = -(-n.bit_length() // 2)
    edges = [0, 1, n - 2, n - 1, (1 << k) - 1, 1 << k, (1 << k) + 1]
    rng = np.random.default_rng(n)
    return np.concatenate([[e for e in edges if 0 <= e < n], rng.integers(0, n, size)])


@pytest.mark.parametrize("n", [3, 300, 65521, DIRECT_ROOTS])
def test_unit_roots_up_to_2_16_are_np_exp_bit_for_bit(n):
    roots = UnitRoots(n)
    assert roots.hi is None and len(roots.lo) == n
    u = _sample(n)
    expected = np.exp(2j * np.pi * u / n)
    assert roots.read(u, np.empty(len(u), dtype=np.complex128)).tobytes() == expected.tobytes()
    block = u[: len(u) // 4 * 4].reshape(4, -1)  # the forms read row blocks
    got = roots.read(block, np.empty(block.shape, dtype=np.complex128))
    assert got.tobytes() == np.exp(2j * np.pi * block / n).tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
@pytest.mark.parametrize("n", [65537, 982_801, 9_959_041, 2**31 - 2])
def test_split_unit_roots_are_as_accurate_as_exp(n):
    # against an 80-bit reference, the largest error of hi * lo is at most the
    # largest error of np.exp on the same u plus 2**-52, and within RADIUS
    roots = UnitRoots(n)
    k = -(-n.bit_length() // 2)
    assert len(roots.lo) == 2**k and len(roots.hi) == ((n - 1) >> k) + 1
    u = _sample(n)
    angle = 2 * np.arccos(np.longdouble(-1)) * (u.astype(np.longdouble) / n)
    reference = np.cos(angle), np.sin(angle)

    def max_error(z: np.ndarray) -> float:
        return float(np.hypot(z.real - reference[0], z.imag - reference[1]).max())

    split = max_error(roots.read(u, np.empty(len(u), dtype=np.complex128)))
    exp = max_error(np.exp(2j * np.pi * u / n))
    assert split <= exp + 2**-52
    assert max(split, exp) <= UnitRoots.RADIUS


def test_unit_roots_at_the_largest_modulus_take_two_small_tables():
    import tracemalloc

    n = 2**31 - 1
    tracemalloc.start()
    try:
        roots = UnitRoots(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    tables = [t for t in vars(roots).values() if isinstance(t, np.ndarray)]
    assert sorted(len(t) for t in tables) == [2**15, 2**16]  # 1.5 MiB in all
    u = np.array([0, 1, 2**16 - 1, 2**16, n - 1], dtype=np.int64)
    got = roots.read(u, np.empty(len(u), dtype=np.complex128))
    assert np.abs(got - np.exp(2j * np.pi * u / n)).max() < 2 * UnitRoots.RADIUS


def test_twist_is_the_product_of_the_reads_in_a_fixed_order():
    # up to 2**16, e(u/n) * z; above, (z * hi) * lo: the same bits whatever
    # the length, one value included
    rng = np.random.default_rng(1)
    for n in (300, 65536, 65537, 982_800):
        roots = UnitRoots(n)
        k = -(-n.bit_length() // 2)
        for m in (1, 2, 1000):
            u = rng.integers(0, n, m)
            z = np.exp(2j * np.pi * rng.random(m))
            if n <= DIRECT_ROOTS:
                expected = np.multiply(np.exp(2j * np.pi * u / n), z)
            else:
                hi = np.exp(2j * np.pi * ((u >> k) << k) / n)
                lo = np.exp(2j * np.pi * (u & ((1 << k) - 1)) / n)
                expected = np.multiply(np.multiply(z, hi), lo)
            z_row, out, scratch = np.empty((3, m), dtype=np.complex128)
            z_row[:] = z
            got = roots.twist(z_row, u, out, np.empty(m, dtype=np.int64), scratch)
            assert got is out and got.tobytes() == expected.tobytes()


def test_the_context_builds_its_roots_on_first_access():
    ctx = make_field_ctx(65537)
    assert "e_roots" not in ctx.__dict__ and "chi_roots" not in ctx.__dict__
    assert ctx.e_roots is ctx.e_roots and ctx.e_roots.n == 65537 and ctx.e_roots.hi is not None
    assert ctx.chi_roots.n == 65536 and ctx.chi_roots.hi is None


def test_sparse_poly_parse_roundtrip():
    psi = SparsePoly.parse(13, "1,3;1,1;2,5;3,7")
    assert str(psi) == "1,3;1,1;2,5;3,7"
    assert psi.t == 4
    assert psi.exponents == (3, 1, 5, 7)
    assert psi.coefficients == (1, 1, 2, 3)


def test_sparse_poly_normalizes_modulo():
    # coefficient mod p, exponent mod p-1 (0 maps to p-1)
    psi = SparsePoly.from_terms(13, [(14, 15), (5, 24)])
    assert psi.coefficients == (1, 5)
    assert psi.exponents == (3, 12)


def test_sparse_poly_rejects_collisions_and_zeroes():
    with pytest.raises(DegenerateExponents):
        SparsePoly.from_terms(13, [(1, 3), (2, 15)])  # 3 == 15 mod 12
    with pytest.raises(ValueError):
        SparsePoly.from_terms(13, [(13, 3)])  # zero coefficient mod p
    with pytest.raises(ValueError):
        SparsePoly.from_terms(13, [])


def test_sparse_poly_evaluate(ctx13):
    psi = SparsePoly.parse(13, "1,3;1,1")
    for x in range(1, 13):
        assert psi.evaluate(x) == (pow(x, 3, 13) + x) % 13


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    data=st.data(),
)
def test_poly_string_parse_is_stable(p, data):
    n_terms = data.draw(st.integers(min_value=1, max_value=4))
    exps = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=10 * p),
            min_size=n_terms,
            max_size=n_terms,
            unique_by=lambda k: k % (p - 1),
        )
    )
    if any(k % (p - 1) == 0 for k in exps):
        return
    coeffs = data.draw(
        st.lists(st.integers(min_value=1, max_value=p - 1), min_size=n_terms, max_size=n_terms)
    )
    psi = SparsePoly.from_terms(p, list(zip(coeffs, exps)))
    again = SparsePoly.parse(p, str(psi))
    assert again == psi
