"""Prime-field context: primality, primitive root and discrete-log tables.

Everything downstream (character sums, counting, sweeps) works through a
FieldCtx, which precomputes for a prime p two int32 tables, 8p - 4 bytes in
all:

  * dlog[x]   : index of x with respect to the smallest primitive root g,
                i.e. g**dlog[x] == x (mod p), for x in 1..p-1,
  * g_pow[t]  : g**t (mod p) for t in 0..p-2, built by doubling within one
                block and by scaling that block for every later one.

Every entry is below p < 2**31, so int32 holds it. A reader that does
arithmetic with the entries widens what it gathers to int64 where it reads
it: two residues multiply past int32 above p = 46,341, and two logs add past
it above 2**30. Readers that only index with the entries read them as they
are.

Character values are read from small tables, not from length-p ones: a
`UnitRoots` object per modulus n holds e(u/n) = exp(2*pi*i*u/n) in one
table of n values up to n = DIRECT_ROOTS and in two tables of O(sqrt(n))
values above it, and reads each value by one or two gathers and at
most one complex multiply. `FieldCtx.e_roots` (n = p, the additive
characters) and `FieldCtx.chi_roots` (n = p-1, the multiplicative ones) are
built on first access, at most 1.5 MiB each. `FieldCtx.e_table` and
`FieldCtx.chi_unit` build the length p and p-1 tables by `roots_of_unity`,
over the whole range at once, on first access only; the package never reads
them.

`g_pow` and `dlog` are filled in blocks of TABLE_BLOCK residues, and above
one block on the process's CPUs (`CPUS`, read at import). `_run_parts` is the
one place where every length-p loop of the package, here and in `sums`, is
split into parts: it hands each part its share of one block of scratch and
the stretches it covers, runs the parts on threads and returns when all have
finished. Each entry is computed by the same expression whichever part fills
it, so neither table depends on the thread count.

p is capped below 2**31 so every entry fits in int32 and every modular
product of two residues in a signed 64-bit intermediate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import CompositeModulus, DegenerateExponents, ModulusTooLarge

MAX_MODULUS = 2**31
TABLE_BLOCK = 2**16  # residues per block while the tables are filled
DIRECT_ROOTS = 2**16  # UnitRoots keeps one table of all n values up to this modulus
# The CPUs this process may run on: the length-p loops use at most this many threads.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3_215_031_751 (> 2**31)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Bases 2, 3, 5, 7 are a proven witness set below 3_215_031_751.
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """Divisors of n >= 1 in ascending order, by trial division up to isqrt(n)."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def smallest_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p: the first g with
    g**((p-1)/q) != 1 for every prime q | p-1, the primes read off divisors(p-1)."""
    phi = p - 1
    primes = []  # the divisors of phi that no smaller prime divisor divides
    for d in divisors(phi)[1:]:
        if all(d % q for q in primes):
            primes.append(d)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in primes):
            return g
    raise ArithmeticError(f"no primitive root found for p={p}")


def _powers(base: int, count: int, p: int) -> np.ndarray:
    """base**t mod p for t in 0..count-1 as int32.

    The first block, t < TABLE_BLOCK, is built in int64 by doubling
    (log2(TABLE_BLOCK) array steps) and stored; every later block starting at
    t is that block times base**t mod p. Each product of two residues is
    formed in int64, which int32 would overflow above p = 46,341, and only
    its remainder mod p is stored. The later blocks are independent, so they
    run in parts on the process's CPUs, each in its share of one block of
    product scratch; every entry is the same exact integer whichever part
    stores it."""
    first = np.empty(min(count, TABLE_BLOCK), dtype=np.int64)
    first[:1] = 1
    k, step = 1, base % p  # step == base**k mod p
    while k < len(first):
        m = min(k, len(first) - k)
        block = first[k : k + m]
        np.multiply(first[:m], step, out=block)
        np.remainder(block, p, out=block)
        k, step = k + m, step * step % p
    out = np.empty(count, dtype=np.int32)
    out[: len(first)] = first
    product = np.empty_like(first)

    def scale(share: slice, stretches) -> None:
        q = product[share]
        for start, m in stretches:
            start += len(first)  # base**(start + s) == first[s] * base**start
            np.multiply(first[:m], pow(base, start, p), out=q[:m])
            np.remainder(q[:m], p, out=out[start : start + m], casting="unsafe")

    if count > len(first):
        _run_parts(scale, count - len(first), len(first))
    return out


def roots_of_unity(u: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*u/n) into the complex128 array `out` for an int64 array u:
    the expression of every table entry, whose bits do not depend on the
    array's size. Every step runs in place in `out`, so nothing is
    allocated; the bits are those of np.exp(2j * np.pi * u / n)."""
    np.multiply(2j * np.pi, u, out=out)
    np.divide(out, n, out=out)
    return np.exp(out, out=out)


class UnitRoots:
    """e(u/n) = exp(2*pi*i*u/n) for int64 arrays u in [0, n), read from tables.

    Up to n = DIRECT_ROOTS one table `lo` holds all n values, built by
    `roots_of_unity`, so every value is np.exp's bit for bit. Above it, with
    k = ceil(bit_length(n) / 2), lo[r] = e(r/n) for r < 2**k and
    hi[q] = e(q 2**k / n) for q <= (n-1) >> k, both built by
    `roots_of_unity`, and e(u/n) = hi[u >> k] * lo[u & (2**k - 1)], the
    multiply out of place: 16 (2**k + ((n-1) >> k) + 1) bytes, 11 KB at
    n = 1e5, 104 KB at 1e7 and 1.5 MiB at 2**31 - 1. Every value, whichever
    array holds it, is the same expression of the same two entries.

    Every value lies within RADIUS of e(u/n). An entry's angle is
    fl(fl(fl(2 pi) u) fl(1/n)), three roundings and the float64 2 pi, so it
    is off by at most 2 pi (3 * 2**-53 + 4e-17) < 2.4e-15, and cos and sin
    each add at most one ulp: 2.5e-15 for a one-table value. A split value
    adds lo's error (below 1.8e-16, its angle being under 0.05) and the
    rounding of one complex multiply (sqrt(5) 2**-53 < 2.5e-16): 3e-15.

    `read` and `twist` take their scratch from the caller, so a loop that
    draws values into reused buffers allocates nothing; the tables are only
    read, so any number of threads may read at once.
    """

    RADIUS = 3e-15  # |value - e(u/n)| at most, on either route

    def __init__(self, n: int) -> None:
        self.n, self.hi = n, None
        if n <= DIRECT_ROOTS:
            self.lo = roots_of_unity(np.arange(n), n, out=np.empty(n, dtype=np.complex128))
            return
        self.shift = -(-n.bit_length() // 2)
        step = 1 << self.shift
        self.mask = step - 1
        # one table at a time, lo first: at n = 2**31 - 1 the build peaks below 2 MiB
        self.lo = roots_of_unity(np.arange(step), n, out=np.empty(step, dtype=np.complex128))
        u = np.arange(0, n, step)
        self.hi = roots_of_unity(u, n, out=np.empty(len(u), dtype=np.complex128))

    def read(self, u: np.ndarray, out: np.ndarray, index=None, scratch=None) -> np.ndarray:
        """e(u/n) into the complex128 array `out`, shaped like u, returned.

        Above DIRECT_ROOTS, `index` (int64) and `scratch` (two complex128
        arrays), each like u, hold the table indices and the gathered
        entries; missing, they are allocated."""
        if self.hi is None:
            return self.lo.take(u, out=out, mode="clip")
        hi_out, lo_out = (None, None) if scratch is None else scratch
        hi = self.hi.take(np.right_shift(u, self.shift, out=index), out=hi_out, mode="clip")
        lo = self.lo.take(np.bitwise_and(u, self.mask, out=index), out=lo_out, mode="clip")
        return np.multiply(hi, lo, out=out)

    def twist(self, z, u, out, index, scratch) -> np.ndarray:
        """z e(u/n) into `out`, returned: z, out and scratch are three
        complex128 arrays and `index` an int64 one, each like u.

        Up to DIRECT_ROOTS it is e(u/n) * z, the value gathered into
        `scratch`. Above it is (z * hi) * lo, which overwrites z. Every
        multiply is out of place: numpy rounds an aliased one-element complex
        product by another loop than longer arrays, so sizes would show."""
        if self.hi is None:
            return np.multiply(self.lo.take(u, out=scratch, mode="clip"), z, out=out)
        hi = self.hi.take(np.right_shift(u, self.shift, out=index), out=out, mode="clip")
        zh = np.multiply(z, hi, out=scratch)
        lo = self.lo.take(np.bitwise_and(u, self.mask, out=index), out=z, mode="clip")
        return np.multiply(zh, lo, out=out)


def _stretches(n: int, step: int, part: int = 0, parts: int = 1):
    """Yield the (start, m) of every parts-th run of `step` values in [0, n),
    from the part-th on."""
    return ((start, min(step, n - start)) for start in range(0, n, step)[part::parts])


def _run_parts(fn, n: int, block: int) -> list:
    """Run a loop over [0, n) in parts and return fn's results in part order.

    The one place where a length-p loop is split. A caller holds one block of
    scratch, `block` entries long (no more than n are needed). There are
    parts = min(CPUS, ceil(n / block), block) parts, at most one per block
    and at least one entry of scratch each, and step = min(n, block) // parts.
    Part i is called as fn(share, stretches): `share` is the slice
    [i step, (i+1) step) of the scratch, and `stretches` yields the (start, m)
    of every parts-th run of step values from the i-th, so the parts together
    cover [0, n) once and every m fits the share.

    Part 0 runs in the calling thread and every other part on a pool thread.
    Returns once every part has finished, raising the first exception in part
    order. No thread outlives the call and no pool is kept, so the process may
    fork afterwards; callers share buffers of a fixed total size among the
    parts, so memory does not grow with the number of CPUs."""
    parts = min(CPUS, -(-n // block), block)
    step = min(n, block) // parts

    def run(part: int):
        return fn(slice(part * step, (part + 1) * step), _stretches(n, step, part, parts))

    if parts == 1:
        return [run(0)]
    # imported here: the one-part path, every prime up to one block, loads no pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(parts - 1) as pool:
        others = [pool.submit(run, part) for part in range(1, parts)]
        first = run(0)
        return [first] + [other.result() for other in others]


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """Arithmetic context for a prime modulus: immutable tables, the character
    roots built on first read, a subgroup cache and the last exact sum.

    Share freely across workers; the cache only ever gains equal entries. The
    last sum is one slot that `sums.sum_exact` reads and replaces: it holds
    the (psi, chi) of the last evaluation that returned and its SumValue, and
    it lives and dies with the context.
    """

    p: int
    g: int
    dlog: np.ndarray = field(repr=False)   # int32, length p; dlog[0] = -1
    g_pow: np.ndarray = field(repr=False)  # int32, length p-1
    # order -> Subgroup, filled by subgroups.subgroup_of_order
    subgroups: dict = field(default_factory=dict, init=False, repr=False)
    # [((psi, chi), SumValue)] of the last sums.sum_exact evaluation, [None]
    # before one; replaced as a whole, so a reader never sees half an entry
    last_sum: list = field(default_factory=lambda: [None], init=False, repr=False)

    @cached_property
    def e_roots(self) -> UnitRoots:
        """e_p(u) = exp(2*pi*i*u/p), read from tables built on first access."""
        return UnitRoots(self.p)

    @cached_property
    def chi_roots(self) -> UnitRoots:
        """exp(2*pi*i*u/(p-1)), read from tables built on first access."""
        return UnitRoots(self.p - 1)

    @cached_property
    def e_table(self) -> np.ndarray:
        """exp(2*pi*i*u/p) for u in 0..p-1, built on first access."""
        p = self.p
        return roots_of_unity(np.arange(p), p, out=np.empty(p, dtype=np.complex128))

    @cached_property
    def chi_unit(self) -> np.ndarray:
        """exp(2*pi*i*u/(p-1)) for u in 0..p-2, built on first access."""
        n = self.p - 1
        return roots_of_unity(np.arange(n), n, out=np.empty(n, dtype=np.complex128))


def check_modulus(p: int) -> None:
    """Raise unless p is a prime with 3 <= p < 2**31, a modulus the package supports."""
    if p >= MAX_MODULUS:
        raise ModulusTooLarge(f"p={p} must be < 2**31")
    if p < 3:
        raise ValueError(f"p={p} must be at least 3")
    if not is_prime(p):
        raise CompositeModulus(f"p={p} is not prime")


def make_field_ctx(p: int) -> FieldCtx:
    """Build a FieldCtx for prime p, 3 <= p < 2**31.

    The primitive root is always the smallest one, so discrete logs and
    character indexing are reproducible across runs.
    """
    check_modulus(p)
    g = smallest_primitive_root(p)
    g_pow = _powers(g, p - 1, p)
    dlog = np.empty(p, dtype=np.int32)
    dlog[0] = -1  # g_pow is a permutation of 1..p-1: the scatter writes every other entry
    # Filled block by block over the p-1 exponents straight into dlog, so no
    # length-p temporaries are made.
    n = p - 1
    block = min(n, TABLE_BLOCK)
    scratch = np.empty(block, dtype=np.int32)
    offsets = np.arange(block, dtype=np.int32)
    # g_pow's blocks are copied to intp before they index: numpy would convert
    # an int32 index itself, more slowly
    index = np.empty(block, dtype=np.intp)

    def fill(share: slice, stretches) -> None:
        t, x = scratch[share], index[share]
        for start, m in stretches:
            np.add(offsets[:m], start, out=t[:m])
            x[:m] = g_pow[start : start + m]
            dlog[x[:m]] = t[:m]

    _run_parts(fill, n, block)
    return FieldCtx(p=p, g=g, dlog=dlog, g_pow=g_pow)


@dataclass(frozen=True)
class SparsePoly:
    """A polynomial sum(a_i * X**k_i) with nonzero coefficients and t <= 8 terms.

    Exponents are stored normalized into [1, p-1]: on the nonzero residues,
    x**k depends only on k mod (p-1), and an exponent that reduces to 0 is
    stored as p-1 (x**(p-1) == 1). Exponents colliding mod p-1 are rejected
    because the polynomial would degenerate to fewer terms.
    """

    p: int
    terms: tuple[tuple[int, int], ...]  # (coefficient, exponent) pairs

    @classmethod
    def from_terms(cls, p: int, terms) -> "SparsePoly":
        if not 1 <= len(terms) <= 8:
            raise ValueError(f"need 1..8 terms, got {len(terms)}")
        normalized = []
        seen = set()
        for coeff, exp in terms:
            c = int(coeff) % p
            if c == 0:
                raise ValueError(f"coefficient {coeff} vanishes mod {p}")
            if exp == 0:
                raise ValueError("exponents must be nonzero integers")
            k = int(exp) % (p - 1)
            if k == 0:
                k = p - 1
            if k in seen:
                raise DegenerateExponents(
                    f"exponents collide mod p-1={p - 1}: {exp} duplicates residue {k}"
                )
            seen.add(k)
            normalized.append((c, k))
        return cls(p=p, terms=tuple(normalized))

    @classmethod
    def parse(cls, p: int, text: str) -> "SparsePoly":
        """Parse the CLI form "a,k;b,l;c,m;d,n"."""
        pairs = []
        for chunk in text.split(";"):
            a, _, k = chunk.partition(",")
            pairs.append((int(a.strip()), int(k.strip())))
        return cls.from_terms(p, pairs)

    @property
    def t(self) -> int:
        return len(self.terms)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.terms)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.terms)

    def __str__(self) -> str:
        return ";".join(f"{c},{k}" for c, k in self.terms)

    def evaluate(self, x: int) -> int:
        """Direct evaluation mod p (no tables); used by oracles."""
        return sum(c * pow(x, k, self.p) for c, k in self.terms) % self.p
