"""Prime-field context: primality, primitive root and discrete-log tables.

Everything downstream (character sums, counting, sweeps) works through a
FieldCtx, which precomputes for a prime p, 16p - 8 bytes in all:

  * dlog[x]   : index of x with respect to the smallest primitive root g,
                i.e. g**dlog[x] == x (mod p), for x in 1..p-1,
  * g_pow[t]  : g**t (mod p) for t in 0..p-2, built by doubling.

Character values are not stored: the sums evaluate the additive characters
exp(2*pi*i*u/p) and the multiplicative ones exp(2*pi*i*u/(p-1)) per chunk
with `roots_of_unity`, so a value does not depend on where it is computed.
Computing e_p per sum costs one complex exp per residue, about ten gathers,
and saves a complex128 table of 16 B per residue on every context.
`FieldCtx.e_table` and `FieldCtx.chi_unit` build the length p and p-1 tables
by the same expression on first access only; the package never reads them.

The tables are filled in blocks of TABLE_BLOCK residues, and above one block
on the process's CPUs (`CPUS`, read at import). `_run_parts` is the one place
where every length-p loop of the package, here and in `sums`, is split into
parts: it hands each part its share of one block of scratch and the stretches
it covers, runs the parts on threads and returns when all have finished.
Each entry is computed by the same expression whichever part fills it, so the
tables do not depend on the thread count.

p is capped below 2**31 so every modular product of two residues fits in a
signed 64-bit intermediate.
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
    """base**t mod p for t in 0..count-1, by doubling: log2(count) array steps."""
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1
    k, step = 1, base % p  # step == base**k mod p
    while k < count:
        m = min(k, count - k)
        block = out[k : k + m]
        np.multiply(out[:m], step, out=block)
        np.remainder(block, p, out=block)
        k, step = k + m, step * step % p
    return out


def roots_of_unity(u: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*u/n) into the complex128 array `out` for an int64 array u:
    the one expression of every character value, whose bits do not depend on
    the array's size. Every step runs in place in `out`, so nothing is
    allocated; the bits are those of np.exp(2j * np.pi * u / n)."""
    np.multiply(2j * np.pi, u, out=out)
    np.divide(out, n, out=out)
    return np.exp(out, out=out)


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
    """Arithmetic context for a prime modulus: immutable tables plus a subgroup cache.

    Share freely across workers; the cache only ever gains equal entries.
    """

    p: int
    g: int
    dlog: np.ndarray = field(repr=False)   # length p; dlog[0] = -1
    g_pow: np.ndarray = field(repr=False)  # length p-1
    # order -> Subgroup, filled by subgroups.subgroup_of_order
    subgroups: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def e_table(self) -> np.ndarray:
        """exp(2*pi*i*u/p) for u in 0..p-1, built on first access."""
        return _unit_roots(self.p)

    @cached_property
    def chi_unit(self) -> np.ndarray:
        """exp(2*pi*i*u/(p-1)) for u in 0..p-2, built on first access."""
        return _unit_roots(self.p - 1)


def _unit_roots(n: int) -> np.ndarray:
    """exp(2*pi*i*u/n) for u in 0..n-1, block by block on the process's CPUs."""
    table = np.empty(n, dtype=np.complex128)

    def fill(share: slice, stretches) -> None:
        for start, m in stretches:
            roots_of_unity(np.arange(start, start + m), n, out=table[start : start + m])

    _run_parts(fill, n, TABLE_BLOCK)
    return table


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
    dlog = np.empty(p, dtype=np.int64)
    dlog[0] = -1  # g_pow is a permutation of 1..p-1: the scatter writes every other entry
    # Filled block by block over the p-1 exponents straight into dlog, so no
    # length-p temporaries are made.
    n = p - 1
    block = min(n, TABLE_BLOCK)
    scratch = np.empty(block, dtype=np.int64)
    offsets = np.arange(block, dtype=np.int64)

    def fill(share: slice, stretches) -> None:
        t = scratch[share]
        for start, m in stretches:
            np.add(offsets[:m], start, out=t[:m])
            dlog[g_pow[start : start + m]] = t[:m]

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
