"""Prime-field context: primality, primitive root, discrete-log and phase tables.

Everything downstream (character sums, counting, sweeps) works through a
FieldCtx, which precomputes for a prime p, 32p - 8 bytes in all:

  * dlog[x]   : index of x with respect to the smallest primitive root g,
                i.e. g**dlog[x] == x (mod p), for x in 1..p-1,
  * g_pow[t]  : g**t (mod p) for t in 0..p-2, built by doubling,
  * e_table[u]: exp(2*pi*i*u/p) for u in 0..p-1 (additive characters).

Multiplicative character values exp(2*pi*i*u/(p-1)) are not stored: the
character sums evaluate them per chunk with `roots_of_unity`, the expression
that also fills e_table, so a value does not depend on where it is computed.
`FieldCtx.chi_unit` builds the length p-1 table on first access only.

The tables are filled in blocks of TABLE_BLOCK residues. Above one block the
work is shared out over the process's CPUs (`CPUS`, read at import) on
threads that are joined before `make_field_ctx` returns; the threads split
one block of scratch, so memory does not grow with their number. Each entry
is computed by the same expression whichever thread fills it, so the tables
do not depend on the thread count; a prime with p <= TABLE_BLOCK starts no
thread.

p is capped below 2**31 so every modular product of two residues fits in a
signed 64-bit intermediate.
"""

from __future__ import annotations

import os
import threading
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


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n < 2**62)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


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
    """Smallest generator of the multiplicative group mod p."""
    phi = p - 1
    factors = prime_factors(phi)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
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


def _run_parts(fn, pieces: int) -> list:
    """Call fn(part, parts) for part = 0..parts-1, parts = min(CPUS, pieces),
    and return the results in part order: part 0 runs in the calling thread,
    each other part in a thread of its own. Returns once every part has
    finished, raising the first exception any part raised. No thread outlives
    the call and no pool is kept, so the process may fork afterwards.

    Callers share buffers of a fixed total size among the parts, so memory
    does not grow with the number of CPUs."""
    parts = min(CPUS, pieces)
    if parts == 1:
        return [fn(0, 1)]
    results = [None] * parts
    errors = []

    def run(part: int) -> None:
        try:
            results[part] = fn(part, parts)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=run, args=(part,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """Arithmetic context for a prime modulus: immutable tables plus a subgroup cache.

    Share freely across workers; the cache only ever gains equal entries.
    """

    p: int
    g: int
    dlog: np.ndarray = field(repr=False)    # length p; dlog[0] = -1
    g_pow: np.ndarray = field(repr=False)   # length p-1
    e_table: np.ndarray = field(repr=False)  # length p, complex128
    # order -> Subgroup, filled by subgroups.subgroup_of_order
    subgroups: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def chi_unit(self) -> np.ndarray:
        """exp(2*pi*i*u/(p-1)) for u in 0..p-2, built on first access; the
        package itself evaluates these values per chunk and never reads it."""
        n = self.p - 1
        table = np.empty(n, dtype=np.complex128)
        for start in range(0, n, TABLE_BLOCK):
            u = np.arange(start, min(start + TABLE_BLOCK, n), dtype=np.int64)
            roots_of_unity(u, n, out=table[start : start + len(u)])
        return table


def make_field_ctx(p: int) -> FieldCtx:
    """Build a FieldCtx for prime p, 3 <= p < 2**31.

    The primitive root is always the smallest one, so discrete logs and
    character indexing are reproducible across runs.
    """
    if p >= MAX_MODULUS:
        raise ModulusTooLarge(f"p={p} must be < 2**31")
    if p < 3:
        raise ValueError(f"p={p} must be at least 3")
    if not is_prime(p):
        raise CompositeModulus(f"p={p} is not prime")
    g = smallest_primitive_root(p)
    g_pow = _powers(g, p - 1, p)
    dlog = np.empty(p, dtype=np.int64)
    dlog[0] = -1  # g_pow is a permutation of 1..p-1: the scatter writes every other entry
    e_table = np.empty(p, dtype=np.complex128)
    # Filled block by block straight into the final arrays, so no length-p
    # temporaries are made; each entry is the same expression as for one array.
    # The parts split one block of scratch, and each fills every parts-th
    # stretch of block // parts residues.
    block = min(p, TABLE_BLOCK)
    scratch = np.empty(block, dtype=np.int64)
    offsets = np.arange(block, dtype=np.int64)

    def fill(part: int, parts: int) -> None:
        step = block // parts
        u = scratch[part * step : (part + 1) * step]
        for start in range(part * step, p, parts * step):
            m = min(step, p - start)
            np.add(offsets[:m], start, out=u[:m])
            roots_of_unity(u[:m], p, out=e_table[start : start + m])
            m = min(m, p - 1 - start)  # exponents stop at p-2
            dlog[g_pow[start : start + m]] = u[:m]

    _run_parts(fill, min(-(-p // block), block))  # a part per block, a residue per share
    return FieldCtx(p=p, g=g, dlog=dlog, g_pow=g_pow, e_table=e_table)


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
