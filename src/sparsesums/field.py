"""Prime-field context: primality, primitive root, discrete-log and phase tables.

Everything downstream (character sums, counting, sweeps) works through a
FieldCtx, which precomputes for a prime p:

  * dlog[x]   : index of x with respect to the smallest primitive root g,
                i.e. g**dlog[x] == x (mod p), for x in 1..p-1,
  * g_pow[t]  : g**t (mod p) for t in 0..p-2,
  * e_table[u]: exp(2*pi*i*u/p) for u in 0..p-1 (additive characters),
  * chi_unit[u]: exp(2*pi*i*u/(p-1)) (multiplicative character values).

p is capped below 2**31 so every modular product of two residues fits in a
signed 64-bit intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import CompositeModulus, DegenerateExponents, ModulusTooLarge

MAX_MODULUS = 2**31
TABLE_BLOCK = 2**16  # residues per block while the tables are filled


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


def _power_table(g: int, p: int) -> np.ndarray:
    """g**t mod p for t in 0..p-2, built in blocks to avoid a length-p Python loop."""
    n = p - 1
    block = min(n, 1024)
    small = np.empty(block, dtype=np.int64)
    cur = 1
    for t in range(block):
        small[t] = cur
        cur = cur * g % p
    n_blocks = -(-n // block)
    # leading factors g**(block*i), i = 0..n_blocks-1
    lead = np.empty(n_blocks, dtype=np.int64)
    step = pow(g, block, p)
    cur = 1
    for i in range(n_blocks):
        lead[i] = cur
        cur = cur * step % p
    table = (lead[:, None] * small[None, :]) % p
    return table.reshape(-1)[:n]


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
    chi_unit: np.ndarray = field(repr=False)  # length p-1, complex128
    # order -> Subgroup, filled by subgroups.subgroup_of_order
    subgroups: dict = field(default_factory=dict, init=False, repr=False)


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
    g_pow = _power_table(g, p)
    dlog = np.full(p, -1, dtype=np.int64)
    e_table = np.empty(p, dtype=np.complex128)
    chi_unit = np.empty(p - 1, dtype=np.complex128)
    # Filled block by block straight into the final arrays, so no length-p
    # temporaries are made; each entry is the same expression as for one array.
    for start in range(0, p, TABLE_BLOCK):
        u = np.arange(start, min(start + TABLE_BLOCK, p), dtype=np.int64)
        np.exp(2j * np.pi * u / p, out=e_table[start : start + len(u)])
        u = u[u < p - 1]
        np.exp(2j * np.pi * u / (p - 1), out=chi_unit[start : start + len(u)])
        dlog[g_pow[start : start + len(u)]] = u
    return FieldCtx(p=p, g=g, dlog=dlog, g_pow=g_pow, e_table=e_table, chi_unit=chi_unit)


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
