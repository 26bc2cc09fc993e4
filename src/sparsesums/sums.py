"""Exact complex evaluation of character sums, bilinear and quadrilinear forms.

Every x in F_p^* is g**t for one exponent t in 0..p-2, so the character sum
S = sum chi(x) e_p(Psi(x)) is evaluated in exponent order, in chunks of CHUNK
consecutive t (`_t_terms`):

  * Psi(g**t) mod p: for t = start + s, each monomial c*x**k contributes
    (c * g**(k*start) mod p) * g_pow[(k*s) mod p-1]. The table over s is built
    once per monomial, widened from the context's int32 to int64, and scaled
    per chunk by a Python int below p, so every product stays below
    p**2 < 2**62 and the phase is the exact integer. The products are added
    unreduced while their sum fits in int64, which at every p up to about
    2**30 means one reduction per chunk.
  * e_p(u) = exp(2*pi*i*u/p) for the phase u, and chi_j(g**t) =
    exp(2*pi*i*u/(p-1)) for u = j*t mod p-1, both read per chunk from the
    context's small tables, `FieldCtx.e_roots` and `FieldCtx.chi_roots`
    (`field.UnitRoots`): up to 2**16, one gather of np.exp's values; above,
    two gathers and one complex multiply, every value within
    `UnitRoots.RADIUS` of the exact root. For j == 0 mod p-1 the terms are the
    e_p values as they are. Otherwise chi is applied by `UnitRoots.twist` in
    the chunk's three complex buffers, every multiply out of place, so every p
    and chunk size takes the same multiply loops.
  * Both reductions mod p and mod p-1 are a - (a // p) * p in reused int64
    buffers: a floor division by a scalar is faster than numpy's remainder,
    and gives the same integers.

Above one chunk the length-p loops run in parts on the process's CPUs, as
`field._run_parts` splits them over one chunk's buffers. Each part of
`sum_exact` sums into an exact accumulator of its own, and the accumulators
are merged; `sum_decomposed` fills tt the same way and sums its rows in at
most ROW_BUFFERS parts, one row buffer each. Every term and every row sum is
computed by the same expression whichever part computes it, and the
accumulator is exact, so the results do not depend on the thread count, and
memory does not grow with it.

`sum_exact` remembers its last result in one slot on the context it ran on,
`FieldCtx.last_sum`, keyed by (psi, chi) as given: the identity, Weil and
bounds checks of one (p, Psi, chi) ask for the same sum back to back, and the
second and third calls return the first's SumValue. The slot holds one entry
and goes with the context, so it pins no memory a dropped context would have
freed. `sum_decomposed`, whose evaluation is the audit, and the kernel forms,
which take weight arrays, always evaluate.

Every sum goes through one accumulator, `_ExactSum`: an error-free
extraction in int64 (Rump, Ogita and Oishi, "Accurate floating-point
summation", SIAM J. Sci. Comput. 31, 2008) of the real and imaginary parts
into two Python ints in one unit, 2**-1074, of which every float64 is an
integer multiple. Parts merge by adding the ints, and each total is rounded
once, so the result is the correctly rounded sum, the value math.fsum gives,
independent of term order, chunk size and part count. The one exception is
the inner sums of `sum_decomposed`, one numpy sum per row, which define that
route; the row sums then go through the accumulator too. The bilinear and
quadrilinear forms stream their terms into it in blocks of whole rows of their
last set, at most CHUNK terms or one row, so their memory does not grow with
the number of terms.

`sum_decomposed` stores the same terms once in exponent order, twice over:
tt[t] = T(g**t) for t in 0..2(p-1)-1. The products xyz over subgroups of
orders a, b, c are the subgroup of order L = lcm(a, b, c), so their logs s
are the multiples of (p-1)/L and need no lookup. For v = g**s,
T(v*w) = tt[s + dlog w], so the row of v over w = 1..p-1 in residue order is
one gather tt[s : s+p-1][dlog[1:]]: no index arithmetic per row, memory O(p)
whatever the number of rows. The row holds the terms a residue-order table
would give, in the same order, and each row is summed by the same numpy sum,
so the result does not depend on how the rows are gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .errors import BudgetExceeded, NonzeroRequired
from .field import FieldCtx, SparsePoly, _run_parts, _stretches

DECOMPOSITION_BUDGET = 10**9
QUADLINEAR_BUDGET = 10**8
CHUNK = 2**16  # values per chunk; CHUNK * 2**_LEVEL_BITS <= 2**62 keeps level sums in int64
ROW_BUFFERS = 2  # rows sum_decomposed gathers at once: together no larger than tt
_LEVEL_BITS = 46


@dataclass(frozen=True)
class CharacterIndex:
    """Multiplicative character chi_j, defined by chi_j(g**t) = e((j*t)/(p-1))."""

    j: int


@dataclass(frozen=True)
class SumValue:
    value: complex
    term_count: int

    @property
    def magnitude(self) -> float:
        return abs(self.value)


class _ExactSum:
    """Correctly rounded real and imaginary sums of complex128 values, fed as arrays.

    Every finite float64 is an integer multiple of 2**-1074, so the running
    real and imaginary totals are two Python ints counting that unit, and
    `value` rounds each once, by int true division by 2**1074. The values are
    copied in blocks of at most CHUNK into the two rows of a work buffer, real
    and imaginary parts, and both rows go through the same levels. Each level
    rounds the block to the grid 2**e, e = max(top - 46, -1074) with every
    |x| < 2**top, as q = (x + sigma) - sigma, sigma = 1.5 * 2**(e + 52). Each
    q / 2**e is an integer of at most 46 bits, read off the bits of x + sigma,
    so a row sums in int64 without overflow, and its sum, shifted left by
    e + 1074 >= 0, is added to the total. The remainders x - q are exact and go
    to the next level until none is left. Merging adds the totals. An exact
    zero is +0.0 whatever the signs of the zero terms, as math.fsum gives on
    Python 3.11, so records do not depend on them. A part with non-finite terms
    is their IEEE sum; finite terms of magnitude 2**1017 or more, or a finite
    total past the float range, raise OverflowError.

    `work`, a float64 array of shape (2, 2, m), is used for blocks of up to m
    values; longer blocks, or none given, allocate their own on first use.
    """

    def __init__(self, work: np.ndarray | None = None) -> None:
        self._re = 0  # the totals in units of 2**-1074
        self._im = 0
        self._special = 0j  # IEEE sums of the non-finite parts
        # reused level buffers: no page faults per block
        self._work = np.empty((2, 2, 0)) if work is None else work

    def add(self, values) -> None:
        z = np.asarray(values, dtype=np.complex128).reshape(-1)
        for start in range(0, len(z), CHUNK):
            self._add_block(z[start : start + CHUNK])

    def _add_block(self, z: np.ndarray) -> None:
        if self._work.shape[2] < len(z):
            self._work = np.empty((2, 2, len(z)))
        x, s = self._work[:, :, : len(z)]
        x[0] = z.real
        x[1] = z.imag
        top = float(np.abs(x, out=s).max())
        if not math.isfinite(top):
            bad = ~np.isfinite(x)
            self._special += complex(*np.where(bad, x, 0.0).sum(axis=1))
            x[bad] = 0.0
            top = float(np.abs(x, out=s).max())
        if top >= 2.0**1017:  # sigma = 1.5 * 2**(e + 52) would not be finite
            raise OverflowError(f"term {top!r} too large for exact summation")
        while top:
            e = max(math.frexp(top)[1] - _LEVEL_BITS, -1074)
            sigma = math.ldexp(1.5, e + 52)
            np.add(x, sigma, out=s)
            # x + sigma stays in sigma's binade, where the bits grow by one per
            # 2**e: the int64 sums may wrap, but each level sum fits in 63 bits
            re, im = s.view(np.int64).sum(axis=1).tolist()
            offset = len(z) * (((e + 52 + 1023) << 52) | (1 << 51))  # the bits of sigma
            self._re += _wrap(re - offset) << (e + 1074)
            self._im += _wrap(im - offset) << (e + 1074)
            np.subtract(s, sigma, out=s)
            np.subtract(x, s, out=x)
            top = float(np.abs(x, out=s).max())

    def merge(self, other: "_ExactSum") -> None:
        """Add the terms `other` has been fed, as if they had been fed here."""
        self._re += other._re
        self._im += other._im
        self._special += other._special

    def value(self) -> complex:
        re = self._special.real or self._re / 2**1074
        im = self._special.imag or self._im / 2**1074
        return complex(re, im)


def _wrap(n: int) -> int:
    """n reduced to the signed 64-bit range, as int64 arithmetic wraps."""
    return (n + 2**63) % 2**64 - 2**63


def _t_terms(ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex):
    """Return chunks(share, stretches), a generator of (start, terms) with
    terms[s] = chi(g**t) e_p(Psi(g**t)), t = start + s, for each (start, m)
    in `stretches`, computed in the `share` of one chunk's buffers: one part
    of the loop over t = 0..p-2 as `field._run_parts(fn, p - 1, CHUNK)` hands
    it out. By default one part covers every t, in chunks of CHUNK. `terms`
    is valid until that generator draws its next chunk. The monomial tables,
    the buffers and the context's root tables are built here once, so drawing
    chunks allocates nothing in whichever thread draws them.
    """
    p, g, n = ctx.p, ctx.g, ctx.p - 1
    j = chi.j % n
    size = min(n, CHUNK)
    s = np.arange(size, dtype=np.int64)
    # widened once here: a residue times a coefficient overflows int32
    tables = [(c, k, ctx.g_pow[(k * s) % n].astype(np.int64)) for c, k in psi.terms]
    batch = _unreduced_terms(p)
    groups = [tables[i : i + batch] for i in range(0, len(tables), batch)]
    js = s * j % n
    # built here, in the calling thread, so the parts only read the tables
    e_roots = ctx.e_roots
    chi_roots = ctx.chi_roots if j else None
    ints = np.empty((2, size), dtype=np.int64)
    values = np.empty((3, size), dtype=np.complex128)

    def chunks(share: slice = slice(None), stretches=None):
        acc, q = ints[:, share]
        rows = values[:, share]
        for start, m in _stretches(n, size) if stretches is None else stretches:
            acc[:m] = 0
            for group in groups:
                for c, k, table in group:
                    np.multiply(table[:m], c * pow(g, k * start, p) % p, out=q[:m])
                    np.add(acc[:m], q[:m], out=acc[:m])
                _reduce(acc[:m], p, q[:m])
            e, r1, r2 = rows[:, :m]
            e_roots.read(acc[:m], e, q[:m], (r1, r2))
            if not j:  # chi_0 is 1 + 0j, and multiplying by it changes no bit
                yield start, e
                continue
            np.add(js[:m], j * start % n, out=acc[:m])
            _reduce(acc[:m], n, q[:m])
            yield start, chi_roots.twist(e, acc[:m], r2, q[:m], r1)

    return chunks


def _unreduced_terms(p: int) -> int:
    """How many products below (p-1)**2 add to a residue below p within
    2**63 - 1: two near p = 2**31, eight at 2**30, about 93,000 at 1e7."""
    return (2**63 - p) // (p - 1) ** 2


def _reduce(a: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """a %= p in place for 0 <= a < 2**63, as a - (a // p) p: a floor division
    by a scalar is about twice as fast as numpy's remainder."""
    np.floor_divide(a, p, out=scratch)
    np.multiply(scratch, p, out=scratch)
    np.subtract(a, scratch, out=a)


def sum_exact(ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex) -> SumValue:
    """S = sum over x in F_p^* of chi(x) e_p(Psi(x)).

    Each part sums its share of the terms into an exact accumulator of its
    own, and the accumulators are merged, so S is the correctly rounded sum
    whatever the thread count.

    The context keeps the last result in its one slot `ctx.last_sum`, keyed by
    (psi, chi) exactly as given: a call with an equal key returns that
    SumValue, the bits a new evaluation would give, without evaluating. Any
    other call evaluates and replaces the slot; one that raises leaves it as
    it was. CharacterIndex(j) and CharacterIndex(j + p - 1) are different
    keys, so each is evaluated.
    """
    key = (psi, chi)
    last = ctx.last_sum[0]
    if last is not None and last[0] == key:
        return last[1]
    n = ctx.p - 1
    chunks = _t_terms(ctx, psi, chi)
    # the accumulators' level buffers, shared like the chunk buffers and made
    # here: allocated in the threads, they would stay in glibc's per-thread
    # arenas after the call
    work = np.empty((2, 2, min(n, CHUNK)))

    def add(share: slice, stretches) -> _ExactSum:
        acc = _ExactSum(work[:, :, share])
        for _, terms in chunks(share, stretches):
            acc.add(terms)
        return acc

    total, *others = _run_parts(add, n, CHUNK)
    for other in others:
        total.merge(other)
    result = SumValue(total.value(), n)
    ctx.last_sum[0] = (key, result)
    return result


def sum_decomposed(
    ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex, budget: int = DECOMPOSITION_BUDGET
) -> SumValue:
    """The subgroup-averaged form of S for a quadrinomial.

    Evaluates (1/(abc)) * sum over (x,y,z,w) in G_a x G_b x G_c x F_p^* of
    chi(wxyz) e_p(Psi(wxyz)), where a, b, c are the gcds of the first three
    exponents with p-1. Replacing w by w(xyz)^-1 shows this equals sum_exact;
    the evaluation here performs the quadruple summation (grouped by the value
    of xyz) rather than using that identity.

    In the cyclic group F_p^* the products xyz form the subgroup of order
    L = lcm(a, b, c), the g**s with s a multiple of (p-1)/L, and each is hit
    abc/L times. Each inner sum over w is the numpy sum of one row gathered
    from the exponent-order terms at the offset s, w in residue order, so the
    row and its bits are those of a residue-order table; the L rows, weighted
    by abc/L, are summed exactly, so their order cannot show. Memory is
    O(p) terms, independent of the number of rows and of CPUs: tt holds
    2(p-1) terms, at most ROW_BUFFERS rows of p-1 are gathered at once, and
    the int32 dlog[1:] is converted to one intp index array, 8 B per residue,
    once per call rather than by `take` on every row.
    """
    if psi.t != 4:
        raise ValueError(f"need a quadrinomial, got t={psi.t}")
    p = ctx.p
    a, b, c = decomposition_orders(p, psi.exponents, budget)
    n, order = p - 1, lcm(a, b, c)
    tt = np.empty(2 * n, dtype=np.complex128)  # tt[t] = T(g**t), twice over
    chunks = _t_terms(ctx, psi, chi)

    def fill(share: slice, stretches) -> None:
        for start, terms in chunks(share, stretches):
            tt[start : start + len(terms)] = terms

    _run_parts(fill, n, CHUNK)
    tt[n:] = tt[:n]
    dw = ctx.dlog[1:].astype(np.intp)  # w = 1..p-1 in residue order; take's own index type
    offsets = range(0, n, n // order)  # the logs s of the products xyz
    inner = np.empty(order, dtype=np.complex128)
    # one row buffer per part; rows no longer than one chunk are too short to
    # repay a thread
    rows = np.empty((min(order, ROW_BUFFERS) if n > CHUNK else 1, n), dtype=np.complex128)

    def sum_rows(share: slice, stretches) -> None:
        row = rows[share.start]
        for start, m in stretches:
            for i in range(start, start + m):
                inner[i] = tt[offsets[i] : offsets[i] + n].take(dw, out=row, mode="clip").sum()

    _run_parts(sum_rows, order, len(rows))
    total = _ExactSum()
    total.add(inner * (a * b * c // order))
    return SumValue(total.value() / (a * b * c), a * b * c * (p - 1))


def decomposition_orders(
    p: int, exponents, budget: int = DECOMPOSITION_BUDGET
) -> tuple[int, int, int]:
    """The subgroup orders a, b, c of `sum_decomposed`, the gcds of the first
    three exponents with p-1; raises BudgetExceeded if its enumeration of
    a*b*c*(p-1) terms exceeds `budget`. Needs no context."""
    a, b, c = (gcd(k, p - 1) for k in exponents[:3])
    if a * b * c * (p - 1) > budget:
        raise BudgetExceeded(
            f"decomposition enumeration {a}*{b}*{c}*{p - 1} exceeds {budget}"
        )
    return a, b, c


def bilinear_sum(
    ctx: FieldCtx,
    xs,
    ys,
    alpha_weights,
    beta_weights,
) -> SumValue:
    """sum over (x, y) of alpha_x beta_y e_p(xy); weights align positionally.

    The terms (alpha_x beta_y) e_p(xy) stream into the exact accumulator in
    blocks of whole rows over y, so the sum is correctly rounded and memory
    is O(CHUNK + |Y|) terms.
    """
    p = ctx.p
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    aw = np.asarray(alpha_weights, dtype=np.complex128)
    bw = np.asarray(beta_weights, dtype=np.complex128)
    if aw.shape != x.shape or bw.shape != y.shape:
        raise ValueError("weights must align with their sets")
    acc = _ExactSum()
    rows = max(1, CHUNK // max(len(y), 1))
    for i in range(0, len(x), rows):
        phase = (x[i : i + rows, None] * y[None, :]) % p
        e = ctx.e_roots.read(phase, np.empty(phase.shape, dtype=np.complex128))
        acc.add((aw[i : i + rows, None] * bw[None, :]) * e)
    return SumValue(acc.value(), len(x) * len(y))


def quadlinear_sum(
    ctx: FieldCtx,
    ws,
    xs,
    ys,
    zs,
    theta,
    rho,
    sigma,
    tau,
    a: int,
) -> SumValue:
    """T = sum over (w,x,y,z) of theta_wxy rho_wxz sigma_wyz tau_xyz e_p(a wxyz).

    The weights are dense arrays indexed by set position, of shapes (W, X, Y),
    (W, X, Z), (W, Y, Z) and (X, Y, Z); other shapes raise ValueError. The
    terms (((theta rho) sigma) tau) e_p(a wxyz) stream into the exact
    accumulator in blocks of whole rows over z, taken in (w, x, y) order, so T
    is their correctly rounded sum, the same whatever the order of the sets,
    and memory is O(CHUNK + |Z|) terms.
    """
    p = ctx.p
    if a % p == 0:
        raise NonzeroRequired("the twist a must be a nonzero residue")
    w, x, y, z = (np.asarray(s, dtype=np.int64) for s in (ws, xs, ys, zs))
    nw, nx, ny, nz = len(w), len(x), len(y), len(z)
    th, rh, sg, ta = (np.asarray(t, dtype=np.complex128) for t in (theta, rho, sigma, tau))
    shapes = [(nw, nx, ny), (nw, nx, nz), (nw, ny, nz), (nx, ny, nz)]
    if [t.shape for t in (th, rh, sg, ta)] != shapes:
        raise ValueError(f"weights must have shapes {shapes}")
    size = nw * nx * ny * nz
    if size > QUADLINEAR_BUDGET:
        raise BudgetExceeded(f"quadrilinear enumeration {size} exceeds {QUADLINEAR_BUDGET}")
    acc = _ExactSum()
    rows = max(1, CHUNK // max(nz, 1))
    for i in range(0, th.size, rows):
        iw, ix, iy = np.unravel_index(np.arange(i, min(i + rows, th.size)), th.shape)
        phase = (a % p * w[iw] % p * x[ix] % p * y[iy] % p)[:, None] * z % p
        e = ctx.e_roots.read(phase, np.empty(phase.shape, dtype=np.complex128))
        acc.add(th[iw, ix, iy][:, None] * rh[iw, ix] * sg[iw, iy] * ta[ix, iy] * e)
    return SumValue(acc.value(), size)


def unit_weights(*dims: int) -> np.ndarray:
    """All-ones weight array, the default in sweeps and examples."""
    return np.ones(dims, dtype=np.complex128)
