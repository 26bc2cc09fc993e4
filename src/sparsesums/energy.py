"""Exact combinatorial counts: multiplicative energy, difference-product counts.

Every quantity has two routes that must agree to the integer: an oracle
(brute-force comparison or direct enumeration, heavily size-gated) and an
optimized route. The d_times oracle enumerates all pairs of U for its
difference table and the outer product of that table's support in blocks of
ORACLE_BLOCK_PAIRS products, one np.add.at per block; it calls none of the
optimized primitives below. The optimized route counts on one of two domains.

The set route takes any multiset of residues and works on length-p count
tables: diff_counts, the difference table d as a cyclic autocorrelation of
length p, and _mult_conv, r(mu) = sum over x y == mu of a(x) b(y), a cyclic
convolution of length p-1 in the discrete-log domain (Rader's primitive-root
reindexing) with the mass at 0 carried explicitly. D is the sum of r^2 for
r = (d, d); N sums r_FG r_FH; I and J are r for (d_W, 1_Z) and (d_X, d_Y).
The energy E(U, V) needs no residue table: with z_U, z_V the multiplicities
of 0, r(0) = z_U |V| + z_V |U| - z_U z_V, and r(mu != 0) is counted on the
exponents dlog(u), dlog(v) of the nonzero elements, as the pair sums mod p-1
(a bincount) or their length p-1 cyclic convolution where a transform pays;
E = r(0)^2 + the sum of squares of that exponent-indexed vector, read off it
in exponent order.

The class route is taken by d_times, n_triples, i_distribution and
j_distribution when every set argument is a Subgroup. Write n = p-1 and, for
a subgroup X of order d_X, m_X = n / d_X. A table invariant under X is a
function of the class dlog(x) mod m_X; the difference table of X is
d_X(0) = d_X and d_X(a) = A_X[dlog a mod m_X] for a != 0, where
A_X[c] = #{u in X, u != 1 : dlog(u - 1) mod m_X == c} are the cyclotomic
numbers of order m_X (Storer, Cyclotomy and Difference Sets, 1967). For class
vectors x on Z/m_x and y on Z/m_y, with q = gcd(m_x, m_y) and x|q the fibre
sum of x onto Z/q, the multiplicative convolution is the length-q cyclic one
r(mu != 0) = (n / lcm(m_x, m_y)) (x|q * y|q)[dlog mu mod q], and
n / lcm(m_X, m_Y) = gcd(d_X, d_Y). With 1_Z the class vector of Z (1 at
class 0) and q = gcd of the two class periods:

    r_XZ(mu != 0) = gcd(d_X, d_Z) A_X|q[dlog mu mod q]    (r for (d_X, 1_Z)),
    D(G)       = r0^2 + d^3 sum (A * A)^2,  r0 = 2 d^3 - d^2,
    N(F, G, H) = d_F^2 d_G d_H + sum over mu != 0 of r_GF r_HF,
    I(0)       = d_W d_Z,  I(lam != 0) = r_WZ(lam),
    J(mu != 0) = gcd(d_X, d_Y) (A_X|q * A_Y|q)[dlog mu mod q],
    zero_count = d_X d_Y^2 + d_Y d_X^2 - d_X d_Y:

O(d + m) work and no length-p transform.

Every cyclic convolution, of length p, p-1 or q, enumerates its support
pairs in int64 unless its length n exceeds DIRECT_CONV_MAX and the pairs
exceed ENUM_PAIRS_PER_POINT * n (both measured crossovers); then it takes a
float64 FFT of zero-padded power-of-two length, rounded only when an a priori
error bound from the inputs' norms and the length (Percival, Math. Comp. 72,
2003) is below 1/4, else it enumerates. Sums of squares use int64 only where
no partial sum can overflow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded
from .field import FieldCtx
from .subgroups import Subgroup

ORACLE_PAIR_BUDGET = 5_000       # all-pairs comparison arrays
ORACLE_LOOP_BUDGET = 4_000_000   # python-loop enumerations
DTIMES_ORACLE_MAX = 60           # |U| cap for the d_times oracle route
DTIMES_OPT_MAX = 10_000          # |U| cap for the optimized route
DTIMES_OPT_P_MAX = 10**6
FREQ_BUDGET = 10**8              # frequency-table products
ORACLE_BLOCK_PAIRS = 2**18       # products per np.add.at in the d_times oracle
DIRECT_CONV_MAX = 48             # at or below this length the primitives enumerate
ENUM_PAIRS_PER_POINT = 10        # above it, they transform past this many pairs per point


@dataclass(frozen=True)
class CountValue:
    count: int
    method: str  # "oracle" | "optimized"


@dataclass(frozen=True)
class Distribution:
    """Counts per residue; zero_count carries mass at 0 when the table omits it."""

    table: dict[int, int] = field(hash=False)
    total: int
    zero_count: int = 0


def _as_array(s) -> np.ndarray:
    if isinstance(s, Subgroup):
        return s.as_array()
    return np.sort(np.asarray(s, dtype=np.int64))


def _is_subgroup(*sets) -> bool:
    return all(isinstance(s, Subgroup) for s in sets)


def _table(p: int, u: np.ndarray) -> np.ndarray:
    """Length-p multiplicity table of the residues of u."""
    return np.bincount(u % p, minlength=p)


def _dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact dot product of non-negative integer vectors: int64 np.dot over the
    entries with max^2 * len < 2**63, Python ints over the rest."""
    limit = math.isqrt((2**63 - 1) // max(1, len(x)))
    big = (x > limit) | (y > limit)
    if not big.any():
        return int(np.dot(x, y))
    return int(np.dot(x[~big], y[~big])) + sum(map(operator.mul, x[big].tolist(), y[big].tolist()))


def _transform_pays(pairs: int, length: int) -> bool:
    return length > DIRECT_CONV_MAX and pairs > ENUM_PAIRS_PER_POINT * length


def _pair_sums(p: int, xs, wx, ys, wy, op) -> np.ndarray:
    """out[op(x, y) % p] += wx * wy over all pairs, in blocks; exact while the
    total mass sum(wx) sum(wy), which the callers' budgets bound, is < 2**63."""
    out = np.zeros(p, dtype=np.int64)
    step = max(1, 2**22 // max(1, len(ys)))
    for i in range(0, len(xs), step):
        keys = op(xs[i : i + step, None], ys[None, :]) % p
        np.add.at(out, keys.reshape(-1), (wx[i : i + step, None] * wy[None, :]).reshape(-1))
    return out


def _fft_error_bound(sq_x: int, sq_y: int, size: int) -> float:
    """Bound on max |computed - exact| of a float64 FFT convolution of length
    size = 2**(k-1), from squared norms: Percival, Thm. 5.1, with unit roundoff
    and twiddle error u = 2**-53; the extra level covers real-input packing."""
    k, u = size.bit_length(), 2.0**-53
    growth = math.expm1(6 * k * math.log1p(u) + (3 * k + 1) * math.log1p(u * math.sqrt(5)))
    return math.sqrt(sq_x) * math.sqrt(sq_y) * growth


def _cyclic_fft(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray | None:
    """Length-n cyclic convolution of integer vectors, folded from a linear one
    of power-of-two length >= 2n - 1; None when the error bound is not < 1/4."""
    size = 1 << (2 * n - 2).bit_length()
    sq_x = _dot(x, x)
    if _fft_error_bound(sq_x, sq_x if y is x else _dot(y, y), size) >= 0.25:
        return None
    fx = np.fft.rfft(x, size)
    lin = np.fft.irfft(fx * (fx if y is x else np.fft.rfft(y, size)), size)
    out = lin[:n]
    out[: n - 1] += lin[n : 2 * n - 1]
    return np.rint(out).astype(np.int64)


def _cyclic_conv(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Length-n cyclic convolution of non-negative integer vectors: an FFT
    where it pays and its bound allows, else the support pairs enumerated."""
    sx = np.flatnonzero(x)
    sy = sx if y is x else np.flatnonzero(y)
    if _transform_pays(len(sx) * len(sy), n):
        conv = _cyclic_fft(x, y, n)
        if conv is not None:
            return conv
    return _pair_sums(n, sx, x[sx], sy, y[sy], np.add)


def diff_counts(p: int, u) -> np.ndarray:
    """d[a] = #{(x, y) in U^2 : x - y == a mod p}, length-p table: the autocorrelation."""
    u = np.asarray(u, dtype=np.int64)
    xs, wx = np.unique(u % p, return_counts=True)
    if _transform_pays(len(xs) ** 2, p):
        c = _table(p, u)
        d = _cyclic_fft(c, np.roll(c[::-1], 1), p)  # the reversal c[-j]
        if d is not None:
            return d
    return _pair_sums(p, xs, wx, xs, wx, np.subtract)


def _exponent_conv(n: int, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """r[t] = #{(i, j) : ex[i] + ey[j] == t mod n}, for exponent multisets:
    the length-n cyclic convolution of their counts, by bincount of the pair
    sums in blocks, or by _cyclic_conv where a transform pays."""
    if _transform_pays(len(ex) * len(ey), n):
        x = np.bincount(ex, minlength=n)
        return _cyclic_conv(x, x if ey is ex else np.bincount(ey, minlength=n), n)
    step = max(1, 2**22 // max(1, len(ey)))

    def block(i: int) -> np.ndarray:
        keys = ex[i : i + step, None] + ey[None, :]
        return np.bincount(np.remainder(keys, n, out=keys).reshape(-1), minlength=n)

    r = block(0)
    for i in range(step, len(ex), step):
        r += block(i)
    return r


def _mult_conv(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r[mu] = sum over x y == mu mod p of a[x] b[y], for length-p count tables."""
    p = ctx.p
    sa, sb = np.flatnonzero(a[1:]) + 1, np.flatnonzero(b[1:]) + 1
    conv = None
    if _transform_pays(len(sa) * len(sb), p - 1):
        x = a[ctx.g_pow]  # x[t] = a[g**t]: products become sums of exponents
        conv = _cyclic_fft(x, x if b is a else b[ctx.g_pow], p - 1)
    if conv is None:
        r = _pair_sums(p, sa, a[sa], sb, b[sb], np.multiply)
    else:
        r = np.concatenate(([0], conv[ctx.dlog[1:]]))
    a0, b0 = int(a[0]), int(b[0])
    r[0] = a0 * int(b.sum()) + b0 * int(a.sum()) - a0 * b0
    return r


def _classes(ctx: FieldCtx, sub: Subgroup) -> np.ndarray:
    """A on Z/m, m = (p-1)/|sub|, with d(a) = A[dlog a mod m] for a != 0:
    the cyclotomic numbers of order m."""
    m = (ctx.p - 1) // sub.order
    u = sub.as_array()
    return np.bincount(ctx.dlog[u[u != 1] - 1] % m, minlength=m)


def _fold(x: np.ndarray, q: int) -> np.ndarray:
    """Fibre sum of a vector on Z/len(x) onto Z/q, for q dividing len(x)."""
    return x.reshape(-1, q).sum(axis=0)


def _class_r(ctx: FieldCtx, x: Subgroup, z: Subgroup) -> np.ndarray:
    """r_XZ(mu != 0) = sum over a z == mu of d_X(a) 1_Z(z) on Z/gcd(m_X, m_Z)."""
    n = ctx.p - 1
    q = math.gcd(n // x.order, n // z.order)
    return math.gcd(x.order, z.order) * _fold(_classes(ctx, x), q)


def _class_dot(n: int, r1: np.ndarray, r2: np.ndarray) -> int:
    """Sum over t in Z/n of r1[t mod len(r1)] r2[t mod len(r2)]."""
    g = math.gcd(len(r1), len(r2))
    return n // math.lcm(len(r1), len(r2)) * _dot(_fold(r1, g), _fold(r2, g))


def _on_residues(ctx: FieldCtx, v: np.ndarray) -> np.ndarray:
    """Length-p table t with t[0] = 0 and t[a] = v[dlog a mod len(v)]."""
    return np.concatenate(([0], v[ctx.dlog[1:] % len(v)]))


def _distribution(r: np.ndarray, zero_count: int = 0) -> Distribution:
    """The nonzero entries of a count table, keyed by residue in increasing order."""
    keys = np.flatnonzero(r)
    values = r[keys].tolist()
    table = dict(zip(keys.tolist(), values))
    return Distribution(table=table, total=sum(values), zero_count=zero_count)


def mult_energy(ctx: FieldCtx, us, vs, method: str = "optimized") -> CountValue:
    """Solutions of u1 v1 == u2 v2 mod p with u_i in U, v_i in V."""
    p = ctx.p
    u = _as_array(us)
    v = _as_array(vs)
    n = len(u) * len(v)
    if method == "optimized":
        if n > FREQ_BUDGET:
            raise BudgetExceeded(f"product table of size {n} exceeds {FREQ_BUDGET}")
        u, v = u % p, v % p
        zu, zv = len(u) - int(np.count_nonzero(u)), len(v) - int(np.count_nonzero(v))
        r0 = zu * len(v) + zv * len(u) - zu * zv  # u v == 0: u == 0 or v == 0
        eu = ctx.dlog[u[u != 0]]
        ev = eu if np.array_equal(u, v) else ctx.dlog[v[v != 0]]
        r = _exponent_conv(p - 1, eu, ev)
        return CountValue(count=r0 * r0 + _dot(r, r), method=method)
    if method == "oracle":
        if n > ORACLE_PAIR_BUDGET:
            raise BudgetExceeded(f"oracle pair comparison at n={n} exceeds {ORACLE_PAIR_BUDGET}")
        prods = ((u[:, None] * v[None, :]) % p).reshape(-1)
        total = 0
        for start in range(0, n, 512):
            total += int((prods[start : start + 512, None] == prods[None, :]).sum())
        return CountValue(count=total, method=method)
    raise ValueError(f"unknown method {method!r}")


def shifted_energy(ctx: FieldCtx, g: Subgroup, lam: int, method: str = "optimized") -> CountValue:
    """mult_energy of the shifted set G + lam (which may contain 0)."""
    shifted = (g.as_array() + lam) % ctx.p
    return mult_energy(ctx, shifted, shifted, method=method)


def _difference_values(p: int, s: np.ndarray) -> np.ndarray:
    return ((s[:, None] - s[None, :]) % p).reshape(-1)


def d_times(ctx: FieldCtx, us, method: str = "optimized") -> CountValue:
    """Solutions of (u1-v1)(u2-v2) == (u3-v3)(u4-v4) over U, all eight free.

    Every route goes through the difference table d(a) and the answer is the
    sum of r(mu)^2 for r(mu) = sum over ab == mu of d(a) d(b). The oracle
    counts d over all pairs of U and accumulates the outer product of its
    support directly, in blocks; the optimized route is the class route for a
    subgroup, else mult_conv(d, d).
    """
    p = ctx.p
    if method == "optimized" and _is_subgroup(us):
        d = us.order
        a = _classes(ctx, us)
        conv = _cyclic_conv(a, a, len(a))
        r0 = 2 * d**3 - d * d  # r(0): 2 d(0) |G|^2 - d(0)^2, d(0) = |G|
        return CountValue(count=r0 * r0 + d**3 * _dot(conv, conv), method=method)

    u = _as_array(us)
    if method == "oracle":
        if len(u) > DTIMES_ORACLE_MAX:
            raise BudgetExceeded(f"|U|={len(u)} exceeds oracle cap {DTIMES_ORACLE_MAX}")
        d = np.bincount(_difference_values(p, u), minlength=p)
        d0 = int(d[0])
        r0 = 2 * d0 * len(u) ** 2 - d0 * d0  # pairs (a, b) with ab == 0: a == 0 or b == 0
        support = np.flatnonzero(d[1:]) + 1
        weights = d[support]
        r = np.zeros(p, dtype=np.int64)
        rows = max(1, ORACLE_BLOCK_PAIRS // max(1, len(support)))
        for i in range(0, len(support), rows):
            keys = (support[i : i + rows, None] * support[None, :]) % p
            vals = weights[i : i + rows, None] * weights[None, :]
            np.add.at(r, keys.reshape(-1), vals.reshape(-1))
        return CountValue(count=r0 * r0 + _dot(r, r), method=method)

    if method == "optimized":
        if len(u) > DTIMES_OPT_MAX or p > DTIMES_OPT_P_MAX:
            raise BudgetExceeded(f"|U|={len(u)}, p={p} out of optimized range")
        d = diff_counts(p, u)
        r = _mult_conv(ctx, d, d)  # r[0] == 2 d(0) |U|^2 - d(0)^2
        return CountValue(count=_dot(r, r), method=method)

    raise ValueError(f"unknown method {method!r}")


def n_triples(
    ctx: FieldCtx, fs, gs, hs, method: str = "optimized"
) -> CountValue:
    """Solutions of f1 (g1 - g2) == f2 (h1 - h2)."""
    p = ctx.p
    f = _as_array(fs)
    g = _as_array(gs)
    h = _as_array(hs)
    left_n = len(f) * len(g) ** 2
    right_n = len(f) * len(h) ** 2
    if method == "optimized":
        if left_n > FREQ_BUDGET or right_n > FREQ_BUDGET:
            raise BudgetExceeded(
                f"triple tables {left_n}/{right_n} exceed {FREQ_BUDGET}"
            )
        if _is_subgroup(fs, gs, hs):
            r_fg = _class_r(ctx, gs, fs)
            r_fh = r_fg if len(g) == len(h) else _class_r(ctx, hs, fs)  # one subgroup per order
            count = len(f) ** 2 * len(g) * len(h) + _class_dot(p - 1, r_fg, r_fh)
            return CountValue(count=count, method=method)
        table_f = _table(p, f)
        r_fg = _mult_conv(ctx, table_f, diff_counts(p, g))
        r_fh = r_fg if np.array_equal(g, h) else _mult_conv(ctx, table_f, diff_counts(p, h))
        return CountValue(count=_dot(r_fg, r_fh), method=method)
    if method == "oracle":
        if left_n > ORACLE_PAIR_BUDGET or right_n > ORACLE_PAIR_BUDGET:
            raise BudgetExceeded(
                f"oracle pair comparison {left_n}x{right_n} exceeds {ORACLE_PAIR_BUDGET}"
            )
        left = ((f[:, None] * _difference_values(p, g)[None, :]) % p).reshape(-1)
        right = ((f[:, None] * _difference_values(p, h)[None, :]) % p).reshape(-1)
        count = 0
        for start in range(0, len(left), 512):
            count += int((left[start : start + 512, None] == right[None, :]).sum())
        return CountValue(count=count, method=method)
    raise ValueError(f"unknown method {method!r}")


def j_distribution(ctx: FieldCtx, xs, ys, method: str = "optimized") -> Distribution:
    """J(mu) = #{(x1,x2,y1,y2) : (x1-x2)(y1-y2) == mu}, nonzero mu only.

    Zero products are excluded from the table and reported via zero_count;
    table total + zero_count equals |X|^2 |Y|^2.
    """
    p = ctx.p
    x = _as_array(xs)
    y = _as_array(ys)
    mass = len(x) ** 2 * len(y) ** 2
    if method == "optimized":
        if mass > FREQ_BUDGET:
            raise BudgetExceeded(f"J frequency product {mass} exceeds {FREQ_BUDGET}")
        if _is_subgroup(xs, ys):
            r_xy = _class_r(ctx, xs, ys)
            q = len(r_xy)
            r = _on_residues(ctx, _cyclic_conv(r_xy, _fold(_classes(ctx, ys), q), q))
            dx, dy = len(x), len(y)
            zero_count = dx * dy * dy + dy * dx * dx - dx * dy
        else:
            r = _mult_conv(ctx, diff_counts(p, x), diff_counts(p, y))
            zero_count = int(r[0])
            r[0] = 0
    elif method == "oracle":
        if mass > ORACLE_LOOP_BUDGET:
            raise BudgetExceeded(f"J oracle enumeration {mass} exceeds {ORACLE_LOOP_BUDGET}")
        r = np.zeros(p, dtype=np.int64)
        zero_count = 0
        dx_list = _difference_values(p, x).tolist()
        dy_list = _difference_values(p, y).tolist()
        for a in dx_list:
            for b in dy_list:
                mu = a * b % p
                if mu == 0:
                    zero_count += 1
                else:
                    r[mu] += 1
    else:
        raise ValueError(f"unknown method {method!r}")
    return _distribution(r, zero_count)


@dataclass(frozen=True)
class CauchyStepReport:
    """Exact integer audit of the Cauchy step for one subgroup triple.

    The true consequence of applying Cauchy's inequality to
    N = (F^2 G H / |S|) * sum over lam in S of cnt(lam), with
    cnt(lam) = #{(g, h) : lam (g - 1) == h - 1}, is

        N^2 * |S| <= F^4 G^2 H^2 * sum of cnt(lam)^2      (intermediate form).

    Collapsing sum cnt^2 to (E(G-1) E(H-1))^(1/2) gives the stated

        N^4 * |S|^2 <= F^8 G^4 H^4 * E(G-1) * E(H-1)      (collapsed form),

    but the degenerate pair g == h == 1 satisfies lam * 0 == 0 for every
    lam in S, contributing |S| to the square sum while the energy product
    absorbs it only once; the collapsed form is therefore falsifiable (and
    is falsified) when G and H are small relative to F, while the
    intermediate form holds on every triple.

    Kept separate, the degenerate pair gives the collapse and the chain

        sum of cnt(lam)^2 <= |S| + (E(G-1) E(H-1))^(1/2),
        N^2 * |S| <= F^4 G^2 H^2 * (|S| + (E(G-1) E(H-1))^(1/2))   (separated form).

    Proof: cnt = 1 + c* with c* counting the pairs with g != 1; Cauchy-Schwarz
    gives sum c*^2 <= (E*(G-1) E*(H-1))^(1/2) over the nonzero shifts, and
    sum c* <= (G-1)(H-1); the energies here count 0, so E(G-1) = E*(G-1) +
    (2G-1)^2, and (2G-1)(2H-1) >= 2(G-1)(H-1) absorbs the cross term.
    The report keeps the stated form in collapsed_holds; the separated form
    follows from its integer fields.
    """

    n: int
    product_order: int
    energy_g: int
    energy_h: int
    lambda_square_sum: int
    collapsed_holds: bool
    intermediate_holds: bool


def _shifted_elements(p: int, sub: Subgroup, lam: int) -> np.ndarray:
    return (sub.as_array() + lam) % p


def lambda_square_sum(ctx: FieldCtx, s: Subgroup, g: Subgroup, h: Subgroup) -> int:
    """sum over lam in S of #{(g, h) in G x H : lam (g - 1) == h - 1}, squared."""
    p = ctx.p
    h_ind = np.zeros(p, dtype=np.int64)
    h_ind[_shifted_elements(p, h, p - 1)] = 1
    g_shift = _shifted_elements(p, g, p - 1)
    total = 0
    lams = s.as_array()
    for start in range(0, len(lams), 512):
        block = lams[start : start + 512]
        cnt = h_ind[(block[:, None] * g_shift[None, :]) % p].sum(axis=1)
        total += _dot(cnt, cnt)
    return total


def cauchy_step_report(ctx: FieldCtx, f: Subgroup, g: Subgroup, h: Subgroup) -> CauchyStepReport:
    """Audit both forms of the Cauchy step on (F, G, H), exactly in integers."""
    from .subgroups import product_set

    p = ctx.p
    n = n_triples(ctx, f, g, h, method="optimized").count
    s = product_set(ctx, [f, g, h])
    eg = shifted_energy(ctx, g, p - 1).count
    eh = shifted_energy(ctx, h, p - 1).count
    sq = lambda_square_sum(ctx, s, g, h)
    fo, go, ho = f.order, g.order, h.order
    collapsed = n**4 * s.order**2 <= fo**8 * go**4 * ho**4 * eg * eh
    intermediate = n**2 * s.order <= fo**4 * go**2 * ho**2 * sq
    return CauchyStepReport(
        n=n,
        product_order=s.order,
        energy_g=eg,
        energy_h=eh,
        lambda_square_sum=sq,
        collapsed_holds=collapsed,
        intermediate_holds=intermediate,
    )


def i_distribution(ctx: FieldCtx, ws, zs, method: str = "optimized") -> Distribution:
    """I(lam) = #{(w1,w2,z) : z (w1 - w2) == lam}, lam == 0 included."""
    p = ctx.p
    w = _as_array(ws)
    z = _as_array(zs)
    mass = len(w) ** 2 * len(z)
    if method == "optimized":
        if mass > FREQ_BUDGET:
            raise BudgetExceeded(f"I frequency product {mass} exceeds {FREQ_BUDGET}")
        if _is_subgroup(ws, zs):
            r = _on_residues(ctx, _class_r(ctx, ws, zs))
            r[0] = len(w) * len(z)
        else:
            r = _mult_conv(ctx, diff_counts(p, w), _table(p, z))
    elif method == "oracle":
        if mass > ORACLE_LOOP_BUDGET:
            raise BudgetExceeded(f"I oracle enumeration {mass} exceeds {ORACLE_LOOP_BUDGET}")
        r = np.zeros(p, dtype=np.int64)
        w_list = w.tolist()
        for w1 in w_list:
            for w2 in w_list:
                for zz in z.tolist():
                    r[zz * (w1 - w2) % p] += 1
    else:
        raise ValueError(f"unknown method {method!r}")
    return _distribution(r)
