"""Exact combinatorial counts: multiplicative energy, difference-product counts.

Every quantity has two routes that must agree to the integer: an oracle
(brute-force comparison or direct enumeration, heavily size-gated) and an
optimized route. The d_times oracle enumerates all pairs of U for its
difference table and the outer product of that table's support in blocks of
ORACLE_BLOCK_PAIRS products, one np.add.at per block. Every optimized count
goes through one primitive, _cyclic_conv: the length-n cyclic convolution of
two supports (unit weights on multisets, or weights on distinct residues).

The set route takes any multiset of residues. The difference table
d = diff_counts(U) convolves the support of U with its negation on Z/p.
_mult_conv gives r(mu) = sum over x y == mu of a(x) b(y) for length-p
tables by convolving the discrete logs of the two supports on Z/(p-1)
(Rader's primitive-root reindexing): it returns
r(0) = a(0) |b| + b(0) |a| - a(0) b(0) and r[t] = r(g^t), with nothing
scattered back to residue order. D = r0^2 + sum r^2 for (d, d);
N = r0 r0' + sum r r' for (1_F, d_G) and (1_F, d_H); I and J are r for
(d_W, 1_Z) and (d_X, d_Y), read on residues with the mass at 0 set
explicitly. E(U, V) convolves the exponent multisets dlog(u), dlog(v) of the
nonzero elements; with z_U, z_V the multiplicities of 0,
r(0) = z_U |V| + z_V |U| - z_U z_V and E = r(0)^2 + sum r^2.

The class route is taken by d_times, n_triples, i_distribution and
j_distribution when every set argument is a Subgroup. Write n = p-1 and, for
a subgroup X of order d_X, m_X = n / d_X. A table invariant under X is a
function of the class dlog(x) mod m_X; the difference table of X is
d_X(0) = d_X and d_X(a) = A_X[dlog a mod m_X] for a != 0, where
A_X[c] = #{u in X, u != 1 : dlog(u - 1) mod m_X == c} are the cyclotomic
numbers of order m_X (Storer, Cyclotomy and Difference Sets, 1967), counted
once per subgroup (Subgroup.classes). For class vectors x on Z/m_x and y on
Z/m_y, with q = gcd(m_x, m_y) and x|q the fibre sum of x onto Z/q, the
multiplicative convolution is the length-q cyclic one
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

_cyclic_conv enumerates the pairs of its supports in int64, a bincount of
the pair sums for unit weights and np.add.at for weighted pairs, in blocks
of about 2**22 pairs, unless its length n exceeds DIRECT_CONV_MAX and the
pairs exceed ENUM_PAIRS_PER_POINT * n (both measured crossovers); then it
takes a float64 FFT of zero-padded power-of-two length, rounded only when
an a priori error bound from the inputs' norms and the length (Percival,
Math. Comp. 72, 2003) is below 1/4, else it enumerates. Sums of squares use
int64 only where no partial sum can overflow.
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
DTIMES_OPT_P_MAX = 10**6         # p cap for the optimized set route
FREQ_BUDGET = 10**8              # frequency-table products
ORACLE_BLOCK_PAIRS = 2**18       # products per np.add.at in the d_times oracle
DIRECT_CONV_MAX = 48             # at or below this length _cyclic_conv enumerates
ENUM_PAIRS_PER_POINT = 10        # above it, it transforms past this many pairs per point


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


def _dense(n: int, s: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Length-n table of a support: the counts of s, or w placed at s."""
    if w is None:
        return np.bincount(s, minlength=n)
    x = np.zeros(n, dtype=np.int64)
    x[s] = w
    return x


def _supports(x: np.ndarray, y: np.ndarray):
    """(sx, sy, x[sx], y[sy]) over the nonzero entries of two tables, the
    arguments of _cyclic_conv after n; the same arrays when y is x."""
    sx = np.flatnonzero(x)
    sy, wx = sx if y is x else np.flatnonzero(y), x[sx]
    return sx, sy, wx, wx if y is x else y[sy]


def _cyclic_conv(n: int, xs: np.ndarray, ys: np.ndarray, wx=None, wy=None) -> np.ndarray:
    """r[t] = sum over xs[i] + ys[j] == t mod n of wx[i] wy[j], for residues
    in [0, n): unit weights on multisets when wx and wy are None, else weights
    on distinct residues. An FFT where it pays and its bound allows, else the
    pairs enumerated in blocks; exact while the total mass, which the
    callers' budgets bound, is < 2**63."""
    if _transform_pays(len(xs) * len(ys), n):
        x = _dense(n, xs, wx)
        conv = _cyclic_fft(x, x if ys is xs and wy is wx else _dense(n, ys, wy), n)
        if conv is not None:
            return conv
    r = None if wx is None else np.zeros(n, dtype=np.int64)
    step = max(1, 2**22 // max(1, len(ys)))
    for i in range(0, max(1, len(xs)), step):
        keys = xs[i : i + step, None] + ys
        keys = np.remainder(keys, n, out=keys).reshape(-1)
        if wx is not None:
            np.add.at(r, keys, (wx[i : i + step, None] * wy).reshape(-1))
        elif r is None:
            r = np.bincount(keys, minlength=n)  # the first block accumulates the rest
        else:
            r += np.bincount(keys, minlength=n)
    return r


def diff_counts(p: int, u) -> np.ndarray:
    """d[a] = #{(x, y) in U^2 : x - y == a mod p}, length-p table: the autocorrelation."""
    xs, wx = np.unique(np.asarray(u, dtype=np.int64) % p, return_counts=True)
    return _cyclic_conv(p, xs, (p - xs) % p, wx, wx)


def _mult_conv(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """(r(0), r[t] = r(g**t)) for r(mu) = sum over x y == mu mod p of a[x] b[y],
    length-p count tables: products of the supports are sums of their dlogs."""
    a1 = a[1:]
    sa, sb, wa, wb = _supports(a1, a1 if b is a else b[1:])
    ea = ctx.dlog[sa + 1]
    eb = ea if sb is sa else ctx.dlog[sb + 1]
    a0, b0 = int(a[0]), int(b[0])
    return a0 * int(b.sum()) + b0 * int(a.sum()) - a0 * b0, _cyclic_conv(ctx.p - 1, ea, eb, wa, wb)


def _fold(x: np.ndarray, q: int) -> np.ndarray:
    """Fibre sum of a vector on Z/len(x) onto Z/q, for q dividing len(x)."""
    return x.reshape(-1, q).sum(axis=0)


def _class_r(ctx: FieldCtx, x: Subgroup, z: Subgroup) -> np.ndarray:
    """r_XZ(mu != 0) = sum over a z == mu of d_X(a) 1_Z(z) on Z/gcd(m_X, m_Z)."""
    n = ctx.p - 1
    q = math.gcd(n // x.order, n // z.order)
    return math.gcd(x.order, z.order) * _fold(x.classes(ctx), q)


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
        r = _cyclic_conv(p - 1, eu, ev)
        return CountValue(count=r0 * r0 + _dot(r, r), method=method)
    if method == "oracle":
        if n > ORACLE_PAIR_BUDGET:
            raise BudgetExceeded(f"oracle pair comparison at n={n} exceeds {ORACLE_PAIR_BUDGET}")
        prods = ((u[:, None] * v[None, :]) % p).reshape(-1)
        return CountValue(count=_equal_pairs(prods, prods), method=method)
    raise ValueError(f"unknown method {method!r}")


def _equal_pairs(left: np.ndarray, right: np.ndarray) -> int:
    """#{(i, j) : left[i] == right[j]}, compared in blocks of 512 rows."""
    total = 0
    for start in range(0, len(left), 512):
        total += int((left[start : start + 512, None] == right[None, :]).sum())
    return total


def shifted_energy(ctx: FieldCtx, g, lam: int, method: str = "optimized") -> CountValue:
    """mult_energy of the shifted set G + lam (which may contain 0), for a
    subgroup or any list of residues."""
    shifted = (_as_array(g) % ctx.p + lam % ctx.p) % ctx.p
    return mult_energy(ctx, shifted, shifted, method=method)


def _difference_values(p: int, s: np.ndarray) -> np.ndarray:
    return ((s[:, None] - s[None, :]) % p).reshape(-1)


def d_times(ctx: FieldCtx, us, method: str = "optimized") -> CountValue:
    """Solutions of (u1-v1)(u2-v2) == (u3-v3)(u4-v4) over U, all eight free.

    Every route goes through the difference table d(a) and the answer is the
    sum of r(mu)^2 for r(mu) = sum over ab == mu of d(a) d(b). The oracle
    counts d over all pairs of U and accumulates the outer product of its
    support directly, in blocks; the optimized route is the class route for a
    subgroup, else _mult_conv(d, d).
    """
    p = ctx.p
    if method == "optimized" and _is_subgroup(us):
        d = us.order
        a = us.classes(ctx)
        conv = _cyclic_conv(len(a), *_supports(a, a))
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
        if len(u) ** 2 > FREQ_BUDGET or p > DTIMES_OPT_P_MAX:
            raise BudgetExceeded(f"|U|^2={len(u) ** 2}, p={p} out of optimized range")
        d = diff_counts(p, u)
        r0, r = _mult_conv(ctx, d, d)  # r0 == 2 d(0) |U|^2 - d(0)^2
        return CountValue(count=r0 * r0 + _dot(r, r), method=method)

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
        r0_fg, r_fg = _mult_conv(ctx, table_f, diff_counts(p, g))
        same = np.array_equal(g, h)
        r0_fh, r_fh = (r0_fg, r_fg) if same else _mult_conv(ctx, table_f, diff_counts(p, h))
        return CountValue(count=r0_fg * r0_fh + _dot(r_fg, r_fh), method=method)
    if method == "oracle":
        if left_n > ORACLE_PAIR_BUDGET or right_n > ORACLE_PAIR_BUDGET:
            raise BudgetExceeded(
                f"oracle pair comparison {left_n}x{right_n} exceeds {ORACLE_PAIR_BUDGET}"
            )
        left = ((f[:, None] * _difference_values(p, g)[None, :]) % p).reshape(-1)
        right = ((f[:, None] * _difference_values(p, h)[None, :]) % p).reshape(-1)
        return CountValue(count=_equal_pairs(left, right), method=method)
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
            a_y = _fold(ys.classes(ctx), len(r_xy))
            dx, dy = len(x), len(y)
            zero_count = dx * dy * dy + dy * dx * dx - dx * dy
            v = _cyclic_conv(len(r_xy), *_supports(r_xy, a_y))
        else:
            zero_count, v = _mult_conv(ctx, diff_counts(p, x), diff_counts(p, y))
        r = _on_residues(ctx, v)
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


def lambda_square_sum(ctx: FieldCtx, s: Subgroup, g: Subgroup, h: Subgroup) -> int:
    """sum over lam in S of #{(g, h) in G x H : lam (g - 1) == h - 1}, squared."""
    p = ctx.p
    h_ind = np.zeros(p, dtype=np.int64)
    h_ind[(h.as_array() - 1) % p] = 1
    g_shift = (g.as_array() - 1) % p
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
            r0, v = len(w) * len(z), _class_r(ctx, ws, zs)
        else:
            r0, v = _mult_conv(ctx, diff_counts(p, w), _table(p, z))
        r = _on_residues(ctx, v)
        r[0] = r0
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
