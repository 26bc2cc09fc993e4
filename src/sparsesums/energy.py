"""Exact combinatorial counts: multiplicative energy, difference-product counts.

Every quantity has two routes that must agree to the integer: an oracle
(brute-force comparison or direct enumeration, heavily size-gated) and an
optimized route. The d_times oracle enumerates all pairs of U for its
difference table and the outer product of that table's support in blocks of
ORACLE_BLOCK_PAIRS products, one np.add.at per block. Every optimized count
goes through one primitive, _cyclic_conv: the length-n cyclic convolution of
two supports (unit weights on multisets, or weights on distinct residues).

Every optimized count holds its tables in one periodic form
(t(0), |t|, m, e, w): the value at 0, the total mass, a period m dividing
n = p-1, and distinct exponents e mod m with weights w, so t(g^k) = w[i]
when k == e[i] mod m. A multiset U that is not a Subgroup lives on m = n:
its multiplicity table, or its difference table d = diff_counts(U) (the
support of U convolved with its negation on Z/p), at the discrete logs of
its nonzero residues (Rader's primitive-root reindexing). A subgroup X of
order d_X lives on m_X = n / d_X: its indicator 1_X is the one point 0,
and its difference table is d_X(0) = d_X and d_X(a) = A_X[dlog a mod m_X]
for a != 0, where A_X[c] = #{u in X, u != 1 : dlog(u - 1) mod m_X == c}
are the cyclotomic numbers of order m_X (Storer, Cyclotomy and Difference
Sets, 1967), counted once per subgroup (Subgroup.classes).

_mult_conv gives r(mu) = sum over x y == mu of a(x) b(y). With
q = gcd(m_a, m_b) and a|q the fibre sum of a onto Z/q,
r(0) = a(0) |b| + b(0) |a| - a(0) b(0) and r(g^t) = c v[t mod q] for
v = a|q * b|q, a length-q cyclic convolution (a shifted fold when one table
is a single point, as a subgroup's indicator is), and c = n / lcm(m_a, m_b).
So D = r0^2 + c^2 (n/q) sum v^2 for (d_U, d_U); N = r0 r0' + c c' times
the sum over t in Z/n of v[t mod q] v'[t mod q'] (_class_dot) for
(1_F, d_G) and (1_F, d_H); I and J are r for (d_W, 1_Z) and (d_X, d_Y),
read on residues with the mass at 0 set explicitly. On subgroups
c = gcd(d_X, d_Y), and with q = gcd of the two class periods:

    r_XZ(mu != 0) = gcd(d_X, d_Z) A_X|q[dlog mu mod q]    (r for (d_X, 1_Z)),
    D(G)       = r0^2 + d^3 sum (A * A)^2,  r0 = 2 d^3 - d^2,
    N(F, G, H) = d_F^2 d_G d_H + sum over mu != 0 of r_GF r_HF,
    I(0)       = d_W d_Z,  I(lam != 0) = r_WZ(lam),
    J(mu != 0) = gcd(d_X, d_Y) (A_X|q * A_Y|q)[dlog mu mod q],
    zero_count = d_X d_Y^2 + d_Y d_X^2 - d_X d_Y:

O(d + m) work and no length-p transform when every argument is a
Subgroup. E(U, V) convolves the exponent multisets dlog(u), dlog(v) of the
nonzero elements; with z_U, z_V the multiplicities of 0,
r(0) = z_U |V| + z_V |U| - z_U z_V and E = r(0)^2 + sum r^2.

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


def _indicator(ctx: FieldCtx, s) -> tuple:
    """The multiplicity table of s; a subgroup's is the one point 0 on its classes."""
    if isinstance(s, Subgroup):
        return 0, s.order, (ctx.p - 1) // s.order, np.zeros(1, np.int64), np.ones(1, np.int64)
    xs, w = np.unique(np.asarray(s, dtype=np.int64) % ctx.p, return_counts=True)
    k = int(len(xs) > 0 and xs[0] == 0)  # 0 sorts first
    return int(w[:k].sum()), len(s), ctx.p - 1, ctx.dlog[xs[k:]], w[k:]


def _differences(ctx: FieldCtx, s) -> tuple:
    """The difference table of s; a subgroup's lives on its cyclotomic classes."""
    if isinstance(s, Subgroup):
        a = s.classes(ctx)
        e = np.flatnonzero(a)
        return s.order, s.order**2, len(a), e, a[e]
    d = diff_counts(ctx.p, s)
    xs = np.flatnonzero(d[1:]) + 1
    return int(d[0]), len(s) ** 2, ctx.p - 1, ctx.dlog[xs], d[xs]


def _fold(q: int, m: int, e: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support (e, w) of period m folded onto Z/q, q dividing m; itself when q == m."""
    if q == m:
        return e, w
    x = np.zeros(q, dtype=np.int64)
    np.add.at(x, e % q, w)
    s = np.flatnonzero(x)
    return s, x[s]


def _mult_conv(ctx: FieldCtx, a: tuple, b: tuple) -> tuple[int, int, np.ndarray]:
    """(r(0), c, v) with r(g**t) = c v[t mod len(v)] for r(mu) = sum over
    x y == mu mod p of a(x) b(y), two tables in periodic form."""
    if len(a[3]) == 1:
        a, b = b, a  # a one-point table shifts and scales the other
    (a0, na, ma, ea, wa), (b0, nb, mb, eb, wb) = a, b
    q = math.gcd(ma, mb)
    xs, wx = _fold(q, ma, ea, wa)
    if len(eb) == 1:
        v = np.zeros(q, dtype=np.int64)
        v[(xs + eb[0]) % q] = wx * wb[0]  # xs are distinct mod q
    else:
        ys, wy = (xs, wx) if b is a else _fold(q, mb, eb, wb)
        v = _cyclic_conv(q, xs, ys, wx, wy)
    return a0 * nb + b0 * na - a0 * b0, (ctx.p - 1) // math.lcm(ma, mb), v


def _class_dot(n: int, r1: np.ndarray, r2: np.ndarray) -> int:
    """Sum over t in Z/n of r1[t mod len(r1)] r2[t mod len(r2)]."""
    g, period = math.gcd(len(r1), len(r2)), math.lcm(len(r1), len(r2))
    r1, r2 = (r.reshape(-1, g).sum(axis=0) for r in (r1, r2))
    return n // period * _dot(r1, r2)


def _on_residues(ctx: FieldCtx, c: int, v: np.ndarray) -> np.ndarray:
    """Length-p table t with t[0] = 0 and t[a] = c v[dlog a mod len(v)]."""
    return np.concatenate(([0], (c * v)[ctx.dlog[1:] % len(v)]))


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
    support directly, in blocks; the optimized route is _mult_conv(d, d).
    """
    p = ctx.p
    if method == "oracle":
        u = _as_array(us)
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
        if not isinstance(us, Subgroup) and (len(us) ** 2 > FREQ_BUDGET or p > DTIMES_OPT_P_MAX):
            raise BudgetExceeded(f"|U|^2={len(us) ** 2}, p={p} out of optimized range")
        d = _differences(ctx, us)
        r0, c, v = _mult_conv(ctx, d, d)  # r0 == 2 d(0) |U|^2 - d(0)^2
        return CountValue(count=r0 * r0 + c * c * ((p - 1) // len(v)) * _dot(v, v), method=method)

    raise ValueError(f"unknown method {method!r}")


def n_triples(
    ctx: FieldCtx, fs, gs, hs, method: str = "optimized"
) -> CountValue:
    """Solutions of f1 (g1 - g2) == f2 (h1 - h2)."""
    p = ctx.p
    left_n = len(fs) * len(gs) ** 2
    right_n = len(fs) * len(hs) ** 2
    if method == "optimized":
        if left_n > FREQ_BUDGET or right_n > FREQ_BUDGET:
            raise BudgetExceeded(
                f"triple tables {left_n}/{right_n} exceed {FREQ_BUDGET}"
            )
        ind_f = _indicator(ctx, fs)
        fg = _mult_conv(ctx, ind_f, _differences(ctx, gs))
        fh = fg if hs is gs else _mult_conv(ctx, ind_f, _differences(ctx, hs))
        (r0_g, c_g, v_g), (r0_h, c_h, v_h) = fg, fh
        count = r0_g * r0_h + c_g * c_h * _class_dot(p - 1, v_g, v_h)
        return CountValue(count=count, method=method)
    if method == "oracle":
        if left_n > ORACLE_PAIR_BUDGET or right_n > ORACLE_PAIR_BUDGET:
            raise BudgetExceeded(
                f"oracle pair comparison {left_n}x{right_n} exceeds {ORACLE_PAIR_BUDGET}"
            )
        f, g, h = map(_as_array, (fs, gs, hs))
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
    mass = len(xs) ** 2 * len(ys) ** 2
    if method == "optimized":
        if mass > FREQ_BUDGET:
            raise BudgetExceeded(f"J frequency product {mass} exceeds {FREQ_BUDGET}")
        zero_count, c, v = _mult_conv(ctx, _differences(ctx, xs), _differences(ctx, ys))
        r = _on_residues(ctx, c, v)
    elif method == "oracle":
        if mass > ORACLE_LOOP_BUDGET:
            raise BudgetExceeded(f"J oracle enumeration {mass} exceeds {ORACLE_LOOP_BUDGET}")
        r = np.zeros(p, dtype=np.int64)
        zero_count = 0
        dx_list = _difference_values(p, _as_array(xs)).tolist()
        dy_list = _difference_values(p, _as_array(ys)).tolist()
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
    mass = len(ws) ** 2 * len(zs)
    if method == "optimized":
        if mass > FREQ_BUDGET:
            raise BudgetExceeded(f"I frequency product {mass} exceeds {FREQ_BUDGET}")
        r0, c, v = _mult_conv(ctx, _differences(ctx, ws), _indicator(ctx, zs))
        r = _on_residues(ctx, c, v)
        r[0] = r0
    elif method == "oracle":
        if mass > ORACLE_LOOP_BUDGET:
            raise BudgetExceeded(f"I oracle enumeration {mass} exceeds {ORACLE_LOOP_BUDGET}")
        r = np.zeros(p, dtype=np.int64)
        w_list, z_list = _as_array(ws).tolist(), _as_array(zs).tolist()
        for w1 in w_list:
            for w2 in w_list:
                for zz in z_list:
                    r[zz * (w1 - w2) % p] += 1
    else:
        raise ValueError(f"unknown method {method!r}")
    return _distribution(r)
