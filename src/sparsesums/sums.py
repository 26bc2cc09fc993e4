"""Exact complex evaluation of character sums, bilinear and quadrilinear forms.

All sums are evaluated through FieldCtx tables: x**k = g_pow[k*dlog[x] mod p-1]
and chi_j(x) = chi_unit[j*dlog[x] mod p-1]. Final accumulation uses math.fsum
(exactly rounded) on the real and imaginary parts; large quadrilinear sums use
numpy pairwise block sums combined with fsum across blocks, which keeps the
rounding error orders of magnitude below the 1e-6 tolerances used by the
verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd

import numpy as np

from .errors import BudgetExceeded, NonzeroRequired
from .field import FieldCtx, SparsePoly

DECOMPOSITION_BUDGET = 10**9
QUADLINEAR_BUDGET = 10**8
GATHER_BLOCK = 2**22  # terms gathered at once by sum_decomposed


@dataclass(frozen=True)
class CharacterIndex:
    """Multiplicative character chi_j, defined by chi_j(g**t) = e((j*t)/(p-1))."""

    j: int

    def order(self, p: int) -> int:
        return (p - 1) // gcd(self.j % (p - 1), p - 1)


@dataclass(frozen=True)
class SumValue:
    value: complex
    magnitude: float
    term_count: int


def _csum(parts: np.ndarray) -> complex:
    flat = parts.ravel()
    return complex(fsum(flat.real), fsum(flat.imag))


def _make_sum(value: complex, term_count: int) -> SumValue:
    return SumValue(value=value, magnitude=abs(value), term_count=term_count)


def phase_values(ctx: FieldCtx, psi: SparsePoly) -> np.ndarray:
    """Psi(x) mod p for x = 1..p-1, via the discrete-log tables."""
    p = ctx.p
    t = np.arange(p - 1, dtype=np.int64)  # t = dlog of g**t
    acc = np.zeros(p - 1, dtype=np.int64)
    for c, k in psi.terms:
        acc = (acc + c * ctx.g_pow[(k * t) % (p - 1)]) % p
    # reorder from exponent order to residue order
    out = np.zeros(p, dtype=np.int64)
    out[ctx.g_pow] = acc
    return out[1:]


def term_array(ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex) -> np.ndarray:
    """chi(x) * e_p(Psi(x)) indexed by residue x (entry 0 is 0)."""
    p = ctx.p
    j = chi.j % (p - 1)
    out = np.zeros(p, dtype=np.complex128)
    xs = np.arange(1, p, dtype=np.int64)
    chi_vals = ctx.chi_unit[(j * ctx.dlog[xs]) % (p - 1)]
    out[1:] = chi_vals * ctx.e_table[phase_values(ctx, psi)]
    return out


def sum_exact(ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex) -> SumValue:
    """S = sum over x in F_p^* of chi(x) e_p(Psi(x))."""
    terms = term_array(ctx, psi, chi)[1:]
    return _make_sum(_csum(terms), ctx.p - 1)


def _gather_rows(p: int) -> int:
    """Rows of p-1 terms per sum_decomposed block: about GATHER_BLOCK terms, at least one row."""
    return max(1, GATHER_BLOCK // (p - 1))


def sum_decomposed(
    ctx: FieldCtx, psi: SparsePoly, chi: CharacterIndex, budget: int = DECOMPOSITION_BUDGET
) -> SumValue:
    """The subgroup-averaged form of S for a quadrinomial.

    Evaluates (1/(abc)) * sum over (x,y,z,w) in G_a x G_b x G_c x F_p^* of
    chi(wxyz) e_p(Psi(wxyz)), where a, b, c are the gcds of the first three
    exponents with p-1. Replacing w by w(xyz)^-1 shows this equals sum_exact;
    the evaluation here performs the quadruple summation (grouped by the value
    of xyz) rather than using that identity.
    """
    from .subgroups import subgroup_of_order

    if psi.t != 4:
        raise ValueError(f"need a quadrinomial, got t={psi.t}")
    p = ctx.p
    k, l, m, _ = psi.exponents
    a, b, c = (gcd(k, p - 1), gcd(l, p - 1), gcd(m, p - 1))
    if a * b * c * (p - 1) > budget:
        raise BudgetExceeded(
            f"decomposition enumeration {a}*{b}*{c}*{p - 1} exceeds {budget}"
        )
    ga = subgroup_of_order(ctx, a).as_array()
    gb = subgroup_of_order(ctx, b).as_array()
    gc_ = subgroup_of_order(ctx, c).as_array()
    xy = (ga[:, None] * gb[None, :]).reshape(-1) % p
    xyz = (xy[:, None] * gc_[None, :]).reshape(-1) % p
    counts = np.bincount(xyz, minlength=p)

    terms = term_array(ctx, psi, chi)
    ws = np.arange(1, p, dtype=np.int64)
    vs = np.nonzero(counts)[0]
    partials = []
    rows = _gather_rows(p)
    for start in range(0, len(vs), rows):
        block = vs[start : start + rows]
        inner = terms[(block[:, None] * ws[None, :]) % p].sum(axis=1)
        partials.append(inner * counts[block])
    total = _csum(np.concatenate(partials))
    return _make_sum(total / (a * b * c), a * b * c * (p - 1))


def bilinear_sum(
    ctx: FieldCtx,
    xs,
    ys,
    alpha_weights,
    beta_weights,
) -> SumValue:
    """sum over (x, y) of alpha_x beta_y e_p(xy); weights align positionally."""
    p = ctx.p
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    aw = np.asarray(alpha_weights, dtype=np.complex128)
    bw = np.asarray(beta_weights, dtype=np.complex128)
    if aw.shape != x.shape or bw.shape != y.shape:
        raise ValueError("weights must align with their sets")
    terms = (aw[:, None] * bw[None, :]) * ctx.e_table[(x[:, None] * y[None, :]) % p]
    return _make_sum(_csum(terms), len(x) * len(y))


def _sorted_with_perm(s) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(s, dtype=np.int64)
    perm = np.argsort(arr, kind="stable")
    return arr[perm], perm


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

    Weight containers are dense arrays indexed by set position; sets are sorted
    internally (with the weight axes permuted to match) so evaluation order is
    deterministic regardless of input order.
    """
    p = ctx.p
    if a % p == 0:
        raise NonzeroRequired("the twist a must be a nonzero residue")
    w, pw = _sorted_with_perm(ws)
    x, px = _sorted_with_perm(xs)
    y, py = _sorted_with_perm(ys)
    z, pz = _sorted_with_perm(zs)
    size = len(w) * len(x) * len(y) * len(z)
    if size > QUADLINEAR_BUDGET:
        raise BudgetExceeded(f"quadrilinear enumeration {size} exceeds {QUADLINEAR_BUDGET}")
    th = np.asarray(theta, dtype=np.complex128)[np.ix_(pw, px, py)]
    rh = np.asarray(rho, dtype=np.complex128)[np.ix_(pw, px, pz)]
    sg = np.asarray(sigma, dtype=np.complex128)[np.ix_(pw, py, pz)]
    ta = np.asarray(tau, dtype=np.complex128)[np.ix_(px, py, pz)]

    yz = (y[:, None] * z[None, :]) % p
    block_sums = np.empty((len(w), len(x)), dtype=np.complex128)
    for iw in range(len(w)):
        for ix in range(len(x)):
            c = a % p * w[iw] % p * x[ix] % p
            phases = ctx.e_table[(c * yz) % p]
            wmat = (th[iw, ix][:, None] * rh[iw, ix][None, :]) * sg[iw] * ta[ix]
            block_sums[iw, ix] = (wmat * phases).sum()
    return _make_sum(_csum(block_sums), size)


def unit_weights(*dims: int) -> np.ndarray:
    """All-ones weight array, the default in sweeps and examples."""
    return np.ones(dims, dtype=np.complex128)
