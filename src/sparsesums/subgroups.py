"""Multiplicative subgroups, power-map images, and the gcd parameter pack.

The bound machinery needs, for exponents (k, l, m, n) of a quadrinomial, the
gcds with p-1 and the reduced quotients

    f = alpha / gcd(alpha, delta),  g = beta / gcd(beta, delta),
    h = gamma / gcd(gamma, delta),

ordered f >= g >= h. The roles of the first three exponents are
interchangeable (the sum is symmetric in its terms), so `canonical` mode
permutes only those; `best` mode additionally tries each exponent in the
delta role and returns all four candidate packs for downstream selection.

A subgroup is the triple (p, order, array): the array, its elements sorted as
int64 and read-only, is the canonical value and the one stored; `elements` is
a tuple of Python ints made from it on each access. Each order has exactly
one subgroup, so two subgroups are equal, and hash alike, when their p and
order are. `subgroup_of_order` builds the array once per field context and
memoizes the subgroup on the FieldCtx, so the cache lives and dies with the
context (one entry in a sweep's `cached_ctx`). Its cyclotomic class vector
`classes(ctx)` is counted once and shared the same way.

F_p^* is cyclic, so products and power images are again subgroups, read off
in closed form rather than enumerated: the product of subgroups of orders
a_1, ..., a_r is the subgroup of order lcm(a_i), and x -> x**n maps the
subgroup of order a onto the one of order a/gcd(a, n), gcd(a, n) to one. The
test suite checks both against brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

import numpy as np

from .errors import NotADivisor
from .field import FieldCtx, divisors


@dataclass(frozen=True)
class Subgroup:
    """The unique multiplicative subgroup of a given order d | p-1."""

    p: int
    order: int
    array: np.ndarray = field(compare=False, repr=False)  # sorted residues, read-only int64

    def __len__(self) -> int:
        return self.order

    def as_array(self) -> np.ndarray:
        """The elements as one shared, read-only int64 array."""
        return self.array

    @property
    def elements(self) -> tuple[int, ...]:
        """The sorted elements as Python ints."""
        return tuple(self.array.tolist())

    def classes(self, ctx: FieldCtx) -> np.ndarray:
        """A on Z/m, m = (p-1)/order, with A[c] = #{u != 1 : dlog(u - 1) mod m == c}:
        the cyclotomic numbers of order m. Counted on the first call, then
        shared and read-only."""
        check_field(ctx, self)
        if "_classes" not in self.__dict__:  # stored as cached_property stores
            self.__dict__["_classes"] = _count_classes(ctx, self)
        return self.__dict__["_classes"]


def _count_classes(ctx: FieldCtx, sub: Subgroup) -> np.ndarray:
    m = (ctx.p - 1) // sub.order
    u = sub.array
    classes = np.bincount(ctx.dlog[u[u != 1] - 1] % m, minlength=m)
    classes.flags.writeable = False
    return classes


def check_field(ctx: FieldCtx, *subs: Subgroup) -> None:
    """Raise ValueError unless every subgroup in subs lies in ctx's field F_p^*."""
    for sub in subs:
        if sub.p != ctx.p:
            raise ValueError(f"subgroup of order {sub.order} of F_{sub.p}^* used with p={ctx.p}")


def check_order(p: int, d: int) -> None:
    """Raise NotADivisor unless d | p-1, the order of a subgroup of F_p^*."""
    if d < 1 or (p - 1) % d != 0:
        raise NotADivisor(f"order {d} does not divide p-1={p - 1}")


def subgroup_of_order(ctx: FieldCtx, d: int) -> Subgroup:
    """Elements x with x**d == 1 mod p, i.e. the image of g**((p-1)/d).

    Built once per context and order; later calls return the same object.
    """
    sub = ctx.subgroups.get(d)
    if sub is None:
        check_order(ctx.p, d)
        arr = ctx.g_pow[:: (ctx.p - 1) // d].astype(np.int64)  # g**(k (p-1)/d), k < d
        arr.sort()  # in the widened copy: the one copy made
        arr.flags.writeable = False
        sub = ctx.subgroups[d] = Subgroup(ctx.p, d, arr)
    return sub


def all_subgroups(ctx: FieldCtx) -> list[Subgroup]:
    """Every subgroup of F_p^*, ordered by increasing order."""
    return [subgroup_of_order(ctx, d) for d in divisors(ctx.p - 1)]


def product_set(ctx: FieldCtx, subgroups: list[Subgroup]) -> Subgroup:
    """Set of all products a_1 * ... * a_r, one factor per subgroup: in the
    cyclic group F_p^* the subgroup of order lcm(orders)."""
    if not subgroups:
        raise ValueError("need at least one subgroup")
    check_field(ctx, *subgroups)
    return subgroup_of_order(ctx, lcm(*(s.order for s in subgroups)))


@dataclass(frozen=True)
class ImageWithMultiplicity:
    """Image of a power map together with its (uniform) fiber size."""

    image: Subgroup
    multiplicity: int
    source_size: int


def power_image(ctx: FieldCtx, source: Subgroup | None, n: int) -> ImageWithMultiplicity:
    """Image of x -> x**n on a subgroup (or, with source=None, on all of F_p^*).

    On the cyclic source of order a (a = p-1 for the full group) the image is
    the subgroup of order a/gcd(a, n), each element hit gcd(a, n) times.
    """
    if source is not None:
        check_field(ctx, source)
    a = ctx.p - 1 if source is None else source.order
    k = gcd(a, n)
    return ImageWithMultiplicity(subgroup_of_order(ctx, a // k), multiplicity=k, source_size=a)


@dataclass(frozen=True)
class GcdParams:
    """Parameter pack (alpha, beta, gamma, delta, f, g, h) for a quadrinomial.

    role_perm[i] is the index (into the input exponent tuple) assigned to role
    i, roles ordered (k, l, m, n); the n-role exponent supplies delta.
    """

    p: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    f: int
    g: int
    h: int
    role_perm: tuple[int, int, int, int]


def _pack_for_delta_role(p: int, exps: tuple[int, int, int, int], delta_pos: int) -> GcdParams:
    delta = gcd(exps[delta_pos], p - 1)
    rest = [i for i in range(4) if i != delta_pos]
    scored = []
    for pos in rest:
        a = gcd(exps[pos], p - 1)
        scored.append((a // gcd(a, delta), a, pos))
    # descending quotient; ties keep input order for determinism
    scored.sort(key=lambda t: (-t[0], t[2]))
    (f, alpha, pf), (g, beta, pg), (h, gamma, ph) = scored
    # f*delta = lcm(alpha, delta) divides p-1, so f <= p/delta always
    assert f * delta < p, (p, exps, delta_pos)
    return GcdParams(
        p=p, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
        f=f, g=g, h=h, role_perm=(pf, pg, ph, delta_pos),
    )


def gcd_params(
    p: int, k: int, l: int, m: int, n: int, mode: str = "canonical"
) -> GcdParams | tuple[GcdParams, ...]:
    """Gcd parameter pack(s) for exponents (k, l, m, n) of a quadrinomial.

    canonical: the last exponent keeps the delta role; the first three are
    permuted so f >= g >= h. best: all four delta-role assignments are
    returned (a 4-tuple) for the caller to minimize over.
    """
    exps = (k, l, m, n)
    if any(e < 1 for e in exps):
        raise ValueError(f"exponents must be >= 1, got {exps}")
    if mode == "canonical":
        return _pack_for_delta_role(p, exps, 3)
    if mode == "best":
        return tuple(_pack_for_delta_role(p, exps, i) for i in range(4))
    raise ValueError(f"mode must be 'canonical' or 'best', got {mode!r}")
