"""Multiplicative subgroups, power-map images, and the gcd parameter pack.

The bound machinery needs, for exponents (k, l, m, n) of a quadrinomial, the
gcds with p-1 and the reduced quotients

    f = alpha / gcd(alpha, delta),  g = beta / gcd(beta, delta),
    h = gamma / gcd(gamma, delta),

ordered f >= g >= h. The roles of the first three exponents are
interchangeable (the sum is symmetric in its terms), so `canonical` mode
permutes only those; `best` mode additionally tries each exponent in the
delta role and returns all four candidate packs for downstream selection.

A subgroup is built once per field context: `subgroup_of_order` memoizes on
the FieldCtx, so the cache lives and dies with the context (one entry in a
sweep's `cached_ctx`). Its `as_array()` is one cached int64 array, marked
read-only because every caller that asks for the subgroup shares it; the
`elements` tuple of Python ints stays the canonical value. Its cyclotomic
class vector `classes(ctx)` is counted once and shared the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import NonUniformImage, NotADivisor
from .field import FieldCtx, divisors


@dataclass(frozen=True)
class Subgroup:
    """The unique multiplicative subgroup of a given order d | p-1."""

    order: int
    elements: tuple[int, ...]  # sorted residues

    def __len__(self) -> int:
        return self.order

    def as_array(self) -> np.ndarray:
        """The elements as one shared, read-only int64 array."""
        return self._array

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.asarray(self.elements, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def classes(self, ctx: FieldCtx) -> np.ndarray:
        """A on Z/m, m = (p-1)/order, with A[c] = #{u != 1 : dlog(u - 1) mod m == c}:
        the cyclotomic numbers of order m. Counted on the first call, in the
        context that built the subgroup, then shared and read-only."""
        if "_classes" not in self.__dict__:  # stored as cached_property stores
            self.__dict__["_classes"] = _count_classes(ctx, self)
        return self.__dict__["_classes"]


def _count_classes(ctx: FieldCtx, sub: Subgroup) -> np.ndarray:
    m = (ctx.p - 1) // sub.order
    u = sub.as_array()
    classes = np.bincount(ctx.dlog[u[u != 1] - 1] % m, minlength=m)
    classes.flags.writeable = False
    return classes


def subgroup_of_order(ctx: FieldCtx, d: int) -> Subgroup:
    """Elements x with x**d == 1 mod p, i.e. the image of g**((p-1)/d).

    Built once per context and order; later calls return the same object.
    """
    sub = ctx.subgroups.get(d)
    if sub is None:
        if d < 1 or (ctx.p - 1) % d != 0:
            raise NotADivisor(f"order {d} does not divide p-1={ctx.p - 1}")
        elems = np.sort(ctx.g_pow[:: (ctx.p - 1) // d])  # g**(k (p-1)/d), k < d
        sub = ctx.subgroups[d] = Subgroup(order=d, elements=tuple(elems.tolist()))
    return sub


def all_subgroups(ctx: FieldCtx) -> list[Subgroup]:
    """Every subgroup of F_p^*, ordered by increasing order."""
    return [subgroup_of_order(ctx, d) for d in divisors(ctx.p - 1)]


def product_set(ctx: FieldCtx, subgroups: list[Subgroup]) -> Subgroup:
    """Set of all products a_1 * ... * a_r, one factor per subgroup.

    For subgroups of a cyclic group this is again a subgroup, of order
    lcm(orders); the enumeration result is asserted against that closed form.
    """
    if not subgroups:
        raise ValueError("need at least one subgroup")
    acc = subgroups[0].as_array()
    for sub in subgroups[1:]:
        prods = np.sort(((acc[:, None] * sub.as_array()[None, :]) % ctx.p).reshape(-1))
        acc = prods[np.concatenate(([True], prods[1:] != prods[:-1]))]  # sorted, distinct
    expected = subgroup_of_order(ctx, lcm(*[s.order for s in subgroups]))
    if not np.array_equal(acc, expected.as_array()):
        raise AssertionError(
            f"product set of orders {[s.order for s in subgroups]} is not the "
            f"lcm-order subgroup (p={ctx.p})"
        )
    return expected


@dataclass(frozen=True)
class ImageWithMultiplicity:
    """Image of a power map together with its (uniform) fiber size."""

    image: tuple[int, ...]  # sorted residues
    multiplicity: int
    source_size: int


def power_image(ctx: FieldCtx, source: Subgroup | None, n: int) -> ImageWithMultiplicity:
    """Image of x -> x**n on a subgroup (or, with source=None, on all of F_p^*).

    The closed forms: on the full group the image has (p-1)/delta elements with
    multiplicity delta = gcd(n, p-1); on a subgroup of order a it has
    a/gcd(a, n) elements with multiplicity gcd(a, n). Uniformity is verified by
    counting rather than assumed.
    """
    p = ctx.p
    if source is None:
        xs = np.arange(1, p, dtype=np.int64)
    else:
        xs = source.as_array()
    k = n % (p - 1)
    if k == 0:
        values = np.ones_like(xs)
    else:
        values = ctx.g_pow[(k * ctx.dlog[xs]) % (p - 1)]
    image, counts = np.unique(values, return_counts=True)
    mult = int(counts[0])
    if not np.all(counts == mult):
        raise NonUniformImage(
            f"power map x**{n} on source of size {len(xs)} has fibers {set(counts.tolist())}"
        )
    return ImageWithMultiplicity(
        image=tuple(int(x) for x in image), multiplicity=mult, source_size=len(xs)
    )


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

    @property
    def p_over_delta(self) -> float:
        return self.p / self.delta


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
