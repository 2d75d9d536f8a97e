"""Truncated Laurent series in 1/t over F_q, the character e(.), and
rational approximation.

A series stores coefficients from its top degree down to degree -prec and
refuses to answer below that: precision is tracked through every operation
and a query past it raises instead of returning a silent zero.  The torus T
is the set of series of norm < 1; e(alpha) = e_q((alpha)_{-1}) is the
additive character, represented throughout by its omega_p exponent
Tr((alpha)_{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityCheckError, PrecisionExceeded
from .fields import FieldCtx
from .polys import Poly

__all__ = [
    "LaurentSeries",
    "RationalApprox",
    "from_rational",
    "dirichlet_approx",
    "sample_torus",
]


class LaurentSeries:
    """Element of F_q((1/t)) truncated below degree -prec."""

    __slots__ = ("ctx", "top", "coeffs")

    def __init__(self, ctx: FieldCtx, top: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series must store at least one coefficient")
        for c in coeffs:
            if not (0 <= c < ctx.q):
                raise ValueError(f"coefficient code {c} outside [0, {ctx.q})")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls, ctx, prec: int):
        return cls(ctx, -1, (0,) * prec)

    @classmethod
    def from_coeff_map(cls, ctx, coeff_map: dict, prec: int):
        """Build from {degree: code}; degrees below -prec are rejected."""
        top = max(list(coeff_map) + [-1])
        if min(coeff_map, default=0) < -prec:
            raise ValueError("coefficient below requested precision")
        coeffs = [coeff_map.get(d, 0) for d in range(top, -prec - 1, -1)]
        return cls(ctx, top, coeffs)

    @classmethod
    def parse(cls, ctx, text: str):
        """Parse "m:c_m,c_{m-1},...,c_{-prec}", e.g. "-1:1,0,1"."""
        head, _, tail = text.partition(":")
        return cls(ctx, int(head), [int(c) for c in tail.split(",")])

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1 - self.top

    def coefficient(self, d: int) -> int:
        if d > self.top:
            return 0
        if d < -self.prec:
            raise PrecisionExceeded(
                f"coefficient of t^{d} below tracked precision {self.prec}"
            )
        return self.coeffs[self.top - d]

    def frac_coeffs(self, count: int) -> np.ndarray:
        """The codes alpha_(-1), ..., alpha_(-count) as an int64 array: what
        coefficient(-1 - i) gives for i < count, from one slice."""
        if count > self.prec:
            raise PrecisionExceeded(
                f"coefficient of t^{-1 - self.prec} below tracked precision {self.prec}"
            )
        start = self.top + 1  # the index of degree -1, negative if top < -1
        zeros = min(max(-start, 0), count)
        out = np.zeros(count, dtype=np.int64)
        out[zeros:] = self.coeffs[start + zeros : start + count]
        return out

    def norm_degree(self):
        """Degree of the leading nonzero stored coefficient, or None if the
        series is zero to working precision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.top - i
        return None

    def norm(self) -> float:
        d = self.norm_degree()
        return 0.0 if d is None else float(self.ctx.q) ** d

    def in_torus(self) -> bool:
        """No stored coefficient of degree >= 0 is nonzero."""
        return not any(self.coeffs[: max(self.top + 1, 0)])

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries) or self.ctx is not other.ctx:
            return NotImplemented
        lo = max(-self.prec, -other.prec)
        hi = max(self.top, other.top)
        return all(
            self.coefficient(d) == other.coefficient(d) for d in range(lo, hi + 1)
        )

    def __hash__(self):
        raise TypeError("LaurentSeries compares up to precision; not hashable")

    def __add__(self, other):
        ctx = self.ctx
        top = max(self.top, other.top)
        prec = min(self.prec, other.prec)
        coeffs = [
            ctx.add(self.coefficient(d), other.coefficient(d))
            for d in range(top, -prec - 1, -1)
        ]
        return LaurentSeries(ctx, top, coeffs)

    def __neg__(self):
        return LaurentSeries(self.ctx, self.top, [self.ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        ctx = self.ctx
        return LaurentSeries(ctx, self.top, [ctx.mul(c, x) for x in self.coeffs])

    def mul_poly(self, f: Poly):
        """Exact product alpha * f; precision degrades to prec - deg f."""
        ctx = self.ctx
        if f.is_zero():
            return LaurentSeries.zero(ctx, self.prec)
        df = int(f.deg)
        new_prec = self.prec - df
        if new_prec < 0:
            raise PrecisionExceeded("product would carry no tracked coefficients")
        top = self.top + df
        out = []
        for d in range(top, -new_prec - 1, -1):
            acc = 0
            for j, fj in enumerate(f.coeffs):
                if fj:
                    acc = ctx.add(acc, ctx.mul(fj, self.coefficient(d - j)))
            out.append(acc)
        return LaurentSeries(ctx, top, out)

    def residue(self) -> int:
        """(alpha)_{-1}."""
        if self.prec < 1:
            raise PrecisionExceeded("residue needs precision >= 1")
        return self.coefficient(-1)

    def e_exponent(self) -> int:
        """omega_p exponent of e(alpha), i.e. Tr((alpha)_{-1}) mod p."""
        return self.ctx.trace(self.residue())

    def format(self) -> str:
        return f"{self.top}:" + ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"LaurentSeries({self.format()!r})"


@dataclass(frozen=True)
class RationalApprox:
    a: Poly
    g: Poly  # monic, nonzero
    beta: LaurentSeries  # alpha - a/g at alpha's precision


def from_rational(a: Poly, g: Poly, prec: int) -> LaurentSeries:
    """Laurent expansion of a/g, exact down to degree -prec."""
    if g.is_zero():
        raise ZeroDivisionError("expansion of a/0")
    ctx = a.ctx
    if a.is_zero():
        return LaurentSeries.zero(ctx, prec)
    quot = a.shift(prec) // g
    if quot.is_zero():
        return LaurentSeries.zero(ctx, prec)
    dq = int(quot.deg)
    coeffs = [quot.coefficient(i) for i in range(dq, -1, -1)]  # top down to t^0
    top = dq - prec
    if top < -1:
        coeffs = [0] * (-1 - top) + coeffs
        top = -1
    return LaurentSeries(ctx, top, coeffs)


def dirichlet_approx(alpha: LaurentSeries, n: int) -> RationalApprox:
    """Best rational approximation a/g with deg g <= floor(n/2) and
    |alpha - a/g| < q^(-floor(n/2)) / |g|.

    Runs the continued-fraction (Euclid) algorithm on the truncation of
    alpha to its first n+1 coefficients, keeps the last convergent with a
    small enough denominator, and certifies the norm inequality post hoc
    from the actual remainder.
    """
    ctx = alpha.ctx
    if not alpha.in_torus():
        raise ValueError("alpha must lie in the torus (norm < 1)")
    if alpha.prec < n + 1:
        raise PrecisionExceeded(f"need precision >= {n + 1}, have {alpha.prec}")
    m = n // 2
    num = Poly(ctx, [alpha.coefficient(i - (n + 1)) for i in range(n + 1)])
    den = Poly.one(ctx).shift(n + 1)  # t^(n+1)
    hm2, hm1 = Poly.zero(ctx), Poly.one(ctx)
    km2, km1 = Poly.one(ctx), Poly.zero(ctx)
    best_a, best_g = Poly.zero(ctx), Poly.one(ctx)
    big_a, big_b = num, den
    while not big_b.is_zero():
        qt, r = divmod(big_a, big_b)
        h = qt * hm1 + hm2
        k = qt * km1 + km2
        if k.deg > m:
            break
        best_a, best_g = h, k
        hm2, hm1, km2, km1 = hm1, h, km1, k
        big_a, big_b = big_b, r
    unit, g = best_g.monic()
    a = best_a.scale(ctx.inv(unit))
    beta = alpha - from_rational(a, g, alpha.prec)
    # certify |beta| < q^(-m - deg g): every coefficient of degree
    # >= -(m + deg g) must vanish
    bound_deg = -(m + int(g.deg))
    for d in range(-1, bound_deg - 1, -1):
        if beta.coefficient(d) != 0:
            raise IdentityCheckError(
                "rational approximation fails its norm bound",
                counterexample=f"alpha={alpha.format()} a={a!r} g={g!r} coeff t^{d}",
            )
    return RationalApprox(a=a, g=g, beta=beta)


def sample_torus(ctx: FieldCtx, rng, prec: int) -> LaurentSeries:
    """Uniform independent coefficients at degrees -1..-prec; deterministic
    for a given seed or generator state."""
    if prec < 1:
        raise ValueError("prec >= 1 required")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    coeffs = rng.integers(0, ctx.q, size=prec)
    return LaurentSeries(ctx, -1, [int(c) for c in coeffs])
