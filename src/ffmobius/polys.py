"""Exact arithmetic in F_q[t] plus the arithmetic functions mu, Lambda, tau.

Polynomials are immutable coefficient tuples (constant term first, no
trailing zeros; the zero polynomial is the empty tuple with degree -inf).
The integer code of a polynomial is sum c_i q^i, matching the sieve module,
and enumeration of A_n / G_n is in code order, i.e. lexicographic with the
constant term varying fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, log

import numpy as np

from .errors import BudgetExceeded
from .fields import FieldCtx
from . import sieve as _sieve

__all__ = [
    "Poly",
    "Factorization",
    "poly_gcd",
    "factorize",
    "mobius",
    "mangoldt",
    "tau",
    "divisors",
    "enumerate_polys",
    "irreducibles_of_degree",
    "pnt_check",
    "divisor_second_moment",
    "max_tau_report",
]

NEG_INF = -inf


class Poly:
    """Dense polynomial over F_q; coefficients are field codes."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not (0 <= c < ctx.q):
                raise ValueError(f"coefficient code {c} outside [0, {ctx.q})")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def t(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def from_code(cls, ctx, code: int):
        coeffs = []
        while code:
            coeffs.append(code % ctx.q)
            code //= ctx.q
        return cls(ctx, coeffs)

    @classmethod
    def parse(cls, ctx, text: str):
        """Parse the comma-separated coefficient format, e.g. "1,1,0,1"."""
        text = text.strip()
        if not text:
            return cls.zero(ctx)
        return cls(ctx, [int(x) for x in text.split(",")])

    # -- basic queries ----------------------------------------------------------

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def code(self) -> int:
        c = 0
        for d in reversed(self.coeffs):
            c = c * self.ctx.q + d
        return c

    def norm(self) -> int:
        return self.ctx.q ** (len(self.coeffs) - 1) if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __neg__(self):
        return Poly(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        if not self.coeffs or not other.coeffs:
            return Poly.zero(ctx)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                row = ctx.MUL[a]
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add(out[i + j], int(row[b]))
        return Poly(ctx, out)

    def scale(self, c: int):
        ctx = self.ctx
        return Poly(ctx, [ctx.mul(c, x) for x in self.coeffs])

    def shift(self, k: int):
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return Poly(self.ctx, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        ctx = self.ctx
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.deg
        inv_lead = ctx.inv(other.lc)
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            c = ctx.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, bc in enumerate(other.coeffs):
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, bc))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(ctx, quot), Poly(ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        r = Poly.one(self.ctx)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def monic(self):
        """Return (unit, monic part) with self = unit * monic part."""
        if self.is_zero():
            raise ValueError("zero polynomial has no monic part")
        u = self.lc
        return u, self.scale(self.ctx.inv(u))

    def evaluate(self, x: int) -> int:
        ctx, acc = self.ctx, 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    # -- formatting ------------------------------------------------------------

    def format(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return "+".join(parts)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        return f
    return f.monic()[1]


@dataclass(frozen=True)
class Factorization:
    unit: int
    factors: tuple  # ((monic irreducible Poly, multiplicity), ...) sorted

    def value(self) -> Poly:
        ctx = self.factors[0][0].ctx if self.factors else None
        if ctx is None:
            raise ValueError("unit-only factorization needs a context to rebuild")
        out = Poly.one(ctx).scale(self.unit)
        for p, e in self.factors:
            out = out * p**e
        return out


def irreducibles_of_degree(ctx: FieldCtx, d: int):
    """Monic irreducibles of degree d, in code order."""
    s = _sieve.get_sieve(ctx, d)
    return [Poly.from_code(ctx, int(c)) for c in s.irr_codes[d]]


def factorize(f: Poly, budget: int = 10**7) -> Factorization:
    """Complete factorization by trial division against the irreducible table."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    ctx = f.ctx
    unit, rem = f.monic()
    factors = []
    half = int(rem.deg) // 2 if rem.deg >= 2 else 0
    if half and ctx.q**half > budget:
        raise BudgetExceeded(ctx.q**half, budget, "irreducible table")
    d = 1
    while d <= half and rem.deg >= 2 * d:
        for p in irreducibles_of_degree(ctx, d):
            mult = 0
            q_, r_ = divmod(rem, p)
            while r_.is_zero():
                rem = q_
                mult += 1
                q_, r_ = divmod(rem, p)
            if mult:
                factors.append((p, mult))
            if rem.deg < 2 * d:
                break
        d += 1
    if rem.deg >= 1:
        factors.append((rem, 1))
    factors.sort(key=lambda pe: (pe[0].deg, pe[0].code))
    return Factorization(unit, tuple(factors))


def mobius(f: Poly) -> int:
    """mu(f); unit invariant, mu(units) = 1, mu(0) raises."""
    if f.is_zero():
        raise ValueError("mu(0) undefined")
    if f.deg == 0:
        return 1
    fac = factorize(f)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def mangoldt(f: Poly) -> int:
    """Lambda(f): deg P on monic prime powers P^k, 0 elsewhere."""
    if f.is_zero():
        raise ValueError("Lambda(0) undefined")
    if not f.is_monic() or f.deg == 0:
        return 0
    fac = factorize(f)
    if len(fac.factors) == 1:
        return int(fac.factors[0][0].deg)
    return 0


def tau(f: Poly) -> int:
    """Number of monic divisors of the monic part of f."""
    if f.is_zero():
        raise ValueError("tau(0) undefined")
    out = 1
    for _, e in factorize(f).factors:
        out *= e + 1
    return out


def divisors(f: Poly) -> list[Poly]:
    """All monic divisors of f (f nonzero), in no particular order."""
    out = [Poly.one(f.ctx)]
    for p, e in factorize(f).factors:
        powers = [p**k for k in range(e + 1)]
        out = [d * pk for d in out for pk in powers]
    return out


# -- enumeration --------------------------------------------------------------


def enumerate_polys(ctx: FieldCtx, kind: str, n: int, start: int = 0, stop: int | None = None):
    """Stream over A_n ("A"), G_n ("G") or irreducibles of degree n ("irreducible").

    The stream order is code order and [start, stop) selects a contiguous
    sub-range, so parallel consumers can split the index space.
    """
    q = ctx.q
    if kind == "A":
        hi = q**n
        stop = hi if stop is None else stop
        for j in range(start, min(stop, hi)):
            yield Poly.from_code(ctx, q**n + j)
    elif kind == "G":
        hi = q**n
        stop = hi if stop is None else stop
        for j in range(start, min(stop, hi)):
            yield Poly.from_code(ctx, j)
    elif kind == "irreducible":
        items = irreducibles_of_degree(ctx, n)
        yield from items[start:stop]
    else:
        raise ValueError(f"unknown enumeration kind {kind!r}")


# -- sweep-level checks ---------------------------------------------------------


def pnt_check(ctx: FieldCtx, l: int, budget: int = 1_200_000):
    """(sum of Lambda over A_l, q^l); the two must agree."""
    if l < 1:
        raise ValueError("l >= 1 required")
    if ctx.q**l > budget:
        raise BudgetExceeded(ctx.q**l, budget, "A_l sweep")
    s = _sieve.get_sieve(ctx, l)
    total = int(s.degree_slice(s.mangoldt, l).sum(dtype=np.int64))
    return total, ctx.q**l


def divisor_second_moment(ctx: FieldCtx, n: int, budget: int = 1_200_000):
    """Mean of tau^2 over A_n: exact series value, brute force value, bound 4n^3.

    The series value is the n-th coefficient of (1-q u^2)(1-q u)^(-4) divided
    by q^n, which simplifies to C(n+3,3) - C(n+1,3)/q.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "A_n sweep")
    mean_exact = Fraction(comb(n + 3, 3)) - Fraction(comb(n + 1, 3), q)
    s = _sieve.get_sieve(ctx, n)
    tau_slice = s.degree_slice(s.tau, n)
    total = int((tau_slice * tau_slice).sum(dtype=np.int64))
    mean_brute = Fraction(total, q**n)
    return mean_exact, mean_brute, 4 * n**3


def max_tau_report(ctx: FieldCtx, n_max: int, budget: int = 1_200_000):
    """Per degree: max tau over A_n and log tau / (n / log n), a soft check
    of the divisor bound tau(f) <= exp(O(n / log n)).  Nothing is asserted."""
    if ctx.q**n_max > budget:
        raise BudgetExceeded(ctx.q**n_max, budget, "A_n sweep")
    s = _sieve.get_sieve(ctx, n_max)
    rows = []
    for n in range(1, n_max + 1):
        m = int(s.degree_slice(s.tau, n).max())
        ratio = log(m) / (n / log(n)) if n >= 2 else None
        rows.append((n, m, ratio))
    return rows
