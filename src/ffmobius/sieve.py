"""Vectorised sweep kernels over monic polynomials, indexed by code.

A polynomial sum c_i t^i with coefficient codes c_i in [0, q) is encoded as
the integer code sum c_i q^i, so the base-q digits of a code are the
coefficients, constant term first.  Monic polynomials of degree d occupy
exactly the code interval [q^d, 2 q^d), which lets whole-degree sweeps work
on contiguous numpy slices.

The central object is MonicSieve: flat arrays of mu, Lambda (von Mangoldt)
and tau over all monic codes up to a degree bound.  It is built one degree
at a time as a linear sieve: a composite f of degree n is P h with P its
smallest irreducible factor in (degree, code) order exactly when P <= spf(h),
so deg P <= n/2.  Whole blocks of irreducibles of each degree d <= n/2 are
multiplied by the monics h of degree n - d whose smallest factor has degree
>= d, and only the products with P <= spf(h) are kept: each composite is
written once, with its smallest factor and quotient, and the multiplicative
recursions then run along those quotients.  A sieve grows by sieving only
the new degrees.  The per-degree irreducible lists produced on the way
double as the irreducible enumerator, and each list is checked against the
necklace count (1/n) sum mu(d) q^(n/d).

Every product of polynomials here goes through one primitive: a block of
digit rows times another block, as a batched matmul of base-p digits
(multiplication by a fixed polynomial is F_p-linear) followed by reduction
mod p.  The sieve consumes its output in bounded chunks.  convolve_monic
reads it through product tables: for each degree pair (da, db), the offsets
of every monic product g h in its degree, built once and kept in _PRODUCTS
up to PRODUCTS_MAX_BYTES, so that a convolution is one weighted bincount
per degree pair.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, PrecisionExceeded
from .fields import FieldCtx

__all__ = [
    "necklace_count",
    "poly_times_monics",
    "MonicSieve",
    "get_sieve",
    "mobius_over_g",
    "convolve_monic",
]


def _int_mobius(n: int) -> int:
    m, res = n, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            res = -res
        d += 1
    if m > 1:
        res = -res
    return res


def necklace_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _int_mobius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


# -- digit/code plumbing ------------------------------------------------------

_TAILS: dict[tuple, np.ndarray] = {}


def monic_tails(ctx: FieldCtx, m: int) -> np.ndarray:
    """(q^m, m) matrix whose row j holds the digits of j: all tails of A_m.

    A view of monic_digit_matrix without its leading column."""
    key = (ctx, m)
    if key not in _TAILS:
        _TAILS[key] = monic_digit_matrix(ctx, m)[:, :m]
    return _TAILS[key]


def codes_to_digits(ctx: FieldCtx, codes: np.ndarray, width: int) -> np.ndarray:
    """(len(codes), width) int16 matrix of the low base-q digits of codes."""
    q = ctx.q
    codes = np.asarray(codes, dtype=np.int64)
    digits = np.empty((len(codes), width), dtype=np.int16)
    for i in range(width):  # one column at a time keeps int64 temporaries small
        digits[:, i] = codes // q**i % q
    return digits


def digits_to_codes(ctx: FieldCtx, digits: np.ndarray) -> np.ndarray:
    powers = ctx.q ** np.arange(digits.shape[1], dtype=np.int64)
    return digits.astype(np.int64) @ powers


# -- the pairwise-product primitive -------------------------------------------

# Cap on the digit entries (products x output base-p digits) that one
# vectorised product step holds; bounds the temporaries of block marking and
# of convolve_monic whatever the degrees involved.
CHUNK_ENTRIES = 1 << 16


def _pair_codes(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) codes of the products of the digit rows of a and b.

    Multiplication by a fixed polynomial is F_p-linear on base-p digits, so
    for each row of the smaller side its matrix (block Toeplitz in the
    MULMAT blocks of the row's coefficients) is built, and one batched
    matmul applies all of them to the other side's DIGITS.  The digit sums
    are small integers, exact in float32; they are reduced mod p and read
    back as codes, exact in float64 (codes index arrays, so far below 2^53).
    """
    if len(a) > len(b):
        return _pair_codes(ctx, b, a).T
    p, s = ctx.p, ctx.s
    wa, wb = a.shape[1], b.shape[1]
    width = s * (wa + wb - 1)
    mats = np.zeros((len(a), s * wb, width), dtype=np.float32)
    scaled = ctx.MULMAT[a].transpose(0, 3, 1, 2).reshape(len(a), s, wa * s).astype(np.float32)
    for j in range(wb):
        mats[:, s * j : s * (j + 1), s * j : s * (j + wa)] = scaled
    b_digits = np.take(ctx.DIGITS.astype(np.float32), b, axis=0).reshape(len(b), s * wb)
    digit_sums = (b_digits @ mats).astype(np.int32)
    digits = digit_sums & 1 if p == 2 else digit_sums % p
    return (digits @ float(p) ** np.arange(width)).astype(np.int64)


def _product_blocks(ctx: FieldCtx, a: np.ndarray, b: np.ndarray):
    """Yield (i0, j0, codes), codes[i, j] the code of a[i0 + i] * b[j0 + j].

    Blocks hold at most CHUNK_ENTRIES digit entries; a block spans several
    rows of a only when it holds all of b.
    """
    width = ctx.s * (a.shape[1] + b.shape[1] - 1)
    rows = max(1, CHUNK_ENTRIES // (len(b) * width))
    cols = len(b) if rows > 1 else max(1, CHUNK_ENTRIES // width)
    for i0 in range(0, len(a), rows):
        for j0 in range(0, len(b), cols):
            yield i0, j0, _pair_codes(ctx, a[i0 : i0 + rows], b[j0 : j0 + cols])


def poly_times_monics(ctx: FieldCtx, f_digits, m: int) -> np.ndarray:
    """Codes of f * (t^m + tail) for every tail in [0, q^m), in tail order.

    f_digits are the coefficient codes of a nonzero f, constant term first.
    """
    f = np.asarray([[int(c) for c in f_digits]], dtype=np.int16)
    return _pair_codes(ctx, f, monic_digit_matrix(ctx, m))[0]


# -- the sieve ---------------------------------------------------------------


class MonicSieve:
    """mu / Lambda / tau and smallest-factor data over monic codes < 2 q^D.

    Degrees are added in increasing order.  spf(f) is the least
    irreducible factor of f in (degree, code) order and quot(f) = f / spf(f).
    For degree n and each d <= n/2, the degree-d irreducibles P are
    multiplied by the monics h of degree n - d with deg spf(h) >= d, and a
    product is kept when deg spf(h) > d or P <= spf(h): exactly then is
    spf(P h) = P, so every composite of degree n is written once, with
    spf = P and quot = h.  The codes left unwritten are the irreducibles of
    degree n, checked against the necklace count.  mu, Lambda and tau of
    degree n then follow from the values at quot.  A sieve of ctx already
    in _SIEVES with a lower degree bound is extended: its arrays become the
    low end of the new ones and only the new degrees are sieved.
    """

    _ARRAYS = (
        ("mu", np.int8),
        ("mangoldt", np.int16),
        ("tau", np.int64),
        ("spf_code", np.int64),
        ("spf_deg", np.int16),
        ("quot", np.int64),
        ("_spf_mult", np.int8),  # multiplicity of spf(f) in f
    )

    def __init__(self, ctx: FieldCtx, max_deg: int):
        self.ctx = ctx
        self.max_deg = max_deg
        base = _SIEVES.get(ctx)
        if base is not None and base.max_deg >= max_deg:
            base = None
        size = 2 * ctx.q**max_deg
        for name, dtype in self._ARRAYS:
            arr = np.zeros(size, dtype=dtype)
            if base is not None:
                old = getattr(base, name)
                arr[: len(old)] = old
            setattr(self, name, arr)
        if base is None:
            self.irr_codes: dict[int, np.ndarray] = {}
            self.mu[1] = 1
            self.tau[1] = 1
        else:
            self.irr_codes = dict(base.irr_codes)
        for n in range(1 if base is None else base.max_deg + 1, max_deg + 1):
            self._add_degree(n)

    def _add_degree(self, n: int):
        ctx = self.ctx
        q = ctx.q
        for d in range(1, n // 2 + 1):
            irr = self.irr_codes[d]
            m = n - d
            # the cofactors h with deg spf(h) >= d, and the largest P that
            # is still spf(P h): any P when deg spf(h) > d, else spf(h)
            h = q**m + np.flatnonzero(self.spf_deg[q**m : 2 * q**m] >= d)
            bound = np.where(self.spf_deg[h] > d, 2 * q**n, self.spf_code[h])
            h_digits = monic_digit_matrix(ctx, m)
            if len(h) < len(h_digits):
                h_digits = h_digits[h - q**m]
            for i0, j0, codes in _product_blocks(ctx, codes_to_digits(ctx, irr, d + 1), h_digits):
                rows, cols = codes.shape
                i, j = np.nonzero(irr[i0 : i0 + rows, None] <= bound[None, j0 : j0 + cols])
                new = codes[i, j]
                self.spf_code[new] = irr[i0 + i]
                self.spf_deg[new] = d
                self.quot[new] = h[j0 + j]
        lo, hi = q**n, 2 * q**n
        is_comp = self.spf_deg[lo:hi] != 0
        irr = lo + np.flatnonzero(~is_comp)
        assert len(irr) == necklace_count(q, n), "irreducible count mismatch"
        self.irr_codes[n] = irr
        # multiplicative recursion along f = spf(f) * quot(f)
        self.mu[irr] = -1
        self.tau[irr] = 2
        self.mangoldt[irr] = n
        self.spf_code[irr] = irr
        self.spf_deg[irr] = n
        self.quot[irr] = 1
        self._spf_mult[irr] = 1
        comp = lo + np.flatnonzero(is_comp)
        h = self.quot[comp]
        same = self.spf_code[h] == self.spf_code[comp]
        eh = self._spf_mult[h]
        self._spf_mult[comp] = np.where(same, eh + 1, 1)
        self.mu[comp] = np.where(same, 0, -self.mu[h])
        self.tau[comp] = np.where(
            same, self.tau[h] // (eh + 1) * (eh + 2), self.tau[h] * 2
        )
        # f is a prime power iff its quotient is one with the same prime
        prime_power = same & (self.mangoldt[h] != 0)
        self.mangoldt[comp] = np.where(prime_power, self.spf_deg[comp], 0)

    def degree_slice(self, arr: np.ndarray, d: int) -> np.ndarray:
        q = self.ctx.q
        return arr[q**d : 2 * q**d]


_SIEVES: dict[FieldCtx, MonicSieve] = {}


def get_sieve(ctx: FieldCtx, max_deg: int, budget: int | None = None) -> MonicSieve:
    """Cached sieve covering monic degrees <= max_deg (grows on demand)."""
    if budget is not None and ctx.q**max_deg > budget:
        raise BudgetExceeded(ctx.q**max_deg, budget, f"sieve to degree {max_deg}")
    cur = _SIEVES.get(ctx)
    if cur is None or cur.max_deg < max_deg:
        cur = MonicSieve(ctx, max_deg)
        _SIEVES[ctx] = cur
    return cur


_MU_G: dict[tuple, np.ndarray] = {}


def mobius_over_g(ctx: FieldCtx, n: int, budget: int | None = None) -> np.ndarray:
    """mu over all of G_n as an int8 array indexed by code in [0, q^n).

    mu is extended off monics by unit invariance: mu(c f) = mu(f) for units c
    and mu(0) = 0.  For each unit c the code map x -> code(c x) on [0, q^n)
    is built once, a digit at a time, and every degree's monic slice of mu
    is scattered through it.
    """
    key = (ctx, n)
    if key in _MU_G:
        return _MU_G[key]
    if budget is not None and ctx.q**n > budget:
        raise BudgetExceeded(ctx.q**n, budget, "G_n mobius table")
    q = ctx.q
    sieve = get_sieve(ctx, max(n - 1, 1))
    out = np.zeros(q**n, dtype=np.int8)
    for d in range(n):
        out[q**d : 2 * q**d] = sieve.mu[q**d : 2 * q**d]
    for c in range(2, q):
        times_c, scaled = ctx.MUL[c].astype(np.int64), np.zeros(1, dtype=np.int64)
        for i in range(n):  # codes [0, q^(i+1)) from codes [0, q^i): digit i varies slowest
            scaled = (scaled[None, :] + times_c[:, None] * q**i).ravel()
        for d in range(n):
            out[scaled[q**d : 2 * q**d]] = sieve.mu[q**d : 2 * q**d]
    _MU_G[key] = out
    return out


_MONIC_DIGITS: dict[tuple, np.ndarray] = {}


def monic_digit_matrix(ctx: FieldCtx, d: int) -> np.ndarray:
    """(q^d, d+1) digits of every monic polynomial of degree d."""
    key = (ctx, d)
    if key not in _MONIC_DIGITS:
        q = ctx.q
        j = np.arange(q**d, dtype=np.int64)
        digits = np.ones((q**d, d + 1), dtype=np.int16)
        for i in range(d):  # one column at a time keeps int64 temporaries small
            digits[:, i] = j // q**i % q
        _MONIC_DIGITS[key] = digits
    return _MONIC_DIGITS[key]


# Cap on the bytes of product tables kept in _PRODUCTS.  A table that would
# take the cache past it is built and used all the same, but not kept.
PRODUCTS_MAX_BYTES = 1 << 25

_PRODUCTS: dict[tuple, np.ndarray] = {}


def _product_table(ctx: FieldCtx, da: int, db: int) -> np.ndarray:
    """(q^da, q^db) int32 table, entry [i, j] the code of g_i * h_j minus
    q^(da + db), for the monics g_i of degree da and h_j of degree db
    (1 <= da <= db), in code order: the product's offset in its degree."""
    key = (ctx, da, db)
    table = _PRODUCTS.get(key)
    if table is not None:
        return table
    q = ctx.q
    lo = q ** (da + db)
    if lo >= 2**31:
        raise BudgetExceeded(lo, 2**31 - 1, f"int32 product offsets of degree {da + db}")
    table = np.empty((q**da, q**db), dtype=np.int32)
    a, b = monic_digit_matrix(ctx, da), monic_digit_matrix(ctx, db)
    for i0, j0, codes in _product_blocks(ctx, a, b):
        table[i0 : i0 + codes.shape[0], j0 : j0 + codes.shape[1]] = codes - lo
    if sum(t.nbytes for t in _PRODUCTS.values()) + table.nbytes <= PRODUCTS_MAX_BYTES:
        _PRODUCTS[key] = table
    return table


def convolve_monic(ctx: FieldCtx, max_deg: int, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Dirichlet convolution over monics: out[f] = sum_{g h = f} wa[g] wb[h].

    wa, wb are int arrays indexed by monic code; the result is exact int64.
    Each pair of degrees (da, db) of nonzero weight is one bincount of the
    outer product of the two weight slices over the cached product table of
    (da, db); a degree-0 factor (the weight at code 1) just scales the
    other slice.  The bincount sums in float64, which is exact while every
    partial sum stays below 2^53; the l1 norms of the two slices bound
    them, and a pair whose bound reaches 2^53 raises PrecisionExceeded.
    """
    q = ctx.q
    out = np.zeros(2 * q**max_deg, dtype=np.int64)
    slices_a = [wa[q**d : 2 * q**d] for d in range(max_deg + 1)]
    slices_b = [wb[q**d : 2 * q**d] for d in range(max_deg + 1)]
    # float64 l1 norms are exact below 2^53 and at least 2^53 otherwise
    norms_a = [int(np.abs(x, dtype=np.float64).sum()) for x in slices_a]
    norms_b = [int(np.abs(x, dtype=np.float64).sum()) for x in slices_b]
    for da in range(max_deg + 1):
        for db in range(max_deg + 1 - da):
            bound = norms_a[da] * norms_b[db]
            if not bound:
                continue
            if bound >= 2**53:
                raise PrecisionExceeded(
                    f"convolution of degrees {da} and {db}: weight mass {bound} reaches 2^53"
                )
            n = da + db
            if da == 0 or db == 0:
                part = slices_a[da] * slices_b[db]  # one side is the weight at code 1
            else:
                # weights as a float64 outer product: every entry is an
                # integer below the bound, so exact
                a = slices_a[da].astype(np.float64)
                b = slices_b[db].astype(np.float64)
                if da <= db:
                    table, weights = _product_table(ctx, da, db), np.multiply.outer(a, b)
                else:
                    table, weights = _product_table(ctx, db, da), np.multiply.outer(b, a)
                sums = np.bincount(table.ravel(), weights.ravel(), minlength=q**n)
                part = sums.astype(np.int64)
            out[q**n : 2 * q**n] += part
    return out
