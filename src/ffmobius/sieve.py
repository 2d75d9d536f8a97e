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
multiplied by every monic h of degree n - d, and only the products with
P <= spf(h) are kept: each composite is written once, with its smallest
factor and quotient, and mu then follows along those quotients.  The build
makes only mu and the smallest-factor arrays, which are eager; tau and
Lambda are derived from them on their first read, so a run that reads
only mu never pays for them.  A sieve grows by sieving only the new
degrees.  The per-degree irreducible lists produced on the way double as
the irreducible enumerator, and each list is checked against the necklace
count (1/n) sum mu(d) q^(n/d).

Every product of polynomials here goes through one primitive, _Products:
the codes of a c for a block of polynomials a and every code c in a range.
It is carry free: each F_p digit of a product sits in its own lane of a
uint64 word (one bit at p = 2, where lanes add by XOR), a low table of the
words of a c for all short c is built by doubling over the digits of c,
and longer codes add a shifted high part to it.  A product wider than the
lanes is refused with PrecisionExceeded.  The sieve keeps one low table per
degree d of irreducibles for the length of a build.  convolve_monic reads
the primitive through product tables: for each degree pair (da, db), the
offsets of every monic product g h in its degree, built once and kept in
_PRODUCTS up to PRODUCTS_MAX_BYTES, so that a convolution is one weighted
bincount per degree pair.
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


# -- the product primitive -----------------------------------------------------

# Cap on the products that one vectorised step holds: a block of rows times
# a span of codes or a low table of _Products.  It bounds the temporaries of
# the sieve, the product tables and the rank stacks of rank_stats whatever
# the degrees involved.
CHUNK_ENTRIES = 1 << 16


def _ndigits(q: int, x: int) -> int:
    """Number of base-q digits of x (1 for x = 0)."""
    k = 1
    while x >= q**k:
        k += 1
    return k


class _Products:
    """Codes of a_i c for the rows a_i of a block of polynomials and every
    code c in [0, stop), produced in blocks by blocks(lo, hi) of at most
    CHUNK_ENTRIES products.

    A code is the base-p number of all F_p digits of its polynomial, so a
    product is carry free once each F_p digit sits in its own b-bit lane of
    a uint64 word: b = 1 at p = 2, where lane addition is XOR and the word
    is the code itself; for odd p, b is the least width with 2p - 2 < 2^b
    and p - 2 < 2^(b-1), and lanes add as t = x + y, less p in each lane
    whose bit b-1 of t + OFF is set (OFF = 2^(b-1) - p in every lane).
    The words of a_i c for all c below q^K form a low table, built by
    doubling over the digits of c: step k adds c_k t^k a_i for every c_k
    in F_q, the scalar multiples c_k a_i coming once from MUL and DIGITS.
    A code past q^K is h q^K + j, and its word is the table's word at j
    plus the word of a_i h shifted up K digits, itself taken from the
    table the same way; K is the largest with (rows of a block) q^K <=
    CHUNK_ENTRIES.  codes() folds words back into codes in ceil(log2 N)
    pairwise folds, N the number of F_p digits of the product.  Products
    with more digits than the 64 // b lanes raise PrecisionExceeded.
    """

    def __init__(self, ctx: FieldCtx, a: np.ndarray, stop: int):
        p, s, q, entries = ctx.p, ctx.s, ctx.q, CHUNK_ENTRIES
        self.ctx, self.a = ctx, np.asarray(a)
        b = 1
        while p > 2 and not (2 * p - 2 < 2**b and p - 2 < 2 ** (b - 1)):
            b += 1
        self.b, lanes = b, 64 // b
        r, w = self.a.shape
        self.rows = max(1, entries // q)  # rows per block, so that K >= 1
        wc = _ndigits(q, max(stop - 1, 0))  # digits of the codes c
        ndig = s * (w + wc - 1)  # F_p digits of a product
        if ndig > lanes:
            raise PrecisionExceeded(
                f"products of {ndig} F_{p} digits exceed the {lanes} {b}-bit lanes of a word"
            )
        self._tables = []
        if not r:
            return
        if b > 1:
            low = sum(1 << (b * k) for k in range(lanes))  # bit 0 of every lane
            self._low, self._off = np.uint64(low), np.uint64((2 ** (b - 1) - p) * low)
        # fold k joins fields of width b 2^k: the odd fields' mask, the
        # width, and 2^width - p^(2^k), so that x - (odd >> width) * that
        # puts high * p^(2^k) + low in each field pair; none at p = 2
        self._folds = []
        width = b
        while b > 1 and width < b * ndig:
            mask = sum(((1 << width) - 1) << k for k in range(width, 64, 2 * width)) % 2**64
            self._folds.append((np.uint64(mask), np.uint64(width), np.uint64(2**width - p ** (width // b))))
            width *= 2
        # the words of c a_i for every c in F_q, (r, q)
        digits = ctx.DIGITS[ctx.MUL[:, self.a]].reshape(q, r, s * w).astype(np.uint64)
        scaled = (digits << (b * np.arange(s * w, dtype=np.uint64))).sum(axis=2, dtype=np.uint64).T
        K = min(wc, max(1, _ndigits(q, entries // min(r, self.rows)) - 1))
        for i0 in range(0, r, self.rows):
            block = scaled[i0 : i0 + self.rows]
            table = np.zeros((len(block), 1), dtype=np.uint64)
            for k in range(K):  # codes below q^(k+1) from codes below q^k
                step = block << np.uint64(b * s * k)
                table = self._add(step[:, :, None], table[:, None, :]).reshape(len(block), -1)
            table.flags.writeable = False
            self._tables.append(table)
        self._shift = np.uint64(b * s * K)

    def _add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.b == 1:
            return x ^ y
        t = x + y
        f = t + self._off
        f >>= np.uint64(self.b - 1)
        f &= self._low
        f *= np.uint64(self.ctx.p)
        t -= f
        return t

    def codes(self, words: np.ndarray) -> np.ndarray:
        """int64 codes of lane words."""
        for mask, width, mult in self._folds:
            t = words & mask
            t >>= width
            t *= mult
            words = words - t
        return words.view(np.int64)

    def blocks(self, lo: int, hi: int):
        """Yield (i0, c0, words): words[i, j] is the product of a[i0 + i]
        and the code c0 + j, for lo <= c0 + j < hi; a block holds at most
        max(CHUNK_ENTRIES, q) products.  Lane words are read-only, and
        codes() turns them into codes."""
        for k, table in enumerate(self._tables):
            for c0, words in self._words(table, lo, hi):
                yield k * self.rows, c0, words

    def _words(self, table: np.ndarray, lo: int, hi: int):
        Q = table.shape[1]
        if hi <= Q:
            if lo < hi:
                yield lo, table[:, lo:hi]
            return
        for h0, high in self._words(table, lo // Q, (hi - 1) // Q + 1):
            high = high << self._shift
            for k in range(high.shape[1]):
                c = (h0 + k) * Q
                j0, j1 = max(lo - c, 0), min(hi - c, Q)
                yield c + j0, self._add(table[:, j0:j1], high[:, k : k + 1])


def poly_times_monics(ctx: FieldCtx, f_digits, m: int) -> np.ndarray:
    """Codes of f * (t^m + tail) for every tail in [0, q^m), in tail order.

    f_digits are the coefficient codes of a nonzero f, constant term first.
    """
    q = ctx.q
    prod = _Products(ctx, np.asarray([[int(c) for c in f_digits]], dtype=np.int64), 2 * q**m)
    return np.concatenate([prod.codes(words)[0] for _, _, words in prod.blocks(q**m, 2 * q**m)])


# -- the sieve ---------------------------------------------------------------


class MonicSieve:
    """mu and smallest-factor data over monic codes < 2 q^D; tau and Lambda
    derived on first read.

    Degrees are added in increasing order.  spf(f) is the least
    irreducible factor of f in (degree, code) order and quot(f) = f / spf(f).
    Codes grow with the degree, so (degree, code) order is code order.  For
    degree n and each d <= n/2, the degree-d irreducibles P are multiplied
    by every monic h of degree n - d, and a product is kept when
    P <= spf(h): exactly then is spf(P h) = P, so every composite of degree
    n is written once, with spf = P and quot = h.  The products kept must
    number q^n less the necklace count, and the codes left unwritten are the
    irreducibles of degree n, checked against the necklace count.  mu of
    degree n then follows from the value at quot.  The products of the
    degree-d irreducibles come from one _Products per d, built when degree
    2d is sieved and dropped with the build.  A sieve of ctx already in
    _SIEVES with a lower degree bound is extended: its eager arrays become
    the low end of the new ones and only the new degrees are sieved.

    The eager arrays, built with the sieve, are mu (int8), spf_code and quot
    (int64) and spf_deg (int16): 19 bytes per code.  tau (int64) and
    mangoldt (int16) are derived from them on their first read, each in its
    own pass of one vectorised step per degree along quot, and kept in a
    one-item tuple.  A tuple keeps them out of byte counts that walk the
    sieve's attributes for arrays (perfbench's sieve.bytes), which then
    read the same whichever arrays a run happened to read.
    """

    _ARRAYS = (
        ("mu", np.int8),
        ("spf_code", np.int64),
        ("spf_deg", np.int16),
        ("quot", np.int64),
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
        self._tau: tuple = ()
        self._mangoldt: tuple = ()
        if base is None:
            self.irr_codes: dict[int, np.ndarray] = {}
            self.mu[1] = 1
        else:
            self.irr_codes = dict(base.irr_codes)
        self._irr_products: dict[int, _Products] = {}  # this build's, by degree
        try:
            for n in range(1 if base is None else base.max_deg + 1, max_deg + 1):
                self._add_degree(n)
        finally:
            del self._irr_products

    @staticmethod
    def _keep(P: np.ndarray, spf_h: np.ndarray) -> np.ndarray:
        """The products P h to write: P <= spf(h), rows P, columns h."""
        return P[:, None] <= spf_h[None, :]

    def _add_degree(self, n: int):
        q = self.ctx.q
        kept = 0
        for d in range(1, n // 2 + 1):
            irr, lo = self.irr_codes[d], q ** (n - d)
            if d not in self._irr_products:
                digits = codes_to_digits(self.ctx, irr, d + 1)
                self._irr_products[d] = _Products(self.ctx, digits, 2 * q ** (self.max_deg - d))
            prod = self._irr_products[d]
            for i0, c0, words in prod.blocks(lo, 2 * lo):
                rows, cols = words.shape
                P = irr[i0 : i0 + rows]
                i, j = np.nonzero(self._keep(P, self.spf_code[c0 : c0 + cols]))
                new = prod.codes(words[i, j])
                self.spf_code[new] = P[i]
                self.spf_deg[new] = d
                self.quot[new] = c0 + j
                kept += len(new)
        lo, hi = q**n, 2 * q**n
        irr = lo + np.flatnonzero(self.spf_deg[lo:hi] == 0)
        assert len(irr) == necklace_count(q, n), "irreducible count mismatch"
        assert kept == q**n - len(irr), "composite written more than once"
        self.irr_codes[n] = irr
        self.spf_code[irr] = irr
        self.spf_deg[irr] = n
        self.quot[irr] = 1
        # mu(f) = 0 when spf divides quot(f) too, else -mu(quot(f)); an
        # irreducible's quot is 1, whose spf_code 0 matches no spf
        h = self.quot[lo:hi]
        self.mu[lo:hi] = np.where(self.spf_code[h] == self.spf_code[lo:hi], 0, -self.mu[h])

    def _degrees(self):
        """(lo, hi, h, same) per degree 1..max_deg: the code range, quot
        over it, and where spf(quot(f)) = spf(f)."""
        q = self.ctx.q
        for n in range(1, self.max_deg + 1):
            lo, hi = q**n, 2 * q**n
            h = self.quot[lo:hi]
            yield lo, hi, h, self.spf_code[h] == self.spf_code[lo:hi]

    @property
    def tau(self) -> np.ndarray:
        """Number of monic divisors, int64 over every code; derived on first
        read along f = spf(f) quot(f) with the multiplicity e of spf(f) in
        f: tau(f) = tau(h) / (e(h) + 1) * (e(h) + 2) when spf(f) divides
        h = quot(f), else 2 tau(h)."""
        if not self._tau:
            tau = np.zeros(len(self.mu), dtype=np.int64)
            mult = np.zeros(len(self.mu), dtype=np.int8)
            tau[1] = 1
            for lo, hi, h, same in self._degrees():
                eh = mult[h]
                mult[lo:hi] = np.where(same, eh + 1, 1)
                tau[lo:hi] = np.where(same, tau[h] // (eh + 1) * (eh + 2), tau[h] * 2)
            self._tau = (tau,)
        return self._tau[0]

    @property
    def mangoldt(self) -> np.ndarray:
        """von Mangoldt Lambda, int16 over every code; derived on first read:
        f is a prime power exactly when quot(f) = 1 or quot(f) is a prime
        power of the same spf, and then Lambda(f) = deg spf(f)."""
        if not self._mangoldt:
            mangoldt = np.zeros(len(self.mu), dtype=np.int16)
            for lo, hi, h, same in self._degrees():
                prime_power = (h == 1) | (same & (mangoldt[h] != 0))
                mangoldt[lo:hi] = np.where(prime_power, self.spf_deg[lo:hi], 0)
            self._mangoldt = (mangoldt,)
        return self._mangoldt[0]

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
    prod = _Products(ctx, monic_digit_matrix(ctx, da), 2 * q**db)
    for i0, c0, words in prod.blocks(q**db, 2 * q**db):
        rows, cols = words.shape
        j0 = c0 - q**db
        table[i0 : i0 + rows, j0 : j0 + cols] = prod.codes(words) - lo
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
