"""Finite fields F_q, q = p^s, with elements as integer codes.

An element code c in [0, q) encodes the power-basis coordinates of the
element as the base-p digits of c (constant coordinate first).  All
arithmetic is table driven, so kernels elsewhere can vectorise field
operations with numpy fancy indexing.  Beside the scalar tables sits the
F_p digit layer: DIGITS[a] holds the digits of a, and MULMAT[a] is the
s x s F_p matrix of multiplication by a (column i the digits of a x^i), on
which every vectorised F_q-linear or F_q-quadratic evaluation is built.
Two functions here own that layer for the rest of the package: fq_matmul
is one integer matmul on base-p digits, and digit_form turns quadratic
data (M, b, c, r) into one F_p quadratic form on the s n base-p digits of
a code.  Both take arrays of field codes, checked by as_codes.

The modulus for s > 1 is the lexicographically smallest monic irreducible
of degree s over F_p, smallest meaning lowest code with the constant
coefficient as the fastest-varying digit.  This makes field construction
deterministic and table free.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

__all__ = ["FieldCtx", "get_field", "parse_field", "as_codes", "fq_matmul", "digit_form"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- tiny F_p[x] helpers used only for modulus construction ------------------

def _fp_mod(a: tuple, m: tuple, p: int) -> tuple:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _monic_fp_polys(p: int, deg: int):
    """Monic degree-`deg` polynomials over F_p in code order (constant fastest)."""
    for code in range(p**deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield tuple(coeffs)


def _fp_irreducible(f: tuple, p: int) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg):
        for g in _monic_fp_polys(p, d):
            if not _fp_mod(f, g, p):
                return False
    return True


def _smallest_irreducible(p: int, s: int) -> tuple:
    for f in _monic_fp_polys(p, s):
        if _fp_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {s} over F_{p}")  # unreachable


class FieldCtx:
    """Immutable context for F_q with precomputed operation tables.

    Equality is identity; use get_field() so contexts are interned and can
    serve as cache keys.
    """

    def __init__(self, p: int, s: int = 1, modulus: tuple | None = None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if s < 1:
            raise ValueError("extension degree s must be >= 1")
        self.p = p
        self.s = s
        self.q = p**s
        if modulus is None:
            modulus = _smallest_irreducible(p, s)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree s")
        if s > 1 and not _fp_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._build_tables()

    # identity-based equality/hash: contexts are interned through get_field
    __hash__ = object.__hash__

    def __repr__(self):
        return f"FieldCtx(q={self.q})" if self.s > 1 else f"FieldCtx(p={self.p})"

    def _build_tables(self):
        # whole-table arithmetic on the (q, s) digit array, one base-p digit
        # of the result at a time so that temporaries stay (q, q)
        p, s, q = self.p, self.s, self.q
        dig = np.arange(q)[:, None] // p ** np.arange(s) % p
        # the digits of a b are sum_i a_i (x^i b); x^(i+1) b is x^i b shifted
        # up one digit, its top digit c coming back as -c (modulus - x^s)
        xb = [dig]
        for _ in range(s - 1):
            prev = xb[-1]
            up = np.pad(prev[:, :-1], ((0, 0), (1, 0)))
            xb.append((up - prev[:, -1:] * np.array(self.modulus[:s])) % p)
        xb = np.stack(xb, axis=1)  # (b, i, digit)
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for t in range(s):
            add += p**t * ((dig[:, None, t] + dig[None, :, t]) % p)
            mul += p**t * (dig @ xb[:, :, t].T % p)
        neg = (-dig % p) @ p ** np.arange(s)
        inv = np.zeros(q, dtype=np.int64)
        a, b = np.nonzero(mul == 1)
        inv[a] = b
        sub = add[:, neg]
        # Tr(a) = a + a^p + ... + a^(p^(s-1)); lands in the prime subfield,
        # whose elements are exactly the codes 0..p-1.
        frob, base, e = np.ones(q, dtype=np.int64), np.arange(q), p
        while e:  # a -> a^p for every a at once
            if e & 1:
                frob = mul[frob, base]
            base, e = mul[base, base], e >> 1
        trace = x = np.arange(q)
        for _ in range(s - 1):
            x = frob[x]
            trace = add[trace, x]
        assert (trace < p).all(), "trace outside prime subfield"
        self.ADD, self.SUB, self.MUL = add, sub, mul
        self.NEG, self.INV, self.TRACE = neg, inv, trace
        self.DIGITS, self.MULMAT = dig, np.ascontiguousarray(xb.transpose(0, 2, 1))
        self.DIGITS.flags.writeable = self.MULMAT.flags.writeable = False

    @staticmethod
    def _pow_raw(a: int, e: int, mul) -> int:
        r = 1
        while e:
            if e & 1:
                r = mul[r, a]
            a = mul[a, a]
            e >>= 1
        return int(r)

    # -- scalar operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.SUB[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return int(self.INV[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        return self._pow_raw(a, e % (self.q - 1) if e else 0, self.MUL)

    def trace(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        return int(self.TRACE[a])

    def units(self):
        return range(1, self.q)


_FIELDS: dict[tuple[int, int], FieldCtx] = {}


def get_field(p: int, s: int = 1) -> FieldCtx:
    """Interned field context; repeated calls return the same object."""
    key = (p, s)
    if key not in _FIELDS:
        _FIELDS[key] = FieldCtx(p, s)
    return _FIELDS[key]


def parse_field(spec: str, budget: int | None = None) -> FieldCtx:
    """Parse a field spec string: "2", "3", "2^2", ...

    With a budget, a field whose q x q operation tables exceed it raises
    BudgetExceeded before anything is built."""
    ps, caret, ss = spec.strip().partition("^")
    p, s = int(ps), int(ss) if caret else 1
    if budget is not None and p > 1:
        q = 1
        for _ in range(s):  # stops at the first power past the budget
            q *= p
            if q * q > budget:
                needed = p ** (2 * s) if s <= 64 else q * q  # else a lower bound
                raise BudgetExceeded(needed, budget, "q x q field tables")
    return get_field(p, s)


# -- the digit layer on arrays of codes ----------------------------------------

def as_codes(ctx: FieldCtx, M) -> np.ndarray:
    """M as an int64 array, checked to hold field codes of ctx."""
    M = np.asarray(M, dtype=np.int64)
    if M.size and (M.min() < 0 or M.max() >= ctx.q):
        raise ValueError("matrix entries must be field codes")
    return M


def fq_matmul(ctx: FieldCtx, A, B) -> np.ndarray:
    """Matrix product over F_q (codes in, codes out).

    On base-p digits, multiplying by b is the F_p matrix MULMAT[b], so the
    digits of (A B)_ij are sum_k MULMAT[B_kj] DIGITS[A_ik] mod p: one integer
    matmul of A's digits against B's entries expanded into their matrices."""
    A = as_codes(ctx, A)
    B = as_codes(ctx, B)
    (m, k), n, s = A.shape, B.shape[1], ctx.s
    X = ctx.DIGITS[A].reshape(m, k * s)
    W = ctx.MULMAT[B].transpose(0, 3, 1, 2).reshape(k * s, n * s)  # rows (k, i), columns (j, t)
    return (X @ W % ctx.p).reshape(m, n, s) @ ctx.p ** np.arange(s)


def digit_form(ctx: FieldCtx, M, b, c: int = 0, r: int = 1) -> tuple:
    """Tr(r (x^T M x + b.x + c)) as an F_p quadratic form y^T A y + b'.y + c'
    on the N = s n base-p digits y of x in F_q^n (digit t of x_i at y_(i s + t),
    the digits of the code of x).  With T[k, l] = Tr(x^k x^l) and
    tau_t = Tr(x^t), block (i, j) of A is T MULMAT[r M_ij], b'_i is
    tau MULMAT[r b_i] and c' = Tr(r c).  Returns (A, b', c') with residues
    mod p; A is not made symmetric or triangular, and M need not be."""
    M, b = as_codes(ctx, M), as_codes(ctx, b)
    n, p, s = len(b), ctx.p, ctx.s
    basis = p ** np.arange(s)  # the codes of x^0, ..., x^(s-1)
    T = ctx.TRACE[ctx.MUL[basis[:, None], basis]]
    A = T @ ctx.MULMAT[ctx.MUL[r][M]] % p  # block (i, j) at A[i, j]
    A = A.transpose(0, 2, 1, 3).reshape(s * n, s * n)
    b = (ctx.TRACE[basis] @ ctx.MULMAT[ctx.MUL[r][b]] % p).ravel()
    return A, b, int(ctx.TRACE[ctx.mul(r, c)])
