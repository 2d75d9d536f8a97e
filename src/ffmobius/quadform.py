"""Quadratic phases over F_q^n: ranks, Hankel matrices of Laurent series,
and dilation compressions.

A phase is chi_r(x^T M x + b.x + c) with M symmetric; its rank is the rank
of M.  Everything is exact: matrices hold field codes, elimination uses the
field tables, and products go through the field's digit layer
(fields.fq_matmul).  The Gauss and isotropic sums of a phase run on the
phase kernel and live beside it, in correlations (gauss_mean,
isotropic_count).  Ranks come from one elimination along a batch axis
(_ranks): rank is its one-item call, and rank_stats ranks blocks of
compressions M_{a,b}, each block one contraction of the compressions of
monomials.  The symmetrised compression (L_a^T M L_b + L_b^T M L_a)/2
needs odd characteristic; for Hankel matrices the single product
L_a^T M L_b is already symmetric and is used instead, which keeps the
characteristic-2 case available where it makes sense.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import sieve
from .errors import BudgetExceeded, CharacteristicError
from .fields import FieldCtx, as_codes, fq_matmul
from .laurent import LaurentSeries
from .polys import Poly

__all__ = [
    "QuadPhase",
    "RankStats",
    "rank",
    "hankel_matrix",
    "dilation_matrix",
    "m_ab",
    "is_hankel",
    "matrix_to_csv",
    "matrix_from_csv",
    "rank_stats",
]


@dataclass(frozen=True)
class QuadPhase:
    """chi_r(x^T M x + b.x + c) on F_q^n."""

    ctx: FieldCtx
    M: np.ndarray
    b: np.ndarray
    c: int = 0
    r: int = 1

    def __post_init__(self):
        M = as_codes(self.ctx, self.M)
        b = as_codes(self.ctx, self.b)
        if M.shape[0] != M.shape[1] or not np.array_equal(M, M.T):
            raise ValueError("M must be symmetric")
        if b.shape != (M.shape[0],):
            raise ValueError("b must be a vector of matching length")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def rank(self) -> int:
        return rank(self.ctx, self.M)

    def effective_rank(self) -> int:
        """Rank of the form actually seen by chi_r (zero when r = 0)."""
        return self.rank() if self.r else 0

    def describe(self) -> str:
        mm = ";".join(",".join(str(int(x)) for x in row) for row in self.M)
        bb = ",".join(str(int(x)) for x in self.b)
        return f"M[{mm}]+b[{bb}]+c{self.c}|r{self.r}"


def _ranks(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Ranks over F_q of a (B, m, n) stack of code matrices: one Gaussian
    elimination along the batch axis.  For each column, every item with a
    nonzero entry at or below its rank takes its first such row as pivot,
    swaps it into place, scales it to 1 and clears the rows below it.
    Columns left of c are zero below the ranks, so only columns c.. move."""
    A = np.array(stack, dtype=np.int64)
    B, m, n = A.shape
    r = np.zeros(B, dtype=np.int64)
    rows = np.arange(m)
    for c in range(n if m else 0):
        free = (A[:, :, c] != 0) & (rows >= r[:, None])
        i = np.flatnonzero(free.any(axis=1))  # the items with a pivot
        ri, piv = r[i], free[i].argmax(axis=1)
        pivot = A[i, piv, c:]
        A[i, piv, c:] = A[i, ri, c:]
        A[i, ri, c:] = pivot = ctx.MUL[ctx.INV[pivot[:, :1]], pivot]
        factors = np.where(rows > ri[:, None], A[i, :, c], 0)
        A[i, :, c:] = ctx.SUB[A[i, :, c:], ctx.MUL[factors[:, :, None], pivot[:, None, :]]]
        r[i] += 1
    return r


def rank(ctx: FieldCtx, M) -> int:
    """Rank over F_q by exact Gaussian elimination."""
    return int(_ranks(ctx, as_codes(ctx, M)[None])[0])


def hankel_matrix(alpha: LaurentSeries, n: int) -> np.ndarray:
    """Matrix of f -> (alpha f^2)_{-1} on G_n: entries alpha_(-1-i-j)."""
    return alpha.frac_coeffs(max(2 * n - 1, 0))[np.add.outer(np.arange(n), np.arange(n))]


def is_hankel(M: np.ndarray) -> bool:
    """Whether M is constant along each antidiagonal i + j."""
    return bool((M[1:, :-1] == M[:-1, 1:]).all())


def dilation_matrix(ctx: FieldCtx, a: Poly, n: int, k: int) -> np.ndarray:
    """Coordinate matrix of w -> a w from G_(n-k) to G_n: L[i,j] = a_(i-j)."""
    if not a.is_zero() and a.deg > k:
        raise ValueError("deg a must be <= k")
    v = np.array((a.coeffs + (0,) * n)[:n], dtype=np.int64)
    lag = np.subtract.outer(np.arange(n), np.arange(n - k))  # i - j
    return np.where(lag >= 0, v[lag], 0)


def m_ab(ctx: FieldCtx, M: np.ndarray, a: Poly, b: Poly, k: int) -> np.ndarray:
    """Symmetrised compression (L_a^T M L_b + L_b^T M L_a) / 2.

    In characteristic 2 the average is unavailable; for Hankel M the single
    product L_a^T M L_b is symmetric and equals it, so that is returned.
    """
    n = M.shape[0]
    La = dilation_matrix(ctx, a, n, k)
    Lb = dilation_matrix(ctx, b, n, k)
    AB = fq_matmul(ctx, La.T, fq_matmul(ctx, M, Lb))
    if ctx.p == 2:
        if not is_hankel(M):
            raise CharacteristicError(
                "symmetrised compression requires p > 2 for general M"
            )
        return AB
    BA = fq_matmul(ctx, Lb.T, fq_matmul(ctx, M, La))
    half = ctx.inv(2 % ctx.q)
    return ctx.MUL[half][ctx.ADD[AB, BA]]


def matrix_to_csv(M: np.ndarray) -> str:
    """Matrix text format: first line n, then n rows of coefficient codes."""
    n = M.shape[0]
    lines = [str(n)]
    for i in range(n):
        lines.append(",".join(str(int(x)) for x in M[i]))
    return "\n".join(lines)


def matrix_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    n = int(lines[0])
    rows = [[int(x) for x in ln.split(",")] for ln in lines[1 : n + 1]]
    M = np.array(rows, dtype=np.int64)
    if M.shape != (n, n):
        raise ValueError("matrix text does not match its declared size")
    return M


@dataclass
class RankStats:
    k: int
    h: int
    density: Fraction
    histogram: dict = field(default_factory=dict)
    total: int = 0
    mode: str = "exhaustive"


def rank_stats(
    ctx: FieldCtx,
    M: np.ndarray,
    k: int,
    h: int,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    budget: int = 1_200_000,
) -> RankStats:
    """Distribution of rank(M_{a,b}) over pairs (a, b) in G_(k+1)^2 and the
    density of pairs with rank <= h.

    M_{a,b} is bilinear in (a, b): it is sum_(i,j) a_i b_j C_ij with C_ij
    the compression of the monomials t^i, t^j.  So the (k+1)^2 compressions
    are built once (m_ab), and each block of at most sieve.CHUNK_ENTRIES
    matrix entries is one fq_matmul of the products a_i b_j against them,
    ranked by one _ranks call."""
    q = ctx.q
    Q = q ** (k + 1)
    if mode == "exhaustive":
        if Q * Q > budget:
            raise BudgetExceeded(Q * Q, budget, "rank_stats pairs")
        total, draws = Q * Q, None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError("sampled mode needs samples >= 1")
        if Q > 2**63:
            raise ValueError(f"sampled mode draws int64 codes, and q^(k+1) = {Q} exceeds 2^63")
        if samples > budget:
            raise BudgetExceeded(samples, budget, "rank_stats samples")
        total, draws = samples, np.random.default_rng(seed).integers(0, Q, size=(samples, 2))
    else:
        raise ValueError("mode must be exhaustive or sampled")
    basis = [Poly.from_code(ctx, q**i) for i in range(k + 1)]  # t^0, ..., t^k
    C = np.array([[m_ab(ctx, M, a, b, k) for b in basis] for a in basis])
    m = C.shape[-1]
    C = C.reshape((k + 1) ** 2, m * m)
    step = max(1, sieve.CHUNK_ENTRIES // max(1, m * m))
    hist: Counter = Counter()
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        codes = np.divmod(np.arange(lo, hi), Q) if draws is None else draws[lo:hi].T
        a, b = (sieve.codes_to_digits(ctx, x, k + 1) for x in codes)
        w = ctx.MUL[a[:, :, None], b[:, None, :]].reshape(len(a), -1)
        hist.update(_ranks(ctx, fq_matmul(ctx, w, C).reshape(len(a), m, m)).tolist())
    low = sum(c for r, c in hist.items() if r <= h)
    return RankStats(
        k=k,
        h=h,
        density=Fraction(low, total),
        histogram=dict(sorted(hist.items())),
        total=total,
        mode=mode,
    )
