"""Mobius correlation sums with linear, quadratic and Hankel phases.

Every sum is accumulated as an integer histogram of omega_p exponents
(signed by mu), so results are exact, order independent, and merge across
enumeration chunks by plain vector addition; the complex value is a single
dot product taken at the end.  Phases know how to evaluate themselves on a
block of coefficient vectors.

All three phase kinds share one kernel.  Each is chi_r(Q(f)) with Q of
degree <= 2 in the coefficients of f, and gives Q as quadratic data
(M, b, c, r) over F_q (`Phase.quad_data`): a linear phase has M = 0, a
Hankel phase M = hankel_matrix(alpha).  Since F_q multiplication is
F_p-bilinear and the trace F_p-linear, the exponent is a quadratic form
over F_p in the N = s n base-p digits of a code (quadform.digit_form).
`Phase.form` builds it once per number of coordinates (`PhaseForm`) and
checks it against the phase's own `exponents` at codes that determine a
quadratic form, which makes the check an exact second route for every
phase kind at every p; `phase_hist` then evaluates whole code ranges with
one matrix product per chunk and takes the histogram with a bincount.
The Vaughan type I / type II sums need Phi(d w) over w for many d; since
the exponent of d w is again a quadratic form in the digits of w, with
data (L_d^T A L_d, b L_d, c), the decomposition stacks the dilated forms
of a block of d (`PhaseForm.dilated`) and histograms them with the same
kernel, binned by the degree of w (`_dilation_hists`), so that T1, T2 and
the direct sum are kept per degree of f.
periodic_route_check compares a table keyed by Hayes class with
linear_corr exactly and without a second kernel pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import (
    BudgetExceeded,
    CharacteristicError,
    IdentityCheckError,
    PrecisionExceeded,
)
from .fields import FieldCtx
from .hayes import HayesClass, head_index, residues_mod
from .laurent import LaurentSeries, dirichlet_approx, sample_torus
from .polys import Poly
from .quadform import QuadPhase, digit_form, hankel_matrix
from . import sieve as _sieve

__all__ = [
    "LinearPhase",
    "QuadraticPhase",
    "HankelPhase",
    "CorrelationReport",
    "VaughanReport",
    "linear_corr",
    "quad_corr",
    "hankel_corr",
    "linear_reduction_hists",
    "periodic_corr",
    "periodic_route_check",
    "vaughan_pointwise_audit",
    "vaughan_decompose",
    "type_one_mean_square",
    "exponent_sweep",
]

CHUNK = 1 << 15


# -- phases --------------------------------------------------------------------


class Phase:
    """A phase chi_r(Q(f)) with Q of degree <= 2 in the coefficients of f.
    Subclasses give `quad_data(ncoords)`, Q as (M, b, c, r) over F_q (the
    exponent is Tr(r (x^T M x + b.x + c))), and `exponents`, the phase
    evaluated on its own terms; `form` compiles the first, checked against
    the second, once per number of coordinates."""

    def form(self, ncoords: int) -> "PhaseForm":
        forms = self.__dict__.setdefault("_forms", {})
        if ncoords not in forms:
            forms[ncoords] = PhaseForm.compile(self, ncoords)
        return forms[ncoords]


class LinearPhase(Phase):
    """Phi(f) = e(alpha f)."""

    def __init__(self, alpha: LaurentSeries):
        self.alpha = alpha
        self.ctx = alpha.ctx

    def require_prec(self, ncoords: int):
        if self.alpha.prec < ncoords:
            raise PrecisionExceeded(
                f"linear phase needs precision >= {ncoords}, have {self.alpha.prec}"
            )

    def quad_data(self, ncoords: int) -> tuple:
        """M = 0 and b_i = alpha_(-1-i)."""
        self.require_prec(ncoords)
        b = [self.alpha.coefficient(-1 - i) for i in range(ncoords)]
        return np.zeros((ncoords, ncoords), dtype=np.int64), b, 0, 1

    def exponents(self, ncoords: int, codes: np.ndarray) -> np.ndarray:
        ctx, q = self.ctx, self.ctx.q
        self.require_prec(ncoords)
        acc = np.zeros(len(codes), dtype=np.int64)
        for i in range(ncoords):
            a = self.alpha.coefficient(-1 - i)
            if a:
                tab = ctx.TRACE[ctx.MUL[a]]
                acc += tab[(codes // q**i) % q]
        return acc % ctx.p

    def descriptor(self) -> str:
        return f"linear:{self.alpha.format()}"


class QuadraticPhase(Phase):
    """Phi(f) = chi_r(Q(f)) for a quadratic polynomial in the coefficients."""

    def __init__(self, qp: QuadPhase):
        self.qp = qp
        self.ctx = qp.ctx

    def require_prec(self, ncoords: int):
        if ncoords != self.qp.n:
            raise ValueError(
                f"phase is on {self.qp.n} coordinates, asked for {ncoords}"
            )

    def quad_data(self, ncoords: int) -> tuple:
        self.require_prec(ncoords)
        return self.qp.M, self.qp.b, self.qp.c, self.qp.r

    def exponents(self, ncoords: int, codes: np.ndarray) -> np.ndarray:
        """Tr(r Q(x)) on the F_q coordinates x of each code, by the MUL and
        TRACE tables alone (not by the digit form): with x' = (x, 1),
        Q(x) = x'^T M' x' for M' = [[M, 0], [b, c]], and the trace is
        F_p-linear, so the exponent is sum Tr(r M'_ij x'_i x'_j) mod p."""
        ctx, qp, q = self.ctx, self.qp, self.ctx.q
        self.require_prec(ncoords)
        X = np.ones((len(codes), ncoords + 1), dtype=np.int64)
        X[:, :-1] = codes[:, None] // q ** np.arange(ncoords) % q
        Mx = np.zeros((ncoords + 1, ncoords + 1), dtype=np.int64)
        Mx[:-1, :-1], Mx[-1, :-1], Mx[-1, -1] = qp.M, qp.b, qp.c
        k = (ncoords + 1) ** 2
        T = ctx.TRACE[ctx.MUL[ctx.MUL[qp.r][Mx]]].ravel()  # y -> Tr(r M'_ij y) at ij q + y
        XX = (X[:, :, None] * q + X[:, None, :]).reshape(len(codes), k)  # MUL index of x'_i x'_j
        return T[ctx.MUL.ravel()[XX] + np.arange(0, k * q, q)].sum(axis=1) % ctx.p

    def descriptor(self) -> str:
        return f"quadratic:{self.qp.describe()}"


class HankelPhase(Phase):
    """Phi(f) = e(alpha f^2 + beta f), evaluated by squaring f.

    beta = None means an exactly zero linear part."""

    def __init__(self, alpha: LaurentSeries, beta: LaurentSeries | None = None):
        self.alpha = alpha
        self.ctx = alpha.ctx
        self.beta = beta

    def require_prec(self, ncoords: int):
        need_a = 2 * ncoords - 1
        if self.alpha.prec < need_a:
            raise PrecisionExceeded(
                f"hankel phase needs alpha precision >= {need_a}, have {self.alpha.prec}"
            )
        if self.beta is not None and self.beta.prec < ncoords:
            raise PrecisionExceeded(
                f"hankel phase needs beta precision >= {ncoords}, have {self.beta.prec}"
            )

    def quad_data(self, ncoords: int) -> tuple:
        """M = hankel_matrix(alpha) and b_i = beta_(-1-i): (alpha f^2)_(-1)
        is sum_(i,j) alpha_(-1-i-j) f_i f_j = x^T M x in every characteristic
        (at p = 2 the pairs i != j cancel, leaving sum alpha_(-1-2i) f_i^2)."""
        self.require_prec(ncoords)
        b = [self.beta.coefficient(-1 - i) if self.beta is not None else 0 for i in range(ncoords)]
        return hankel_matrix(self.alpha, ncoords), b, 0, 1

    def exponents(self, ncoords: int, codes: np.ndarray) -> np.ndarray:
        ctx, p = self.ctx, self.ctx.p
        self.require_prec(ncoords)
        X = _sieve.codes_to_digits(ctx, codes, ncoords)
        wid = max(2 * ncoords - 1, 0)
        # digits of f^2 by convolution of f with itself
        S = np.zeros((len(codes), wid), dtype=np.int16)
        for i in range(ncoords):
            S[:, 2 * i] = ctx.ADD[S[:, 2 * i], ctx.MUL[X[:, i], X[:, i]]]
            if p != 2:  # the cross terms 2 f_i f_j, j > i, land on i + j
                cross = ctx.MUL[X[:, i : i + 1], X[:, i + 1 :]]
                span = slice(2 * i + 1, i + ncoords)
                S[:, span] = ctx.ADD[S[:, span], ctx.ADD[cross, cross]]
        acc = np.zeros(len(codes), dtype=np.int64)
        for k in range(wid):
            a = self.alpha.coefficient(-1 - k)
            if a:
                acc += ctx.TRACE[ctx.MUL[a]][S[:, k]]
        if self.beta is not None:
            for i in range(ncoords):
                b = self.beta.coefficient(-1 - i)
                if b:
                    acc += ctx.TRACE[ctx.MUL[b]][X[:, i]]
        return acc % p

    def descriptor(self) -> str:
        bfmt = self.beta.format() if self.beta is not None else "0"
        return f"hankel:{self.alpha.format()}|{bfmt}"


# -- compiled forms and the histogram kernel ---------------------------------------


def _digit_rows(codes: np.ndarray, units: np.ndarray, p: int) -> np.ndarray:
    """Float64 base-p digit rows of integer-valued codes below 2^53; units
    holds p^0, ..., p^N.  Exact: IEEE division rounds correctly, so the
    floors are the integer quotients."""
    F = np.floor(codes[:, None] / units)
    return F[:, :-1] - p * F[:, 1:]


class PhaseForm:
    """A stack of B quadratic forms E_i(x) = x^T A_i x + b_i.x + c over F_p,
    A_i upper triangular, in the N base-p digits x of a code (digits of p^N
    and above are ignored, as the phases' own exponents ignore them).  A
    compiled phase is a stack of one on N = s ncoords digits, and `dilated`
    stacks its compositions with a block of dilations.  A and b hold
    residues in [0, p) as float64, so the kernel's matrix products are
    exact (see phase_hist)."""

    def __init__(self, ctx: FieldCtx, A: np.ndarray, b: np.ndarray, c: int):
        """The forms of integer A of shape (B, N, N), b of shape (B, N) and
        c, made upper triangular mod p: A_kl + A_lk above the diagonal, and
        at p = 2, where y^2 = y, the diagonal folded into b.  That form of
        a quadratic function on F_p^N is unique."""
        p = ctx.p
        diag = np.diagonal(A, axis1=1, axis2=2)
        if p == 2:
            b, diag = b + diag, 0 * diag
        A = np.triu(A + A.swapaxes(1, 2), 1) + diag[:, :, None] * np.eye(A.shape[-1])
        self.ctx, self.p, self.N = ctx, p, b.shape[-1]
        self.A, self.b, self.c = A % p, (b % p).astype(np.float64), c
        self.units = float(p) ** np.arange(self.N + 1)

    @classmethod
    def compile(cls, phase: Phase, ncoords: int) -> "PhaseForm":
        """The digit_form of phase.quad_data(ncoords) as a stack of one,
        checked against phase.exponents at the codes 0, p^k and p^k + p^l
        for all (k, l) (the diagonal is 2 p^k), the repunits
        v (p^N - 1)/(p - 1) and 16 hashed codes.  The values at the digit
        vectors 0, e_k and e_k + e_l determine a quadratic form, so the
        check is exact whenever the exponents are one; the repunit and
        hashed codes catch exponents that are not.  A mismatch raises
        IdentityCheckError with the first code that differs."""
        A, b, c = digit_form(phase.ctx, *phase.quad_data(ncoords))
        form = cls(phase.ctx, A[None], b[None], c)
        p, P = form.p, form.p**form.N
        units = p ** np.arange(form.N, dtype=np.int64)
        check = [v * ((P - 1) // (p - 1)) for v in range(1, p)]
        check += [(k * 0x9E3779B97F4A7C15 + 0x632BE5AB) % P for k in range(16)]
        codes = np.concatenate(([0], units, (units[:, None] + units).ravel(), check)).astype(np.int64)
        got, want = form.exponents(codes), phase.exponents(ncoords, codes)
        if (got != want).any():
            j = int(np.nonzero(got != want)[0][0])
            raise IdentityCheckError(
                "phase exponents differ from the form of its quadratic data",
                counterexample=f"{phase.descriptor()} on {ncoords} coordinates, "
                f"code {int(codes[j])}: form {int(got[j])}, exponents {int(want[j])}",
            )
        return form

    def dilated(self, d_digits: np.ndarray, m: int) -> "PhaseForm":
        """The forms of w -> E(d_i w) on m coordinates, for a compiled form
        (a stack of one) on n coordinates and the F_q coefficients d_i of
        the rows of d_digits, deg d_i <= n - m.  The digits of d w are
        L_d y for the digits y of w, with block (k, j) of L_d the
        multiplication matrix MULMAT[d_(k-j)] (zero for k < j), so E(d w)
        has the data (L_d^T A L_d, b L_d, c)."""
        ctx, s = self.ctx, self.ctx.s
        n = self.N // s
        lag = np.subtract.outer(np.arange(n), np.arange(m))  # k - j
        coeffs = np.zeros((len(d_digits), n + 1), dtype=np.intp)  # column n stays 0, for k < j
        coeffs[:, : d_digits.shape[1]] = d_digits
        L = ctx.MULMAT[coeffs[:, np.where(lag >= 0, lag, n)]]  # (B, k, j, digit of d w, digit of w)
        L = L.transpose(0, 1, 3, 2, 4).reshape(len(d_digits), self.N, s * m)
        return PhaseForm(ctx, L.swapaxes(1, 2) @ self.A[0] @ L, self.b[0] @ L, self.c)

    def _quad(self, Y: np.ndarray):
        """A_i y and y^T A_i y + b_i.y for each form i and digit row y of Y."""
        G = Y @ self.A.swapaxes(1, 2)
        return G, np.einsum("bij,ij->bi", G, Y) + self.b @ Y.T

    def exponents(self, codes: np.ndarray) -> np.ndarray:
        """E at each of the given codes, as residues in [0, p), for a
        compiled form (a stack of one)."""
        Y = _digit_rows(codes.astype(np.float64), self.units, self.p)
        return ((self._quad(Y)[1][0] + self.c) % self.p).astype(np.intp)

    def hist(self, lo: int, hi: int, weights: np.ndarray | None, slots: np.ndarray | None = None,
             S: int = 1) -> np.ndarray:
        """(B, S, p) exponent histograms over the codes [lo, hi), weighted by
        weights[lo:hi] when given, as float64 holding exact integers: [i, k]
        counts the codes lo + j with slots[j] = k (every code at k = 0 when
        slots is None) at the exponents of form i."""
        p, N, B = self.p, self.N, len(self.A)
        K = 0  # low digits: p^K is about sqrt(hi - lo)
        while K < N and p ** (2 * K) < hi - lo:
            K += 1
        nL = p**K
        h0, h1 = lo // nL, (hi - 1) // nL + 1
        # low codes 0..nL-1 carry only digits < K, high codes h p^K only
        # digits >= K, so A y of a high row, cut to its first K entries,
        # is C y_H; the constant is added when the bins are folded
        codes = np.concatenate((np.arange(nL), np.arange(h0 * nL, h1 * nL, nL))).astype(np.float64)
        Y = _digit_rows(codes, self.units, p)
        G, v = self._quad(Y)
        R = np.ones((B, len(codes), K + 2))
        R[:, :nL, :K] = Y[:nL, :K]
        R[:, nL:, :K] = G[:, nL:, :K]
        R[:, :nL, K], R[:, nL:, K + 1] = v[:, :nL], v[:, nL:]
        R -= p * np.floor(R / p)  # mod p, exact on these integers
        M = K * (p - 1) ** 2 + 2 * p - 1
        E = R[:, nL:] @ R[:, :nL].swapaxes(1, 2)  # E - c, unreduced, below M
        exps = E.reshape(B, -1)[:, lo - h0 * nL : hi - h0 * nL].astype(np.intp)
        w = None if weights is None else weights[lo:hi]
        fold = (np.arange(M) + self.c) % p
        if B == 1 and slots is None:
            return np.bincount(fold, np.bincount(exps[0], w, M), p)[None, None]
        # exponent e of form i in slot k: bin (i S + k) M + e
        exps += M * (S * np.arange(B)[:, None] + (0 if slots is None else slots))
        h = np.bincount(exps.ravel(), None if w is None else np.tile(w, B), B * S * M)
        return h.reshape(B, S, M) @ np.eye(p)[fold]


def phase_hist(
    ctx: FieldCtx,
    phase,
    ncoords: int,
    lo: int,
    hi: int,
    weights: np.ndarray | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Signed exponent histogram sum_{code in [lo, hi)} w(code) at the
    phase exponent of code.  weights is indexed by code; None means
    weight 1.  workers is accepted and ignored, until the benchmark
    change of ROADMAP item 8 stops binding it.

    The phase is compiled once per ncoords into its F_p quadratic form
    (PhaseForm).  Each chunk of at most CHUNK codes is split at the K-th
    base-p digit, p^K about sqrt(chunk): code = x_L + p^K x_H, and

        E - c = (x_L^T A_LL x_L + b_L.x_L) + (x_H^T A_HH x_H + b_H.x_H)
                + x_L . (C x_H),   C = A_LH,

    so E - c over the whole chunk, high codes by low codes, is one float64
    matrix product of the high rows [C x_H mod p | 1 | E_H mod p] with the
    low rows [x_L | E_L mod p | 1].  Every entry of the product is an
    integer at most K (p-1)^2 + 2(p-1), far below 2^53, so it is exact; it
    is not reduced, its bincount is folded mod p with the shift by c.
    Weighted bincounts add float64 partial sums of magnitude at most
    hi - lo < 2^53, so they are exact too."""
    form = phase.form(ncoords)
    return _sum_spans(lambda a, b: form.hist(a, b, weights)[0, 0], lo, hi, ctx.p)


def _sum_spans(fn, lo: int, hi: int, shape) -> np.ndarray:
    """The sum of fn(a, b) over the spans [a, b) of at most CHUNK codes of
    [lo, hi), taken in order from zeros of the given shape and rounded to
    int64."""
    total = np.zeros(shape)
    for a in range(lo, hi, CHUNK):
        total += fn(a, min(a + CHUNK, hi))
    return np.rint(total).astype(np.int64)


def _dilation_hists(ctx: FieldCtx, form: PhaseForm, d_codes: np.ndarray, dd: int, lo: int,
                    hi: int, weights: np.ndarray | None = None) -> np.ndarray:
    """(len(d_codes), S, p) exponent histograms: [i, s] is over the w in
    [lo, hi) of G_(n - dd) with s = 1 + deg w (s = 0 for w = 0), weighted
    by weights[w] (1 when None) at the exponent of d_i w, for monic codes
    d_i of degree dd < n and a phase's compiled form on n coordinates; S is
    1 + the number of base-q digits of hi - 1.  Summed over s, row i is
    phase_hist of the phase with the dilation w -> d_i w composed in, on
    n - dd coordinates, the route the tests compare against.  Each span of
    at most CHUNK w-codes is histogrammed by PhaseForm.hist on the dilated
    forms of blocks of about CHUNK / span d, so that a block holds about
    CHUNK exponents; the spans are summed in order as in phase_hist."""
    p, S = ctx.p, 1 + _sieve._ndigits(ctx.q, max(hi - 1, 0))
    powers = ctx.q ** np.arange(S - 1)  # deg w = k from w = q^k on
    digits = _sieve.codes_to_digits(ctx, d_codes, dd + 1)
    m = form.N // ctx.s - dd

    def span(a, b):
        slots = np.searchsorted(powers, np.arange(a, b), side="right")
        step = max(1, CHUNK // (b - a))
        out = np.zeros((len(digits), S, p))
        for i in range(0, len(digits), step):
            out[i : i + step] = form.dilated(digits[i : i + step], m).hist(a, b, weights, slots, S)
        return out

    return _sum_spans(span, lo, hi, (len(d_codes), S, p))


def hist_to_complex(ctx: FieldCtx, hist: np.ndarray) -> complex:
    p = ctx.p
    if p == 2:
        return complex(int(hist[0]) - int(hist[1]))
    return complex(hist @ np.exp(2j * np.pi * np.arange(p) / p))


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationReport:
    q: int
    n: int
    kind: str
    phase: str
    hist: tuple
    terms: int

    def sum(self, ctx: FieldCtx) -> complex:
        return hist_to_complex(ctx, np.array(self.hist, dtype=np.int64))

    def abs(self, ctx: FieldCtx) -> float:
        return abs(self.sum(ctx))

    def empirical_exponent(self, ctx: FieldCtx):
        a = self.abs(ctx)
        if a <= 0 or self.n == 0:
            return None
        return log(a) / (self.n * log(self.q))


def _report(ctx, n, kind, phase, hist) -> CorrelationReport:
    return CorrelationReport(
        q=ctx.q,
        n=n,
        kind=kind,
        phase=phase.descriptor(),
        hist=tuple(int(x) for x in hist),
        terms=ctx.q**n,
    )


# -- the three headline sums -----------------------------------------------------


def linear_corr(
    ctx: FieldCtx,
    n: int,
    alpha: LaurentSeries,
    domain: str = "G",
    budget: int = 1_200_000,
) -> CorrelationReport:
    """sum of mu(f) e(alpha f) over A_n or G_n."""
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "correlation sweep")
    phase = LinearPhase(alpha)
    if domain == "G":
        mu = _sieve.mobius_over_g(ctx, n)
        hist = phase_hist(ctx, phase, n, 0, q**n, mu)
    elif domain == "A":
        sieve = _sieve.get_sieve(ctx, max(n, 1))
        hist = phase_hist(ctx, phase, n + 1, q**n, 2 * q**n, sieve.mu)
    else:
        raise ValueError("domain must be 'A' or 'G'")
    return _report(ctx, n, f"linear/{domain}", phase, hist)


def quad_corr(
    ctx: FieldCtx,
    n: int,
    qp: QuadPhase,
    budget: int = 1_200_000,
) -> CorrelationReport:
    """sum of mu(f) chi_r(Q(f)) over G_n; odd characteristic only."""
    if ctx.p == 2:
        raise CharacteristicError(
            "quadratic correlations require odd characteristic (p > 2)"
        )
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "correlation sweep")
    if qp.n != n:
        raise ValueError("phase dimension must equal n")
    phase = QuadraticPhase(qp)
    mu = _sieve.mobius_over_g(ctx, n)
    hist = phase_hist(ctx, phase, n, 0, q**n, mu)
    return _report(ctx, n, "quadratic", phase, hist)


def hankel_corr(
    ctx: FieldCtx,
    n: int,
    alpha: LaurentSeries,
    beta: LaurentSeries | None = None,
    budget: int = 1_200_000,
) -> CorrelationReport:
    """sum of mu(f) e(alpha f^2 + beta f) over G_n.  The kernel runs the
    form of the Hankel matrix of alpha (HankelPhase.quad_data), which its
    compile checks exactly against explicit squaring, at every p."""
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "correlation sweep")
    phase = HankelPhase(alpha, beta)
    mu = _sieve.mobius_over_g(ctx, n)
    return _report(ctx, n, "hankel", phase, phase_hist(ctx, phase, n, 0, q**n, mu))


def linear_reduction_hists(ctx: FieldCtx, n: int, alpha: LaurentSeries, budget=1_200_000):
    """The G_n histogram and its reconstruction from A_k sums with alpha
    scaled by each unit; the two must be equal as integer vectors."""
    histG = np.array(linear_corr(ctx, n, alpha, "G", budget).hist, dtype=np.int64)
    acc = np.zeros(ctx.p, dtype=np.int64)
    for c in ctx.units():
        scaled = alpha.scale(c)
        for k in range(n):
            acc += np.array(
                linear_corr(ctx, k, scaled, "A", budget).hist, dtype=np.int64
            )
    return histG, acc


# -- periodic-function route ------------------------------------------------------


def periodic_corr(ctx: FieldCtx, n: int, l: int, Q: Poly, F, budget: int = 1_200_000):
    """sum over f in A_n of F(class of f) mu(f) for a function F given on
    the classes mod (l, Q); F is a dict keyed by HayesClass (complete over
    the classes met in A_n) or a callable on classes.  A_n is grouped by
    class key (residues_mod * q^l + head_index), and F is read once per
    class that a squarefree f reaches, against the sum of mu over it."""
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "A_n sweep")
    sieve = _sieve.get_sieve(ctx, max(n, 1))
    mu = sieve.degree_slice(sieve.mu, n)
    keys = residues_mod(ctx, Q, n) * q**l + head_index(ctx, l, n)
    weights = np.bincount(keys, weights=mu)  # exact: integers far below 2^53
    lookup = F if callable(F) else F.__getitem__
    total = 0j
    for key in np.unique(keys[mu != 0]).tolist():
        residue, h = divmod(key, q**l)
        cls = HayesClass(residue, tuple(h // q**i % q for i in range(l)))
        try:
            total += int(weights[key]) * lookup(cls)
        except KeyError:
            raise ValueError(f"periodic table is missing the class {cls}") from None
    return total


def periodic_route_check(ctx: FieldCtx, n: int, alpha: LaurentSeries, budget: int = 1_200_000):
    """Dirichlet-approximate alpha, audit that e(alpha f) only depends on the
    class of f mod (l, g) with l = n - floor(n/2) - deg g, then compare the
    periodic-function route against the direct linear sum.

    The exponents are scattered into a table by Hayes class key
    (hayes.head_index) and must read back unchanged; the mu-weighted
    histogram of the table at the keys must equal linear_corr's over A_n.

    Returns (direct sum, periodic sum, l, g)."""
    ra = dirichlet_approx(alpha, n)
    g = ra.g
    l = n - n // 2 - int(g.deg)
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "A_n sweep")
    exps = LinearPhase(alpha).exponents(n + 1, np.arange(q**n, 2 * q**n, dtype=np.int64))
    keys = residues_mod(ctx, g, n) * q**l + head_index(ctx, l, n)
    table = np.zeros(q ** (int(g.deg) + l), dtype=np.int64)
    table[keys] = exps
    bad = np.flatnonzero(table[keys] != exps)
    if len(bad):
        raise IdentityCheckError(
            "e(alpha f) is not constant on classes mod (l, g)",
            counterexample=f"alpha={alpha.format()}, f={Poly.from_code(ctx, q**n + int(bad[0]))!r}, "
            f"l={l}, g={g!r}",
        )
    sieve = _sieve.get_sieve(ctx, max(n, 1))
    mu = sieve.degree_slice(sieve.mu, n)
    periodic = np.bincount(table[keys], weights=mu, minlength=ctx.p).astype(np.int64)
    direct = linear_corr(ctx, n, alpha, "A", budget)
    if not np.array_equal(periodic, direct.hist):
        raise IdentityCheckError(
            "periodic route disagrees with the direct sum",
            counterexample=f"alpha={alpha.format()}, direct {list(direct.hist)}, "
            f"periodic {periodic.tolist()}",
        )
    return direct.sum(ctx), hist_to_complex(ctx, periodic), l, g


# -- Vaughan decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class VaughanAudit:
    u: int
    v: int
    max_deg: int
    fail_degrees: tuple  # degrees with at least one pointwise failure
    failures: tuple  # offending monic polynomials (possibly truncated)
    failure_count: int


_AUDIT_ARRAYS: dict[tuple, dict] = {}


def _audit_arrays(ctx: FieldCtx, D: int) -> dict:
    """mu and the monic indicator over the codes below 2 q^D, once per
    (field, D): the inputs of the Vaughan split."""
    key = (ctx, D)
    if key not in _AUDIT_ARRAYS:
        q = ctx.q
        sieve = _sieve.get_sieve(ctx, D)
        size = 2 * q**D
        mu = sieve.mu.astype(np.int64)[:size]
        ones = np.zeros(size, dtype=np.int64)
        for d in range(D + 1):
            ones[q**d : 2 * q**d] = 1
        _AUDIT_ARRAYS[key] = {"mu": mu, "ones": ones}
    return _AUDIT_ARRAYS[key]


def vaughan_rhs_arrays(ctx: FieldCtx, D: int, u: int, v: int):
    """The Vaughan split of mu over monic codes of degree <= D from four
    honest convolutions (pairwise enumeration, no Mobius inversion):

        w_uv = mu_{<=u} * mu_{<=v}       (type I coefficients)
        a1   = w_uv * 1
        r_u  = mu_{>u} * 1               (type II coefficients)
        b    = r_u * mu_{>v} = mu_{>u} * mu_{>v} * 1

    so that mu = -a1 + b wherever the audit clears.  The monic codes of
    degree <= u are the monic codes below 2 q^u, and mu vanishes off monic
    codes, so each degree cut-off of mu is a code prefix."""
    arrays = _audit_arrays(ctx, D)
    mu, ones = arrays["mu"], arrays["ones"]
    cut_u, cut_v = 2 * ctx.q**u, 2 * ctx.q**v
    mu_above_u = mu.copy()
    mu_above_u[:cut_u] = 0
    mu_above_v = mu.copy()
    mu_above_v[:cut_v] = 0
    w_uv = _sieve.convolve_monic(ctx, D, mu[:cut_u], mu[:cut_v])
    a1 = _sieve.convolve_monic(ctx, D, w_uv, ones)
    r_u = _sieve.convolve_monic(ctx, D, mu_above_u, ones)
    b_arr = _sieve.convolve_monic(ctx, D, r_u, mu_above_v)
    return {"a1": a1, "b": b_arr, "w_uv": w_uv, "r_u": r_u}


# How many failing polynomials a VaughanAudit lists; failure_count has them all.
MAX_EXAMPLES = 64


def vaughan_pointwise_audit(
    ctx: FieldCtx, max_deg: int, u: int, v: int, budget: int = 1_200_000
) -> VaughanAudit:
    """Exhaustively test mu(f) = -A1(f) + B(f) for every monic f with
    deg f <= max_deg and record where it fails."""
    if ctx.q**max_deg > budget:
        raise BudgetExceeded(ctx.q**max_deg, budget, "pointwise audit")
    rhs = vaughan_rhs_arrays(ctx, max_deg, u, v)
    return _pointwise_audit(ctx, max_deg, u, v, rhs)


def _pointwise_audit(ctx, max_deg, u, v, rhs) -> VaughanAudit:
    """The audit of vaughan_pointwise_audit against given rhs arrays.  Both
    sides vanish off the monic codes, so the failures in code order are
    the failures by degree."""
    bad = np.flatnonzero(-rhs["a1"] + rhs["b"] != _audit_arrays(ctx, max_deg)["mu"])
    degrees = np.searchsorted(ctx.q ** np.arange(max_deg + 1), bad, side="right") - 1
    return VaughanAudit(
        u=u,
        v=v,
        max_deg=max_deg,
        fail_degrees=tuple(int(d) for d in np.unique(degrees)),
        failures=tuple(Poly.from_code(ctx, int(c)) for c in bad[:MAX_EXAMPLES]),
        failure_count=len(bad),
    )


@dataclass(frozen=True)
class VaughanReport:
    u: int
    v: int
    n: int
    t1: complex
    t2: complex
    direct: complex
    residual: float
    restricted_residual: float
    pass_degrees: tuple
    fail_degrees: tuple
    pointwise_failures: tuple
    coefficient_bound_ok: bool


def vaughan_decompose(
    ctx: FieldCtx,
    n: int,
    phase,
    u: int | None = None,
    v: int | None = None,
    budget: int = 1_200_000,
    workers: int = 1,
) -> VaughanReport:
    """Type I / type II split of sum over G_n of mu(f) Phi(f).

    T1 = sum over monic d of a_d sum over w in G_(n - deg d) of Phi(d w),
    with a_d = sum over factorizations d = a b, deg a <= u, deg b <= v, of
    mu(a) mu(b); T2 carries b_d = sum over divisors a of d with deg a > u of
    mu(a) against mu(w) over deg w > v.  Beside the full sums the report
    carries the pointwise audit and the same sums restricted to the degrees
    the audit clears, where direct = -T1 + T2 holds bin by bin (checked).
    Each sum is kept as an (n + 1, p) table by degree of f, row 1 + deg f
    (row 0 the w = 0 term of T1): per degree of d, T1 and T2 are the
    coefficients times one _dilation_hists over the whole w range, and the
    direct sum is one phase_hist per degree.  A full sum is a table's
    total, a restricted sum its pass-degree rows.  workers is accepted and
    ignored, until the benchmark change of ROADMAP item 8 stops binding it.
    """
    q, p = ctx.q, ctx.p
    if u is None:
        u = n // 18
    if v is None:
        v = n // 18
    if u < 0 or v < 0:
        raise ValueError("u >= 0 and v >= 0 required")
    if u + v >= n:
        raise ValueError("u + v < n required")
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "vaughan sweep")
    rhs = vaughan_rhs_arrays(ctx, n, u, v)
    audit = _pointwise_audit(ctx, n, u, v, rhs)
    pass_degrees = tuple(d for d in range(n) if d not in audit.fail_degrees)
    tau = _sieve.get_sieve(ctx, n).tau
    a_d, b_d = rhs["w_uv"], rhs["r_u"]
    for kind, name, coeffs in (("I", "a_d", a_d), ("II", "b_d", b_d[: q**n])):  # b_d: deg d < n
        over = np.flatnonzero(np.abs(coeffs) > tau[: len(coeffs)])
        if len(over):
            dc = int(over[0])
            raise IdentityCheckError(
                f"type {kind} coefficient exceeds tau",
                counterexample=f"d={Poly.from_code(ctx, dc)!r}, {name}={int(coeffs[dc])}, "
                f"tau={int(tau[dc])}",
            )
    form = phase.form(n)
    mu_n = _sieve.mobius_over_g(ctx, n)
    t1, t2, direct = (np.zeros((n + 1, p), dtype=np.int64) for _ in range(3))

    def dilated(out, coeffs, degrees, lo, weights):
        for dd in degrees:
            d_codes = q**dd + np.flatnonzero(coeffs[q**dd : 2 * q**dd])
            if len(d_codes):
                H = _dilation_hists(ctx, form, d_codes, dd, lo, q ** (n - dd), weights)
                # slot 0 (w = 0) goes to row 0, slot 1 + deg w to row 1 + deg f
                out[np.r_[0, 1 + dd : n + 1]] += np.tensordot(coeffs[d_codes], H, 1)

    # a_d = (mu_u * mu_v)(d) vanishes for deg d > u + v
    dilated(t1, a_d, range(u + v + 1), 0, None)
    # d of degree n - v - 1 and above leave no w with v < deg w < n - deg d
    dilated(t2, b_d, range(n - v - 1), q ** (v + 1), mu_n)
    for k in range(n):
        direct[1 + k] = phase_hist(ctx, phase, n, q**k, q ** (k + 1), mu_n)
    t1r, t2r, dr = (h[[1 + d for d in pass_degrees]].sum(axis=0) for h in (t1, t2, direct))
    if not np.array_equal(dr, t2r - t1r):
        raise IdentityCheckError(
            "restricted sums violate direct = -T1 + T2",
            counterexample=f"n={n}, u={u}, v={v}: direct {dr.tolist()}, "
            f"T1 {t1r.tolist()}, T2 {t2r.tolist()}",
        )
    t1c, t2c, dc_ = (hist_to_complex(ctx, h.sum(axis=0)) for h in (t1, t2, direct))
    t1r, t2r, dr = (hist_to_complex(ctx, h) for h in (t1r, t2r, dr))
    return VaughanReport(
        u=u,
        v=v,
        n=n,
        t1=t1c,
        t2=t2c,
        direct=dc_,
        residual=abs(dc_ - (-t1c + t2c)),
        restricted_residual=abs(dr - (-t1r + t2r)),
        pass_degrees=pass_degrees,
        fail_degrees=audit.fail_degrees,
        pointwise_failures=audit.failures,
        coefficient_bound_ok=True,
    )


def type_one_mean_square(
    ctx: FieldCtx,
    n: int,
    phase,
    k_max: int | None = None,
    budget: int = 1_200_000,
    workers: int = 1,
):
    """Reported statistic: for each k, the mean over monic d of degree k of
    |mean over w in G_(n-k) of Phi(d w)|^2.  No threshold is asserted; this
    is the quantity whose largeness would push a phase into the low-rank
    regime.  workers is accepted and ignored, until the benchmark change of
    ROADMAP item 8 stops binding it."""
    q = ctx.q
    if q**n > budget:
        raise BudgetExceeded(q**n, budget, "type I sweep")
    if k_max is None:
        k_max = n - 1
    form = phase.form(n)
    rows = []
    for k in range(min(k_max, n - 1) + 1):
        m = n - k
        H = _dilation_hists(ctx, form, np.arange(q**k, 2 * q**k), k, 0, q**m).sum(axis=1)
        total = 0.0
        for h in H:  # in d order, so the float sum is always taken alike
            total += abs(hist_to_complex(ctx, h) / q**m) ** 2
        rows.append((k, total / q**k))
    return rows


# -- sampled sweeps -----------------------------------------------------------------


def exponent_sweep(
    ctx: FieldCtx,
    experiment: str,
    n_values,
    samples: int,
    seed: int,
    budget: int = 1_200_000,
    workers: int = 1,
    exhaustive: bool = False,
):
    """Sampled max/mean |sum| and empirical exponents per n for the linear,
    quadratic or hankel experiment; exhaustive (linear only) takes every
    alpha at precision n + 1 instead.  Deterministic under the seed.
    workers is accepted and ignored, until the benchmark change of ROADMAP
    item 8 stops binding it."""
    if experiment not in ("linear", "quadratic", "hankel"):
        raise ValueError(f"unknown experiment {experiment!r}")
    if exhaustive and experiment != "linear":
        raise ValueError(f"the exhaustive sweep is linear only, not {experiment!r}")
    q = ctx.q
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        if q**n > budget:
            raise BudgetExceeded(q**n, budget, f"sweep at n={n}")
        abses = []
        if exhaustive:
            # alpha_(-n-1), the top digit of the code, never enters a sum over
            # G_n: the q^n sums with it 0, repeated q times, are in code order
            for code in range(q**n):
                al = LaurentSeries(ctx, -1, [(code // q**i) % q for i in range(n)] + [0])
                abses.append(linear_corr(ctx, n, al, "G", budget).abs(ctx))
            abses *= q
        else:
            for _ in range(samples):
                if experiment == "linear":
                    al = sample_torus(ctx, rng, n + 1)
                    rep = linear_corr(ctx, n, al, "G", budget)
                elif experiment == "quadratic":
                    rep = quad_corr(ctx, n, _random_quad_phase(ctx, n, rng), budget)
                else:
                    al = sample_torus(ctx, rng, 2 * n + 2)
                    be = sample_torus(ctx, rng, n + 1)
                    rep = hankel_corr(ctx, n, al, be, budget)
                abses.append(rep.abs(ctx))
        if abses:
            mx, mean = max(abses), sum(abses) / len(abses)
            expo = log(mx) / (n * log(q)) if mx > 0 and n > 0 else None
            rows.append((n, len(abses), mx, mean, expo))
    return rows


def _random_symmetric(rng, n: int, high: int) -> np.ndarray:
    """An n x n symmetric matrix with entries in [0, high): one draw of an
    n x n matrix, its upper triangle (diagonal included) mirrored below."""
    M = np.triu(rng.integers(0, high, size=(n, n)))
    return M + np.triu(M, 1).T


def _random_quad_phase(ctx: FieldCtx, n: int, rng) -> QuadPhase:
    M = _random_symmetric(rng, n, ctx.q)
    b = rng.integers(0, ctx.q, size=n)
    c = int(rng.integers(0, ctx.q))
    r = int(rng.integers(1, ctx.q))
    return QuadPhase(ctx, M, b, c, r)
