"""Hayes congruence classes, their character groups, and L-polynomials.

Two monic polynomials are equivalent mod (l, Q) when they agree mod Q and
share their first l coefficients a_1..a_l, read from
f = t^n + a_1 t^(n-1) + ... with a_i = 0 past the degree.  The invertible
classes form an abelian group of order q^l phi(Q).  Its elements are
indices (residue rank, then head digits), and its structure comes from
generator peeling on index maps i -> index(e_i e_j), each built in one
vectorised pass from the rows t^k mod Q, then Smith normal form of the
relation matrix, which also yields discrete logs in invariant-factor
coordinates.  Character values are kept as root-of-unity exponents so
products and histograms stay exact.

The class of every f in A_n is one integer key, residues_mod * q^l +
head_index (residues_mod keeps one read-only table per (Q, n) up to
RESIDUES_MAX_BYTES, all zero for Q = 1), read with no case for Q = 1 or
n = 0 by class_weights, principal_check and periodic_route_check.

The sums over A_n of lambda(f), mu(f) lambda(f) and Lambda(f) lambda(f)
come from one table per group: class_weights bincounts A_n by class key,
with residue ranks in place of codes.  Each block of character exponents
is computed once and histogrammed exactly against the weights of every
missing degree; only the complex sums are kept, from one stacked matmul per
block that makes the same 1-D dot for each histogram row.  The L-polynomials
and the Euler and log-derivative checks read that table, and the degrees
and roots of every L-polynomial come from one roots table per group: one
scan of the table, one stacked eigenvalue call per degree.  For non-principal
lambda the c_n must vanish for n >= l + deg Q, every root must have modulus
1 or q^(-1/2), and 1/L must reproduce the Mobius-twisted sums; violations
raise, since all three facts are theorems in this setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod

import numpy as np

from .errors import BudgetExceeded, IdentityCheckError
from .fields import FieldCtx
from .polys import Poly, factorize
from .snf import smith_normal_form
from . import sieve as _sieve

__all__ = [
    "HayesClass",
    "HayesGroup",
    "HayesCharacter",
    "LPolynomial",
    "euler_phi",
    "class_of",
    "build_group",
    "l_polynomial",
    "rh_check",
    "euler_inverse_check",
    "principal_check",
    "log_deriv_check",
    "char_sum_exponent_report",
]

VANISH_TOL = 1e-6
ROOT_TOL = 1e-6

# Cap on the (characters x elements) exponent entries that one block of
# HayesGroup.exponent_histograms holds; bounds its temporaries.
CHAR_CHUNK_ENTRIES = 1 << 14


def euler_phi(Q: Poly) -> int:
    """Order of (F_q[t]/Q)^x, via the factorization of Q."""
    if Q.is_zero():
        raise ValueError("phi(0) undefined")
    q = Q.ctx.q
    out = 1
    for p, e in factorize(Q).factors:
        np_ = q ** int(p.deg)
        out *= np_ ** (e - 1) * (np_ - 1)
    return out


@dataclass(frozen=True)
class HayesClass:
    residue_code: int
    head: tuple


def class_of(f: Poly, l: int, Q: Poly) -> HayesClass:
    """Class of f mod (l, Q); non-monic f is normalised monic first."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no Hayes class")
    if not f.is_monic():
        f = f.monic()[1]
    n = int(f.deg)
    head = tuple(f.coefficient(n - i) for i in range(1, l + 1))
    return HayesClass((f % Q).code, head)


class HayesGroup:
    """The group of invertible classes mod (l, Q) with dlog tables.

    Element i is the class of the (i // q^l)-th invertible residue with the
    head digits of i % q^l, a_1 least significant."""

    def __init__(self, ctx: FieldCtx, l: int, Q: Poly, budget: int = 100_000):
        if not Q.is_monic():
            raise ValueError("Q must be monic")
        if l < 0:
            raise ValueError("l >= 0 required")
        self.ctx, self.l, self.Q = ctx, l, Q
        self.m = int(Q.deg)
        self.phi = euler_phi(Q)
        self.order = ctx.q**l * self.phi
        if self.order > budget:
            raise BudgetExceeded(self.order, budget, "Hayes group")
        self._residues = np.flatnonzero(_coprime_residue_mask(ctx, Q))
        assert len(self._residues) == self.phi, "phi(Q) mismatch against enumeration"
        self._residue_rank = np.full(ctx.q**self.m, -1, dtype=np.int64)
        self._residue_rank[self._residues] = np.arange(self.phi)
        # _mul_by's tables: the digits of each residue (rows < phi) and of each
        # head (1, a_1..a_l) (rows phi..) in disjoint columns, and law, with
        # sum_k v_k law[k] the block-diagonal matrix of the element of digits v
        m, N = self.m, self.m + l + 1
        self._digits = np.zeros((self.phi + ctx.q**l, N), dtype=np.int64)
        self._digits[: self.phi, :m] = _sieve.codes_to_digits(ctx, self._residues, m)
        self._digits[self.phi :, m:] = _sieve.monic_digit_matrix(ctx, l)[:, np.r_[l, :l]]
        k, h, law = np.arange(m), np.arange(l + 1), np.zeros((N, N, N), dtype=np.int64)
        law[:m, :m, :m] = _tmod_rows(ctx, Q, max(2 * m - 2, 0))[np.add.outer(k, k)]  # t^(k+a) mod Q
        law[m:, m:, m:] = np.add.outer(h, h)[..., None] == h  # u^k u^a = u^c
        self._law = law.reshape(N, N * N)
        self.identity = class_of(Poly.one(ctx), l, Q)
        self._build_structure()
        self._weights_cache: dict[int, tuple] = {}
        self._sums = np.empty((0, self.order, 3), dtype=complex)  # [n, char id, weight]
        self._roots: dict[int, list] = {}  # top -> (degree, roots) by char id
        self._lpolys: dict[tuple, LPolynomial] = {}  # (char id, n_max) -> l_polynomial's
        self._unit_roots = np.exp(2j * np.pi * np.arange(self.exponent_lcm) / self.exponent_lcm)

    # -- the raw multiplication law -------------------------------------------

    def mul_class(self, x: HayesClass, y: HayesClass) -> HayesClass:
        """Product of two classes by Poly arithmetic: the oracle of _mul_by."""
        ctx, Q, l = self.ctx, self.Q, self.l
        residue = Poly.from_code(ctx, x.residue_code) * Poly.from_code(ctx, y.residue_code) % Q
        head = Poly(ctx, (1,) + x.head) * Poly(ctx, (1,) + y.head)
        return HayesClass(residue.code, tuple(head.coefficient(k) for k in range(1, l + 1)))

    def _mul_by(self, j: int) -> np.ndarray:
        """The map i -> index(e_i e_j) over every element index, in one pass.

        Multiplication by e_j is F_q-linear on residue digits (rows t^a r_j
        mod Q, from the rows t^k mod Q) and on heads (1, a_1..a_l) (products
        with (1, b_1..b_l) truncated after u^l): one product of the residue
        and head digit rows against e_j's block-diagonal matrix."""
        from .quadform import fq_matmul

        ctx, phi, ql, m, X = self.ctx, self.phi, self.ctx.q**self.l, self.m, self._digits
        B = fq_matmul(ctx, X[[j // ql]] + X[[phi + j % ql]], self._law).reshape(X.shape[1], -1)
        out = fq_matmul(ctx, X, B)
        rank = self._residue_rank[_sieve.digits_to_codes(ctx, out[:phi, :m])]
        return (rank[:, None] * ql + _sieve.digits_to_codes(ctx, out[phi:, m + 1 :])).ravel()

    def _class_at(self, i: int) -> HayesClass:
        q = self.ctx.q
        r, h = divmod(int(i), q**self.l)
        return HayesClass(int(self._residues[r]), tuple(h // q**k % q for k in range(self.l)))

    @cached_property
    def elements(self) -> list:
        """Every class in element-index order, built on first use."""
        return [self._class_at(i) for i in range(self.order)]

    @cached_property
    def index(self) -> dict:
        """Class -> element index, built on first use."""
        return {e: i for i, e in enumerate(self.elements)}

    def _build_structure(self):
        # generator peeling on index maps: the first element outside the
        # subgroup found so far is the next generator, its cosets give their
        # elements an exponent vector (a row of dlog), and the power of it
        # that lands in the subgroup gives a relation
        order = self.order
        known = np.zeros(order, dtype=bool)
        known[self._residue_rank[self.identity.residue_code] * self.ctx.q**self.l] = True
        # at most log2(order) generators, since each one at least doubles the subgroup
        dlog = np.zeros((order, order.bit_length()), dtype=np.int64)
        gens, rel_rows = [], []
        while not known.all():
            cand, i = int(np.argmin(known)), len(gens)
            M = self._mul_by(cand)
            x, e = cand, 1
            while not known[x]:
                x, e = M[x], e + 1
                assert e <= order, "multiplication map is not a group law"
            rel_rows.append([-int(v) for v in dlog[x, :i]] + [e])
            gens.append(cand)
            sub = coset = np.flatnonzero(known)
            for k in range(1, e):
                coset = M[coset]
                dlog[coset] = dlog[sub]
                dlog[coset, i] = k
                known[coset] = True
        k = len(gens)
        # relation vectors as columns, so Z^k / im(.) is the group and the
        # row transform of the SNF carries exponent vectors to invariant
        # coordinates
        R = [[rel_rows[j][i] if i < len(rel_rows[j]) else 0 for j in range(k)] for i in range(k)]
        D, U, _V = smith_normal_form(R)
        diag = [D[i][i] for i in range(k)]
        assert all(d > 0 for d in diag) and prod(diag) == self.order, (
            "invariant factors do not multiply to the group order"
        )
        keep = [i for i, d in enumerate(diag) if d > 1]
        self.generators = [self._class_at(c) for c in gens]
        self.invariant_factors = tuple(diag[i] for i in keep)
        self.exponent_lcm = lcm(*self.invariant_factors) if keep else 1
        # dlog in invariant coordinates: x -> (U x) mod d, restricted to the
        # nontrivial factors
        y = dlog[:, :k] @ np.array(U, dtype=np.int64).reshape(k, k).T
        self.dlog_y = y[:, keep] % np.array(self.invariant_factors, dtype=np.int64)
        # a generating element for each invariant factor, for reporting: the
        # one whose invariant coordinates are the unit vector of that factor
        units = np.eye(len(keep), dtype=np.int64)
        self.structure = [(int(np.flatnonzero((self.dlog_y == u).all(axis=1))[0]), d)
                          for u, d in zip(units, self.invariant_factors)]

    # -- evaluation helpers -----------------------------------------------------

    def class_index(self, f: Poly):
        """Index of the class of f, or None when gcd(f, Q) != 1."""
        cls = class_of(f, self.l, self.Q)
        idx = self.index.get(cls)
        if idx is None and poly_coprime(f, self.Q):
            raise RuntimeError("invertible class missing from table")
        return idx

    def characters(self):
        """All characters, principal first, in odometer order over exponents."""
        for cid in range(self.order):
            exps, c = [], cid
            for d in self.invariant_factors:
                exps.append(c % d)
                c //= d
            yield HayesCharacter(self, cid, tuple(exps))

    def class_weights(self, n: int, budget: int = 1_200_000):
        """(count, mu, mangoldt) int64 arrays over element indices for A_n."""
        if n in self._weights_cache:
            return self._weights_cache[n]
        ctx, q = self.ctx, self.ctx.q
        if q**n > budget:
            raise BudgetExceeded(q**n, budget, "A_n class sweep")
        sieve = _sieve.get_sieve(ctx, max(n, 1))
        rank = self._residue_rank[residues_mod(ctx, self.Q, n)]
        ok = rank >= 0
        idx = (rank * q**self.l + head_index(ctx, self.l, n))[ok]
        # the float64 bincounts add integers far below 2^53, so they are exact
        count = np.bincount(idx, minlength=self.order).astype(np.int64)
        mu_w = np.bincount(idx, sieve.degree_slice(sieve.mu, n)[ok], self.order).astype(np.int64)
        mg_w = np.bincount(idx, sieve.degree_slice(sieve.mangoldt, n)[ok], self.order).astype(np.int64)
        self._weights_cache[n] = (count, mu_w, mg_w)
        return self._weights_cache[n]

    def _character_exponents(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, order) omega_L exponents of the characters with ids
        start..stop-1 on every element."""
        L, cid = self.exponent_lcm, np.arange(start, stop, dtype=np.int64)
        scale = np.zeros((stop - start, len(self.invariant_factors)), dtype=np.int64)
        for j, d in enumerate(self.invariant_factors):  # the odometer of characters()
            scale[:, j] = cid % d * (L // d)
            cid //= d
        return scale @ self.dlog_y.T % L

    def _histogram_blocks(self, ns, budget: int):
        """Yield (first char id, i, hist) by block of characters, then by
        degree: hist as in exponent_histograms(ns[i]).  A block's exponents
        are computed once for all the degrees."""
        weights = [np.stack(self.class_weights(n, budget=budget)).astype(np.float64) for n in ns]
        L, order = self.exponent_lcm, self.order
        step = max(1, CHAR_CHUNK_ENTRIES // order)
        for start in range(0, order, step):
            k = min(step, order - start)
            flat = (self._character_exponents(start, start + k)
                    + L * np.arange(k, dtype=np.int64)[:, None]).ravel()
            for i, wn in enumerate(weights):
                hist = np.empty((k, 3, L), dtype=np.int64)
                for w in range(3):  # exact, as in class_weights
                    hist[:, w] = np.bincount(flat, np.tile(wn[w], k), k * L).reshape(k, L)
                yield start, i, hist

    def exponent_histograms(self, n: int, budget: int = 1_200_000):
        """Yield (first char id, hist) blocks over all characters, where
        hist[c, w, e] is the total of weight w (0 count, 1 mu, 2 Lambda) of
        class_weights(n) over the elements on which the character takes the
        value omega_L^e.  Exact int64; characters come in blocks of at most
        CHAR_CHUNK_ENTRIES exponents."""
        for start, _, hist in self._histogram_blocks([n], budget):
            yield start, hist

    def char_sum_table(self, n_max: int, budget: int = 1_200_000) -> np.ndarray:
        """(n_max + 1, order, 3) complex sums over A_n, n = 0..n_max, of lambda(f),
        mu(f) lambda(f) and Lambda(f) lambda(f), one row per character id;
        degrees not yet kept come from one histogram pass."""
        missing = range(len(self._sums), n_max + 1)
        if missing:
            # weights of the top degree first, so that the sieve grows once
            # and before any table is kept; a degree over budget raises in
            # _histogram_blocks, at the lowest such n
            for n in reversed(missing):
                if self.ctx.q**n <= budget:
                    self.class_weights(n, budget=budget)
            sums = np.empty((len(missing), self.order, 3), dtype=complex)
            for start, i, hist in self._histogram_blocks(missing, budget):
                # the stacked matmul makes the same 1-D dot for each histogram
                # row, so no float depends on the blocking; a 2-D H @ z would not
                sums[i, start : start + len(hist)] = np.matmul(
                    hist.astype(complex)[..., None, :], self._unit_roots[:, None])[..., 0, 0]
            self._sums = np.concatenate([self._sums, sums])
        return self._sums[: n_max + 1]

    def _roots_table(self, top: int, budget: int) -> list:
        """(deflated degree, roots) of the L-polynomial of each non-principal
        character, by character id, from the coefficients c_0..c_top; kept
        per top.  The degree is the last k <= top with |c_k| > VANISH_TOL,
        or 0, and the roots of each degree come from one _stacked_roots.  No
        constant term is 0: c_0 = lambda(1) = 1 exactly, since A_0 = {1} and
        1 is the identity class."""
        if top not in self._roots:
            C = self.char_sum_table(top, budget=budget)[:, 1:, 0]
            big = np.abs(C) > VANISH_TOL
            big[0] = True  # degree 0 when no later c_k is big
            degs = top - np.argmax(big[::-1], axis=0)
            table = [None] * self.order
            for deg in np.unique(degs).tolist():
                ids = np.flatnonzero(degs == deg)
                for i, r in zip(ids.tolist(), _stacked_roots(C[deg::-1, ids].T)):
                    table[1 + i] = (deg, r)
            self._roots[top] = table
        return self._roots[top]

    def describe(self) -> str:
        return f"l={self.l},Q={self.Q.format()},q={self.ctx.q}"


def poly_coprime(f: Poly, Q: Poly) -> bool:
    from .polys import poly_gcd

    g = poly_gcd(f, Q)
    return g.deg == 0


def _tmod_rows(ctx: FieldCtx, Q: Poly, n: int) -> np.ndarray:
    """(n + 1, deg Q) digits of t^k mod Q for k = 0..n; Q need not be
    monic, since its monic associate leaves the same remainders."""
    m = int(Q.deg)
    rows = np.zeros((n + 1, m + 1), dtype=np.int64)  # column m takes the carry
    rows[0, 0] = 1
    low = ctx.NEG[ctx.MUL[ctx.inv(Q.lc), [Q.coefficient(j) for j in range(m)]]]  # t^m = -(Q/lc - t^m)
    for k in range(1, n + 1):
        rows[k, 1:] = rows[k - 1, :-1]
        rows[k, :m] = ctx.ADD[rows[k, :m], ctx.MUL[rows[k, m], low]]
    return rows[:, :m]


# Cap on the bytes of residue tables kept in _RESIDUES.  A table that would
# take the cache past it is built and returned all the same, but not kept.
RESIDUES_MAX_BYTES = 1 << 24

_RESIDUES: dict[tuple, np.ndarray] = {}


def residues_mod(ctx: FieldCtx, Q: Poly, n: int) -> np.ndarray:
    """Residue codes of every f in A_n mod Q, in code order of A_n, as a
    read-only array kept per (Q, n) in _RESIDUES; all zero when Q = 1."""
    key = (ctx, Q.code, n)
    res = _RESIDUES.get(key)
    if res is None:
        from .quadform import fq_matmul

        digits = _sieve.monic_digit_matrix(ctx, n)  # f mod Q = sum_k f_k (t^k mod Q)
        res = _sieve.digits_to_codes(ctx, fq_matmul(ctx, digits, _tmod_rows(ctx, Q, n)))
        res.flags.writeable = False
        if sum(r.nbytes for r in _RESIDUES.values()) + res.nbytes <= RESIDUES_MAX_BYTES:
            _RESIDUES[key] = res
    return res


def head_index(ctx: FieldCtx, l: int, n: int) -> np.ndarray:
    """sum of a_i q^(i-1) over i = 1..l for every f in A_n, in code order
    of A_n: the head digits of f = t^n + a_1 t^(n-1) + ... as one index,
    with a_i = 0 past deg f.  A_n mod (l, Q) has class key
    residues_mod(ctx, Q, n) * q^l + head_index(ctx, l, n)."""
    tails = _sieve.monic_tails(ctx, n)
    idx = np.zeros(ctx.q**n, dtype=np.int64)
    for i in range(1, min(l, n) + 1):  # a_i is tail digit n - i
        idx += ctx.q ** (i - 1) * tails[:, n - i].astype(np.int64)
    return idx


def build_group(ctx: FieldCtx, l: int, Q: Poly, budget: int = 100_000) -> HayesGroup:
    return HayesGroup(ctx, l, Q, budget=budget)


# -- characters and L-polynomials ---------------------------------------------


class HayesCharacter:
    def __init__(self, group: HayesGroup, char_id: int, exps: tuple):
        self.group = group
        self.char_id = char_id
        self.exps = exps
        self.is_principal = all(e == 0 for e in exps)

    def __repr__(self):
        return f"HayesCharacter(id={self.char_id}, exps={self.exps})"

    def exponent_on_index(self, idx: int) -> int:
        g = self.group
        L = g.exponent_lcm
        y = g.dlog_y[idx]
        return int(
            sum(k * int(yi) * (L // d) for k, yi, d in zip(self.exps, y, g.invariant_factors))
            % L
        )

    def eval_exponent(self, f: Poly):
        """omega_L exponent of lambda(f), or None when lambda(f) = 0."""
        idx = self.group.class_index(f)
        return None if idx is None else self.exponent_on_index(idx)

    def value(self, f: Poly) -> complex:
        e = self.eval_exponent(f)
        if e is None:
            return 0j
        L = self.group.exponent_lcm
        return np.exp(2j * np.pi * e / L)


@dataclass(frozen=True)
class LPolynomial:
    char_id: int
    coeffs: tuple  # complex c_0..c_{n_max}
    degree_bound: int  # l + deg Q
    degree: int  # numerically deflated degree
    roots: tuple  # complex roots of the deflated polynomial

    def inverse_roots(self) -> tuple:
        return tuple(1 / r for r in self.roots)


def l_polynomial(char: HayesCharacter, n_max: int, budget: int = 1_200_000) -> LPolynomial:
    """Coefficients c_n = sum_{f in A_n} lambda(f) and the roots of the
    resulting polynomial; asserts the degree bound c_n ~ 0 for
    n >= l + deg Q (|c_n| < VANISH_TOL).  The degree and roots are read
    from the group's roots table for top = min(n_max, l + deg Q - 1), past
    which they no longer depend on n_max.  Kept on the group per
    (character, n_max); a failed check keeps nothing, so it raises again."""
    if char.is_principal:
        raise ValueError("l_polynomial is for non-principal characters")
    g, cid = char.group, char.char_id
    lp = g._lpolys.get((cid, n_max))
    if lp is not None:
        return lp
    bound = g.l + g.m
    coeffs = g.char_sum_table(n_max, budget=budget)[:, cid, 0].tolist()
    for n in range(bound, n_max + 1):
        if abs(coeffs[n]) >= VANISH_TOL:
            raise IdentityCheckError(
                "L-polynomial coefficient above the degree bound",
                counterexample=f"char {cid} of {g.describe()}, n={n}, |c_n|={abs(coeffs[n]):.3g}",
            )
    deg, roots = g._roots_table(min(bound - 1, n_max), budget)[cid]
    lp = g._lpolys[cid, n_max] = LPolynomial(cid, tuple(coeffs), bound, deg, tuple(roots))
    return lp


def _stacked_roots(P: np.ndarray) -> np.ndarray:
    """(k, N - 1) roots of the k polynomials in the rows of P (k, N), leading
    coefficient first and none of them 0: one eigvals on the companion
    matrices built as np.roots builds them, ones on the subdiagonal and
    -p[1:] / p[0] in the first row, so each row's roots are np.roots's."""
    k, deg = P.shape[0], P.shape[1] - 1
    if not deg:
        return np.zeros((k, 0), dtype=P.dtype)
    A = np.zeros((k, deg, deg), dtype=P.dtype)
    A[:, np.arange(1, deg), np.arange(deg - 1)] = 1
    A[:, 0, :] = -P[:, 1:] / P[:, :1]
    return np.linalg.eigvals(A)


def rh_check(char: HayesCharacter, n_max: int | None = None, budget: int = 1_200_000):
    """Root moduli of L(z, lambda): each must be 1 or q^(-1/2) within
    tolerance.  Returns (root, modulus, label) rows; any FAIL raises."""
    if char.is_principal:
        raise ValueError("rh_check applies to non-principal characters")
    g = char.group
    if n_max is None:
        n_max = g.l + g.m + 2
    lp = l_polynomial(char, n_max, budget=budget)
    q = g.ctx.q
    rows = []
    bad = None
    for r in lp.roots:
        mod = abs(r)
        if abs(mod - 1) < ROOT_TOL:
            label = "1"
        elif abs(mod - q**-0.5) < ROOT_TOL:
            label = "q^-1/2"
        else:
            label = "FAIL"
            bad = (r, mod)
        rows.append((complex(r), float(mod), label))
    if bad is not None:
        raise IdentityCheckError(
            "L-polynomial root modulus violates the Riemann hypothesis bound",
            counterexample=f"char {char.char_id} of {g.describe()}, root={bad[0]:.6g}, |root|={bad[1]:.9f}",
        )
    return rows


def euler_inverse_check(char: HayesCharacter, n_max: int, budget: int = 1_200_000):
    """Compare coefficients of 1/L(z, lambda) with the Mobius-twisted sums
    over A_n.  Returns (n, residual, mu_sum) rows; a residual of VANISH_TOL
    or more raises."""
    g = char.group
    lp = l_polynomial(char, max(n_max, g.l + g.m), budget=budget)
    c = lp.coeffs[: lp.degree + 1]
    inv = [1 + 0j]
    for n in range(1, n_max + 1):
        acc = 0j
        for k in range(1, min(n, lp.degree) + 1):
            acc += c[k] * inv[n - k]
        inv.append(-acc)
    mu_sums = g.char_sum_table(n_max, budget=budget)[:, char.char_id, 1].tolist()
    rows = []
    for n, s in enumerate(mu_sums):
        resid = abs(s - inv[n])
        if resid >= VANISH_TOL:
            raise IdentityCheckError(
                "1/L series coefficient disagrees with enumeration",
                counterexample=f"char {char.char_id} of {g.describe()}, n={n}, residual={resid:.3g}",
            )
        rows.append((n, resid, s))
    return rows


def principal_check(ctx: FieldCtx, Q: Poly, n_max: int, budget: int = 1_200_000):
    """Exact integer check of the principal-character series: the sum of
    mu(f) over f in A_n coprime to Q must equal the z^n coefficient of
    (1 - q z) * prod over distinct irreducible P | Q of (1 - z^deg P)^(-1).
    """
    q = ctx.q
    if q**n_max > budget:
        raise BudgetExceeded(q**n_max, budget, "principal sweep")
    # integer series expansion
    series = ([1, -q] + [0] * n_max)[: n_max + 1]
    for d in [int(p.deg) for p, _ in factorize(Q).factors]:
        for n in range(d, n_max + 1):  # multiply by 1/(1 - z^d) = sum z^(kd)
            series[n] += series[n - d]
    sieve = _sieve.get_sieve(ctx, max(n_max, 1))
    coprime = _coprime_residue_mask(ctx, Q)
    rows = []
    for n in range(n_max + 1):
        mu = sieve.degree_slice(sieve.mu, n).astype(np.int64)
        enum = int(mu[coprime[residues_mod(ctx, Q, n)]].sum())
        if enum != series[n]:
            raise IdentityCheckError(
                "principal-character series mismatch",
                counterexample=f"Q={Q!r}, n={n}, enumeration={enum}, series={series[n]}",
            )
        rows.append((n, enum, series[n]))
    return rows


_COPRIME_MASKS: dict[tuple, np.ndarray] = {}


def _coprime_residue_mask(ctx: FieldCtx, Q: Poly) -> np.ndarray:
    """Invertible residues mod Q: nonzero mod each prime factor of Q."""
    key = (ctx, Q.code)
    if key not in _COPRIME_MASKS:
        from .quadform import fq_matmul

        m = int(Q.deg)
        tab = np.ones(ctx.q**m, dtype=bool)
        digits = _sieve.codes_to_digits(ctx, np.arange(ctx.q**m), m)
        for P, _ in factorize(Q).factors:
            tab &= fq_matmul(ctx, digits, _tmod_rows(ctx, P, m - 1)).any(axis=1)
        _COPRIME_MASKS[key] = tab
    return _COPRIME_MASKS[key]


def log_deriv_check(char: HayesCharacter, l_max: int, budget: int = 1_200_000):
    """Check sum over deg f = l of Lambda(f) lambda(f) against minus the
    power sums of the inverse roots.  Returns (l, lhs, rhs, residual) rows;
    a residual of VANISH_TOL or more raises."""
    if char.is_principal:
        raise ValueError("log_deriv_check applies to non-principal characters")
    g = char.group
    lp = l_polynomial(char, g.l + g.m + 1, budget=budget)
    alphas = lp.inverse_roots()
    mangoldt_sums = g.char_sum_table(l_max, budget=budget)[:, char.char_id, 2].tolist()
    rows = []
    for l in range(1, l_max + 1):
        lhs = mangoldt_sums[l]
        rhs = -sum(a**l for a in alphas) if alphas else 0j
        resid = abs(lhs - rhs)
        if resid >= VANISH_TOL:
            raise IdentityCheckError(
                "log-derivative power sums disagree",
                counterexample=f"char {char.char_id} of {g.describe()}, l={l}, residual={resid:.3g}",
            )
        rows.append((l, lhs, rhs, resid))
    return rows


def char_sum_exponent_report(groups, d_max: int, budget: int = 1_200_000):
    """|sum over A_d of mu(f) lambda(f)| and its empirical exponent
    log_q |.| / d for every non-principal character.  Reporting only."""
    rows = []
    for g in groups:
        if g.order == 1:  # the principal character alone
            continue
        logq, desc = np.log(g.ctx.q), g.describe()
        table = g.char_sum_table(d_max, budget=budget)
        for char in g.characters():
            if char.is_principal:
                continue
            for d, sums in enumerate(table):
                s = abs(complex(sums[char.char_id, 1]))
                expo = float(np.log(s) / (d * logq)) if s > 0 and d > 0 else None
                rows.append((desc, char.char_id, d, s, expo))
    return rows
