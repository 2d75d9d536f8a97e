"""Hayes congruence classes, their character groups, and L-polynomials.

Two monic polynomials are equivalent mod (l, Q) when they agree mod Q and
share their first l coefficients a_1..a_l, read from
f = t^n + a_1 t^(n-1) + ... with a_i = 0 past the degree.  The invertible
classes form an abelian group of order q^l phi(Q); its structure is found
by a generator-peeling walk plus Smith normal form of the relation matrix,
which also yields discrete logs in invariant-factor coordinates.  Character
values are kept as root-of-unity exponents so products and histograms stay
exact; complex numbers appear only when coefficient sums are assembled.

The sums over A_n of lambda(f), mu(f) lambda(f) and Lambda(f) lambda(f)
come from one table per (group, n).  class_weights sorts A_n into classes
in one vectorised pass (residues_mod gives f mod Q, the tail digits give
the head) and totals the count, mu and Lambda per class.  One chunked
histogram pass then turns these into exact integer exponent histograms over
Z/L for every character at once, and only their complex sums are kept.  The
L-polynomial coefficients c_n and the Euler and log-derivative checks all
read that table.  For non-principal lambda the c_n must vanish for
n >= l + deg Q, every root must have modulus 1 or q^(-1/2), and 1/L must
reproduce the Mobius-twisted sums; violations raise, since all three facts
are theorems in this setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    residue = 0 if Q.deg == 0 else (f % Q).code
    return HayesClass(residue, head)


class HayesGroup:
    """The group of invertible classes mod (l, Q) with dlog tables."""

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
        self._build_elements()
        self._build_structure()
        self._weights_cache: dict[int, tuple] = {}
        self._sums_cache: dict[int, np.ndarray] = {}
        self._roots_cache: dict[tuple, np.ndarray] = {}
        self._unit_roots = np.exp(2j * np.pi * np.arange(self.exponent_lcm) / self.exponent_lcm)

    # -- the raw multiplication law -------------------------------------------

    def mul_class(self, x: HayesClass, y: HayesClass) -> HayesClass:
        ctx, Q, l = self.ctx, self.Q, self.l
        if self.m == 0:
            residue = 0
        else:
            residue = (
                Poly.from_code(ctx, x.residue_code) * Poly.from_code(ctx, y.residue_code)
                % Q
            ).code
        a = (1,) + x.head
        b = (1,) + y.head
        head = tuple(
            _convolve_at(ctx, a, b, k) for k in range(1, l + 1)
        )
        return HayesClass(residue, head)

    def _build_elements(self):
        ctx, l, Q = self.ctx, self.l, self.Q
        q = ctx.q
        residues = np.flatnonzero(_coprime_residue_mask(ctx, Q))
        assert len(residues) == self.phi, "phi(Q) mismatch against enumeration"
        # element index = rank of the residue among the invertible ones, then
        # the head digits a_1..a_l in mixed radix (a_1 least significant)
        self._residue_rank = np.full(q**self.m, -1, dtype=np.int64)
        self._residue_rank[residues] = np.arange(len(residues))
        self.elements: list[HayesClass] = []
        for r in residues:
            for h in range(q**l):
                head = tuple((h // q**i) % q for i in range(l))
                self.elements.append(HayesClass(int(r), head))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = class_of(Poly.one(ctx), l, Q)

    def _build_structure(self):
        mul = self.mul_class
        dlog: dict[HayesClass, tuple] = {self.identity: ()}
        gens: list[HayesClass] = []
        rel_rows: list[list[int]] = []
        for cand in self.elements:
            if cand in dlog:
                continue
            i = len(gens)
            gens.append(cand)
            old = dict(dlog)
            x, e = cand, 1
            powers = []
            while x not in old:
                powers.append(x)
                x = mul(x, cand)
                e += 1
            w = old[x]  # cand^e lands on a known element
            row = [-(w[j] if j < len(w) else 0) for j in range(i)] + [e]
            rel_rows.append(row)
            for h, vec in old.items():
                acc = h
                for k in range(1, e):
                    acc = mul(acc, cand)
                    dlog[acc] = vec + (0,) * (i - len(vec)) + (k,)
        assert len(dlog) == self.order, "group walk did not cover all classes"
        k = len(gens)
        # relation vectors as columns, so Z^k / im(.) is the group and the
        # row transform of the SNF carries exponent vectors to invariant
        # coordinates
        R = [[rel_rows[j][i] if i < len(rel_rows[j]) else 0 for j in range(k)] for i in range(k)]
        D, U, _V = smith_normal_form(R)
        diag = [D[i][i] for i in range(k)]
        prod = 1
        for d in diag:
            prod *= d
        assert all(d > 0 for d in diag) and prod == self.order, (
            "invariant factors do not multiply to the group order"
        )
        keep = [i for i, d in enumerate(diag) if d > 1]
        self.generators = gens
        self.invariant_factors = tuple(diag[i] for i in keep)
        self.exponent_lcm = lcm(*self.invariant_factors) if keep else 1
        # dlog in invariant coordinates: x -> (U x) mod d, restricted to the
        # nontrivial factors
        Umat = np.array(U, dtype=np.int64) if k else np.zeros((0, 0), np.int64)
        self.dlog_y = np.zeros((self.order, len(keep)), dtype=np.int64)
        for elem, vec in dlog.items():
            x = np.zeros(k, dtype=np.int64)
            x[: len(vec)] = vec
            y = Umat @ x if k else x
            row = [int(y[i]) % diag[i] for i in keep]
            self.dlog_y[self.index[elem]] = row
        # a generating element for each invariant factor, for reporting
        self.structure = list(zip(self._invariant_generators(U, diag, keep), self.invariant_factors))

    def _invariant_generators(self, U, diag, keep):
        k = len(diag)
        if not k:
            return []
        inv = _integer_inverse(U)
        out = []
        for j in keep:
            g = self.identity
            for i in range(k):
                g = self.mul_class(g, self._class_pow(self.generators[i], inv[i][j] % self.order))
            out.append(self.index[g])
        return out

    def _class_pow(self, x: HayesClass, e: int) -> HayesClass:
        r = self.identity
        while e:
            if e & 1:
                r = self.mul_class(r, x)
            x = self.mul_class(x, x)
            e >>= 1
        return r

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
        if self.m == 0:
            rank = np.zeros(q**n, dtype=np.int64)
        else:
            rank = self._residue_rank[residues_mod(ctx, self.Q, n)]
        ok = rank >= 0
        # a_i is tail digit n - i of f = t^n + a_1 t^(n-1) + ..., or 0 past deg f
        tails = _sieve.monic_tails(ctx, n)
        idx = rank * q**self.l
        for i in range(1, min(self.l, n) + 1):
            idx += q ** (i - 1) * tails[:, n - i].astype(np.int64)
        idx = idx[ok]
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

    def exponent_histograms(self, n: int, budget: int = 1_200_000):
        """Yield (first char id, hist) blocks over all characters, where
        hist[c, w, e] is the total of weight w (0 count, 1 mu, 2 Lambda) of
        class_weights(n) over the elements on which the character takes the
        value omega_L^e.  Exact int64; characters come in blocks of at most
        CHAR_CHUNK_ENTRIES exponents."""
        weights = np.stack(self.class_weights(n, budget=budget)).astype(np.float64)
        L, order = self.exponent_lcm, self.order
        step = max(1, CHAR_CHUNK_ENTRIES // order)
        for start in range(0, order, step):
            stop = min(start + step, order)
            k = stop - start
            flat = (self._character_exponents(start, stop)
                    + L * np.arange(k, dtype=np.int64)[:, None]).ravel()
            hist = np.empty((k, 3, L), dtype=np.int64)
            for w in range(3):  # exact, as in class_weights
                hist[:, w] = np.bincount(flat, np.tile(weights[w], k), k * L).reshape(k, L)
            yield start, hist

    def char_sums(self, n: int, budget: int = 1_200_000) -> np.ndarray:
        """(order, 3) complex sums over A_n of lambda(f), mu(f) lambda(f) and
        Lambda(f) lambda(f), one row per character id; cached per n."""
        if n not in self._sums_cache:
            sums = np.empty((self.order, 3), dtype=complex)
            for start, hist in self.exponent_histograms(n, budget=budget):
                for c, rows in enumerate(hist, start):
                    # one 1-D dot per histogram, so that no float depends on
                    # the blocking or on how many characters share a call
                    for w in range(3):
                        sums[c, w] = rows[w] @ self._unit_roots
            self._sums_cache[n] = sums
        return self._sums_cache[n]

    def char_sum_table(self, n_max: int, budget: int = 1_200_000) -> list:
        """[char_sums(n) for n = 0..n_max]."""
        missing = [n for n in range(n_max + 1) if n not in self._sums_cache]
        # weights of the top degree first, so that the sieve grows once and
        # before any table is kept; a degree over budget raises below, at the
        # lowest such n
        for n in reversed(missing):
            if self.ctx.q**n <= budget:
                self.class_weights(n, budget=budget)
        return [self.char_sums(n, budget=budget) for n in range(n_max + 1)]

    def describe(self) -> str:
        return f"l={self.l},Q={self.Q.format()},q={self.ctx.q}"


def _integer_inverse(U):
    """Exact inverse of a unimodular integer matrix."""
    k = len(U)
    M = [[Fraction(U[i][j]) for j in range(k)] + [Fraction(i == j) for j in range(k)] for i in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for r in range(k):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    out = [[M[i][k + j] for j in range(k)] for i in range(k)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def _convolve_at(ctx: FieldCtx, a: tuple, b: tuple, k: int) -> int:
    acc = 0
    for i in range(k + 1):
        ai = a[i] if i < len(a) else 0
        bj = b[k - i] if k - i < len(b) else 0
        if ai and bj:
            acc = ctx.add(acc, ctx.mul(ai, bj))
    return acc


def poly_coprime(f: Poly, Q: Poly) -> bool:
    from .polys import poly_gcd

    if Q.deg == 0:
        return True
    g = poly_gcd(f, Q)
    return g.deg == 0


def residues_mod(ctx: FieldCtx, Q: Poly, n: int) -> np.ndarray:
    """Residue codes of every f in A_n mod Q, in code order of A_n.

    Uses linearity: f mod Q = sum_i f_i (t^i mod Q), evaluated with
    vectorised coefficient tables.
    """
    q, m = ctx.q, int(Q.deg)
    tmod = []
    r = Poly.one(ctx)
    t = Poly.t(ctx)
    for _ in range(n + 1):
        tmod.append([r.coefficient(j) for j in range(m)])
        r = (r * t) % Q
    tails = _sieve.monic_tails(ctx, n)
    acc = np.zeros((q**n, m), dtype=np.int16)
    for i in range(n + 1):
        digit = tails[:, i] if i < n else np.ones(q**n, dtype=np.int16)
        for j in range(m):
            c = tmod[i][j]
            if c:
                acc[:, j] = ctx.ADD[acc[:, j], _sieve.scale_digits(ctx, c, digit)]
    return _sieve.digits_to_codes(ctx, acc)


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


def l_polynomial(
    char: HayesCharacter, n_max: int, budget: int = 1_200_000, tol: float = VANISH_TOL
) -> LPolynomial:
    """Coefficients c_n = sum_{f in A_n} lambda(f) and the roots of the
    resulting polynomial; asserts the degree bound c_n ~ 0 for
    n >= l + deg Q."""
    if char.is_principal:
        raise ValueError("l_polynomial is for non-principal characters")
    g = char.group
    bound = g.l + g.m
    coeffs = [complex(sums[char.char_id, 0]) for sums in g.char_sum_table(n_max, budget=budget)]
    for n in range(bound, n_max + 1):
        if abs(coeffs[n]) >= tol:
            raise IdentityCheckError(
                "L-polynomial coefficient above the degree bound",
                counterexample=f"char {char.char_id} of {g.describe()}, n={n}, |c_n|={abs(coeffs[n]):.3g}",
            )
    deg = 0
    for k in range(min(bound - 1, n_max), 0, -1):
        if abs(coeffs[k]) > tol:
            deg = k
            break
    # the coefficients do not depend on n_max, so the roots are cached per
    # (character, degree)
    key = (char.char_id, deg)
    if key not in g._roots_cache:
        g._roots_cache[key] = np.roots(np.array(coeffs[: deg + 1][::-1], dtype=complex))
    roots = tuple(g._roots_cache[key])
    return LPolynomial(
        char_id=char.char_id,
        coeffs=tuple(coeffs),
        degree_bound=bound,
        degree=deg,
        roots=roots,
    )


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


def euler_inverse_check(
    char: HayesCharacter, n_max: int, budget: int = 1_200_000, tol: float = VANISH_TOL
):
    """Compare coefficients of 1/L(z, lambda) with the Mobius-twisted sums
    over A_n.  Returns (n, residual, mu_sum) rows; a residual above tol
    raises."""
    g = char.group
    lp = l_polynomial(char, max(n_max, g.l + g.m), budget=budget)
    c = lp.coeffs[: lp.degree + 1]
    inv = [1 + 0j]
    for n in range(1, n_max + 1):
        acc = 0j
        for k in range(1, min(n, lp.degree) + 1):
            acc += c[k] * inv[n - k]
        inv.append(-acc)
    rows = []
    for n in range(n_max + 1):
        s = complex(g.char_sums(n, budget=budget)[char.char_id, 1])
        resid = abs(s - inv[n])
        if resid >= tol:
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
    series = [0] * (n_max + 1)
    series[0] = 1
    if n_max >= 1:
        series[1] = -q
    degs = [int(p.deg) for p, _ in factorize(Q).factors] if Q.deg != 0 else []
    for d in degs:
        out = [0] * (n_max + 1)
        for n in range(n_max + 1):  # multiply by 1/(1 - z^d) = sum z^(kd)
            acc = 0
            k = 0
            while n - k * d >= 0:
                acc += series[n - k * d]
                k += 1
            out[n] = acc
        series = out
    sieve = _sieve.get_sieve(ctx, max(n_max, 1))
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            enum = 1
        else:
            mu_slice = sieve.degree_slice(sieve.mu, n).astype(np.int64)
            if Q.deg == 0:
                enum = int(mu_slice.sum())
            else:
                res = residues_mod(ctx, Q, n)
                ok = _coprime_residue_mask(ctx, Q)[res]
                enum = int(mu_slice[ok].sum())
        if enum != series[n]:
            raise IdentityCheckError(
                "principal-character series mismatch",
                counterexample=f"Q={Q!r}, n={n}, enumeration={enum}, series={series[n]}",
            )
        rows.append((n, enum, series[n]))
    return rows


_COPRIME_MASKS: dict[tuple, np.ndarray] = {}


def _coprime_residue_mask(ctx: FieldCtx, Q: Poly) -> np.ndarray:
    key = (ctx, Q.code)
    if key not in _COPRIME_MASKS:
        m = int(Q.deg)
        tab = np.zeros(ctx.q**m, dtype=bool)
        for r in range(ctx.q**m):
            tab[r] = poly_coprime(Poly.from_code(ctx, r), Q)
        _COPRIME_MASKS[key] = tab
    return _COPRIME_MASKS[key]


def log_deriv_check(
    char: HayesCharacter, l_max: int, budget: int = 1_200_000, tol: float = VANISH_TOL
):
    """Check sum over deg f = l of Lambda(f) lambda(f) against minus the
    power sums of the inverse roots.  Returns (l, lhs, rhs, residual) rows."""
    if char.is_principal:
        raise ValueError("log_deriv_check applies to non-principal characters")
    g = char.group
    lp = l_polynomial(char, g.l + g.m + 1, budget=budget)
    alphas = lp.inverse_roots()
    rows = []
    for l in range(1, l_max + 1):
        lhs = complex(g.char_sums(l, budget=budget)[char.char_id, 2])
        rhs = -sum(a**l for a in alphas) if alphas else 0j
        resid = abs(lhs - rhs)
        if resid >= tol:
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
        logq = np.log(g.ctx.q)
        for char in g.characters():
            if char.is_principal:
                continue
            for d, sums in enumerate(g.char_sum_table(d_max, budget=budget)):
                s = abs(complex(sums[char.char_id, 1]))
                expo = float(np.log(s) / (d * logq)) if s > 0 and d > 0 else None
                rows.append((g.describe(), char.char_id, d, s, expo))
    return rows
