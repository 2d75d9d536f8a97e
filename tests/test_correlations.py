import dataclasses
import re

import numpy as np
import pytest

from ffmobius import Poly, get_field, mobius
from ffmobius import correlations, fields
from ffmobius import sieve as _sieve
from ffmobius.errors import CharacteristicError, IdentityCheckError, PrecisionExceeded
from ffmobius.hayes import build_group, class_of, l_polynomial
from ffmobius.laurent import LaurentSeries, sample_torus
from ffmobius.polys import enumerate_polys
from ffmobius.quadform import QuadPhase, hankel_matrix
from ffmobius.correlations import (
    HankelPhase,
    LinearPhase,
    Phase,
    QuadraticPhase,
    exponent_sweep,
    hankel_corr,
    hist_to_complex,
    linear_corr,
    linear_reduction_hists,
    periodic_corr,
    periodic_route_check,
    phase_hist,
    quad_corr,
)


def safe_mobius(f):
    return 0 if f.is_zero() else mobius(f)


def test_linear_alpha_zero(F2, F3):
    # sum over G_n of mu is -(q-1)^2 for n >= 2
    for ctx in (F2, F3):
        z = LaurentSeries.zero(ctx, 12)
        for n in (2, 4, 6):
            assert linear_corr(ctx, n, z, "G").sum(ctx) == -((ctx.q - 1) ** 2)


def test_linear_deep_alpha_a_domain(F2):
    # alpha of norm < q^(-n-1): every phase is 1, the A_n sum vanishes
    for n in (2, 3, 5):
        al = LaurentSeries.from_coeff_map(F2, {-(n + 3): 1}, n + 5)
        assert linear_corr(F2, n, al, "A").sum(F2) == 0


def test_linear_against_direct_loop_oracle(F2):
    # independent oracle: plain loop, complex arithmetic, no histogram
    alpha = LaurentSeries.from_coeff_map(F2, {-1: 1}, 12)
    for n in (4, 6, 8):
        oracle = 0
        for f in enumerate_polys(F2, "A", n):
            m = safe_mobius(f)
            if m:
                oracle += m * (-1) ** f.coefficient(0)
        assert linear_corr(F2, n, alpha, "A").sum(F2) == oracle


def test_linear_oracle_random_alphas(F3):
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        alpha = sample_torus(F3, rng, n + 2)
        phase = LinearPhase(alpha)
        oracle = 0j
        omega = np.exp(2j * np.pi / 3)
        for f in enumerate_polys(F3, "G", n):
            m = safe_mobius(f)
            if m and not f.is_zero():
                oracle += m * omega ** alpha.mul_poly(f).e_exponent()
        rep = linear_corr(F3, n, alpha, "G")
        assert abs(rep.sum(F3) - oracle) < 1e-9


def test_linear_oracle_extension_field(F4):
    # s > 1: exponent tables must route through the trace
    rng = np.random.default_rng(44)
    n = 4
    alpha = sample_torus(F4, rng, n + 2)
    omega = np.exp(2j * np.pi / 2)
    oracle = 0j
    for f in enumerate_polys(F4, "G", n):
        m = safe_mobius(f)
        if m and not f.is_zero():
            oracle += m * omega ** alpha.mul_poly(f).e_exponent()
    rep = linear_corr(F4, n, alpha, "G")
    assert abs(rep.sum(F4) - oracle) < 1e-9


def test_precision_guard(F2):
    al = LaurentSeries.zero(F2, 3)
    with pytest.raises(PrecisionExceeded):
        linear_corr(F2, 6, al, "G")


def test_g_to_a_reduction_exact(F2, F3, F4):
    for ctx, n, seed in ((F2, 6, 5), (F2, 8, 1), (F3, 4, 2), (F4, 3, 7)):
        alpha = sample_torus(ctx, seed, n + 2)
        hg, ha = linear_reduction_hists(ctx, n, alpha)
        assert np.array_equal(hg, ha)


def _kernel_phases(ctx, n, rng):
    """A linear phase, Hankel phases with and without beta, and in odd
    characteristic a quadratic phase, all on n coordinates."""
    alpha = sample_torus(ctx, rng, 2 * n + 2)
    beta = sample_torus(ctx, rng, n + 1)
    phases = [LinearPhase(alpha), HankelPhase(alpha, beta), HankelPhase(alpha)]
    if ctx.p != 2:
        M = np.triu(rng.integers(0, ctx.q, size=(n, n)))
        M = M + np.triu(M, 1).T
        b = rng.integers(0, ctx.q, size=n)
        phases.append(QuadraticPhase(QuadPhase(ctx, M, b, int(rng.integers(0, ctx.q)), 1)))
    return phases


def _bincount_reference(ctx, phase, n, lo, hi, weights):
    exps = phase.exponents(n, np.arange(lo, hi, dtype=np.int64))
    w = None if weights is None else weights[lo:hi].astype(np.int64)
    return np.bincount(exps, weights=w, minlength=ctx.p).astype(np.int64)


def test_histogram_order_independence(monkeypatch):
    # every phase kind against a bincount over its own exponents, and no
    # output bit depends on the range split or the chunking
    from ffmobius.sieve import mobius_over_g

    for p, s, n in ((2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (2, 3, 3), (3, 2, 3)):
        ctx = get_field(p, s)
        rng = np.random.default_rng(100 * p + s)
        top = ctx.q**n
        mu = mobius_over_g(ctx, n)
        cuts = [0, *sorted(rng.integers(0, top, size=3)), top]
        ranges = [(a, a + 1) for a in rng.integers(0, top, size=3)]
        ranges += [(int(a), int(b)) for a, b in zip(cuts, cuts[1:]) if a < b]
        for phase in _kernel_phases(ctx, n, rng):
            for weights in (None, mu):
                whole = phase_hist(ctx, phase, n, 0, top, weights)
                assert np.array_equal(whole, _bincount_reference(ctx, phase, n, 0, top, weights))
                parts = sum(phase_hist(ctx, phase, n, lo, hi, weights) for lo, hi in ranges[3:])
                assert np.array_equal(whole, parts)
                for lo, hi in ranges:
                    want = _bincount_reference(ctx, phase, n, lo, hi, weights)
                    assert np.array_equal(phase_hist(ctx, phase, n, lo, hi, weights), want)
                monkeypatch.setattr(correlations, "CHUNK", 37)
                assert np.array_equal(whole, phase_hist(ctx, phase, n, 0, top, weights))
                lo, hi = top // 3, top // 3 + 70  # two chunks of 37
                want = _bincount_reference(ctx, phase, n, lo, hi, weights)
                assert np.array_equal(phase_hist(ctx, phase, n, lo, hi, weights), want)
                monkeypatch.undo()


def test_phase_compiled_once_per_ncoords(F3):
    phase = LinearPhase(sample_torus(F3, 4, 8))
    calls = []
    exponents = phase.exponents
    phase.exponents = lambda n, codes: calls.append(n) or exponents(n, codes)
    for _ in range(3):
        phase_hist(F3, phase, 5, 0, 3**5)
        phase_hist(F3, phase, 5, 7, 8)
    assert calls == [5]
    phase_hist(F3, phase, 6, 0, 3**6)
    assert calls == [5, 6]
    assert phase.form(5) is phase.form(5)


class _CubicPhase(Phase):
    """Exponent x_0^3 in the constant digit: not a quadratic form for p = 5,
    declared with zero quadratic data."""

    def __init__(self, ctx):
        self.ctx = ctx

    def quad_data(self, ncoords):
        return np.zeros((ncoords, ncoords), dtype=np.int64), np.zeros(ncoords, dtype=np.int64), 0, 1

    def exponents(self, ncoords, codes):
        return (codes % 5) ** 3 % 5

    def descriptor(self):
        return "cubic"


def test_compile_self_check_rejects_cubic_phase(F5):
    with pytest.raises(IdentityCheckError, match="differ from the form of its quadratic data") as err:
        phase_hist(F5, _CubicPhase(F5), 3, 0, 5**3)
    assert "cubic on 3 coordinates, code 1: form 0, exponents 1" in str(err.value)


def _one_entry_changes(ctx, M, b):
    """(M', b') with exactly one entry of M, or of b when M is zero, moved
    to another field element, for every such entry."""
    M, b = np.array(M, dtype=np.int64), np.array(b, dtype=np.int64)
    target = b if not M.any() else M
    for idx in np.ndindex(target.shape):
        changed = target.copy()
        changed[idx] = (changed[idx] + 1) % ctx.q
        yield (M, changed) if target is b else (changed, b)


@pytest.mark.parametrize("name,n", [("F2", 5), ("F3", 4), ("F4", 3), ("F8", 2), ("F9", 2)])
@pytest.mark.parametrize("kind", ["linear", "hankel", "quadratic"])
def test_form_of_quad_data_is_checked_exactly(name, n, kind, request, monkeypatch):
    # the compiled form equals the phase's exponents on every code, and a
    # change to one entry of alpha (a linear phase's b), of the Hankel
    # matrix or of M is caught by the compile, at p = 2, 3 and s > 1
    ctx = request.getfixturevalue(name)
    rng = np.random.default_rng(ctx.q)
    alpha = sample_torus(ctx, rng, 2 * n + 2)
    if kind == "linear":
        phase = LinearPhase(alpha)
    elif kind == "hankel":
        phase = HankelPhase(alpha, sample_torus(ctx, rng, n + 1))
    else:
        M = np.triu(rng.integers(0, ctx.q, size=(n, n)))
        qp = QuadPhase(ctx, M + np.triu(M, 1).T, rng.integers(0, ctx.q, size=n), 1, 1)
        phase = QuadraticPhase(qp)
    codes = np.arange(ctx.q**n)
    assert np.array_equal(phase.form(n).exponents(codes), phase.exponents(n, codes))
    M, b, c, r = phase.quad_data(n)
    for M2, b2 in _one_entry_changes(ctx, M, b):
        phase.quad_data = lambda ncoords: (M2, b2, c, r)
        with pytest.raises(IdentityCheckError, match="quadratic data"):
            correlations.PhaseForm.compile(phase, n)
    if kind == "quadratic" and name == "F3":
        # a quadratic phase's exponents do not go through digit_form, so a
        # wrong entry in the digit form itself is caught as well
        def corrupted(*args):
            A, b2, c2 = digit_form(*args)
            A = A.copy()
            A[0, 1] = (A[0, 1] + 1) % ctx.p
            return A, b2, c2

        digit_form = fields.digit_form
        monkeypatch.setattr(fields, "digit_form", corrupted)
        monkeypatch.setattr(correlations, "digit_form", corrupted)
        with pytest.raises(IdentityCheckError, match="quadratic data"):
            correlations.PhaseForm.compile(QuadraticPhase(qp), n)


def _linear_exponents_oracle(phase, ncoords, codes):
    """LinearPhase.exponents one coordinate at a time."""
    ctx, q = phase.ctx, phase.ctx.q
    phase.require_prec(ncoords)
    acc = np.zeros(len(codes), dtype=np.int64)
    for i in range(ncoords):
        a = phase.alpha.coefficient(-1 - i)
        if a:
            acc += ctx.TRACE[ctx.MUL[a]][(codes // q**i) % q]
    return acc % ctx.p


def _hankel_exponents_oracle(phase, ncoords, codes):
    """HankelPhase.exponents by squaring f one coefficient at a time."""
    ctx, p = phase.ctx, phase.ctx.p
    phase.require_prec(ncoords)
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
        a = phase.alpha.coefficient(-1 - k)
        if a:
            acc += ctx.TRACE[ctx.MUL[a]][S[:, k]]
    if phase.beta is not None:
        for i in range(ncoords):
            b = phase.beta.coefficient(-1 - i)
            if b:
                acc += ctx.TRACE[ctx.MUL[b]][X[:, i]]
    return acc % p


@pytest.mark.parametrize("name,nmax", [("F2", 9), ("F3", 6), ("F4", 5), ("F5", 4), ("F8", 3), ("F9", 3)])
def test_phase_exponents_match_loop_oracles(name, nmax, request, monkeypatch):
    # the gathered exponents equal the loops they replace on every code of
    # G_n, n = 0 .. nmax, with beta None and given; the series are drawn
    # with their top above or below degree -1 as well.  They stay a second
    # route: the Hankel matrix, the digit form and MULMAT are out of reach
    ctx = request.getfixturevalue(name)
    monkeypatch.setattr(correlations, "hankel_matrix", None)
    monkeypatch.setattr(correlations, "digit_form", None)
    monkeypatch.setattr(ctx, "MULMAT", None)
    rng = np.random.default_rng(ctx.q + 100)
    for n in range(nmax + 1):
        codes = np.arange(ctx.q**n)
        for top in (-1, 1, -3):
            alpha = LaurentSeries(ctx, top, rng.integers(0, ctx.q, size=top + 2 * n + 4))
            beta = LaurentSeries(ctx, top, rng.integers(0, ctx.q, size=top + n + 4))
            phase = LinearPhase(alpha)
            assert np.array_equal(phase.exponents(n, codes), _linear_exponents_oracle(phase, n, codes))
            for b in (None, beta):
                phase = HankelPhase(alpha, b)
                want = _hankel_exponents_oracle(phase, n, codes)
                assert np.array_equal(phase.exponents(n, codes), want), (n, top, b)


@pytest.mark.parametrize("name,n", [("F2", 5), ("F3", 4), ("F4", 3), ("F9", 2)])
@pytest.mark.parametrize("kind", ["linear", "hankel"])
def test_compile_names_the_pair_code_an_exponent_is_off_at(name, n, kind, request):
    # exponents off by one at a single pair code p^k + p^l are caught by the
    # compile, which names that code, the form's value and the exponent
    ctx = request.getfixturevalue(name)
    p, N = ctx.p, ctx.s * n
    rng = np.random.default_rng(ctx.q + 7)
    alpha = sample_torus(ctx, rng, 2 * n + 2)
    phase = LinearPhase(alpha) if kind == "linear" else HankelPhase(alpha, sample_torus(ctx, rng, n + 1))
    exponents = phase.exponents
    for k, l in ((0, 1), (0, N - 1), (N - 2, N - 1)):
        bad = p**k + p**l
        phase.exponents = lambda ncoords, codes: (exponents(ncoords, codes) + (codes == bad)) % p
        with pytest.raises(IdentityCheckError, match="quadratic data") as err:
            correlations.PhaseForm.compile(phase, n)
        good = int(exponents(n, np.array([bad]))[0])
        assert err.value.counterexample == (
            f"{phase.descriptor()} on {n} coordinates, code {bad}: form {good}, exponents {(good + 1) % p}"
        )


def test_check_set_is_cached_read_only_and_bounded():
    # the parent's check codes in the parent's order, with their digit rows,
    # built once per (p, N)
    check_set = correlations._check_set
    assert check_set.cache_info().maxsize is not None
    for p, N in ((2, 5), (3, 4), (2, 6), (5, 0)):
        P = p**N
        units = p ** np.arange(N, dtype=np.int64)
        want = np.concatenate((
            [0], units, (units[:, None] + units).ravel(), [v * ((P - 1) // (p - 1)) for v in range(1, p)],
            [(k * 0x9E3779B97F4A7C15 + 0x632BE5AB) % P for k in range(16)],
        )).astype(np.int64)
        codes, rows = check_set(p, N)
        assert np.array_equal(codes, want) and codes.dtype == np.int64
        assert np.array_equal(rows, codes[:, None] // units % p) and rows.dtype == np.float64
        assert not codes.flags.writeable and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        hits = check_set.cache_info().hits
        assert check_set(p, N)[0] is codes
        assert check_set.cache_info().hits == hits + 1


def test_quad_zero_phase(F3):
    qp = QuadPhase(F3, np.zeros((4, 4), dtype=int), np.zeros(4, dtype=int), 0, 1)
    assert quad_corr(F3, 4, qp).sum(F3) == -4


def test_quad_rejects_char2(F2):
    qp = QuadPhase(F2, np.zeros((3, 3), dtype=int), np.zeros(3, dtype=int), 0, 1)
    with pytest.raises(CharacteristicError):
        quad_corr(F2, 3, qp)


def test_quad_rank0_matches_linear(F3):
    # zero quadratic part with linear part b: equals the linear phase with
    # alpha carrying the codes of b
    rng = np.random.default_rng(12)
    n = 5
    b = rng.integers(0, 3, size=n)
    qp = QuadPhase(F3, np.zeros((n, n), dtype=int), b, 0, 1)
    alpha = LaurentSeries.from_coeff_map(
        F3, {-(i + 1): int(b[i]) for i in range(n)}, n + 1
    )
    r1 = quad_corr(F3, n, qp)
    r2 = linear_corr(F3, n, alpha, "G")
    assert r1.hist == r2.hist


def test_hankel_zero(F3):
    a0 = LaurentSeries.zero(F3, 20)
    assert hankel_corr(F3, 4, a0, None).sum(F3) == -4


def test_hankel_beta_only_matches_linear(F3):
    beta = sample_torus(F3, 31, 8)
    a0 = LaurentSeries.zero(F3, 20)
    r1 = hankel_corr(F3, 5, a0, beta)
    r2 = linear_corr(F3, 5, beta, "G")
    assert r1.hist == r2.hist


def test_hankel_dual_route(F3, F5):
    # explicit squaring route vs quadratic form through the Hankel matrix
    rng = np.random.default_rng(14)
    for ctx in (F3, F5):
        for _ in range(4):
            n = int(rng.integers(2, 6))
            alpha = sample_torus(ctx, rng, 2 * n + 2)
            beta = sample_torus(ctx, rng, n + 1)
            rep = hankel_corr(ctx, n, alpha, beta)  # raises on disagreement
            M = hankel_matrix(alpha, n)
            b = np.array([beta.coefficient(-1 - i) for i in range(n)])
            qp = QuadPhase(ctx, M, b, 0, 1)
            rep2 = quad_corr(ctx, n, qp)
            assert rep.hist == rep2.hist


def test_hankel_cross_check_is_exact(F2, F3, F4, monkeypatch):
    # a Hankel matrix off by one entry no longer matches explicit squaring:
    # the compile names the first code that differs, at every p
    for ctx in (F2, F3, F4):
        alpha = sample_torus(ctx, 21, 10)
        beta = sample_torus(ctx, 22, 5)
        hankel_corr(ctx, 4, alpha, beta)

        def perturbed(alpha, n):
            M = hankel_matrix(alpha, n)
            M[0, 0] = (M[0, 0] + 1) % ctx.q
            return M

        monkeypatch.setattr(correlations, "hankel_matrix", perturbed)
        with pytest.raises(IdentityCheckError, match="quadratic data") as err:
            hankel_corr(ctx, 4, alpha, beta)
        monkeypatch.undo()
        msg = str(err.value)
        phase = HankelPhase(alpha, beta)
        assert f"{phase.descriptor()} on 4 coordinates, code " in msg
        code, form, exps = (int(x) for x in re.search(r"code (\d+): form (\d+), exponents (\d+)", msg).groups())
        assert exps == phase.exponents(4, np.array([code]))[0] != form


def test_hankel_kernel_runs_once(F2, F3, F4, F9, monkeypatch):
    # the route check is the compile's, so one form and one phase_hist per sum
    calls, compiles = [], []
    compile_ = correlations.PhaseForm.compile

    def spy(*args, **kwargs):
        calls.append(args[1])
        return phase_hist(*args, **kwargs)

    def counted_compile(cls, phase, ncoords):
        compiles.append(phase)
        return compile_(phase, ncoords)

    monkeypatch.setattr(correlations, "phase_hist", spy)
    monkeypatch.setattr(correlations.PhaseForm, "compile", classmethod(counted_compile))
    for ctx in (F2, F3, F4, F9):
        for beta in (None, sample_torus(ctx, 32, 4)):
            calls.clear(), compiles.clear()
            rep = hankel_corr(ctx, 3, sample_torus(ctx, 31, 8), beta)
            assert len(calls) == 1 and isinstance(calls[0], HankelPhase)
            assert compiles == calls
            assert rep.terms == ctx.q**3


@pytest.mark.parametrize("ctx", ["F2", "F3"])
def test_hankel_n_zero(ctx, request):
    # G_0 holds only f = 0, where mu vanishes: an empty sum, not a numpy error
    ctx = request.getfixturevalue(ctx)
    rep = hankel_corr(ctx, 0, sample_torus(ctx, 5, 2), sample_torus(ctx, 6, 1))
    assert rep.hist == (0,) * ctx.p and rep.terms == 1


def test_hankel_char2_checked_against_squaring(F2):
    alpha = sample_torus(F2, 8, 30)
    beta = sample_torus(F2, 9, 10)
    rep = hankel_corr(F2, 6, alpha, beta)
    assert rep.terms == 64


def test_hankel_squaring_against_poly_squaring(F3, F4, F5):
    # exponent of e(alpha f^2 + beta f) matches Poly math, over prime and
    # extension fields
    rng = np.random.default_rng(3)
    n = 3
    for ctx in (F4, F3, F5):
        alpha = sample_torus(ctx, rng, 2 * n + 2)
        beta = sample_torus(ctx, rng, n + 1)
        ph = HankelPhase(alpha, beta)
        exps = ph.exponents(n, np.arange(ctx.q**n, dtype=np.int64))
        for code in range(1, ctx.q**n):
            f = Poly.from_code(ctx, code)
            val = alpha.mul_poly(f * f) + beta.mul_poly(f)
            assert int(exps[code]) == val.e_exponent()


def test_periodic_constant_function(F2):
    F = lambda cls: 1.0
    assert abs(periodic_corr(F2, 4, 1, Poly.t(F2), F)) < 1e-12
    # n = 1: sum of mu over A_1 is -q
    assert abs(periodic_corr(F2, 1, 1, Poly.t(F2), F) + 2) < 1e-12


def test_periodic_character_matches_lpoly(F2):
    # F = a Hayes character: the sum follows the 1/L coefficient route
    g = build_group(F2, 1, Poly.t(F2))
    lam = list(g.characters())[1]
    L = g.exponent_lcm

    def Fv(cls):
        idx = g.index.get(cls)
        if idx is None:
            return 0j
        return np.exp(2j * np.pi * lam.exponent_on_index(idx) / L)

    for n in (1, 2, 3, 4):
        s = periodic_corr(F2, n, 1, Poly.t(F2), Fv)
        assert abs(s - 1) < 1e-9  # 1/(1-z) coefficients


def test_periodic_table_incomplete(F2):
    with pytest.raises(ValueError):
        periodic_corr(F2, 3, 1, Poly.t(F2), {})


def test_periodic_route_random(F2, monkeypatch):
    for seed in (1, 2, 3, 4, 5):
        alpha = sample_torus(F2, seed, 12)
        direct, periodic, l, g = periodic_route_check(F2, 8, alpha)
        assert abs(direct - periodic) < 1e-9
        assert l == 8 - 4 - int(g.deg)
        monkeypatch.setattr(correlations, "CHUNK", 37)  # the exponents over uneven spans
        assert periodic_route_check(F2, 8, alpha) == (direct, periodic, l, g)
        monkeypatch.undo()


def test_periodic_route_catches_nonconstant_exponent(F2, monkeypatch):
    # one f whose exponent is flipped breaks constancy on its class
    alpha = sample_torus(F2, 3, 12)
    exponents = LinearPhase.exponents

    def flipped(self, ncoords, codes):
        out = exponents(self, ncoords, codes)
        out[codes == 2**8 + 37] ^= 1
        return out

    monkeypatch.setattr(LinearPhase, "exponents", flipped)
    with pytest.raises(IdentityCheckError, match="not constant on classes") as err:
        periodic_route_check(F2, 8, alpha)
    assert f"alpha={alpha.format()}, f=" in str(err.value)


def test_periodic_route_catches_direct_hist_off_by_one(F2, monkeypatch):
    alpha = sample_torus(F2, 4, 12)
    linear = correlations.linear_corr

    def off_by_one(*args, **kwargs):
        rep = linear(*args, **kwargs)
        return dataclasses.replace(rep, hist=(rep.hist[0] + 1,) + rep.hist[1:])

    monkeypatch.setattr(correlations, "linear_corr", off_by_one)
    with pytest.raises(IdentityCheckError, match="periodic route disagrees"):
        periodic_route_check(F2, 8, alpha)


def test_exponent_sweep_deterministic(F2):
    rows1 = exponent_sweep(F2, "linear", range(3, 7), 5, seed=42)
    rows2 = exponent_sweep(F2, "linear", range(3, 7), 5, seed=42)
    assert rows1 == rows2
    rows3 = exponent_sweep(F2, "linear", range(3, 7), 5, seed=43)
    assert rows3 != rows1


def test_exponent_sweep_empty(F2):
    assert exponent_sweep(F2, "linear", range(3, 5), 0, seed=0) == []


def test_exponent_sweep_triangle_bound(F3):
    rows = exponent_sweep(F3, "hankel", range(2, 5), 4, seed=7)
    for n, samples, mx, mean, expo in rows:
        assert mx <= 3**n
        assert mean <= mx


def test_exponent_sweep_exhaustive_mode(F2):
    rows = exponent_sweep(F2, "linear", [4], 0, seed=0, exhaustive=True)
    assert rows[0][1] == 2**5  # all alphas at precision n+1


@pytest.mark.parametrize("experiment, kwargs, message", [
    ("bogus", {}, "unknown experiment 'bogus'"),
    ("hankel", {"exhaustive": True}, "exhaustive sweep is linear only"),
    ("quadratic", {"exhaustive": True}, "exhaustive sweep is linear only"),
], ids=["unknown", "hankel-exhaustive", "quadratic-exhaustive"])
def test_exponent_sweep_rejects_bad_arguments(experiment, kwargs, message, F3):
    # before any work: with samples=0 an unknown experiment used to give []
    with pytest.raises(ValueError, match=message):
        exponent_sweep(F3, experiment, [2], 0, 0, **kwargs)


@pytest.mark.parametrize("name, n, row", [
    ("F2", 4, (4, 32, 7.0, 2.375, 0.701838730514401)),
    ("F3", 3, (3, 81, 5.0, 4.444444444444445, 0.4883245069059757)),
])
def test_exhaustive_sweep_sums_each_phase_once(name, n, row, request, monkeypatch):
    # alpha_(-n-1) never enters a sum over G_n, so q^n linear_corr calls give
    # every one of the q^(n+1) rows; the row is the one recorded when every
    # alpha was summed
    ctx = request.getfixturevalue(name)
    calls = []
    real = correlations.linear_corr

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(correlations, "linear_corr", counting)
    assert exponent_sweep(ctx, "linear", [n], 0, 0, exhaustive=True) == [row]
    assert len(calls) == ctx.q**n and all(al.coefficient(-n - 1) == 0 for al in calls)
