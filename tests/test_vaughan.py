import hashlib

import numpy as np
import pytest

from ffmobius import Poly, get_field, mobius, tau
from ffmobius import correlations
from ffmobius import sieve as _sieve
from ffmobius.errors import IdentityCheckError
from ffmobius.laurent import sample_torus
from ffmobius.polys import divisors, enumerate_polys
from ffmobius.correlations import (
    HankelPhase,
    LinearPhase,
    QuadraticPhase,
    phase_hist,
    type_one_mean_square,
    vaughan_decompose,
    vaughan_pointwise_audit,
)
from ffmobius.quadform import QuadPhase, dilation_matrix, fq_matmul
from test_correlations import _kernel_phases


def divisor_pair_sums(f, u, v):
    """(A1(f), B(f)) straight from the definition: mu(a) mu(b) summed over
    the pairs with a b | f and deg a <= u, deg b <= v, or deg a > u, deg b > v."""
    first = second = 0
    for a in divisors(f):
        for b in divisors(f):
            rem, r = divmod(f, a * b)
            if not r.is_zero():
                continue
            ma, mb = mobius(a), mobius(b)
            if a.deg <= u and b.deg <= v:
                first += ma * mb
            if a.deg > u and b.deg > v:
                second += ma * mb
    return first, second


def pointwise_rhs(f, u, v):
    first, second = divisor_pair_sums(f, u, v)
    return -first + second


def test_pointwise_hand_cases(F2, F3):
    # irreducible with deg > u+v: only (1,1) contributes, giving -1 = mu(f)
    f = Poly.parse(F2, "1,1,0,1")  # t^3+t+1, irreducible
    assert pointwise_rhs(f, 1, 1) == -1 == mobius(f)
    # f = P^2 with deg P > max(u, v): -1 + 1 = 0 = mu(f)
    P = Poly.parse(F3, "1,0,1")  # t^2+1 over F_3: no root, irreducible
    assert pointwise_rhs(P * P, 1, 1) == 0 == mobius(P * P)
    # failure case: f = P with deg P <= u
    t = Poly.t(F2)
    assert pointwise_rhs(t, 1, 1) == 1 != mobius(t)


def test_audit_matches_bruteforce(F2, F3):
    for ctx, D in ((F2, 7), (F3, 4)):
        for u, v in ((0, 0), (1, 2), (2, 1), (2, 2)):
            audit = vaughan_pointwise_audit(ctx, D, u, v)
            fail_set = {p.code for p in audit.failures}
            count = 0
            for d in range(D + 1):
                for f in enumerate_polys(ctx, "A", d):
                    ok = pointwise_rhs(f, u, v) == mobius(f)
                    if not ok:
                        count += 1
                        assert d in audit.fail_degrees
                        assert f.code in fail_set
            assert count == audit.failure_count


def test_audit_failures_confined_to_low_degrees(F2, F3):
    for ctx in (F2, F3):
        for u in range(4):
            for v in range(4):
                audit = vaughan_pointwise_audit(ctx, 9 if ctx.q == 2 else 8, u, v)
                assert all(d <= max(u, v) for d in audit.fail_degrees)
                for f in audit.failures:
                    assert mobius(f) != 0


def test_decompose_linear_phase(F2):
    alpha = sample_torus(F2, 100, 12)
    rep = vaughan_decompose(F2, 10, LinearPhase(alpha), 2, 2)
    assert rep.restricted_residual < 1e-6
    assert rep.coefficient_bound_ok
    assert set(rep.fail_degrees) <= {0, 1, 2}
    assert all(d > 2 for d in rep.pass_degrees)


def test_decompose_default_cutoffs(F2):
    alpha = sample_torus(F2, 7, 12)
    rep = vaughan_decompose(F2, 10, LinearPhase(alpha))
    assert rep.u == rep.v == 0
    assert rep.restricted_residual < 1e-6


def test_decompose_constant_phase_full_identity(F2):
    # Phi = 1 (alpha = 0): direct = sum of mu over G_n; the unrestricted
    # residual is the boundary term sum_d a_d plus the failing low degrees
    from ffmobius.laurent import LaurentSeries

    z = LaurentSeries.zero(F2, 12)
    rep = vaughan_decompose(F2, 9, LinearPhase(z), 1, 1)
    assert rep.direct == -1  # -(q-1)^2
    assert rep.restricted_residual < 1e-12


def test_decompose_quadratic_phase(F3):
    rng = np.random.default_rng(2)
    n = 6
    M = rng.integers(0, 3, size=(n, n))
    M = (np.triu(M) + np.triu(M, 1).T) % 3
    qp = QuadPhase(get_field(3), M, rng.integers(0, 3, size=n), 1, 1)
    rep = vaughan_decompose(F3, n, QuadraticPhase(qp), 1, 1)
    assert rep.restricted_residual < 1e-9


def test_decompose_hankel_phase(F3):
    alpha = sample_torus(F3, 5, 30)
    beta = sample_torus(F3, 6, 10)
    rep = vaughan_decompose(F3, 6, HankelPhase(alpha, beta), 1, 1)
    assert rep.restricted_residual < 1e-9


def test_coefficient_bounds_exhaustive(F2):
    # |a_d| <= tau(d) and |b_d| <= tau(d) recomputed by brute force
    from ffmobius.correlations import vaughan_rhs_arrays

    u, v, D = 2, 1, 7
    arrays = vaughan_rhs_arrays(F2, D, u, v)
    for d in range(D + 1):
        for f in enumerate_polys(F2, "A", d):
            b_expect = sum(mobius(a) for a in divisors(f) if a.deg > u)
            assert int(arrays["r_u"][f.code]) == b_expect
            assert abs(b_expect) <= tau(f)
            a_expect = 0
            for a in divisors(f):
                b = f // a
                if a.deg <= u and b.deg <= v and (a * b) == f:
                    a_expect += mobius(a) * mobius(b)
            assert int(arrays["w_uv"][f.code]) == a_expect
            assert abs(a_expect) <= tau(f)


@pytest.mark.parametrize(
    "q,D,u,v", [(2, 7, 0, 2), (2, 7, 2, 1), (3, 5, 1, 2), (3, 5, 0, 0), (4, 4, 2, 1), (5, 3, 0, 1)]
)
def test_a1_and_b_match_divisor_pair_sums(q, D, u, v):
    # each side on its own, so that errors which cancel in -a1 + b show
    from ffmobius.correlations import vaughan_rhs_arrays

    ctx = get_field(2, 2) if q == 4 else get_field(q)
    rhs = vaughan_rhs_arrays(ctx, D, u, v)
    want_a1, want_b = np.zeros_like(rhs["a1"]), np.zeros_like(rhs["b"])
    for d in range(D + 1):
        for f in enumerate_polys(ctx, "A", d):
            want_a1[f.code], want_b[f.code] = divisor_pair_sums(f, u, v)
    assert np.array_equal(rhs["a1"], want_a1)
    assert np.array_equal(rhs["b"], want_b)


def test_rhs_arrays_make_four_convolutions(F3, monkeypatch):
    calls = []
    convolve = _sieve.convolve_monic

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(_sieve, "convolve_monic", counted)
    monkeypatch.setattr(correlations, "_AUDIT_ARRAYS", {})  # so the arrays are built here
    correlations._audit_arrays(F3, 6)
    assert calls == []
    correlations.vaughan_rhs_arrays(F3, 6, 1, 2)
    assert len(calls) == 4


def type_one_table(ctx, u, v):
    """a_d = sum over d = a b, deg a <= u, deg b <= v, of mu(a) mu(b), by
    the double loop over pairs of monic polynomials."""
    q = ctx.q
    a_d = {}
    for da in range(u + 1):
        for ac in range(q**da, 2 * q**da):
            ma = mobius(Poly.from_code(ctx, ac))
            if not ma:
                continue
            for db in range(v + 1):
                for bc in range(q**db, 2 * q**db):
                    mb = mobius(Poly.from_code(ctx, bc))
                    if mb:
                        dc = (Poly.from_code(ctx, ac) * Poly.from_code(ctx, bc)).code
                        a_d[dc] = a_d.get(dc, 0) + ma * mb
    return a_d


@pytest.mark.parametrize(
    "q,n,u,v", [(2, 10, 1, 2), (2, 10, 2, 1), (3, 8, 1, 1), (2, 9, 3, 1), (3, 6, 1, 2), (4, 5, 1, 1)]
)
def test_type_one_coefficients_are_w_uv(q, n, u, v):
    # vaughan_decompose reads its type I coefficients from w_uv
    from ffmobius.correlations import vaughan_rhs_arrays

    ctx = get_field(2, 2) if q == 4 else get_field(q)
    w_uv = vaughan_rhs_arrays(ctx, n, u, v)["w_uv"]
    table = np.zeros_like(w_uv)
    for dc, val in type_one_table(ctx, u, v).items():
        table[dc] = val
    assert np.array_equal(w_uv, table)


def test_type_one_tau_check(F2, monkeypatch):
    from ffmobius import correlations

    rhs_arrays = correlations.vaughan_rhs_arrays

    def inflated(ctx, D, u, v):
        rhs = dict(rhs_arrays(ctx, D, u, v))
        rhs["w_uv"] = rhs["w_uv"].copy()
        rhs["w_uv"][2] += 5  # d = t, tau(t) = 2
        return rhs

    monkeypatch.setattr(correlations, "vaughan_rhs_arrays", inflated)
    alpha = sample_torus(F2, 1, 10)
    with pytest.raises(IdentityCheckError, match="type I coefficient exceeds tau"):
        vaughan_decompose(F2, 6, LinearPhase(alpha), 1, 1)


def test_type_two_tau_check(F2, monkeypatch):
    rhs_arrays = correlations.vaughan_rhs_arrays

    def inflated(ctx, D, u, v):
        rhs = dict(rhs_arrays(ctx, D, u, v))
        rhs["r_u"] = rhs["r_u"].copy()
        rhs["r_u"][7] += 5  # d = t^2 + t + 1, tau = 2
        return rhs

    monkeypatch.setattr(correlations, "vaughan_rhs_arrays", inflated)
    alpha = sample_torus(F2, 1, 10)
    with pytest.raises(IdentityCheckError, match=r"type II coefficient exceeds tau.*b_d=-?\d+, tau=2"):
        vaughan_decompose(F2, 6, LinearPhase(alpha), 1, 1)


def test_restricted_identity_is_exact(F2, monkeypatch):
    # one bin of the direct sum off by one, in a degree the audit clears
    n, u, v = 10, 2, 2
    kernel = correlations.phase_hist

    def perturbed(ctx, phase, ncoords, lo, hi, *args):
        h = kernel(ctx, phase, ncoords, lo, hi, *args)
        if hi == ctx.q**n:
            h = h.copy()
            h[1] += 1
        return h

    alpha = sample_torus(F2, 100, 12)
    assert vaughan_decompose(F2, n, LinearPhase(alpha), u, v).restricted_residual == 0
    monkeypatch.setattr(correlations, "phase_hist", perturbed)
    with pytest.raises(IdentityCheckError, match=r"n=10, u=2, v=2: direct \[.*\], T1 \[.*\], T2 \[.*\]"):
        vaughan_decompose(F2, n, LinearPhase(alpha), u, v)


def test_fail_degree_enters_the_full_sums_only(F2, monkeypatch):
    # one bin of the direct sum off by one, in degree 1, which the audit fails
    n, u, v = 10, 2, 2
    kernel = correlations.phase_hist

    def perturbed(ctx, phase, ncoords, lo, hi, *args):
        h = kernel(ctx, phase, ncoords, lo, hi, *args)
        if lo == ctx.q:
            h = h.copy()
            h[1] += 1
        return h

    alpha = sample_torus(F2, 100, 12)
    clean = vaughan_decompose(F2, n, LinearPhase(alpha), u, v)
    assert 1 in clean.fail_degrees and 1 not in clean.pass_degrees
    monkeypatch.setattr(correlations, "phase_hist", perturbed)
    rep = vaughan_decompose(F2, n, LinearPhase(alpha), u, v)
    assert rep.restricted_residual == clean.restricted_residual == 0
    assert rep.direct == clean.direct - 1  # one more count at e(1/2) = -1
    assert rep.residual != clean.residual
    assert (rep.t1, rep.t2) == (clean.t1, clean.t2)


def test_u_plus_v_must_be_small(F2):
    alpha = sample_torus(F2, 1, 10)
    with pytest.raises(ValueError):
        vaughan_decompose(F2, 4, LinearPhase(alpha), 2, 2)


def test_type_one_mean_square(F2, F3):
    from ffmobius.correlations import type_one_mean_square
    from ffmobius.laurent import LaurentSeries

    # constant phase: every inner mean is 1, so the statistic is 1 per k
    z = LaurentSeries.zero(F2, 16)
    for k, ms in type_one_mean_square(F2, 6, LinearPhase(z), 4):
        assert abs(ms - 1) < 1e-12
    # generic phase: values lie in [0, 1] and are reproducible
    alpha = sample_torus(F3, 23, 10)
    rows = type_one_mean_square(F3, 6, LinearPhase(alpha), 3)
    assert [k for k, _ in rows] == [0, 1, 2, 3]
    assert all(0 <= ms <= 1 + 1e-12 for _, ms in rows)
    assert rows == type_one_mean_square(F3, 6, LinearPhase(alpha), 3)


def _phases(ctx, n, seed):
    return _kernel_phases(ctx, n, np.random.default_rng(seed))


def compose_dilation(phase, d):
    """The phase w -> Phi(d w), the dilation composed into the series or
    the quadratic form: the oracle for the dilated forms of the kernel."""
    if isinstance(phase, LinearPhase):
        return LinearPhase(phase.alpha.mul_poly(d))
    if isinstance(phase, QuadraticPhase):
        ctx = phase.ctx
        n = phase.qp.n
        k = max(int(d.deg), 0) if not d.is_zero() else 0
        L = dilation_matrix(ctx, d, n, k)
        M2 = fq_matmul(ctx, L.T, fq_matmul(ctx, phase.qp.M, L))
        b2 = fq_matmul(ctx, phase.qp.b[None, :], L)[0]
        return QuadraticPhase(QuadPhase(ctx, M2, b2, phase.qp.c, phase.qp.r))
    d2 = d * d
    beta = None if phase.beta is None else phase.beta.mul_poly(d)
    return HankelPhase(phase.alpha.mul_poly(d2), beta)


def _composed_hists(ctx, phase, d_codes, m, lo, hi, weights):
    """phase_hist of each dilated phase, the dilation composed into the
    series or the quadratic form."""
    return np.array(
        [phase_hist(ctx, compose_dilation(phase, Poly.from_code(ctx, int(d))), m, lo, hi, weights)
         for d in d_codes]
    ).reshape(-1, ctx.p)


@pytest.mark.parametrize("p,s,n", [(2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 3)])
def test_dilated_forms_are_the_forms_of_composed_phases(p, s, n):
    # the upper triangular form (the diagonal folded into b at p = 2) of a
    # quadratic function is unique, so the two routes agree entry by entry
    ctx = get_field(p, s)
    q = ctx.q
    rng = np.random.default_rng(20 * p + s)
    for phase in _phases(ctx, n, 3 * p + s):
        form = phase.form(n)
        for dd in range(n):
            d_codes = q**dd + np.sort(rng.choice(q**dd, size=min(q**dd, 5), replace=False))
            stack = form.dilated(_sieve.codes_to_digits(ctx, d_codes, dd + 1), n - dd)
            assert stack.A.shape == (len(d_codes), s * (n - dd), s * (n - dd))
            assert np.array_equal(stack.A, np.triu(stack.A, 1 if p == 2 else 0))
            for i, d in enumerate(d_codes):
                want = compose_dilation(phase, Poly.from_code(ctx, int(d))).form(n - dd)
                for got, ref in ((stack.A[i], want.A[0]), (stack.b[i], want.b[0]), (stack.c, want.c)):
                    assert np.array_equal(got, ref), (phase.descriptor(), dd, int(d))


def test_dilation_hists_of_no_d_or_no_w_are_zero(F3):
    form = _phases(F3, 4, 1)[0].form(4)
    got = correlations._dilation_hists(F3, form, np.zeros(0, dtype=np.int64), 1, 0, 27)
    assert got.shape == (0, 4, 3)
    for lo, S in ((0, 2), (5, 3)):  # S = 1 + the number of digits of max(hi - 1, 0)
        got = correlations._dilation_hists(F3, form, np.arange(3, 6), 1, lo, lo)
        assert got.shape == (3, S, 3) and got.dtype == np.int64 and not got.any()


@pytest.mark.parametrize("p,s,n", [(2, 1, 7), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 3)])
def test_dilation_hists_match_composed_phases(p, s, n, monkeypatch):
    ctx = get_field(p, s)
    q = ctx.q
    rng = np.random.default_rng(10 * p + s)
    mu = _sieve.mobius_over_g(ctx, n)
    for phase in _phases(ctx, n, 7 * p + s):
        form = phase.form(n)
        for dd in range(n):
            m = n - dd
            d_codes = q**dd + np.sort(rng.choice(q**dd, size=min(q**dd, 6), replace=False))
            a, b = sorted(int(x) for x in rng.integers(0, q**m + 1, size=2))
            for lo, hi in ((0, q**m), (a, b), (q**m - 1, q**m)):
                for weights in (None, mu):
                    got = correlations._dilation_hists(ctx, form, d_codes, dd, lo, hi, weights)
                    want = _composed_hists(ctx, phase, d_codes, m, lo, hi, weights)
                    assert np.array_equal(got.sum(axis=1), want), (phase.descriptor(), dd, lo, hi)
                    # slot k holds the w of degree k - 1, slot 0 the w = 0
                    edges = [0] + [q**k for k in range(got.shape[1])]
                    for k in range(got.shape[1]):
                        lo_k = max(lo, edges[k])
                        hi_k = max(lo_k, min(hi, edges[k + 1]))
                        want = _composed_hists(ctx, phase, d_codes, m, lo_k, hi_k, weights)
                        assert np.array_equal(got[:, k], want), (phase.descriptor(), dd, lo, hi, k)
        # spans of five w-codes with blocks of one d (and of several d on a
        # short last span), and one span with blocks of two d
        d_codes, m = np.arange(q, 2 * q), n - 1
        want = _composed_hists(ctx, phase, d_codes, m, 0, q**m, mu)
        for chunk in (5, 2 * q**m):
            monkeypatch.setattr(correlations, "CHUNK", chunk)
            got = correlations._dilation_hists(ctx, form, d_codes, 1, 0, q**m, mu)
            assert np.array_equal(got.sum(axis=1), want), (phase.descriptor(), chunk)
        monkeypatch.undo()


def test_one_rhs_table_and_one_form_per_decomposition(F3, monkeypatch):
    rhs_calls, compiles = [], []
    rhs_arrays, compile_ = correlations.vaughan_rhs_arrays, correlations.PhaseForm.compile

    def counted_rhs(*args):
        rhs_calls.append(args)
        return rhs_arrays(*args)

    def counted_compile(cls, phase, ncoords):
        compiles.append(ncoords)
        return compile_(phase, ncoords)

    monkeypatch.setattr(correlations, "vaughan_rhs_arrays", counted_rhs)
    monkeypatch.setattr(correlations.PhaseForm, "compile", classmethod(counted_compile))
    for phase in _phases(F3, 6, 5):
        rhs_calls.clear(), compiles.clear()
        vaughan_decompose(F3, 6, phase, 1, 2)
        assert len(rhs_calls) == 1 and compiles == [6]
        type_one_mean_square(F3, 6, phase)  # reuses the phase's form
        assert compiles == [6]
    compiles.clear()
    type_one_mean_square(F3, 6, _phases(F3, 6, 5)[0])
    assert compiles == [6]


# (p, s, n, u, v) -> first 16 hex digits of the sha256 of the newline-joined
# reprs of vaughan_decompose(u, v) and type_one_mean_square (every k) for
# each phase of _phases(ctx, n, 1000 p + 100 s + 10 n + u + v), recorded
# from the route that composed one dilated phase per d.  The stacked
# dilated forms must reproduce every float bit for bit.
VAUGHAN_DIGESTS = {
    (2, 1, 9, 1, 2): "2502bd76e9d0a5d7",
    (2, 1, 10, 2, 2): "b34b7637ae694ff6",
    (2, 1, 9, 3, 1): "0b7ce8690e6b173c",
    (3, 1, 6, 1, 1): "e9650bd94bfc8055",
    (3, 1, 7, 1, 2): "01293bf5560c6fa9",
    (2, 2, 5, 1, 1): "27f568e55ccf2539",
    (2, 2, 5, 3, 1): "0785fd8faf963efc",  # 65 pointwise failures, 64 reported
    (5, 1, 4, 1, 1): "c44ba34689e478d5",
    (3, 2, 3, 0, 1): "5b11aa7c87cf987c",
    (2, 3, 3, 1, 0): "aa04d689aa24134c",
}


@pytest.mark.parametrize("key", sorted(VAUGHAN_DIGESTS), ids=lambda k: "q={}^{},n={},u={},v={}".format(*k))
def test_vaughan_outputs_match_frozen_digests(key):
    p, s, n, u, v = key
    ctx = get_field(p, s)
    out = []
    for phase in _phases(ctx, n, 1000 * p + 100 * s + 10 * n + u + v):
        out.append(repr(vaughan_decompose(ctx, n, phase, u, v)))
        out.append(repr(type_one_mean_square(ctx, n, phase)))
    assert hashlib.sha256("\n".join(out).encode()).hexdigest()[:16] == VAUGHAN_DIGESTS[key]
