import numpy as np
import pytest

from ffmobius import Poly, get_field, mobius, tau
from ffmobius.errors import IdentityCheckError
from ffmobius.laurent import sample_torus
from ffmobius.polys import divisors, enumerate_polys
from ffmobius.correlations import (
    HankelPhase,
    LinearPhase,
    QuadraticPhase,
    vaughan_decompose,
    vaughan_pointwise_audit,
)
from ffmobius.quadform import QuadPhase


def pointwise_rhs(f, u, v):
    """Brute-force the two divisor-pair sums straight from the definition."""
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
