"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timings.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ffmobius import (
    Poly,
    divisor_second_moment,
    get_field,
    pnt_check,
)
from ffmobius.hayes import (
    build_group,
    euler_inverse_check,
    l_polynomial,
    log_deriv_check,
    principal_check,
    rh_check,
)
from ffmobius.laurent import dirichlet_approx, from_rational, sample_torus
from ffmobius.quadform import (
    QuadPhase,
    hankel_matrix,
    m_ab,
)
from ffmobius.correlations import (
    LinearPhase,
    exponent_sweep,
    gauss_mean,
    hankel_corr,
    isotropic_count,
    linear_corr,
    linear_reduction_hists,
    periodic_route_check,
    quad_corr,
    vaughan_decompose,
    vaughan_pointwise_audit,
    vaughan_rhs_arrays,
)
from ffmobius import sieve as _sieve

BUDGET = 1_200_000


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.1f}s)")


def test_criterion_01_pnt_identity():
    with criterion(1, "prime number theorem degree sums"):
        for q, s in ((2, 1), (3, 1), (4, 2), (5, 1)):
            ctx = get_field(q if s == 1 else 2, s)
            for l in range(1, 11):
                if ctx.q**l > BUDGET:
                    break
                total, expected = pnt_check(ctx, l, BUDGET)
                assert total == expected == ctx.q**l


def test_criterion_02_mobius_column_sums():
    with criterion(2, "Mobius column sums over A_n"):
        for p in (2, 3):
            ctx = get_field(p)
            sieve = _sieve.get_sieve(ctx, 12)
            for n in range(1, 13):
                col = int(sieve.degree_slice(sieve.mu, n).astype(np.int64).sum())
                assert col == (-ctx.q if n == 1 else 0)


@pytest.fixture(scope="module")
def hayes_sweep():
    """Every G_(l,Q) with q in {2,3}, l <= 2, deg Q <= 3, order <= 10^3."""
    from ffmobius.errors import BudgetExceeded

    groups = []
    for p in (2, 3):
        ctx = get_field(p)
        for l in (0, 1, 2):
            for m in (0, 1, 2, 3):
                for jq in range(ctx.q**m):
                    Q = Poly.from_code(ctx, ctx.q**m + jq)
                    try:
                        g = build_group(ctx, l, Q, budget=1000)
                    except BudgetExceeded:
                        continue
                    groups.append(g)
    assert len(groups) > 100
    return groups


def test_criterion_03_hayes_degree_bound_and_grh(hayes_sweep):
    with criterion(3, "Hayes degree bound and root moduli"):
        checked = 0
        for g in hayes_sweep:
            bound = g.l + g.m
            for char in g.characters():
                if char.is_principal:
                    continue
                # l_polynomial asserts |c_n| < 1e-6 for n in [l+m, l+m+2];
                # rh_check asserts each root modulus is 1 or q^(-1/2) +- 1e-6
                lp = l_polynomial(char, bound + 2, budget=BUDGET)
                for n in range(bound, bound + 3):
                    assert abs(lp.coeffs[n]) < 1e-6
                rows = rh_check(char, n_max=bound + 2, budget=BUDGET)
                for _, modulus, label in rows:
                    assert label in ("1", "q^-1/2")
                checked += 1
        assert checked > 500


def test_criterion_04_euler_inverse_and_principal(hayes_sweep):
    with criterion(4, "Euler inverse series and principal formula"):
        for g in hayes_sweep:
            nmax = g.l + g.m + 2
            for char in g.characters():
                if char.is_principal:
                    continue
                for _, resid, _ in euler_inverse_check(char, nmax, budget=BUDGET):
                    assert resid < 1e-6
        # principal: exact integer equality per distinct Q (all l give the
        # same sum); includes the (1-2z)/(1-z) closed form at q=2, Q=t
        seen = set()
        for g in hayes_sweep:
            key = (g.ctx.q, g.Q.code)
            if key in seen:
                continue
            seen.add(key)
            principal_check(g.ctx, g.Q, g.m + 4, budget=BUDGET)
        F2 = get_field(2)
        rows = principal_check(F2, Poly.t(F2), 8, budget=BUDGET)
        assert [r[1] for r in rows] == [1] + [-1] * 8


def test_criterion_05_log_derivative(hayes_sweep):
    with criterion(5, "log-derivative power sums"):
        for g in hayes_sweep:
            for char in g.characters():
                if char.is_principal:
                    continue
                for _, _, _, resid in log_deriv_check(char, 8, budget=BUDGET):
                    assert resid < 1e-6


def test_criterion_06_gauss_sums():
    with criterion(6, "Gauss sum equality and bound"):
        rng = np.random.default_rng(606)
        for p in (3, 5):
            ctx = get_field(p)
            for trial in range(200):
                n = int(rng.integers(1, 7))
                M = rng.integers(0, p, size=(n, n))
                M = (np.triu(M) + np.triu(M, 1).T) % p
                r = int(rng.integers(1, p))
                c = int(rng.integers(0, p))
                pure = QuadPhase(ctx, M, np.zeros(n, dtype=int), c, r)
                E = gauss_mean(pure, budget=BUDGET, tol=1e-9)
                assert abs(abs(E) - float(p) ** (-pure.rank() / 2)) <= 1e-9
                mixed = QuadPhase(ctx, M, rng.integers(0, p, size=n), c, r)
                E2 = gauss_mean(mixed, budget=BUDGET, tol=1e-9)
                assert abs(E2) <= float(p) ** (-mixed.rank() / 2) + 1e-9


def test_criterion_07_isotropic_counting():
    with criterion(7, "isotropic vector counting"):
        rng = np.random.default_rng(707)
        ctx = get_field(3)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            r = int(rng.integers(0, 3))
            forms = []
            for _ in range(r):
                M = rng.integers(0, 3, size=(n, n))
                forms.append((np.triu(M) + np.triu(M, 1).T) % 3)
            count, bound = isotropic_count(ctx, forms, n, budget=BUDGET)
            assert count >= bound


def test_criterion_08_divisor_second_moment():
    with criterion(8, "divisor second moment: series vs brute force"):
        for p in (2, 3):
            ctx = get_field(p)
            for n in range(1, 13):
                exact, brute, bound = divisor_second_moment(ctx, n, BUDGET)
                assert exact == brute
                assert exact <= bound


def test_criterion_09_hankel_compression_identity():
    with criterion(9, "Hankel compression (L_a^T M L_b + L_b^T M L_a)/2 = M(alpha a b)"):
        rng = np.random.default_rng(909)
        for p in (3, 5):
            ctx = get_field(p)
            for trial in range(100):
                n = int(rng.integers(3, 17))
                k = int(rng.integers(0, min(6, n - 1) + 1))
                alpha = sample_torus(ctx, rng, 2 * n + 2 * k + 2)
                M = hankel_matrix(alpha, n)
                a = Poly.from_code(ctx, int(rng.integers(0, p ** (k + 1))))
                b = Poly.from_code(ctx, int(rng.integers(0, p ** (k + 1))))
                lhs = m_ab(ctx, M, a, b, k)
                ab = a * b
                if ab.is_zero():
                    assert not lhs.any()
                else:
                    rhs = hankel_matrix(alpha.mul_poly(ab), n - k)
                    assert np.array_equal(lhs, rhs)


def test_criterion_10_vaughan_audit_and_decomposition():
    with criterion(10, "Vaughan pointwise audit, tau bounds, decomposition"):
        for p in (2, 3):
            ctx = get_field(p)
            sieve = _sieve.get_sieve(ctx, 12)
            for u in range(4):
                for v in range(4):
                    audit = vaughan_pointwise_audit(ctx, 12, u, v, budget=BUDGET * 2)
                    # the identity must hold for every f with deg f > u + v
                    assert all(d <= u + v for d in audit.fail_degrees)
                    assert all(d <= max(u, v) for d in audit.fail_degrees)
                    arrays = vaughan_rhs_arrays(ctx, 12, u, v)
                    for d in range(13):
                        lo, hi = ctx.q**d, 2 * ctx.q**d
                        assert (
                            np.abs(arrays["w_uv"][lo:hi]) <= sieve.tau[lo:hi]
                        ).all()  # |a_d| <= tau(d)
                        assert (
                            np.abs(arrays["r_u"][lo:hi]) <= sieve.tau[lo:hi]
                        ).all()  # |b_d| <= tau(d)
        F2 = get_field(2)
        for seed in range(20):
            alpha = sample_torus(F2, 1000 + seed, 12)
            rep = vaughan_decompose(F2, 10, LinearPhase(alpha), 2, 2, budget=BUDGET)
            assert rep.restricted_residual < 1e-6
            assert all(d <= 2 for d in rep.fail_degrees)


def test_criterion_11_dual_routes_and_reductions():
    with criterion(11, "dual-route and reduction consistencies"):
        F2, F3 = get_field(2), get_field(3)
        # hankel vs quadratic route
        rng = np.random.default_rng(111)
        for trial in range(8):
            n = int(rng.integers(3, 7))
            alpha = sample_torus(F3, rng, 2 * n + 2)
            beta = sample_torus(F3, rng, n + 1)
            rep = hankel_corr(F3, n, alpha, beta, budget=BUDGET)  # cross-checks inside
            M = hankel_matrix(alpha, n)
            b = np.array([beta.coefficient(-1 - i) for i in range(n)])
            rep2 = quad_corr(F3, n, QuadPhase(F3, M, b, 0, 1), budget=BUDGET)
            assert abs(rep.sum(F3) - rep2.sum(F3)) <= 1e-9
        # G_n to A_k reduction, exact in exponent histograms
        for ctx, n in ((F2, 8), (F3, 5)):
            for seed in range(5):
                alpha = sample_torus(ctx, 200 + seed, n + 2)
                hg, ha = linear_reduction_hists(ctx, n, alpha)
                assert np.array_equal(hg, ha)
        # periodic route vs direct route
        for seed in range(20):
            alpha = sample_torus(F2, 300 + seed, 12)
            direct, periodic, _, _ = periodic_route_check(F2, 8, alpha, budget=BUDGET)
            assert abs(direct - periodic) <= 1e-9


def test_criterion_12_dirichlet_contract():
    with criterion(12, "Dirichlet approximation contract"):
        fields = [get_field(2), get_field(3), get_field(2, 2)]
        rng = np.random.default_rng(1212)
        for trial in range(1000):
            ctx = fields[trial % 3]
            n = 2 + trial % 15  # n in [2, 16]
            alpha = sample_torus(ctx, rng, n + 1)
            ra = dirichlet_approx(alpha, n)
            m = n // 2
            assert ra.g.is_monic()
            assert int(ra.g.deg) <= m
            diff = alpha - from_rational(ra.a, ra.g, alpha.prec)
            assert diff.norm() < float(ctx.q) ** (-m) / ra.g.norm()


CLI_MATRIX = [
    ["pnt", "--field", "2", "--lmax", "8"],
    ["mobius-sums", "--field", "2", "--nmax", "8"],
    ["divisor-moments", "--field", "2", "--nmax", "8"],
    ["hayes-lfunc", "--field", "2", "--l", "1", "--Q", "0,1"],
    ["rh-check", "--field", "2", "--l", "1", "--Q", "0,1"],
    ["euler-check", "--field", "2", "--l", "1", "--Q", "0,1", "--nmax", "4"],
    ["principal-check", "--field", "2", "--Q", "0,1", "--nmax", "6"],
    ["logderiv-check", "--field", "2", "--l", "1", "--Q", "0,1", "--lmax", "5"],
    ["linear-corr", "--field", "2", "--n", "8"],
    ["quad-corr", "--field", "3", "--n", "5", "--trials", "3"],
    ["hankel-corr", "--field", "3", "--n", "5", "--trials", "3"],
    ["vaughan-audit", "--field", "2", "--n", "9", "--u", "2", "--v", "2"],
    ["gauss-sums", "--field", "3", "--n", "4", "--trials", "6"],
    ["isotropic", "--field", "3", "--n", "5", "--r", "2", "--trials", "4"],
    ["rank-stats", "--field", "2", "--n", "7", "--k", "2", "--h", "1"],
    ["exponent-sweep", "--field", "2", "--nmin", "3", "--nmax", "7", "--samples", "4"],
]


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "byte-identical reruns across worker counts"):
        for args in CLI_MATRIX:
            blobs = []
            for workers in (1, 4):
                out = tmp_path / f"{args[0]}-{workers}.out"
                res = subprocess.run(
                    [sys.executable, "-m", "ffmobius.cli", *args, "--seed", "11",
                     "--workers", str(workers), "--out", str(out)],
                    capture_output=True,
                    text=True,
                )
                assert res.returncode == 0, f"{args[0]}: {res.stderr}"
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"{args[0]} output differs across workers"


def test_criterion_14_exponent_sweeps():
    with criterion(14, "exponent sweep statistics emitted"):
        # the quadratic experiment needs odd characteristic, so q=2 runs
        # the linear and hankel experiments only
        plans = [
            (get_field(2), ("linear", "hankel"), range(2, 17)),
            (get_field(3), ("linear", "quadratic", "hankel"), range(2, 11)),
        ]
        for ctx, experiments, ns in plans:
            for exp in experiments:
                rows = exponent_sweep(ctx, exp, ns, samples=10, seed=1400, budget=BUDGET)
                assert [r[0] for r in rows] == list(ns)
                for n, samples, mx, mean, expo in rows:
                    assert samples == 10
                    assert 0 <= mx <= ctx.q**n  # triangle inequality
                    assert mean <= mx
                    if mx > 0:
                        assert expo is not None and expo <= 1.0
