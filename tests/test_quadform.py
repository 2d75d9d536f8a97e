from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import Poly, get_field
from ffmobius.correlations import QuadraticPhase, gauss_mean, isotropic_count
from ffmobius.errors import CharacteristicError, IdentityCheckError
from ffmobius.laurent import LaurentSeries, sample_torus
from ffmobius import quadform
from ffmobius.quadform import (
    QuadPhase,
    _ranks,
    dilation_matrix,
    fq_matmul,
    hankel_matrix,
    is_hankel,
    m_ab,
    matrix_from_csv,
    matrix_to_csv,
    rank,
    rank_stats,
)


def test_rank_examples(F2, F3):
    assert rank(F3, np.eye(3, dtype=int)) == 3
    assert rank(F3, np.zeros((4, 4), dtype=int)) == 0
    assert rank(F2, np.array([[0, 1], [1, 0]])) == 2
    assert rank(F3, np.array([[1, 2], [2, 4 % 3]])) == 1  # second row = 2 * first


def test_fq_matmul_extension_field(F4):
    A = np.array([[2, 1], [0, 3]])
    B = np.array([[1, 2], [2, 0]])
    C = fq_matmul(F4, A, B)
    for i in range(2):
        for j in range(2):
            acc = 0
            for k in range(2):
                acc = F4.add(acc, F4.mul(int(A[i, k]), int(B[k, j])))
            assert C[i, j] == acc


def test_gauss_examples(F3):
    ph = QuadPhase(F3, np.array([[1]]), np.array([0]), 0, 1)
    E = gauss_mean(ph)
    omega = np.exp(2j * np.pi / 3)
    assert abs(E - (1 + 2 * omega) / 3) < 1e-12
    assert abs(abs(E) - 3**-0.5) < 1e-12
    ph0 = QuadPhase(F3, np.zeros((2, 2), dtype=int), np.zeros(2, dtype=int), 0, 1)
    assert gauss_mean(ph0) == 1
    ph2 = QuadPhase(F3, np.eye(2, dtype=int), np.zeros(2, dtype=int), 0, 1)
    assert abs(abs(gauss_mean(ph2)) - 1 / 3) < 1e-9


def test_gauss_requires_odd(F2):
    ph = QuadPhase(F2, np.eye(2, dtype=int), np.zeros(2, dtype=int), 0, 1)
    with pytest.raises(CharacteristicError):
        gauss_mean(ph)


def test_gauss_equality_random(F3, F5):
    rng = np.random.default_rng(11)
    for ctx in (F3, F5):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            M = rng.integers(0, ctx.q, size=(n, n))
            M = np.triu(M)
            M = (M + np.triu(M, 1).T) % ctx.q
            r = int(rng.integers(1, ctx.q))
            ph = QuadPhase(ctx, M, np.zeros(n, dtype=int), int(rng.integers(0, ctx.q)), r)
            E = gauss_mean(ph)  # raises if |E| != q^(-rank/2)
            assert abs(abs(E) - float(ctx.q) ** (-ph.rank() / 2)) < 1e-9


def test_gauss_with_linear_part_bounded(F3):
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        M = rng.integers(0, 3, size=(n, n))
        M = (np.triu(M) + np.triu(M, 1).T) % 3
        ph = QuadPhase(F3, M, rng.integers(0, 3, size=n), int(rng.integers(0, 3)), 1)
        gauss_mean(ph)  # the bound assertion lives inside


def test_weyl_differencing_identity(F3):
    # |E_x Phi(x)|^2 = E_h chi(P(h)) E_x chi(2 B_h(x)), both sides by honest
    # double enumeration at small n
    rng = np.random.default_rng(2)
    q = 3
    for _ in range(10):
        n = int(rng.integers(1, 4))
        M = rng.integers(0, q, size=(n, n))
        M = (np.triu(M) + np.triu(M, 1).T) % q
        r = int(rng.integers(1, q))
        ph = QuadPhase(F3, M, np.zeros(n, dtype=int), 0, r)
        lhs = abs(gauss_mean(ph)) ** 2
        omega = np.exp(2j * np.pi / 3)
        codes = np.arange(q**n, dtype=np.int64)
        pvals = QuadraticPhase(ph).form(n).exponents(codes)
        rhs = 0j
        from ffmobius.sieve import codes_to_digits

        X = codes_to_digits(F3, codes, n)
        for h in range(q**n):
            hv = X[h].astype(np.int64)
            lin = (2 * r * (hv @ M)) % q  # the linear form 2 B_h
            inner = np.exp(2j * np.pi * ((X.astype(np.int64) @ lin) % q) / q).sum() / q**n
            rhs += omega ** int(pvals[h]) * inner
        rhs /= q**n
        assert abs(lhs - rhs) < 1e-9


def test_isotropic_examples(F3):
    cnt, bound = isotropic_count(F3, [np.array([[0, 2], [2, 0]])], 2)
    assert cnt == 5
    assert abs(bound - (1 - 3**-0.5) / 9) < 1e-12
    cnt0, _ = isotropic_count(F3, [], 2)
    assert cnt0 == 9


def test_isotropic_random_systems(F3):
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        forms = []
        for _ in range(2):
            M = rng.integers(0, 3, size=(n, n))
            forms.append((np.triu(M) + np.triu(M, 1).T) % 3)
        cnt, bound = isotropic_count(F3, forms, n)
        assert cnt >= bound
        assert cnt >= 1  # the zero vector


def test_hankel_examples(F2):
    al = LaurentSeries.from_coeff_map(F2, {-1: 1}, 4)
    assert hankel_matrix(al, 2).tolist() == [[1, 0], [0, 0]]
    al2 = LaurentSeries.from_coeff_map(F2, {-1: 1, -3: 1}, 6)
    H = hankel_matrix(al2, 3)
    assert H.tolist() == [[1, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert rank(F2, H) == 3
    z = LaurentSeries.zero(F2, 8)
    assert not hankel_matrix(z, 3).any()
    assert is_hankel(H)


def test_hankel_quadratic_form_identity(F3):
    # x^T M(alpha) x = (alpha f^2)_{-1} for random f, odd characteristic
    rng = np.random.default_rng(9)
    n = 5
    alpha = sample_torus(F3, rng, 2 * n + 2)
    M = hankel_matrix(alpha, n)
    for _ in range(40):
        fc = int(rng.integers(0, 3**n))
        f = Poly.from_code(F3, fc)
        coeffs = np.array([f.coefficient(i) for i in range(n)])
        v = int(fq_matmul(F3, coeffs[None, :], fq_matmul(F3, M, coeffs[:, None]))[0, 0])
        if f.is_zero():
            assert v == 0
            continue
        expected = alpha.mul_poly(f * f).residue()
        assert v == expected


def test_dilation_matrix_action_exhaustive(F2):
    # L_a applied to coefficients of w equals coefficients of a w, for every
    # nonzero a of degree <= 5 and every w of degree < 4
    for ac in range(1, 2**6):
        a = Poly.from_code(F2, ac)
        k = int(a.deg)
        n = k + 4
        L = dilation_matrix(F2, a, n, k)
        for wc in range(2**4):
            w = Poly.from_code(F2, wc)
            wv = np.array([w.coefficient(i) for i in range(n - k)])
            out = fq_matmul(F2, L, wv[:, None])[:, 0]
            aw = a * w
            assert out.tolist() == [aw.coefficient(i) for i in range(n)]


def test_mab_examples(F2, F3):
    alp = LaurentSeries.from_coeff_map(F2, {-1: 1}, 8)
    M = hankel_matrix(alp, 3)
    out = m_ab(F2, M, Poly.t(F2), Poly.one(F2), 1)
    assert not out.any()  # equals M(alpha t) truncated, the zero matrix
    alp3 = LaurentSeries.from_coeff_map(F3, {-1: 2, -2: 1, -3: 1, -4: 2, -5: 1}, 9)
    M3 = hankel_matrix(alp3, 3)
    assert np.array_equal(m_ab(F3, M3, Poly.one(F3), Poly.one(F3), 0), M3)
    # symmetric output on random symmetric input
    rng = np.random.default_rng(0)
    Msym = rng.integers(0, 3, size=(4, 4))
    Msym = (np.triu(Msym) + np.triu(Msym, 1).T) % 3
    out3 = m_ab(F3, Msym, Poly.t(F3), Poly.t(F3), 1)
    assert np.array_equal(out3, out3.T)


def test_mab_char2_general_matrix_rejected(F2):
    # symmetric but not Hankel: M[0,2] != M[1,1]
    M = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert not is_hankel(M)
    with pytest.raises(CharacteristicError):
        m_ab(F2, M, Poly.t(F2), Poly.one(F2), 1)


def test_mab_hankel_identity_random(F3, F5):
    # (L_a^T M(alpha) L_b + L_b^T M(alpha) L_a)/2 = M(alpha a b), exactly
    rng = np.random.default_rng(21)
    for ctx in (F3, F5):
        for _ in range(30):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(0, min(4, n - 1) + 1))
            alpha = sample_torus(ctx, rng, 2 * n + 2 * k + 2)
            M = hankel_matrix(alpha, n)
            ac = int(rng.integers(0, ctx.q ** (k + 1)))
            bc = int(rng.integers(0, ctx.q ** (k + 1)))
            a, b = Poly.from_code(ctx, ac), Poly.from_code(ctx, bc)
            lhs = m_ab(ctx, M, a, b, k)
            ab = a * b
            if ab.is_zero():
                assert not lhs.any()
                continue
            rhs = hankel_matrix(alpha.mul_poly(ab), n - k)
            assert np.array_equal(lhs, rhs)


def test_rank_lower_bound_compression(F3):
    # rank(L_a^T M L_a) >= rank(M) - 2 deg a
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        M = rng.integers(0, 3, size=(n, n))
        M = (np.triu(M) + np.triu(M, 1).T) % 3
        adeg = int(rng.integers(0, min(3, n - 1)))
        ac = int(rng.integers(0, 3**adeg)) + 3**adeg
        a = Poly.from_code(F3, ac)
        out = m_ab(F3, M, a, a, adeg)
        assert rank(F3, out) >= rank(F3, M) - 2 * adeg


def test_rank_subadditivity_spot(F3):
    rng = np.random.default_rng(13)
    n, k = 6, 2
    alpha = sample_torus(F3, rng, 2 * n + 2)
    M = hankel_matrix(alpha, n)
    for _ in range(20):
        a1 = Poly.from_code(F3, int(rng.integers(0, 3 ** (k + 1))))
        a2 = Poly.from_code(F3, int(rng.integers(0, 3 ** (k + 1))))
        b = Poly.from_code(F3, int(rng.integers(0, 3 ** (k + 1))))
        r12 = rank(F3, m_ab(F3, M, a1 - a2, b, k))
        assert r12 <= rank(F3, m_ab(F3, M, a1, b, k)) + rank(F3, m_ab(F3, M, a2, b, k))


def test_matrix_csv_roundtrip(F3):
    alpha = sample_torus(F3, 2, 12)
    M = hankel_matrix(alpha, 4)
    text = matrix_to_csv(M)
    assert text.split("\n")[0] == "4"
    assert np.array_equal(matrix_from_csv(text), M)


def test_rank_stats(F2, F3):
    rs = rank_stats(F2, np.zeros((8, 8), dtype=int), 3, 0)
    assert rs.density == 1 and rs.total == 2**8
    # q=2 exhaustive over a Hankel matrix
    alpha = sample_torus(F2, 17, 20)
    M = hankel_matrix(alpha, 8)
    rs2 = rank_stats(F2, M, 3, 0)
    assert sum(rs2.histogram.values()) == 2**8
    assert 0 < rs2.density < 1
    # sampled mode determinism
    alpha3 = sample_torus(F3, 4, 20)
    M3 = hankel_matrix(alpha3, 6)
    s1 = rank_stats(F3, M3, 2, 1, mode="sampled", samples=50, seed=9)
    s2 = rank_stats(F3, M3, 2, 1, mode="sampled", samples=50, seed=9)
    assert s1.histogram == s2.histogram and s1.density == s2.density



def _kernel_rank(ctx, M):
    """n - log_q #{x in F_q^n : M x = 0}, counting x by enumeration."""
    m, n = M.shape
    x = np.arange(ctx.q**n)[:, None] // ctx.q ** np.arange(n) % ctx.q  # every x, one per row
    Mx = np.zeros((len(x), m), dtype=np.int64)
    for j in range(n):
        Mx = ctx.ADD[Mx, ctx.MUL[M[:, j][None, :], x[:, j][:, None]]]
    kernel = int((Mx == 0).all(axis=1).sum())
    r = n
    while ctx.q ** (n - r) < kernel:
        r -= 1
    assert ctx.q ** (n - r) == kernel
    return r


def _test_matrices(ctx, m, n, rng, count):
    """Zero, identity-like (full rank), rank-one and random m x n matrices."""
    yield np.zeros((m, n), dtype=np.int64)
    yield np.eye(m, n, dtype=np.int64)
    for _ in range(count):
        u, v = rng.integers(0, ctx.q, size=(m, 1)), rng.integers(0, ctx.q, size=(1, n))
        yield fq_matmul(ctx, u, v)
        yield rng.integers(0, ctx.q, size=(m, n))


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)], ids=lambda ps: "q={}^{}".format(*ps))
def test_rank_matches_kernel_count(ps):
    ctx = get_field(*ps)
    rng = np.random.default_rng(ctx.q)
    for m, n in [(0, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 2)]:
        mats = list(_test_matrices(ctx, m, n, rng, 6))
        expected = [_kernel_rank(ctx, M) for M in mats]
        assert [rank(ctx, M) for M in mats] == expected
        assert _ranks(ctx, np.array(mats).reshape(len(mats), m, n)).tolist() == expected
        assert expected[1] == min(m, n)  # the identity-like matrix has full rank


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)],
                         ids=lambda ps: "q={}^{}".format(*ps))
def test_batched_ranks_match_rank_item_by_item(ps):
    ctx = get_field(*ps)
    rng = np.random.default_rng(7 * ctx.q)
    for m, n in [(0, 0), (1, 1), (3, 5), (5, 3), (6, 6)]:
        mats = list(_test_matrices(ctx, m, n, rng, 100))
        stack = np.array(mats).reshape(len(mats), m, n)
        assert _ranks(ctx, stack).tolist() == [rank(ctx, M) for M in mats]


@pytest.mark.parametrize("ps, n", [((2, 1), 6), ((3, 1), 5), ((2, 2), 4), ((5, 1), 4), ((3, 2), 3)],
                         ids=lambda v: "q={}^{}".format(*v) if isinstance(v, tuple) else f"n={v}")
def test_hankel_ranks_follow_daykin(ps, n):
    # Daykin's count of the n x n Hankel matrices over F_q by rank: 1 of rank
    # 0, q^(2r-2)(q^2-1) of rank r for 0 < r < n, q^(2n-2)(q-1) of rank n;
    # every one of the q^(2n-1) matrices is ranked in one _ranks call
    ctx = get_field(*ps)
    q = ctx.q
    entries = np.arange(q ** (2 * n - 1))[:, None] // q ** np.arange(2 * n - 1) % q
    stack = entries[:, np.add.outer(np.arange(n), np.arange(n))]
    expected = [1] + [q ** (2 * r - 2) * (q * q - 1) for r in range(1, n)] + [q ** (2 * n - 2) * (q - 1)]
    assert np.bincount(_ranks(ctx, stack), minlength=n + 1).tolist() == expected


# exhaustive rank_stats of Hankel M = hankel_matrix(sample_torus(ctx, seed, 2 n), n),
# recorded with the per-pair m_ab and scalar elimination
HANKEL_RANK_STATS = [
    ((2, 1), 8, 3, 2, 5, {0: 31, 1: 2, 2: 10, 3: 31, 4: 65, 5: 117}, Fraction(43, 256)),
    ((3, 1), 6, 2, 2, 6, {0: 53, 3: 128, 4: 548}, Fraction(53, 729)),
    ((2, 2), 5, 2, 2, 7, {0: 127, 1: 36, 2: 1035, 3: 2898}, Fraction(599, 2048)),
    ((5, 1), 5, 1, 2, 8, {0: 49, 3: 48, 4: 528}, Fraction(49, 625)),
    ((3, 2), 4, 1, 1, 9, {0: 161, 2: 448, 3: 5952}, Fraction(161, 6561)),
]


@pytest.mark.parametrize("chunk", [None, 100])
@pytest.mark.parametrize("ps, n, k, h, seed, hist, density", HANKEL_RANK_STATS,
                         ids=[f"q={p**s}" for (p, s), *_ in HANKEL_RANK_STATS])
def test_rank_stats_hankel_histograms_are_pinned(ps, n, k, h, seed, hist, density, chunk, monkeypatch):
    from ffmobius import sieve

    if chunk is not None:
        monkeypatch.setattr(sieve, "CHUNK_ENTRIES", chunk)
    ctx = get_field(*ps)
    rs = rank_stats(ctx, hankel_matrix(sample_torus(ctx, seed, 2 * n), n), k, h)
    assert rs.histogram == hist and list(rs.histogram) == sorted(hist)
    assert rs.total == ctx.q ** (2 * k + 2) == sum(hist.values())
    assert rs.density == density


def test_rank_stats_general_symmetric_is_pinned(F3):
    M = np.array([[0, 0, 2, 1, 1], [0, 2, 0, 1, 0], [2, 0, 1, 0, 1], [1, 1, 0, 2, 1], [1, 0, 1, 1, 1]])
    assert not is_hankel(M)
    rs = rank_stats(F3, M, 2, 1)
    assert rs.histogram == {0: 53, 1: 20, 2: 188, 3: 468} and rs.density == Fraction(73, 729)
    rs = rank_stats(F3, M, 2, 1, mode="sampled", samples=40, seed=3)
    assert rs.histogram == {0: 3, 1: 1, 2: 8, 3: 28} and rs.density == Fraction(4, 40)
    assert rs.total == 40 and rs.mode == "sampled"


def test_rank_stats_char2_general_matrix_rejected(F2):
    M = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(CharacteristicError):
            rank_stats(F2, M, 1, 0, mode=mode, samples=5)


def test_rank_stats_sampled_refuses_codes_past_int64(F2, F3):
    # the draw takes codes below q^(k+1) as int64, refused before it is made
    M = hankel_matrix(sample_torus(F3, 2, 90), 44)
    with pytest.raises(ValueError, match=rf"q\^\(k\+1\) = {3**41} exceeds 2\^63"):
        rank_stats(F3, M, 40, 1, mode="sampled", samples=2)
    with pytest.raises(ValueError, match=rf"q\^\(k\+1\) = {2**64} exceeds 2\^63"):
        rank_stats(F2, np.zeros((64, 64), dtype=int), 63, 0, mode="sampled", samples=2)


def test_rank_stats_builds_the_basis_compressions_once(F3, monkeypatch):
    calls = []
    real = quadform.m_ab

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(quadform, "m_ab", spy)
    M = hankel_matrix(sample_torus(F3, 2, 12), 6)
    for k, mode in [(0, "exhaustive"), (2, "exhaustive"), (2, "sampled")]:
        calls.clear()
        rank_stats(F3, M, k, 1, mode=mode, samples=30)
        assert len(calls) == (k + 1) ** 2


ORACLE_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F25", "F27"]


def scalar_matmul(ctx, A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i, j in np.ndindex(*out.shape):
        acc = 0
        for k in range(A.shape[1]):
            acc = ctx.add(acc, ctx.mul(int(A[i, k]), int(B[k, j])))
        out[i, j] = acc
    return out


def scalar_quad_exponent(phase, code):
    """Tr(r (x^T M x + b.x + c)) for the coefficient vector of one code,
    element by element with the scalar field operations."""
    ctx, n = phase.ctx, phase.n
    x = [code // ctx.q**i % ctx.q for i in range(n)]
    acc = phase.c
    for i in range(n):
        row = int(phase.b[i])
        for j in range(n):
            row = ctx.add(row, ctx.mul(int(phase.M[i, j]), x[j]))
        acc = ctx.add(acc, ctx.mul(x[i], row))
    return ctx.trace(ctx.mul(phase.r, acc))


def random_symmetric(rng, q, n):
    M = rng.integers(0, q, size=(n, n))
    return (np.triu(M) + np.triu(M, 1).T) % q


@pytest.mark.parametrize("name", ORACLE_FIELDS)
def test_fq_matmul_matches_scalar_loop(name, request):
    ctx = request.getfixturevalue(name)
    rng = np.random.default_rng(ctx.q)
    for m, k, n in [(1, 1, 1), (3, 0, 2), (0, 2, 3), (4, 3, 5), (9, 5, 2), (2, 6, 8)]:
        A = rng.integers(0, ctx.q, size=(m, k))
        B = rng.integers(0, ctx.q, size=(k, n))
        C = fq_matmul(ctx, A, B)
        assert C.shape == (m, n) and C.dtype == np.int64
        assert np.array_equal(C, scalar_matmul(ctx, A, B))


@pytest.mark.parametrize("name", ORACLE_FIELDS)
def test_quad_exponents_matches_scalar_loop(name, request):
    ctx = request.getfixturevalue(name)
    q = ctx.q
    rng = np.random.default_rng(100 + q)
    for n in range(4):
        codes = np.arange(q**n) if q**n <= 200 else rng.integers(0, q**n, size=200)
        M = random_symmetric(rng, q, n)
        b = rng.integers(0, q, size=n)
        c = int(rng.integers(1, q))
        for phase in (
            QuadPhase(ctx, M, b, c, int(rng.integers(1, q))),
            QuadPhase(ctx, M, b, c, 0),  # r = 0: every exponent is 0
            QuadPhase(ctx, M, np.zeros(n, dtype=int), 0, 1),
        ):
            want = [scalar_quad_exponent(phase, int(code)) for code in codes]
            qph = QuadraticPhase(phase)  # the compiled form and the MUL/TRACE route
            for got in (qph.form(n).exponents(codes), qph.exponents(n, codes)):
                assert got.dtype == np.int64 and got.tolist() == want, phase.describe()


@pytest.mark.parametrize("name", ["F3", "F5", "F7", "F9", "F25", "F27"])
def test_gauss_mean_matches_exhaustive_histogram(name, request):
    ctx = request.getfixturevalue(name)
    p, q = ctx.p, ctx.q
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    rng = np.random.default_rng(200 + q)
    n = 0
    while q**n <= 729:
        for trial in range(3):
            b = rng.integers(0, q, size=n) if trial else np.zeros(n, dtype=int)
            phase = QuadPhase(ctx, random_symmetric(rng, q, n), b, int(rng.integers(0, q)),
                              int(rng.integers(0, q)))
            hist = np.bincount(QuadraticPhase(phase).exponents(n, np.arange(q**n)), minlength=p)
            assert gauss_mean(phase) == complex(hist @ omega) / q**n, phase.describe()
        n += 1


def test_isotropic_count_matches_bruteforce(monkeypatch, F2, F3, F5, F7):
    import itertools

    import ffmobius.correlations as corr

    monkeypatch.setattr(corr, "CHUNK", 7)  # spans split once p^n > 7
    rng = np.random.default_rng(31)
    for ctx in (F2, F3, F5, F7):
        p = ctx.p
        for n in range(5):
            if p**n > 2500:
                break
            for r in range(3):
                forms = [random_symmetric(rng, p, n) for _ in range(r)]
                want = sum(
                    all(sum(x[i] * int(M[i, j]) * x[j] for i in range(n) for j in range(n)) % p == 0
                        for M in forms)
                    for x in itertools.product(range(p), repeat=n)
                )
                count, bound = isotropic_count(ctx, forms, n)
                assert count == want and bound == (1 - p**-0.5) * float(p) ** (n - 2 * r * (r + 1))
