import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import Poly, get_field
from ffmobius.errors import PrecisionExceeded
from ffmobius.laurent import (
    LaurentSeries,
    dirichlet_approx,
    from_rational,
    sample_torus,
)


def series(ctx, text):
    return LaurentSeries.parse(ctx, text)


def test_parse_format_roundtrip(F2):
    s = series(F2, "-1:1,0,1")
    assert s.format() == "-1:1,0,1"
    assert s.coefficient(-1) == 1 and s.coefficient(-2) == 0 and s.coefficient(-3) == 1
    assert s.coefficient(5) == 0  # above the top degree
    with pytest.raises(PrecisionExceeded):
        s.coefficient(-4)


@pytest.mark.parametrize("text", ["-1:1,0,1", "2:1,0,2,1,0,1", "-3:2,1", "0:1"])
def test_frac_coeffs_is_coefficient_in_one_slice(F3, text):
    # the top may sit above degree -1 (its fraction starts mid-way) or below
    # it (the fraction starts with zeros); past the precision both raise alike
    s = series(F3, text)
    for count in range(s.prec + 1):
        got = s.frac_coeffs(count)
        assert got.dtype == np.int64
        assert got.tolist() == [s.coefficient(-1 - i) for i in range(count)]
    with pytest.raises(PrecisionExceeded) as want:
        s.coefficient(-1 - s.prec)
    with pytest.raises(PrecisionExceeded) as err:
        s.frac_coeffs(s.prec + 1)
    assert str(err.value) == str(want.value)


def test_norm_and_torus(F2):
    assert series(F2, "-1:1,0,1").norm() == 0.5
    assert series(F2, "2:1,0,0,0,0").norm() == 4.0
    assert series(F2, "-1:0,0,0").norm() == 0.0
    assert series(F2, "-1:1,1").in_torus()
    assert series(F2, "1:0,0,1,1").in_torus()  # stored top above -1 but zero there
    assert not series(F2, "1:1,0,1,1").in_torus()


def test_torus_with_short_storage(F2):
    # fewer stored coefficients than degrees top..0, or a top below -1
    assert not series(F2, "5:1").in_torus()
    assert not series(F2, "2:0,1").in_torus()
    assert series(F2, "2:0").in_torus()  # every stored one is zero
    assert series(F2, "-2:1,1").in_torus()


def test_mul_poly_examples(F2):
    # t^-1 * t = 1
    one = series(F2, "-1:1,0,0").mul_poly(Poly.t(F2))
    assert one.coefficient(0) == 1 and one.coefficient(-1) == 0
    # (t^-1 + t^-2)(t+1) = 1 + t^-2
    prod = series(F2, "-1:1,1,0,0").mul_poly(Poly.parse(F2, "1,1"))
    assert prod.coefficient(0) == 1
    assert prod.coefficient(-1) == 0
    assert prod.coefficient(-2) == 1
    # f = 0 gives the zero series
    z = series(F2, "-1:1,1").mul_poly(Poly.zero(F2))
    assert z.norm() == 0.0


def test_mul_poly_precision_tracking(F2):
    s = series(F2, "-1:1,0,1")  # prec 3
    p = s.mul_poly(Poly.parse(F2, "0,0,1"))  # deg 2: prec drops to 1
    assert p.prec == 1
    with pytest.raises(PrecisionExceeded):
        p.coefficient(-2)


def test_residue_examples(F2, F4):
    assert series(F2, "-1:1,0,1").residue() == 1
    s = series(F2, "2:1,0,0,0,1")  # t^2 + t^-2
    assert s.residue() == 0 and s.e_exponent() == 0
    g = LaurentSeries.from_coeff_map(F4, {-1: 2}, 2)  # residue = generator x
    assert g.e_exponent() == 1  # Tr(x) = 1 in F_4


def test_character_additivity(F3):
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = sample_torus(F3, rng, 5)
        b = sample_torus(F3, rng, 5)
        lhs = (a + b).e_exponent()
        rhs = (a.e_exponent() + b.e_exponent()) % 3
        assert lhs == rhs


def test_linear_in_poly_argument_exhaustive(F2):
    # e(alpha f) as a function of the coefficient vector of f is linear mod p
    alpha = series(F2, "-1:1,0,1,1,0,1,1")
    n = 6
    for fc in range(2**n):
        for gc in range(2**n):
            f, g = Poly.from_code(F2, fc), Poly.from_code(F2, gc)
            ef = alpha.mul_poly(f).e_exponent() if not f.is_zero() else 0
            eg = alpha.mul_poly(g).e_exponent() if not g.is_zero() else 0
            s = f + g
            es = alpha.mul_poly(s).e_exponent() if not s.is_zero() else 0
            assert es == (ef + eg) % 2


def test_from_rational(F2):
    # 1/(t+1) = t^-1 + t^-2 + ...
    s = from_rational(Poly.one(F2), Poly.parse(F2, "1,1"), 6)
    assert [s.coefficient(-i) for i in range(1, 7)] == [1] * 6


def test_dirichlet_exact_rational(F2):
    alpha = LaurentSeries(F2, -1, [1] * 8)  # 1/(t+1)
    ra = dirichlet_approx(alpha, 6)
    assert ra.a == Poly.one(F2)
    assert ra.g == Poly.parse(F2, "1,1")
    assert ra.beta.norm() == 0.0


def test_dirichlet_zero(F3):
    ra = dirichlet_approx(LaurentSeries.zero(F3, 8), 6)
    assert ra.a.is_zero() and ra.g == Poly.one(F3)


def test_dirichlet_sparse_vs_bruteforce(F2):
    # verify optimality class by exhaustive comparison against every monic g
    # of degree <= floor(n/2)
    alpha = LaurentSeries.from_coeff_map(F2, {-1: 1, -4: 1, -9: 1}, 10)
    n = 8
    ra = dirichlet_approx(alpha, n)
    m = n // 2
    assert ra.g.deg <= m
    assert (alpha - from_rational(ra.a, ra.g, alpha.prec)).norm() < 2.0**-m / ra.g.norm()
    # brute force: the certified inequality is achievable, and our g achieves it
    found = False
    for gc in range(1, 2 ** (m + 1)):
        g = Poly.from_code(F2, gc)
        if not g.is_monic():
            continue
        for ac in range(2 ** (int(g.deg) + 1)):
            a = Poly.from_code(F2, ac)
            if (alpha - from_rational(a, g, alpha.prec)).norm() < 2.0**-m / g.norm():
                found = True
    assert found


def test_dirichlet_precision_error(F2):
    with pytest.raises(PrecisionExceeded):
        dirichlet_approx(LaurentSeries.zero(F2, 3), 8)


def test_dirichlet_requires_torus(F2):
    with pytest.raises(ValueError):
        dirichlet_approx(series(F2, "0:1,1,1,1,1,1,1,1,1"), 6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dirichlet_contract_random(data):
    ctx = get_field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    n = data.draw(st.integers(2, 12))
    seed = data.draw(st.integers(0, 10**6))
    alpha = sample_torus(ctx, seed, n + 1)
    ra = dirichlet_approx(alpha, n)
    m = n // 2
    assert ra.g.is_monic() and ra.g.deg <= m
    beta_norm = ra.beta.norm()
    assert beta_norm < float(ctx.q) ** (-m) / ra.g.norm()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dirichlet_recovers_rationals(data):
    # alpha = a/g in lowest terms with deg g <= floor(n/2) comes back exactly
    ctx = get_field(*data.draw(st.sampled_from([(2, 1), (3, 1)])))
    n = data.draw(st.integers(4, 10))
    m = n // 2
    gdeg = data.draw(st.integers(1, m))
    gc = data.draw(st.integers(0, ctx.q**gdeg - 1))
    g = Poly.from_code(ctx, ctx.q**gdeg + gc)
    ac = data.draw(st.integers(0, ctx.q**gdeg - 1))
    a = Poly.from_code(ctx, ac)
    from ffmobius.polys import poly_gcd

    if poly_gcd(a, g).deg != 0 and not a.is_zero():
        return
    alpha = from_rational(a, g, n + 4)
    ra = dirichlet_approx(alpha, n)
    if a.is_zero():
        assert ra.a.is_zero()
    else:
        assert ra.a == a and ra.g == g
        assert ra.beta.norm() == 0.0


def test_sample_torus_determinism(F4):
    a = sample_torus(F4, 7, 5)
    b = sample_torus(F4, 7, 5)
    assert a.format() == b.format()
    assert sample_torus(F4, 8, 5).format() != a.format()


def test_sample_torus_uniform(F3):
    # frequency of each coefficient value within 5 sigma of 1/q
    rng = np.random.default_rng(0)
    N = 10_000
    counts = np.zeros(3, dtype=int)
    for _ in range(N):
        s = sample_torus(F3, rng, 1)
        counts[s.coefficient(-1)] += 1
    expect = N / 3
    sigma = (N * (1 / 3) * (2 / 3)) ** 0.5
    assert all(abs(c - expect) < 5 * sigma for c in counts)
