import hashlib

import numpy as np
import pytest

from ffmobius import Poly, factorize, get_field, mangoldt, mobius, tau
from ffmobius import sieve as _sieve
from ffmobius.sieve import (
    convolve_monic,
    get_sieve,
    mobius_over_g,
    monic_tails,
    necklace_count,
    poly_times_monics,
)


def test_necklace_counts():
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 3) == 2
    assert necklace_count(2, 4) == 3
    assert necklace_count(3, 2) == 3
    assert necklace_count(4, 2) == 6


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_sieve_matches_per_poly_functions(ps):
    ctx = get_field(*ps)
    D = 6 if ctx.q <= 3 else 4
    s = get_sieve(ctx, D)
    for d in range(1, D + 1):
        lo = ctx.q**d
        for j in range(min(ctx.q**d, 200)):
            f = Poly.from_code(ctx, lo + j)
            assert int(s.mu[lo + j]) == mobius(f)
            assert int(s.mangoldt[lo + j]) == mangoldt(f)
            assert int(s.tau[lo + j]) == tau(f)


def test_poly_times_monics_matches_poly_mult():
    for ps in ((2, 1), (3, 1), (2, 2)):
        ctx = get_field(*ps)
        f = Poly.from_code(ctx, 2 * ctx.q + 1)  # some degree-2 poly
        for m in (0, 1, 3):
            codes = poly_times_monics(ctx, f.coeffs, m)
            for j in range(ctx.q**m):
                h = Poly.from_code(ctx, ctx.q**m + j)
                assert int(codes[j]) == (f * h).code


def test_monic_tails_shape(F3):
    t = monic_tails(F3, 3)
    assert t.shape == (27, 3)
    assert t[5].tolist() == [2, 1, 0]  # 5 = 2 + 1*3


def test_mobius_over_g_unit_invariance(F3):
    mu = mobius_over_g(F3, 4)
    assert mu[0] == 0
    for code in range(1, 3**4):
        f = Poly.from_code(F3, code)
        assert int(mu[code]) == mobius(f)


def test_convolution_full_mobius_is_delta(F2, F3):
    # sum of mu over divisors vanishes except at f = 1: an honest enumeration
    # of Mobius inversion
    for ctx, D in ((F2, 8), (F3, 5)):
        s = get_sieve(ctx, D)
        size = 2 * ctx.q**D
        mu = s.mu.astype(np.int64)[:size]
        ones = np.zeros(size, dtype=np.int64)
        for d in range(D + 1):
            ones[ctx.q**d : 2 * ctx.q**d] = 1
        out = convolve_monic(ctx, D, ones, mu)
        assert out[1] == 1
        for d in range(1, D + 1):
            assert not out[ctx.q**d : 2 * ctx.q**d].any()


def test_convolution_against_divisor_enumeration(F2):
    # (tau * 1) computed two ways on all monic f of degree <= 5
    from ffmobius.polys import divisors

    D = 5
    s = get_sieve(F2, D)
    size = 2 * 2**D
    ones = np.zeros(size, dtype=np.int64)
    for d in range(D + 1):
        ones[2**d : 2 ** (d + 1)] = 1
    conv = convolve_monic(F2, D, s.tau[:size].astype(np.int64), ones)
    for d in range(D + 1):
        for j in range(2**d):
            f = Poly.from_code(F2, 2**d + j)
            expect = sum(tau(dd) for dd in divisors(f))
            assert int(conv[f.code]) == expect


def test_mu_column_sums():
    for p, s_ in ((2, 1), (3, 1)):
        ctx = get_field(p, s_)
        D = 10 if ctx.q == 2 else 8
        s = get_sieve(ctx, D)
        for n in range(1, D + 1):
            col = int(s.degree_slice(s.mu, n).astype(np.int64).sum())
            assert col == (-ctx.q if n == 1 else 0)


# First 16 hex digits of the sha256 of each sieve array (dtype name, then
# raw bytes), recorded from a build that marked one irreducible at a time.
# Every build, however it is chunked or grown, must reproduce them bit for bit.
SEED_DIGESTS = {
    (2, 1, 12): {
        "mu": "baf53ffa805f5316",
        "mangoldt": "85047737dfd5118f",
        "tau": "3421ed7ecb8dfedc",
        "spf_code": "18bf61292f4e0814",
        "spf_deg": "341b66f36a4524e2",
        "quot": "35ef009b3a4e3931",
        "irr_codes": "3010a1f461457198",
    },
    (3, 1, 8): {
        "mu": "22d10873192ccf46",
        "mangoldt": "6e0dedb86916d049",
        "tau": "c60de8ebbbbb6d56",
        "spf_code": "51d5fb53e15d3190",
        "spf_deg": "a063eaec50d2e164",
        "quot": "1554f01bd25a2301",
        "irr_codes": "123c4620810dc8ec",
    },
    (2, 2, 6): {
        "mu": "f8955cc2fff49655",
        "mangoldt": "78352a72bf1439aa",
        "tau": "4323782ba2302222",
        "spf_code": "fdc6cb6e91066133",
        "spf_deg": "00bd37442c8f9a4a",
        "quot": "4efa454548fc30c5",
        "irr_codes": "dc0be491b5bc13e2",
    },
    (5, 1, 5): {
        "mu": "698deb4ab475bd80",
        "mangoldt": "8250dce4b213f7d8",
        "tau": "e3a6a1a5777c1882",
        "spf_code": "535bc44e42d6428a",
        "spf_deg": "8144f07f02e9afc7",
        "quot": "0a79bea174244be5",
        "irr_codes": "99a609d4e598fbcd",
    },
    (3, 2, 4): {
        "mu": "a5eeecaefe26dca4",
        "mangoldt": "613c5ec82b3db2a0",
        "tau": "cf62ef9f3de5fd5f",
        "spf_code": "d71600edc53a7b7f",
        "spf_deg": "8adbdc0b59ca26e2",
        "quot": "b4e20da472acd7d6",
        "irr_codes": "642e0377c75afe3b",
    },
}


def sieve_digests(sv):
    out = {}
    for name in ("mu", "mangoldt", "tau", "spf_code", "spf_deg", "quot"):
        arr = getattr(sv, name)
        out[name] = hashlib.sha256(str(arr.dtype).encode() + arr.tobytes()).hexdigest()[:16]
    h = hashlib.sha256()
    for d in sorted(sv.irr_codes):
        arr = sv.irr_codes[d]
        h.update(f"{d}:{arr.dtype}:".encode() + arr.tobytes())
    out["irr_codes"] = h.hexdigest()[:16]
    return out


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("key", sorted(SEED_DIGESTS), ids=lambda k: "q={}^{},D={}".format(*k))
def test_sieve_arrays_match_seed_digests(key, chunk, monkeypatch):
    # chunk=7 splits every degree block into one- or two-product steps, so
    # the first writer of a code is decided across steps, not within one
    p, s, D = key
    monkeypatch.setattr(_sieve, "_SIEVES", {})
    if chunk is not None:
        monkeypatch.setattr(_sieve, "CHUNK_ENTRIES", chunk)
    assert sieve_digests(_sieve.MonicSieve(get_field(p, s), D)) == SEED_DIGESTS[key]


@pytest.mark.parametrize("p", [2, 3])
def test_grown_sieve_matches_fresh(p, monkeypatch):
    ctx = get_field(p)
    built = []
    add_degree = _sieve.MonicSieve._add_degree

    def recording(self, n):
        built.append(n)
        add_degree(self, n)

    monkeypatch.setattr(_sieve, "_SIEVES", {})
    monkeypatch.setattr(_sieve.MonicSieve, "_add_degree", recording)
    for D in (2, 5, 8):
        grown = _sieve.get_sieve(ctx, D)
    assert built == list(range(1, 9))  # each degree sieved once
    monkeypatch.setattr(_sieve, "_SIEVES", {})
    fresh = _sieve.MonicSieve(ctx, 8)
    assert sieve_digests(grown) == sieve_digests(fresh)


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2)], ids=lambda ps: "q={}^{}".format(*ps))
@pytest.mark.parametrize("width", [0, 1, 5])
def test_codes_to_digits_matches_digit_formula(ps, width):
    # row r holds the low base-q digits of codes[r], constant term first
    ctx = get_field(*ps)
    q = ctx.q
    codes = np.array([0, 1, q - 1, q, q**3 + 2, q**6 - 1, 12345], dtype=np.int64)
    want = np.array(
        [[c // q**i % q for i in range(width)] for c in codes.tolist()], dtype=np.int16
    ).reshape(len(codes), width)
    got = _sieve.codes_to_digits(ctx, codes, width)
    assert got.dtype == np.int16 and got.shape == (len(codes), width)
    assert np.array_equal(got, want)
    if width:  # the stacked formula it replaces
        old = np.stack([(codes // q**i) % q for i in range(width)], axis=1).astype(np.int16)
        assert np.array_equal(got, old)


# (p, s, largest max_deg): the Poly oracle below multiplies every pair of
# monics of total degree <= max_deg, so the bound shrinks as q grows
CONVOLVE_FIELDS = [(2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 2)]


def _signed_weights(ctx, D, rng, zero_degrees=()):
    w = np.zeros(2 * ctx.q**D, dtype=np.int64)
    for d in range(D + 1):
        if d not in zero_degrees:
            w[ctx.q**d : 2 * ctx.q**d] = rng.integers(-7, 8, size=ctx.q**d)
    return w


def _convolve_by_poly_products(ctx, D, wa, wb):
    q = ctx.q
    out = np.zeros(2 * q**D, dtype=np.int64)
    for da in range(D + 1):
        for db in range(D + 1 - da):
            for g in range(q**da, 2 * q**da):
                if not wa[g]:
                    continue
                pg = Poly.from_code(ctx, g)
                for h in range(q**db, 2 * q**db):
                    out[(pg * Poly.from_code(ctx, h)).code] += wa[g] * wb[h]
    return out


@pytest.mark.parametrize("key", CONVOLVE_FIELDS, ids=lambda k: "q={}^{}".format(*k[:2]))
def test_convolve_monic_matches_poly_divisor_enumeration(key):
    # random signed weights, with whole degrees of zero weight on either side
    p, s, D = key
    ctx = get_field(p, s)
    rng = np.random.default_rng(1000 * p + s)
    cases = [
        (_signed_weights(ctx, D, rng), _signed_weights(ctx, D, rng)),
        (_signed_weights(ctx, D, rng, zero_degrees={0, 2}), _signed_weights(ctx, D, rng)),
        (_signed_weights(ctx, D, rng), _signed_weights(ctx, D, rng, zero_degrees={1, D})),
    ]
    for wa, wb in cases:
        want = _convolve_by_poly_products(ctx, D, wa, wb)
        for max_deg in range(D + 1):
            size = 2 * ctx.q**max_deg
            got = convolve_monic(ctx, max_deg, wa[:size], wb[:size])
            assert got.dtype == np.int64
            assert np.array_equal(got, want[:size]), max_deg


def test_convolve_monic_without_cached_tables(monkeypatch):
    # a cap of 0 keeps no table, and the results are the same
    rng = np.random.default_rng(77)
    runs = []
    for ctx, D in ((get_field(2), 8), (get_field(3), 5), (get_field(2, 2), 4)):
        wa, wb = _signed_weights(ctx, D, rng), _signed_weights(ctx, D, rng, zero_degrees={3})
        runs.append((ctx, D, wa, wb, convolve_monic(ctx, D, wa, wb)))
    monkeypatch.setattr(_sieve, "_PRODUCTS", {})
    monkeypatch.setattr(_sieve, "PRODUCTS_MAX_BYTES", 0)
    for ctx, D, wa, wb, want in runs:
        assert np.array_equal(convolve_monic(ctx, D, wa, wb), want)
    assert _sieve._PRODUCTS == {}


def test_product_tables_are_built_once(F3, monkeypatch):
    monkeypatch.setattr(_sieve, "_PRODUCTS", {})
    rng = np.random.default_rng(5)
    wa, wb = _signed_weights(F3, 5, rng), _signed_weights(F3, 5, rng)
    want = convolve_monic(F3, 5, wa, wb)
    assert sorted(k[1:] for k in _sieve._PRODUCTS) == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]

    def no_products(*args):
        raise AssertionError("product table rebuilt")

    monkeypatch.setattr(_sieve, "_Products", no_products)
    assert np.array_equal(convolve_monic(F3, 5, wb, wa), convolve_monic(F3, 5, wa, wb))
    assert np.array_equal(convolve_monic(F3, 5, wa, wb), want)


def test_convolve_monic_precision_guard(F2):
    # weights whose l1 mass reaches 2^53 in some degree pair are refused
    from ffmobius.errors import PrecisionExceeded

    def weights(values):
        w = np.zeros(8, dtype=np.int64)
        for code, val in values.items():
            w[code] = val
        return w

    below = convolve_monic(F2, 2, weights({2: 2**53 - 1}), weights({2: 1, 3: 0}))
    assert below[4] == 2**53 - 1  # t * t, still exact
    with pytest.raises(PrecisionExceeded):
        convolve_monic(F2, 2, weights({2: 2**27, 3: -(2**26)}), weights({2: 2**26, 3: 1}))
    with pytest.raises(PrecisionExceeded):
        convolve_monic(F2, 2, weights({1: 2**53}), weights({1: 1}))  # degree 0 pair
    with pytest.raises(PrecisionExceeded):
        convolve_monic(F2, 2, weights({1: 1, 2: 2**52}), weights({2: -2, 3: 0}))


def test_product_offsets_must_fit_int32(F2):
    from ffmobius.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        _sieve._product_table(F2, 1, 30)


@pytest.mark.parametrize("key", [(2, 1, 10), (7, 1, 4), (2, 3, 4)], ids=lambda k: "q={}^{},D={}".format(*k))
def test_linear_sieve_arrays_match_factorize(key, monkeypatch):
    # spf is the (degree, code)-least irreducible factor and quot = f / spf;
    # mu, Lambda and tau follow from the factorisation
    p, s, D = key
    ctx = get_field(p, s)
    monkeypatch.setattr(_sieve, "_SIEVES", {})
    sv = _sieve.MonicSieve(ctx, D)
    for d in range(1, D + 1):
        for code in range(ctx.q**d, 2 * ctx.q**d):
            f = Poly.from_code(ctx, code)
            factors = factorize(f).factors
            spf = factors[0][0]
            exps = [e for _, e in factors]
            assert int(sv.spf_code[code]) == spf.code and int(sv.spf_deg[code]) == spf.deg, code
            assert int(sv.quot[code]) == (f // spf).code, code
            assert int(sv.mu[code]) == (0 if max(exps) > 1 else (-1) ** len(exps)), code
            assert int(sv.mangoldt[code]) == (spf.deg if len(factors) == 1 else 0), code
            assert int(sv.tau[code]) == int(np.prod([e + 1 for e in exps])), code


def test_sieve_multiplies_factors_up_to_half_degree(F3, monkeypatch):
    # a composite of degree n has its smallest factor in degree <= n/2, so no
    # block multiplies irreducibles of higher degree
    seen = set()
    blocks = _sieve._Products.blocks

    def spy(self, lo, hi):
        d = self.a.shape[1] - 1  # the cofactors are the monics [q^(n-d), 2 q^(n-d))
        seen.add((d, d + _sieve._ndigits(self.ctx.q, lo) - 1))  # (d, n)
        return blocks(self, lo, hi)

    monkeypatch.setattr(_sieve, "_SIEVES", {})
    monkeypatch.setattr(_sieve._Products, "blocks", spy)
    _sieve.MonicSieve(F3, 8)
    assert seen == {(d, n) for n in range(2, 9) for d in range(1, n // 2 + 1)}


@pytest.mark.parametrize("ps, steps", [((2, 2), (2, 4, 6)), ((5, 1), (2, 3, 5))], ids=["q=4", "q=5"])
def test_grown_sieve_matches_fresh_in_other_fields(ps, steps, monkeypatch):
    ctx = get_field(*ps)
    monkeypatch.setattr(_sieve, "_SIEVES", {})
    for D in steps:
        grown = _sieve.get_sieve(ctx, D)
    monkeypatch.setattr(_sieve, "_SIEVES", {})
    fresh = _sieve.MonicSieve(ctx, steps[-1])
    assert sieve_digests(grown) == sieve_digests(fresh)


@pytest.mark.parametrize("ps, n", [((3, 1), 6), ((2, 2), 5), ((5, 1), 4), ((3, 2), 3)],
                         ids=["q=3", "q=4", "q=5", "q=9"])
def test_mobius_over_g_matches_monic_normalisation(ps, n, monkeypatch):
    ctx = get_field(*ps)
    monkeypatch.setattr(_sieve, "_MU_G", {})
    mu = mobius_over_g(ctx, n)
    assert mu.shape == (ctx.q**n,) and mu[0] == 0
    for code in range(1, ctx.q**n):
        _, f = Poly.from_code(ctx, code).monic()
        assert int(mu[code]) == mobius(f), code


# -- the lane product primitive -------------------------------------------------

# (p, s, coefficients of the widest product the lanes hold): 64 // b F_p
# digits, b = 1 at p = 2, 3 at p = 3, 4 at p = 5 and 7
LANE_FIELDS = [(2, 1, 64), (3, 1, 21), (5, 1, 16), (7, 1, 16),
               (2, 2, 32), (2, 3, 21), (3, 2, 10), (5, 2, 8)]


def _lane_case(p, s, width, past, kind, seed):
    """Random rows a and a range of codes c whose products a c have
    width (+ 1 when past) coefficients; kind "monic" is a whole degree of
    monic cofactors, "span" an arbitrary [lo, hi) of codes at or above
    2^14, past the low table of five rows at the default CHUNK_ENTRIES."""
    ctx = get_field(p, s)
    q = ctx.q
    rng = np.random.default_rng(seed)
    wc = 3 if kind == "monic" else _sieve._ndigits(q, 2**14 - 1) + 1
    wa = width + past - wc + 1
    a = rng.integers(0, q, size=(5, wa))
    a[:, -1] = rng.integers(1, q, size=5)
    if kind == "monic":
        lo, hi = q ** (wc - 1), 2 * q ** (wc - 1)
    else:
        lo = int(rng.integers(q ** (wc - 1), q**wc - 60))
        hi = lo + int(rng.integers(1, 60))
    return ctx, a, lo, hi


def _product_matrix(ctx, a, lo, hi, stop):
    """The products a_i c, c in [lo, hi), as unsigned codes from the
    primitive's blocks, checking that each comes once and that no block
    holds more than CHUNK_ENTRIES (or one row times q)."""
    prod = _sieve._Products(ctx, a, stop)
    out = np.zeros((len(a), hi - lo), dtype=np.uint64)
    seen = np.zeros(out.shape, dtype=bool)
    for i0, c0, words in prod.blocks(lo, hi):
        rows, cols = words.shape
        assert rows * cols <= max(_sieve.CHUNK_ENTRIES, ctx.q)
        cell = (slice(i0, i0 + rows), slice(c0 - lo, c0 - lo + cols))
        assert not seen[cell].any()
        seen[cell] = True
        out[cell] = prod.codes(words).view(np.uint64)
    assert seen.all()
    return out


def _poly_products(ctx, a, lo, hi):
    rows = [Poly(ctx, [int(x) for x in row]) for row in a]
    return [[(f * Poly.from_code(ctx, c)).code for c in range(lo, hi)] for f in rows]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("kind", ["monic", "span"])
@pytest.mark.parametrize("field", LANE_FIELDS, ids=lambda f: "q={}^{},N={}".format(*f))
def test_lane_products_match_poly_mult_at_lane_limit(field, kind, chunk, monkeypatch):
    p, s, width = field
    if chunk is not None:
        monkeypatch.setattr(_sieve, "CHUNK_ENTRIES", chunk)
    ctx, a, lo, hi = _lane_case(p, s, width, 0, kind, seed=17 * p + s)
    assert s * (a.shape[1] + _sieve._ndigits(ctx.q, hi - 1) - 1) == s * width  # at the limit
    got = _product_matrix(ctx, a, lo, hi, hi)
    assert [[int(x) for x in row] for row in got] == _poly_products(ctx, a, lo, hi)
    # a table built for a larger range gives the same products
    assert np.array_equal(_product_matrix(ctx, a[:, : a.shape[1] - 1], lo, hi, hi + 1),
                          np.array(_poly_products(ctx, a[:, :-1], lo, hi), dtype=np.uint64))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("field", LANE_FIELDS, ids=lambda f: "q={}^{},N={}".format(*f))
def test_products_past_lane_limit_use_pair_codes(field, chunk, monkeypatch):
    # one coefficient past the lanes: the primitive refuses the products at
    # construction, naming their width and the lanes of a word
    from ffmobius.errors import PrecisionExceeded

    p, s, width = field
    if chunk is not None:
        monkeypatch.setattr(_sieve, "CHUNK_ENTRIES", chunk)
    b = {2: 1, 3: 3}.get(p, 4)  # bits per lane
    for kind in ("monic", "span"):
        ctx, a, lo, hi = _lane_case(p, s, width, 1, kind, seed=31 * p + s)
        message = f"^products of {s * (width + 1)} F_{p} digits exceed the {64 // b} {b}-bit lanes of a word$"
        with pytest.raises(PrecisionExceeded, match=message):
            _sieve._Products(ctx, a, hi)


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2)], ids=lambda ps: "q={}^{}".format(*ps))
def test_sieve_catches_a_composite_written_twice(ps, monkeypatch):
    # a keep rule that also keeps one product P h with P > spf(h) writes that
    # composite a second time; the irreducible count still matches, but the
    # count of kept products does not
    ctx = get_field(*ps)
    keep = _sieve.MonicSieve._keep
    extra = []

    def keep_one_more(P, spf_h):
        mask = keep(P, spf_h)
        wrong = np.argwhere(P[:, None] > spf_h[None, :])
        if not extra and len(wrong):
            extra.append(tuple(wrong[0]))
            mask[extra[0]] = True
        return mask

    monkeypatch.setattr(_sieve, "_SIEVES", {})
    monkeypatch.setattr(_sieve.MonicSieve, "_keep", staticmethod(keep_one_more))
    with pytest.raises(AssertionError, match="written more than once"):
        _sieve.MonicSieve(ctx, 6)
    assert extra
