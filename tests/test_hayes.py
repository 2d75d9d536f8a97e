import functools
import hashlib
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ffmobius import Poly, get_field
from ffmobius import hayes
from ffmobius import sieve as _sieve
from ffmobius.errors import BudgetExceeded, IdentityCheckError
from ffmobius.hayes import (
    HayesClass,
    build_group,
    char_sum_exponent_report,
    class_of,
    euler_inverse_check,
    euler_phi,
    l_polynomial,
    log_deriv_check,
    principal_check,
    rh_check,
)
from ffmobius.snf import smith_normal_form


def P(ctx, text):
    return Poly.parse(ctx, text)


# -- classes -------------------------------------------------------------------


def test_class_of_examples(F2):
    t = Poly.t(F2)
    c = class_of(P(F2, "1,1"), 1, t)  # f = t+1
    assert c.residue_code == 1 and c.head == (1,)
    c1 = class_of(Poly.one(F2), 1, t)  # coefficients past deg f count as 0
    assert c1.residue_code == 1 and c1.head == (0,)
    c2 = class_of(P(F2, "0,1,0,1"), 2, t)  # t^3 + t
    assert c2.residue_code == 0 and c2.head == (0, 1)


def test_class_of_normalises_units(F3):
    f = P(F3, "1,2,1")
    g = f.scale(2)
    assert class_of(f, 2, Poly.t(F3)) == class_of(g, 2, Poly.t(F3))


def test_class_multiplication_matches_representatives(F2):
    # class(f g) = class(f) * class(g) for all monic f, g of degree <= 4,
    # every l <= 2 and every monic Q of degree <= 2
    qs = [Poly.from_code(F2, 2**m + j) for m in (0, 1, 2) for j in range(2**m)]
    monics = [Poly.from_code(F2, 2**d + j) for d in range(5) for j in range(2**d)]
    for l in (0, 1, 2):
        for Q in qs:
            g = build_group(F2, l, Q)
            for f in monics:
                for h in monics:
                    lhs = class_of(f * h, l, Q)
                    rhs = g.mul_class(class_of(f, l, Q), class_of(h, l, Q))
                    assert lhs == rhs


def test_class_multiplication_associative(F3):
    g = build_group(F3, 2, Poly.t(F3))
    rng = np.random.default_rng(19)
    for _ in range(100):
        a, b, c = (g.elements[i] for i in rng.integers(0, g.order, 3))
        assert g.mul_class(g.mul_class(a, b), c) == g.mul_class(a, g.mul_class(b, c))


# -- groups ---------------------------------------------------------------------


def test_group_orders(F2):
    assert build_group(F2, 1, Poly.t(F2)).order == 2
    assert build_group(F2, 1, Poly.t(F2)).invariant_factors == (2,)
    g3 = build_group(F2, 0, P(F2, "1,1,1"))
    assert g3.order == 3 and g3.invariant_factors == (3,)
    gt = build_group(F2, 0, Poly.one(F2))
    assert gt.order == 1 and gt.invariant_factors == ()


def test_phi(F2, F3):
    assert euler_phi(Poly.t(F2)) == 1
    assert euler_phi(P(F2, "1,1,1")) == 3
    assert euler_phi(P(F2, "0,0,1")) == 2  # t^2
    assert euler_phi(Poly.one(F3)) == 1
    assert euler_phi(P(F3, "0,1") * P(F3, "1,1")) == 4


def test_group_budget(F3):
    with pytest.raises(BudgetExceeded):
        build_group(F3, 2, P(F3, "0,0,0,1"), budget=10)


def test_q_not_monic_rejected(F3):
    with pytest.raises(ValueError):
        build_group(F3, 0, P(F3, "1,2"))


def test_dlog_is_homomorphism(F3):
    g = build_group(F3, 1, P(F3, "0,1") * P(F3, "1,1"))
    rng = np.random.default_rng(0)
    elems = g.elements
    d = np.array(g.invariant_factors)
    for _ in range(60):
        i, j = rng.integers(0, len(elems), 2)
        prod = g.mul_class(elems[i], elems[j])
        yi = g.dlog_y[i] + g.dlog_y[j]
        assert np.array_equal(g.dlog_y[g.index[prod]], yi % d)


def test_structure_generators(F3):
    g = build_group(F3, 1, Poly.t(F3))
    for idx, order in g.structure:
        e = g.elements[idx]
        acc = e
        for _ in range(order - 1):
            acc = g.mul_class(acc, e)
        assert acc == g.identity


# -- characters -------------------------------------------------------------------


def test_characters_principal_first(F2):
    g = build_group(F2, 1, Poly.t(F2))
    chars = list(g.characters())
    assert len(chars) == 2
    assert chars[0].is_principal and not chars[1].is_principal


def test_character_values_example(F2):
    g = build_group(F2, 1, Poly.t(F2))
    lam = list(g.characters())[1]
    assert lam.eval_exponent(P(F2, "1,1")) == 1  # lambda(t+1) = -1
    assert lam.eval_exponent(Poly.t(F2)) is None  # gcd(t, t) != 1
    principal = list(g.characters())[0]
    for fc in (1, 3, 5, 7):
        f = Poly.from_code(F2, fc)
        assert principal.value(f) == 1


def test_multiplicativity_on_classes(F3):
    # the second group is cyclic of order 8 and is sensitive to the
    # orientation of the relation-lattice reduction
    for g in (build_group(F3, 1, P(F3, "1,1")), build_group(F3, 0, P(F3, "2,1,1"))):
        rng = np.random.default_rng(3)
        for char in g.characters():
            L = g.exponent_lcm
            for _ in range(20):
                i, j = rng.integers(0, g.order, 2)
                prod = g.index[g.mul_class(g.elements[i], g.elements[j])]
                assert (
                    char.exponent_on_index(prod)
                    == (char.exponent_on_index(i) + char.exponent_on_index(j)) % L
                )


def test_orthogonality(F2, F3):
    for ctx, l, Qtext in ((F2, 1, "0,1"), (F2, 0, "1,1,1"), (F3, 1, "0,1"), (F2, 2, "1,1")):
        g = build_group(ctx, l, Poly.parse(ctx, Qtext))
        L = g.exponent_lcm
        omega = np.exp(2j * np.pi / L) if L > 1 else 1.0
        chars = list(g.characters())
        for char in chars:
            total = sum(omega ** char.exponent_on_index(i) for i in range(g.order))
            if char.is_principal:
                assert abs(total - g.order) < 1e-9
            else:
                assert abs(total) < 1e-9
        for i in range(g.order):
            total = sum(omega ** c.exponent_on_index(i) for c in chars)
            if g.elements[i] == g.identity:
                assert abs(total - g.order) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_orthogonality_exact_for_prime_lcm(F2):
    # when the exponent lcm is prime, orthogonality is decidable exactly:
    # a character sum vanishes iff its exponent histogram is flat
    g = build_group(F2, 0, P(F2, "1,1,1"))  # Z/3
    L = g.exponent_lcm
    assert L == 3
    for char in g.characters():
        hist = [0] * L
        for i in range(g.order):
            hist[char.exponent_on_index(i)] += 1
        if char.is_principal:
            assert hist == [g.order, 0, 0]
        else:
            assert len(set(hist)) == 1  # all bins equal: the sum is exactly 0


# -- L-polynomials -----------------------------------------------------------------


def test_lpoly_example(F2):
    g = build_group(F2, 1, Poly.t(F2))
    lam = list(g.characters())[1]
    lp = l_polynomial(lam, 5)
    assert abs(lp.coeffs[0] - 1) < 1e-12
    assert abs(lp.coeffs[1] + 1) < 1e-12
    assert abs(lp.coeffs[2]) < 1e-12
    assert lp.degree == 1 and lp.degree_bound == 2
    assert len(lp.roots) == 1 and abs(lp.roots[0] - 1) < 1e-9


def test_lpoly_rejects_principal(F2):
    g = build_group(F2, 1, Poly.t(F2))
    with pytest.raises(ValueError):
        l_polynomial(list(g.characters())[0], 4)
    with pytest.raises(ValueError):
        rh_check(list(g.characters())[0])


def test_rh_cubic_modulus(F2):
    # q=2, l=0, Q = t^3+t+1 irreducible: deg L <= 2, moduli in {1, 2^-1/2}
    g = build_group(F2, 0, P(F2, "1,1,0,1"))
    for char in g.characters():
        if char.is_principal:
            continue
        lp = l_polynomial(char, 5)
        assert lp.degree <= 2
        for _, modulus, label in rh_check(char):
            assert label in ("1", "q^-1/2")
            assert abs(modulus - 1) < 1e-6 or abs(modulus - 2**-0.5) < 1e-6


def test_rh_q3_t_squared(F3):
    g = build_group(F3, 0, P(F3, "0,0,1"))
    for char in g.characters():
        if char.is_principal:
            continue
        for _, modulus, _ in rh_check(char):
            assert abs(modulus - 1) < 1e-6 or abs(modulus - 3**-0.5) < 1e-6


def test_euler_inverse_example(F2):
    g = build_group(F2, 1, Poly.t(F2))
    lam = list(g.characters())[1]
    rows = euler_inverse_check(lam, 4)
    # 1/(1-z) = sum z^n: the mu-lambda sums are 1 for every n
    for n, resid, s in rows:
        assert resid < 1e-6
        assert abs(s - 1) < 1e-9


def test_log_deriv_example(F2):
    g = build_group(F2, 1, Poly.t(F2))
    lam = list(g.characters())[1]
    rows = log_deriv_check(lam, 4)
    for l, lhs, rhs, resid in rows:
        assert resid < 1e-6
        assert abs(lhs + 1) < 1e-9  # a_l = -1 for all l


def test_principal_series(F2):
    rows = principal_check(F2, Poly.one(F2), 6)
    assert [r[1] for r in rows] == [1, -2, 0, 0, 0, 0, 0]
    rows = principal_check(F2, Poly.t(F2), 6)
    assert [r[1] for r in rows] == [1, -1, -1, -1, -1, -1, -1]
    rows = principal_check(F2, P(F2, "0,1") * P(F2, "1,1"), 5)
    assert [r[1] for r in rows] == [1, 0, -1, -2, -3, -4]


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=lambda ps: "q={}^{}".format(*ps))
def test_principal_series_q_one(ps):
    # Q = 1 goes through residues_mod like any modulus: the series is 1 - q z
    ctx = get_field(*ps)
    rows = principal_check(ctx, Poly.one(ctx), 4)
    assert rows == [(0, 1, 1), (1, -ctx.q, -ctx.q), (2, 0, 0), (3, 0, 0), (4, 0, 0)]


def test_char_sum_report(F2):
    g = build_group(F2, 1, Poly.t(F2))
    rows = char_sum_exponent_report([g], 3)
    assert all(abs(r[3] - 1) < 1e-9 for r in rows)  # |sum| = 1 for all d
    d0 = [r for r in rows if r[2] == 0]
    assert d0 and all(r[4] is None for r in d0)


def test_extension_field_group_end_to_end(F4):
    # q = 4: classes mod (1, t) form a group of order 4 * 3 = 12; run the
    # whole pipeline (degree bound, roots, Euler inverse, log-derivative)
    g = build_group(F4, 1, Poly.t(F4))
    assert g.order == 12
    prod = 1
    for d in g.invariant_factors:
        prod *= d
    assert prod == 12
    for char in g.characters():
        if char.is_principal:
            continue
        lp = l_polynomial(char, 4)
        assert lp.degree < 2
        for _, modulus, label in rh_check(char):
            assert label in ("1", "q^-1/2")
        for _, resid, _ in euler_inverse_check(char, 4):
            assert resid < 1e-6
        for _, _, _, resid in log_deriv_check(char, 5):
            assert resid < 1e-6


def test_extension_field_principal(F4):
    # (1-4z)/(1-z) = 1 - 3z - 3z^2 - ... for Q = t over F_4
    rows = principal_check(F4, Poly.t(F4), 5)
    assert [r[1] for r in rows] == [1, -3, -3, -3, -3, -3]


def test_degree_bound_across_sweep(F2, F3):
    # every non-principal character of every small group: c_n vanishes past
    # l + deg Q, and all roots satisfy the modulus dichotomy
    for ctx in (F2, F3):
        for l in (0, 1):
            for qdeg in (0, 1, 2):
                for qc in range(ctx.q**qdeg):
                    Q = Poly.from_code(ctx, ctx.q**qdeg + qc)
                    g = build_group(ctx, l, Q, budget=3000)
                    for char in g.characters():
                        if char.is_principal:
                            continue
                        rh_check(char, n_max=l + int(Q.deg) + 2)
                        break  # one char per group keeps this test quick


# -- the vectorised class index and the character-sum table -----------------------

IRREDUCIBLE_QUADRATIC = {(2, 1): "1,1,1", (3, 1): "1,0,1", (2, 2): "2,1,1"}


@pytest.mark.parametrize("ps", sorted(IRREDUCIBLE_QUADRATIC), ids=lambda ps: "q={}^{}".format(*ps))
def test_class_weights_match_poly_oracle(ps):
    # class by class_index on Poly objects; mu and Lambda read from the sieve
    ctx = get_field(*ps)
    q = ctx.q
    irr = P(ctx, IRREDUCIBLE_QUADRATIC[ps])
    assert euler_phi(irr) == q**2 - 1
    for Q in (Poly.one(ctx), Poly.t(ctx), P(ctx, "0,0,1"), irr):
        for l in (0, 1, 2):
            g = build_group(ctx, l, Q)
            for n in range(l + int(Q.deg) + 3):
                sv = _sieve.get_sieve(ctx, max(n, 1))
                want = np.zeros((3, g.order), dtype=np.int64)
                for code in range(q**n, 2 * q**n):
                    idx = g.class_index(Poly.from_code(ctx, code))
                    if idx is not None:
                        want[:, idx] += (1, sv.mu[code], sv.mangoldt[code])
                got = g.class_weights(n)
                assert all(w.dtype == np.int64 for w in got)
                assert np.array_equal(np.stack(got), want), (ps, Q.format(), l, n)


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)], ids=lambda ps: "q={}^{}".format(*ps))
def test_class_keys_match_class_of(ps):
    # residues_mod * q^l + head_index is class_of read as one integer, for
    # every f in A_n: Q = 1 and n = 0 included, and l > n
    ctx = get_field(*ps)
    q = ctx.q
    for Q in (Poly.one(ctx), Poly.t(ctx), P(ctx, "1,1"), P(ctx, "1,0,1"), P(ctx, "0,1,1")):
        for l in (0, 1, 2, 4):
            for n in range(4 if q <= 5 else 3):
                keys = hayes.residues_mod(ctx, Q, n) * q**l + hayes.head_index(ctx, l, n)
                want = []
                for code in range(q**n, 2 * q**n):
                    c = class_of(Poly.from_code(ctx, code), l, Q)
                    want.append(c.residue_code * q**l + sum(a * q**i for i, a in enumerate(c.head)))
                assert keys.tolist() == want, (Q.format(), l, n)


def brute_histograms(g, n):
    weights = g.class_weights(n)
    out = np.zeros((g.order, 3, g.exponent_lcm), dtype=np.int64)
    for char in g.characters():
        for idx in range(g.order):
            e = char.exponent_on_index(idx)
            for w in range(3):
                out[char.char_id, w, e] += weights[w][idx]
    return out


@pytest.mark.parametrize("chunk", [None, 5], ids=["default", "chunk=5"])
def test_exponent_histograms_match_bruteforce(chunk, monkeypatch, F2, F3, F4):
    if chunk is not None:
        monkeypatch.setattr(hayes, "CHAR_CHUNK_ENTRIES", chunk)
    for ctx, l, Qtext in ((F2, 2, "1,1"), (F3, 1, "0,1,1"), (F3, 0, "2,1,1"), (F4, 1, "0,1"), (F2, 0, "1")):
        g = build_group(ctx, l, P(ctx, Qtext))
        for n in range(l + g.m + 2):
            blocks = list(g.exponent_histograms(n))
            assert [start for start, _ in blocks] == sorted({start for start, _ in blocks})
            got = np.concatenate([hist for _, hist in blocks])
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_histograms(g, n)), (ctx.q, l, Qtext, n)


# First 16 hex digits of the sha256 of the repr of every non-principal
# character's (l_polynomial, rh_check, euler_inverse_check, log_deriv_check)
# outputs plus char_sum_exponent_report, recorded from the implementation
# that histogrammed each character and weight separately.  The table must
# reproduce every float bit for bit.
HAYES_DIGESTS = {
    (2, 1, 1, "0,1"): "10b789802f85217b",
    (2, 1, 0, "1,1,0,1"): "e8deee09e263b363",
    (3, 1, 1, "1,1"): "9faedbf8224ae6cd",
    (3, 1, 0, "2,1,1"): "167c111cbd0f7fac",
    (2, 2, 1, "0,1"): "a353dd66491b2ddc",
    (3, 1, 2, "0,1"): "775413ab913e9e1b",
    (2, 1, 2, "1,1,1"): "abf29c6568e7ea42",
}


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk=7"])
@pytest.mark.parametrize("key", sorted(HAYES_DIGESTS), ids=lambda k: "q={}^{},l={},Q={}".format(*k))
def test_hayes_outputs_match_frozen_digests(key, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(hayes, "CHAR_CHUNK_ENTRIES", chunk)
    p, s, l, Qtext = key
    ctx = get_field(p, s)
    g = build_group(ctx, l, P(ctx, Qtext))
    out = []
    for char in g.characters():
        if char.is_principal:
            continue
        out.append((l_polynomial(char, l + g.m + 2), rh_check(char),
                    euler_inverse_check(char, l + g.m + 2), log_deriv_check(char, l + g.m + 1)))
    out.append(char_sum_exponent_report([g], l + g.m + 2))
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == HAYES_DIGESTS[key]


def test_roots_computed_once_per_character(F3, monkeypatch):
    g = build_group(F3, 1, P(F3, "1,1"))
    # roots come from _stacked_roots, one row per polynomial; each
    # character's once
    calls = []
    stacked_roots = hayes._stacked_roots
    monkeypatch.setattr(hayes, "_stacked_roots", lambda P: calls.extend([1] * len(P)) or stacked_roots(P))
    chars = [c for c in g.characters() if not c.is_principal]
    for char in chars:
        l_polynomial(char, 4)
        rh_check(char)
        euler_inverse_check(char, 4)
        log_deriv_check(char, 3)
    assert len(calls) == len(chars)


@pytest.mark.parametrize("p", [2, 3])
def test_group_roots_match_np_roots(p):
    # every character of every group with l <= 2 and deg Q <= 3 (order at
    # most 1000): the roots are np.roots's, bit for bit
    ctx = get_field(p)
    degrees = set()
    for l in range(3):
        for m in range(4):
            for code in range(p**m, 2 * p**m):
                try:
                    g = build_group(ctx, l, Poly.from_code(ctx, code), budget=1000)
                except BudgetExceeded:
                    continue
                for char in g.characters():
                    if char.is_principal:
                        continue
                    lp = l_polynomial(char, l + m + 2)
                    assert lp.coeffs[0] == 1  # lambda(1): no constant term is 0
                    want = np.roots(np.array(lp.coeffs[: lp.degree + 1][::-1], dtype=complex))
                    assert repr(lp.roots) == repr(tuple(want)), (l, code, char.char_id)
                    degrees.add(lp.degree)
    assert {0, 1} <= degrees



def test_stacked_dots_match_row_dots():
    # char_sum_table's stacked matmul must make, for each histogram row r,
    # the float r @ z bit for bit, signed zeros included; a numpy or BLAS
    # whose stacked (1 x L) @ (L x 1) items take another route fails here
    rng = np.random.default_rng(2024)
    for L in range(1, 101):
        z = np.exp(2j * np.pi * np.arange(L) / L)
        hist = np.concatenate([rng.integers(0, 50, (5, 3, L)), rng.integers(-50, 50, (5, 3, L)),
                               rng.integers(-(2**40), 2**40 + 1, (5, 3, L))])
        hist[0, 0] = 0
        hist[1, 1, :] = 2**40
        got = np.matmul(hist.astype(complex)[..., None, :], z[:, None])[..., 0, 0]
        want = np.array([[r @ z for r in block] for block in hist.astype(complex)])
        for part in ("real", "imag"):
            bits = [np.ascontiguousarray(getattr(x, part)).view(np.uint64) for x in (got, want)]
            assert np.array_equal(*bits), (L, part)


def test_hayes_survey_script_smoke(tmp_path):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "hayes_survey.py"
    res = subprocess.run(
        [sys.executable, str(script), "--field", "2", "--lmax", "1", "--qdegmax", "2",
         "--dmax", "4", "--outdir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    for name in ("hayes-coeffs-q2.csv", "hayes-roots-q2.csv", "hayes-charsums-q2.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1, name  # a header and at least one row


# First 16 hex digits of the sha256 of each CSV of a small survey
# (--lmax 2 --qdegmax 2 --dmax 5), recorded before the survey formatted each
# group's description once per group instead of once per row.
SURVEY_DIGESTS = {
    2: {"hayes-coeffs-q2.csv": "3d37333fbfd7e5ba", "hayes-roots-q2.csv": "f5b3ea991962496d",
        "hayes-charsums-q2.csv": "860edd28e423b61c"},
    3: {"hayes-coeffs-q3.csv": "9fb079fd3d0d781b", "hayes-roots-q3.csv": "272b9a544a27f660",
        "hayes-charsums-q3.csv": "8fde94a34d1680de"},
}


@pytest.mark.parametrize("p", sorted(SURVEY_DIGESTS))
def test_hayes_survey_csvs_match_frozen_digests(p, tmp_path):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "hayes_survey.py"
    res = subprocess.run(
        [sys.executable, str(script), "--field", str(p), "--lmax", "2", "--qdegmax", "2",
         "--dmax", "5", "--outdir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
           for name in SURVEY_DIGESTS[p]}
    assert got == SURVEY_DIGESTS[p]


# -- the index-map walk, the residue cache and the exact degree bound ------------

SMALL_GROUPS = [((2, 1), 2, "1,1,1"), ((2, 1), 1, "0,0,1,1"), ((3, 1), 1, "2,1,1"), ((3, 1), 2, "0,1"),
                ((2, 2), 1, "1,0,1"), ((5, 1), 1, "1,1"), ((2, 3), 1, "0,1"), ((3, 2), 0, "1,0,1"),
                ((3, 1), 0, "1")]


def small_group(ps, l, Qtext):
    ctx = get_field(*ps)
    return build_group(ctx, l, P(ctx, Qtext))


@pytest.mark.parametrize("case", SMALL_GROUPS, ids=lambda c: "q={}^{},l={},Q={}".format(*c[0], *c[1:]))
def test_mul_by_matches_mul_class(case):
    g = small_group(*case)
    for j, ej in enumerate(g.elements):
        want = [g.index[g.mul_class(ei, ej)] for ei in g.elements]
        assert g._mul_by(j).tolist() == want, j


def integer_inverse(U):
    """Exact inverse of a unimodular integer matrix, by Gauss-Jordan over Q."""
    k = len(U)
    M = [[Fraction(U[i][j]) for j in range(k)] + [Fraction(i == j) for j in range(k)] for i in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(k):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [[int(M[i][k + j]) for j in range(k)] for i in range(k)]


def poly_walk_structure(g):
    """The group walk on HayesClass objects through mul_class: generator
    peeling with a dict of exponent tuples, invariant generators as
    products of generator powers."""
    mul = g.mul_class

    def power(x, e):
        r = g.identity
        for _ in range(e):
            r = mul(r, x)
        return r

    dlog, gens, rel_rows = {g.identity: ()}, [], []
    for cand in g.elements:
        if cand in dlog:
            continue
        i = len(gens)
        gens.append(cand)
        old = dict(dlog)
        x, e = cand, 1
        while x not in old:
            x, e = mul(x, cand), e + 1
        w = old[x]
        rel_rows.append([-(w[j] if j < len(w) else 0) for j in range(i)] + [e])
        for h, vec in old.items():
            acc = h
            for k in range(1, e):
                acc = mul(acc, cand)
                dlog[acc] = vec + (0,) * (i - len(vec)) + (k,)
    k = len(gens)
    R = [[rel_rows[j][i] if i < len(rel_rows[j]) else 0 for j in range(k)] for i in range(k)]
    D, U, _ = smith_normal_form(R)
    diag = [D[i][i] for i in range(k)]
    keep = [i for i, d in enumerate(diag) if d > 1]
    dlog_y = np.zeros((g.order, len(keep)), dtype=np.int64)
    for elem, vec in dlog.items():
        x = list(vec) + [0] * (k - len(vec))
        y = [sum(U[i][t] * x[t] for t in range(k)) for i in range(k)]
        dlog_y[g.index[elem]] = [y[i] % diag[i] for i in keep]
    inv = integer_inverse(U) if k else []
    structure = []
    for j in keep:
        elem = g.identity
        for i in range(k):
            elem = mul(elem, power(gens[i], inv[i][j] % g.order))
        structure.append((g.index[elem], diag[j]))
    return gens, tuple(diag[i] for i in keep), dlog_y, structure


@pytest.mark.parametrize("case", SMALL_GROUPS, ids=lambda c: "q={}^{},l={},Q={}".format(*c[0], *c[1:]))
def test_structure_matches_poly_walk(case):
    g = small_group(*case)
    gens, factors, dlog_y, structure = poly_walk_structure(g)
    assert g.generators == gens
    assert g.invariant_factors == factors
    assert g.dlog_y.dtype == np.int64 and np.array_equal(g.dlog_y, dlog_y)
    assert g.structure == structure



@pytest.mark.parametrize("case", SMALL_GROUPS, ids=lambda c: "q={}^{},l={},Q={}".format(*c[0], *c[1:]))
def test_lpoly_prefix_reuse_matches_fresh_group(case, monkeypatch):
    def nonprincipal(g):
        return [c for c in g.characters() if not c.is_principal]

    l, m = case[1], small_group(*case).m
    # from n_max = l + m - 1 on, a shorter request reads the roots table of a
    # longer one; below it, the degree may be cut short, so it has its own
    for n in range(max(l + m - 3, 0), l + m + 3):
        fresh = [repr(l_polynomial(c, n)) for c in nonprincipal(small_group(*case))]
        for longer in (n + 1, n + 2):
            chars = nonprincipal(small_group(*case))
            for c in chars:
                l_polynomial(c, longer)
            assert [repr(l_polynomial(c, n)) for c in chars] == fresh, (n, longer)
    # log_deriv_check's request at l + m + 1 after l + m + 2 computes neither
    # roots nor character sums again
    g = small_group(*case)
    chars = nonprincipal(g)
    for c in chars:
        l_polynomial(c, l + m + 2)
    calls = []
    monkeypatch.setattr(hayes, "_stacked_roots", lambda P: calls.append("roots"))
    monkeypatch.setattr(g, "_histogram_blocks", lambda *a: calls.append("table") or iter(()))
    for c in chars:
        assert l_polynomial(c, l + m + 1).coeffs == l_polynomial(c, l + m + 2).coeffs[: l + m + 2]
    assert calls == []

@pytest.mark.parametrize("case", SMALL_GROUPS, ids=lambda c: "q={}^{},l={},Q={}".format(*c[0], *c[1:]))
def test_survey_builds_two_lpolys_per_character(case, monkeypatch):
    # the survey's four calls ask for n_max = l + m + 2 (l_polynomial,
    # rh_check, euler_inverse_check) and l + m + 1 (log_deriv_check): one
    # LPolynomial each, kept on the group
    built = []
    lpoly = hayes.LPolynomial
    monkeypatch.setattr(hayes, "LPolynomial", lambda *a: built.append(len(a[1]) - 1) or lpoly(*a))
    g = small_group(*case)
    l, m = g.l, g.m
    chars = [c for c in g.characters() if not c.is_principal]
    for _ in range(2):
        for char in chars:
            lp = l_polynomial(char, l + m + 2)
            assert l_polynomial(char, l + m + 2) is lp
            rh_check(char)
            euler_inverse_check(char, l + m + 2)
            log_deriv_check(char, l + m + 1)
    assert sorted(built) == sorted([l + m + 2, l + m + 1] * len(chars))


def test_residue_table_cached_and_capped(monkeypatch, F3, F4):
    cases = [(F3, "2,1,1", 4), (F3, "1,0,2,1", 3), (F4, "2,1", 3), (F4, "0,1,1", 2)]
    want = {}
    for ctx, Qtext, n in cases:
        Q = P(ctx, Qtext)
        want[ctx, Qtext, n] = [(Poly.from_code(ctx, c) % Q).code for c in range(ctx.q**n, 2 * ctx.q**n)]
    for cap in (hayes.RESIDUES_MAX_BYTES, 0):
        monkeypatch.setattr(hayes, "RESIDUES_MAX_BYTES", cap)
        monkeypatch.setattr(hayes, "_RESIDUES", {})
        for ctx, Qtext, n in cases:
            Q = P(ctx, Qtext)
            res = hayes.residues_mod(ctx, Q, n)
            assert res.tolist() == want[ctx, Qtext, n]
            assert not res.flags.writeable
            assert (hayes.residues_mod(ctx, Q, n) is res) == (cap > 0)
        g = build_group(F3, 1, P(F3, "2,1,1"))
        weights = [np.stack(g.class_weights(n)) for n in range(5)]
        principal = principal_check(F3, P(F3, "2,1,1"), 5)
        if cap:
            kept = (weights, principal)
            assert hayes._RESIDUES
        else:
            assert hayes._RESIDUES == {}
            assert all(np.array_equal(a, b) for a, b in zip(weights, kept[0]))
            assert principal == kept[1]


@pytest.mark.parametrize("ps,l,Qtext", [((2, 1), 1, "0,1"), ((3, 1), 1, "1,1"), ((2, 2), 0, "1,1,1")])
def test_one_changed_class_count_breaks_degree_bound(ps, l, Qtext):
    # c_n = sum over classes of count * lambda: one more f in any class moves
    # c_n by a root of unity, which the degree-bound check must catch
    for cid in (1, -1):
        g = small_group(ps, l, Qtext)
        n = l + g.m
        count, _, _ = g.class_weights(n)
        count[g.order // 2] += 1
        char = list(g.characters())[cid]
        for _ in range(2):  # a failed check is not kept: it raises each time
            with pytest.raises(IdentityCheckError, match="degree bound"):
                l_polynomial(char, n + 1)


@pytest.mark.parametrize("ps, max_deg", [((2, 1), 4), ((3, 1), 3), ((2, 2), 2), ((5, 1), 2), ((2, 3), 2), ((3, 2), 1)],
                         ids=lambda v: "q={}".format(v[0] ** v[1]) if isinstance(v, tuple) else None)
def test_coprime_residue_mask_matches_gcd(ps, max_deg):
    # the mask comes from the prime factors of Q; poly_coprime takes one gcd per residue
    ctx = get_field(*ps)
    for code in range(1, 2 * ctx.q**max_deg):
        Q = Poly.from_code(ctx, code)
        want = [hayes.poly_coprime(Poly.from_code(ctx, r), Q) for r in range(ctx.q ** int(Q.deg))]
        assert hayes._coprime_residue_mask(ctx, Q).tolist() == want, Q


@pytest.mark.parametrize("ps", [(3, 1), (2, 2)], ids=["q=3", "q=4"])
def test_residues_mod_matches_poly_mod_for_any_modulus(ps, monkeypatch):
    # a non-monic Q leaves the remainders of its monic associate
    ctx = get_field(*ps)
    monkeypatch.setattr(hayes, "_RESIDUES", {})
    for code in range(1, ctx.q**3):  # every nonzero Q of degree <= 2
        Q = Poly.from_code(ctx, code)
        for n in range(4):
            want = [(Poly.from_code(ctx, c) % Q).code for c in range(ctx.q**n, 2 * ctx.q**n)]
            assert hayes.residues_mod(ctx, Q, n).tolist() == want, (Q, n)


@pytest.mark.parametrize("ps, Qtext", [((3, 1), "1,0,2"), ((3, 1), "2,2,2"), ((2, 2), "1,2,3"), ((5, 1), "1,1,3")],
                         ids=["q=3-a", "q=3-b", "q=4", "q=5"])
def test_principal_check_of_non_monic_modulus(ps, Qtext):
    ctx = get_field(*ps)
    Q = P(ctx, Qtext)
    assert not Q.is_monic()
    assert principal_check(ctx, Q, 4) == principal_check(ctx, Q.monic()[1], 4)


# -- the per-character route: the oracle of the group passes ------------------------
#
# Each check computed one character at a time on Python complexes and numpy
# scalars, as the library did before it ran each check for every character
# of a group in one array pass; the passes must reproduce these values and
# their types bit for bit, and raise at the same characters with the same
# messages.


def oracle_l_polynomial(char, n_max):
    g, cid = char.group, char.char_id
    bound = g.l + g.m
    coeffs = g.char_sum_table(n_max)[:, cid, 0].tolist()
    for n in range(bound, n_max + 1):
        if abs(coeffs[n]) >= hayes.VANISH_TOL:
            raise IdentityCheckError(
                "L-polynomial coefficient above the degree bound",
                counterexample=f"char {cid} of {g.describe()}, n={n}, |c_n|={abs(coeffs[n]):.3g}",
            )
    deg = max([k for k in range(1, min(bound - 1, n_max) + 1) if abs(coeffs[k]) > hayes.VANISH_TOL], default=0)
    return hayes.LPolynomial(cid, tuple(coeffs), bound, deg, oracle_roots(tuple(coeffs[: deg + 1])))


@functools.lru_cache(maxsize=4096)
def oracle_roots(coeffs):
    return tuple(np.roots(np.array(coeffs[::-1], dtype=complex)))


def oracle_rh_check(char, n_max):
    g = char.group
    rows, bad = [], None
    for r in oracle_l_polynomial(char, n_max).roots:
        mod = abs(r)
        if abs(mod - 1) < hayes.ROOT_TOL:
            label = "1"
        elif abs(mod - g.ctx.q**-0.5) < hayes.ROOT_TOL:
            label = "q^-1/2"
        else:
            label, bad = "FAIL", (r, mod)
        rows.append((complex(r), float(mod), label))
    if bad is not None:
        raise IdentityCheckError(
            "L-polynomial root modulus violates the Riemann hypothesis bound",
            counterexample=f"char {char.char_id} of {g.describe()}, root={bad[0]:.6g}, |root|={bad[1]:.9f}",
        )
    return rows


def oracle_euler_inverse_check(char, n_max):
    g = char.group
    lp = oracle_l_polynomial(char, max(n_max, g.l + g.m))
    c = lp.coeffs[: lp.degree + 1]
    inv = [1 + 0j]
    for n in range(1, n_max + 1):
        acc = 0j
        for k in range(1, min(n, lp.degree) + 1):
            acc += c[k] * inv[n - k]
        inv.append(-acc)
    rows = []
    for n, s in enumerate(g.char_sum_table(n_max)[:, char.char_id, 1].tolist()):
        resid = abs(s - inv[n])
        if resid >= hayes.VANISH_TOL:
            raise IdentityCheckError(
                "1/L series coefficient disagrees with enumeration",
                counterexample=f"char {char.char_id} of {g.describe()}, n={n}, residual={resid:.3g}",
            )
        rows.append((n, resid, s))
    return rows


def oracle_log_deriv_check(char, l_max):
    g = char.group
    alphas = [1 / r for r in oracle_l_polynomial(char, g.l + g.m + 1).roots]
    mangoldt_sums = g.char_sum_table(l_max)[:, char.char_id, 2].tolist()
    rows = []
    for l in range(1, l_max + 1):
        lhs = mangoldt_sums[l]
        rhs = -sum(a**l for a in alphas) if alphas else 0j
        resid = abs(lhs - rhs)
        if resid >= hayes.VANISH_TOL:
            raise IdentityCheckError(
                "log-derivative power sums disagree",
                counterexample=f"char {char.char_id} of {g.describe()}, l={l}, residual={resid:.3g}",
            )
        rows.append((l, lhs, rhs, resid))
    return rows


CHECKS = [(l_polynomial, oracle_l_polynomial), (rh_check, oracle_rh_check),
          (euler_inverse_check, oracle_euler_inverse_check), (log_deriv_check, oracle_log_deriv_check)]


def outcome(check, char, n):
    """repr of check(char, n), or the message it raises."""
    try:
        return repr(check(char, n))
    except IdentityCheckError as exc:
        return f"raises {exc}"


def survey_groups(ctx, degs, budget=1000):
    for l in range(3):
        for m in degs:
            for code in range(ctx.q**m, 2 * ctx.q**m):
                try:
                    yield build_group(ctx, l, Poly.from_code(ctx, code), budget=budget)
                except BudgetExceeded:
                    continue


@pytest.mark.parametrize("ps, degs", [((2, 1), range(4)), ((3, 1), range(4)), ((2, 2), range(3)), ((2, 2), [3])],
                         ids=["q=2", "q=3", "q=4", "q=4,deg=3"])
def test_group_passes_match_per_character_route(ps, degs):
    # every non-principal character of every group with l <= 2, deg Q <= 3
    # and order <= 1000 (at q = 4, deg Q = 3 alone has 172 groups and 44180
    # characters): each check's value, float bits and scalar types included
    # (repr), at three lengths
    ctx = get_field(*ps)
    for g in survey_groups(ctx, degs):
        chars = [c for c in g.characters() if not c.is_principal]
        for n in (g.l + g.m + 1, g.l + g.m + 2, g.l + g.m + 4):
            for check, oracle in CHECKS:
                got, want = ([outcome(f, char, n) for char in chars] for f in (check, oracle))
                assert got == want, (g.describe(), n, check.__name__)


@pytest.mark.parametrize("w, check, oracle", [(1, euler_inverse_check, oracle_euler_inverse_check),
                                              (2, log_deriv_check, oracle_log_deriv_check)],
                         ids=["mu", "Lambda"])
@pytest.mark.parametrize("case", SMALL_GROUPS[:5], ids=lambda c: "q={}^{},l={},Q={}".format(*c[0], *c[1:]))
def test_one_moved_weight_breaks_exactly_the_characters_it_moves(case, w, check, oracle):
    # one unit of the mu (or Lambda) weight of A_n moved from class x to
    # class y changes the sum of lambda by lambda(y) - lambda(x): exactly the
    # characters with lambda(x) != lambda(y) fail, each at its own call,
    # with the per-character route's message, and again on a second call
    g, x = small_group(*case), 1
    n = g.l + g.m
    weights = g.class_weights(n)[w]
    y = next(y for y in range(2, g.order) if weights[y])
    weights[x] += 1
    weights[y] -= 1
    broken = set()
    for char in g.characters():
        if char.is_principal:
            continue
        want = outcome(oracle, char, n + 1)
        for _ in range(2):
            assert outcome(check, char, n + 1) == want, char.char_id
        if want.startswith("raises"):
            broken.add(char.char_id)
    moved = {c.char_id for c in g.characters() if c.exponent_on_index(x) != c.exponent_on_index(y)}
    assert broken == moved and moved


def test_rh_failures_match_per_character_route(monkeypatch, F3):
    # with a root tolerance too tight for rounded moduli, most roots fail:
    # the message names each character's last root, as the per-character route
    monkeypatch.setattr(hayes, "ROOT_TOL", 1e-300)
    for g in (build_group(F3, 1, P(F3, "1,1")), build_group(F3, 2, P(F3, "0,1"))):
        chars = [c for c in g.characters() if not c.is_principal]
        want = [outcome(oracle_rh_check, char, g.l + g.m + 2) for char in chars]
        assert sum(w.startswith("raises") for w in want) > len(chars) // 2
        for _ in range(2):
            assert [outcome(rh_check, char, g.l + g.m + 2) for char in chars] == want


def test_array_routes_match_scalar_arithmetic():
    # the group passes compute on arrays what the per-character route
    # computed on Python complexes and numpy scalars; each array route must
    # make the same floats bit for bit, signed zeros, subnormals and
    # overflow included, so a numpy whose SIMD loops round otherwise fails
    # here (numpy's array complex *, **2 and abs do not qualify)
    rng = np.random.default_rng(2025)
    size = 3000
    scale = 10.0 ** rng.choice([-150, -3, 0, 0, 0, 2, 150], (2, size))
    z = np.empty(size, dtype=complex)
    z.real, z.imag = rng.standard_normal((2, size)) * scale
    z.real[:40], z.imag[20:60] = 0.0, -0.0
    z.real[40:80], z.imag[60:100] = -0.0, 0.0
    z.real[100:140] = 5e-324 * rng.integers(1, 2**20, 40)
    z.imag[120:160] = -2.2e-308 * rng.random(40)
    w = z[rng.permutation(size)]

    def same(got, want):  # bit for bit, as complex128
        got, want = (np.asarray(x, dtype=complex) for x in (got, want))
        bits = [np.ascontiguousarray(x.view(float)).view(np.uint64) for x in (got, want)]
        return np.array_equal(*bits)

    with np.errstate(all="ignore"):
        pairs = [complex(a) * complex(b) for a, b in zip(z, w)]  # Python complex multiply
        assert same(z.real * w.real + (-z.imag) * w.imag, [c.real for c in pairs])
        assert same(z.real * w.imag + z.imag * w.real, [c.imag for c in pairs])
        mags = np.hypot(z.real, z.imag)
        assert same(mags, [abs(complex(c)) for c in z]) and same(mags, [abs(c) for c in z])
        assert same(1 / z, [1 / c for c in z])
        ls = np.arange(1, 9)[:, None]
        assert same(np.power(z, ls), [[c**l for c in z] for l in range(1, 9)])
