import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffmobius import get_field, parse_field


def test_f4_modulus_and_multiplication(F4):
    # power basis mod x^2 + x + 1: x * x = x + 1, codes 2 * 2 -> 3
    assert F4.modulus == (1, 1, 1)
    assert F4.mul(2, 2) == 3


def test_additive_identity_all_fields(F2, F3, F4, F5, F9):
    for ctx in (F2, F3, F4, F5, F9):
        for a in range(ctx.q):
            assert ctx.add(a, 0) == a


def test_f3_inverse():
    F3 = get_field(3)
    assert F3.inv(2) == 2


def test_division_by_zero_raises(F4):
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)
    with pytest.raises(ZeroDivisionError):
        F4.div(1, 0)


def test_trace_examples(F2, F4):
    assert F4.trace(2) == 1  # Tr(x) = x + x^2 = 1 in F_4
    assert F4.trace(0) == 0
    assert F2.trace(1) == 1  # e_2(1) = -1


def test_trace_lands_in_prime_field(F9):
    for a in range(F9.q):
        assert 0 <= F9.trace(a) < F9.p


def test_trace_additive(F9, F4):
    for ctx in (F9, F4):
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % ctx.p


def test_parse_field():
    assert parse_field("2").q == 2
    assert parse_field("2^2").q == 4
    assert parse_field("3").q == 3
    with pytest.raises(ValueError):
        parse_field("4")  # not prime


ctx_strategy = st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])


@given(ctx_strategy, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(ps, ai, bi, ci):
    ctx = get_field(*ps)
    a, b, c = ai % ctx.q, bi % ctx.q, ci % ctx.q
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.sub(a, a) == 0
    assert ctx.mul(a, 1) == a
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.div(ctx.mul(a, b), a) == b


@given(ctx_strategy, st.integers(0, 10**6), st.integers(0, 30))
def test_pow_matches_repeated_multiplication(ps, ai, e):
    ctx = get_field(*ps)
    a = ai % ctx.q
    acc = 1
    for _ in range(e):
        acc = ctx.mul(acc, a)
    assert ctx.pow(a, e) == acc


def test_element_codes_closed(F9):
    for a in range(F9.q):
        for b in range(F9.q):
            assert 0 <= F9.add(a, b) < F9.q
            assert 0 <= F9.mul(a, b) < F9.q


def fp_mul(a: tuple, b: tuple, p: int) -> tuple:
    """Product in F_p[x] of coefficient tuples, constant first."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def scalar_tables(ctx):
    """The element-by-element table builder, kept as the oracle of the
    vectorised one: power-basis digits, F_p[x] products reduced by the
    modulus, inverses by search, traces by repeated p-th powers."""
    from ffmobius.fields import _fp_mod

    p, s, q = ctx.p, ctx.s, ctx.q

    def digits(code):
        return tuple(code // p**i % p for i in range(s))

    def code(ds):
        return sum(int(d) * p**i for i, d in enumerate(ds))

    dig = [digits(a) for a in range(q)]
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(a, q):
            add[a, b] = add[b, a] = code((x + y) % p for x, y in zip(dig[a], dig[b]))
            prod = _fp_mod(fp_mul(dig[a], dig[b], p), ctx.modulus, p)
            mul[a, b] = mul[b, a] = code(prod)
    neg = np.array([code((-x) % p for x in dig[a]) for a in range(q)], dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a, b] == 1)
    trace = np.zeros(q, dtype=np.int64)
    for a in range(q):
        x, acc = a, a
        for _ in range(s - 1):
            x = ctx._pow_raw(x, p, mul)
            acc = add[acc, x]
        trace[a] = acc
    return {"ADD": add, "SUB": add[:, neg], "MUL": mul, "NEG": neg, "INV": inv, "TRACE": trace}


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=lambda ps: "q={}".format(ps[0] ** ps[1]))
def test_tables_match_scalar_builder(ps):
    ctx = get_field(*ps)
    for name, want in scalar_tables(ctx).items():
        got = getattr(ctx, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=lambda ps: "q={}".format(ps[0] ** ps[1]))
def test_digit_layer_matches_scalar_builder(ps):
    ctx = get_field(*ps)
    p, s, q = ctx.p, ctx.s, ctx.q
    mul = scalar_tables(ctx)["MUL"]
    units = p ** np.arange(s)  # the codes of x^0, ..., x^(s-1)
    assert ctx.DIGITS.shape == (q, s) and ctx.MULMAT.shape == (q, s, s)
    for tab in (ctx.DIGITS, ctx.MULMAT):
        assert tab.min() >= 0 and tab.max() < p and not tab.flags.writeable
    assert np.array_equal(ctx.DIGITS @ units, np.arange(q))
    # column i of MULMAT[a] holds the digits of a x^i
    assert np.array_equal(np.einsum("ati,t->ai", ctx.MULMAT, units), mul[:, units])
    # and MULMAT[a] applied to the digits of b gives the digits of a b
    prods = np.einsum("ati,bi->abt", ctx.MULMAT, ctx.DIGITS) % p
    assert np.array_equal(prods, ctx.DIGITS[mul])
