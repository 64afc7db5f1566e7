"""Exact arithmetic in Q(q) and the q-numbers built on it."""

import importlib.util
import math
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qpbw import braid, pairing, pbw, scalars
from qpbw.braid import FAMILIES
from qpbw.rootdata import CartanType, weights_of_height
from qpbw.scalars import Scalar, c_const, d_const, qbinom, qfact, qint

q = Scalar.q_power
one = Scalar.from_int(1)


def lp(coeffs):
    """The Scalar of a Laurent polynomial given as {exponent: integer}."""
    return Scalar(dict(coeffs))


def test_qint_values():
    assert qint(0).is_zero()
    assert qint(2) == lp({1: 1, -1: 1})
    assert qint(-3) == lp({2: -1, 0: -1, -2: -1})
    for n in range(1, 9):
        assert qint(-n) == -qint(n)


def test_qbinom_values():
    assert qbinom(5, 0) == one
    assert qbinom(2, 1) == lp({1: 1, -1: 1})
    assert qbinom(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_qbinom_pascal():
    # both q-Pascal recurrences, exactly
    for n in range(1, 9):
        for m in range(1, n + 1):
            b = qbinom(n, m)
            left = qbinom(n - 1, m - 1) * q(n - m) + qbinom(n - 1, m) * q(-m)
            right = qbinom(n - 1, m - 1) * q(-(n - m)) + qbinom(n - 1, m) * q(m)
            assert b == left
            assert b == right


def test_c_const_values():
    assert c_const(0) == one
    dq = Scalar.q_power(1) - Scalar.q_power(-1)
    assert c_const(1) == dq.inverse()
    want = lp({1: 1, -1: 1}) * Scalar.q_power(-1) * (dq * dq).inverse()
    assert c_const(2) == want


def test_d_const_values():
    assert d_const(0) == one
    assert d_const(1) == lp({0: 1, 2: -1})
    rev = Scalar.q_power(-1) - Scalar.q_power(1)
    assert d_const(2) == Scalar.q_power(3) * rev * rev


def test_c_times_d_bridge():
    # c(n) * d(n) = (-1)^n q^n [n]!
    for n in range(9):
        want = Scalar.from_int((-1) ** n) * Scalar.q_power(n) * qfact(n)
        assert c_const(n) * d_const(n) == want


def test_scaled_constants():
    # q_i = q^d versions are plain exponent substitutions
    for n in range(5):
        for d in (1, 2, 3):
            assert qint(n, d) == qint(n, 1).subst_q_power(d)
            assert qfact(n, d) == qfact(n, 1).subst_q_power(d)
            assert c_const(n, d) == c_const(n, 1).subst_q_power(d)
            assert d_const(n, d) == d_const(n, 1).subst_q_power(d)


# Reference: the q-number arithmetic of the former second polynomial type,
# Laurent polynomials in q over Z as {exponent: integer}, each constant
# converted to a Scalar only at the end, as the library did before its
# q-numbers were computed as Scalars.

class _Laurent:
    def __init__(self, coeffs=None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0) + v
        return _Laurent(c)

    def __neg__(self):
        return _Laurent({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
        return _Laurent(c)

    def __pow__(self, n):
        out = _Laurent({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k):
        return _Laurent({e + k: v for e, v in self.c.items()})

    def subst_power(self, d):
        return _Laurent({e * d: v for e, v in self.c.items()})

    def div_exact(self, other):
        if not self.c:
            return _Laurent()
        sa, sb = min(self.c), min(other.c)
        quo = scalars._pdiv_exact({e - sa: v for e, v in self.c.items()},
                                  {e - sb: v for e, v in other.c.items()})
        return _Laurent({e + sa - sb: v for e, v in quo.items()})

    def scalar(self):
        s = min(self.c, default=0)
        if s >= 0:
            return Scalar(dict(self.c))
        return Scalar({e - s: v for e, v in self.c.items()}, {-s: 1})


def _ref_qint(n):
    if n < 0:
        return -_ref_qint(-n)
    return _Laurent({n - 1 - 2 * k: 1 for k in range(n)})


def _ref_qfact(n):
    p = _Laurent({0: 1})
    for k in range(2, n + 1):
        p = p * _ref_qint(k)
    return p


def _ref_qbinom(n, m):
    num = _Laurent({0: 1})
    for k in range(m):
        num = num * _ref_qint(n - k)
    return num.div_exact(_ref_qfact(m))


def _ref_c_const(n, d):
    num = _ref_qfact(n).shift(-n * (n - 1) // 2)
    den = (_Laurent({1: 1}) - _Laurent({-1: 1})) ** n
    val = num.scalar() / den.scalar()
    return val.subst_q_power(d) if d != 1 else val


def _ref_d_const(n, d):
    p = (_Laurent({-1: 1}) - _Laurent({1: 1})) ** n
    val = p.shift(n * (n + 1) // 2).scalar()
    return val.subst_q_power(d) if d != 1 else val


def _same(got, want):
    assert str(got) == str(want) and got == want, (got, want)


def test_q_constants_match_laurent_reference():
    for d in (1, 2, 3):
        for n in range(-6, 14):
            _same(qint(n, d), _ref_qint(n).subst_power(d).scalar())
            _same(qfact(n, d), _ref_qfact(n).subst_power(d).scalar())
        for n in range(14):
            _same(c_const(n, d), _ref_c_const(n, d))
            _same(d_const(n, d), _ref_d_const(n, d))
    for n in range(-5, 10):
        for m in range(7):
            _same(qbinom(n, m), _ref_qbinom(n, m).scalar())


def test_q_constants_reject_negative_n():
    for fn in (c_const, d_const):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def _random_scalar(rng):
    num = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)}
    den = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)}
    if not any(den.values()):
        den = {0: 1}
    return Scalar(num, den)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - b == -(b - a)
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inverse() == Scalar.from_int(1)


def test_canonical_idempotence():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_scalar(rng)
        again = Scalar(dict(a.num), dict(a.den))
        assert again.num == a.num and again.den == a.den


def test_string_form():
    assert str(Scalar.from_int(-3)) == "-3"
    assert str(Scalar.q_power(2)) == "q^2"
    assert str(qint(2)) == "(q^2 + 1)/q"
    dq = Scalar.q_power(1) - Scalar.q_power(-1)
    assert str(dq.inverse()) == "q/(q^2 - 1)"
    # a bare integer or q^k denominator stays bare, c*q^k does not
    half = Scalar.from_int(1) / Scalar.from_int(2)
    assert str(half) == "1/2"
    assert str(Scalar.q_power(-3)) == "1/q^3"
    assert str(half / Scalar.q_power(1)) == "1/(2*q)"
    assert str(half + half / Scalar.q_power(1)) == "(q + 1)/(2*q)"


def test_bar_involution():
    for s in (qint(3), c_const(2), d_const(2)):
        assert s.bar().bar() == s
    assert qint(4).bar() == qint(4)


def test_qfact():
    assert qfact(0) == one
    assert qfact(3) == qint(3) * qint(2)


# ---------------------------------------------------------------------------
# property tests: canonical form, field axioms, sympy, and a differential
# check against plain gcd arithmetic

Q = sympy.Symbol("q")
PROPS = settings(max_examples=100, deadline=None, derandomize=True,
                 database=None)
# non-cyclotomic factors; q^2 + 3q + 1 is palindromic like a cyclotomic one
ODD_FACTORS = ({0: 2, 1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 1: 3, 2: 1})


def _cyclotomic(n):
    return {e: int(v) for (e,), v in
            sympy.Poly(sympy.cyclotomic_poly(n, Q), Q).terms()}


PHI = {n: _cyclotomic(n) for n in range(1, 25)}


def _pmul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _padd(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


# -- a test-local copy of the gcd arithmetic that reduces every result --

def _content(p):
    g = 0
    for v in p.values():
        g = math.gcd(g, v)
    return g


def _prim(p):
    g = _content(p)
    return {e: v // g for e, v in p.items()} if g > 1 else dict(p)


def _pseudo_rem(a, b):
    db, lb = max(b), b[max(b)]
    r = dict(a)
    while r and max(r) >= db:
        dr, lr = max(r), r[max(r)]
        g = math.gcd(lr, lb)
        r = _padd({e: v * (lb // g) for e, v in r.items()},
                  {e + dr - db: -v * (lr // g) for e, v in b.items()})
        r = _prim(r)
    return r


def _gcd(a, b):
    a, b = _prim(a), _prim(b)
    while b:
        a, b = b, _prim(_pseudo_rem(a, b))
    if a[max(a)] < 0:
        a = {e: -v for e, v in a.items()}
    return a


def _div_exact(a, b):
    db, lb = max(b), b[max(b)]
    out, r = {}, dict(a)
    while r:
        dr, lr = max(r), r[max(r)]
        assert dr >= db and lr % lb == 0
        out[dr - db] = lr // lb
        r = _padd(r, {e + dr - db: -v * (lr // lb) for e, v in b.items()})
    return out


def _reference(num, den):
    """(num, den) reduced by a polynomial gcd, as Scalar stores them."""
    num = {e: v for e, v in num.items() if v}
    den = {e: v for e, v in den.items() if v}
    if not num:
        return {}, {0: 1}
    s = min(min(num), min(den))
    num = {e - s: v for e, v in num.items()}
    den = {e - s: v for e, v in den.items()}
    g = _gcd(num, den)
    num, den = _div_exact(num, g), _div_exact(den, g)
    c = math.gcd(_content(num), _content(den))
    num = {e: v // c for e, v in num.items()}
    den = {e: v // c for e, v in den.items()}
    if den[max(den)] < 0:
        num = {e: -v for e, v in num.items()}
        den = {e: -v for e, v in den.items()}
    return num, den


def _ref_op(op, a, b=None):
    n1, d1 = a.num, a.den
    if op == "inverse":
        return _reference(d1, n1)
    if op == "neg":
        return _reference({e: -v for e, v in n1.items()}, d1)
    if not n1:
        n1 = {0: 0}
    if op == "bar":
        top = max(max(n1), max(d1))
        return _reference({top - e: v for e, v in n1.items()},
                          {top - e: v for e, v in d1.items()})
    if op == "subst":
        return _reference({3 * e: v for e, v in n1.items()},
                          {3 * e: v for e, v in d1.items()})
    n2, d2 = b.num, b.den
    if op == "mul":
        return _reference(_pmul(n1, n2), _pmul(d1, d2))
    if op == "div":
        return _reference(_pmul(n1, d2), _pmul(d1, n2))
    sign = 1 if op == "add" else -1
    return _reference(_padd(_pmul(n1, d2),
                            {e: sign * v for e, v in _pmul(n2, d1).items()}),
                      _pmul(d1, d2))


# -- strategies ------------------------------------------------------------

_orders = st.integers(1, 24) | st.sampled_from([1, 2, 3, 4, 6])
_polys = st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=4)


@st.composite
def _fractions(draw):
    """Fractions whose denominators are c q^k prod Phi_n (n <= 24, c <= 3),
    sometimes times a non-cyclotomic factor, and whose numerators often
    share a Phi_n with them; also units +-q^j."""
    if draw(st.integers(0, 5)) == 0:
        s = Scalar.q_power(draw(st.integers(-3, 3)))
        return -s if draw(st.booleans()) else s
    den = {draw(st.integers(0, 3)): draw(st.integers(1, 3))}
    for n in draw(st.lists(_orders, max_size=3)):
        den = _pmul(den, PHI[n])
    if draw(st.integers(0, 3)) == 0:
        den = _pmul(den, draw(st.sampled_from(ODD_FACTORS)))
    if draw(st.booleans()):
        den = {e: -v for e, v in den.items()}
    num = draw(_polys) or {0: draw(st.integers(-3, 3))}
    for n in draw(st.lists(_orders, max_size=2)):
        num = _pmul(num, PHI[n])
    return Scalar(num, den)


def _canonical(s):
    num, den = s.num, s.den
    assert den and all(v for v in den.values())
    assert all(v for v in num.values())
    if not num:
        return den == {0: 1}
    return (min(num) >= 0 and min(den) >= 0 and min(min(num), min(den)) == 0
            and den[max(den)] > 0
            and math.gcd(_content(num), _content(den)) == 1
            and _gcd(num, den) == {0: 1})


def _sympy(s):
    return (sum(v * Q ** e for e, v in s.num.items())
            / sum(v * Q ** e for e, v in s.den.items()))


def _factorization_holds(s):
    """The factorization kept on s, if any, expands to its denominator."""
    f = s._fac
    if not f:
        return True
    c, k, mult = f
    den = {k: c}
    for n, m in mult:
        for _ in range(m):
            den = _pmul(den, PHI[n])
    return den == s.den


@PROPS
@given(_fractions())
def test_property_canonical_form(a):
    assert _canonical(a)
    assert (a.num, a.den) == _reference(a.num, a.den)
    if scalars._factored(a) is False:
        assert any(sympy.degree(g, Q) > 0 and not _is_cyclotomic(g)
                   for g, _ in sympy.factor_list(
                       sum(v * Q ** e for e, v in a.den.items()))[1])
    assert _factorization_holds(a)


def _is_cyclotomic(g):
    return g == Q or any(sympy.expand(g - sympy.cyclotomic_poly(n, Q)) == 0
                         for n in range(1, 25))


@PROPS
@given(_fractions(), _fractions(), _fractions())
def test_property_field_axioms(a, b, c):
    zero, one = Scalar.from_int(0), Scalar.from_int(1)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + zero == a and a * one == a and a - a == zero
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == one
    for s in (a + b, a * b, a - c):
        assert _canonical(s)


@settings(PROPS, max_examples=60)
@given(_fractions())
def test_property_str_matches_sympy_cancel(a):
    num, den = (sympy.Poly(sum(v * Q ** e for e, v in p.items()), Q)
                for p in _unreduced(a))
    num, den = num.cancel(den, include=True)
    want = scalars.poly_str(_terms(num))
    if den != sympy.Poly(1, Q):
        if len(num.terms()) > 1:
            want = "(%s)" % want
        d = scalars.poly_str(_terms(den))
        # only a bare integer or a bare q^k goes unparenthesized
        bare = len(den.terms()) == 1 and (den.LC() == 1
                                          or den.degree() == 0)
        want += "/" + (d if bare else "(%s)" % d)
    assert str(a) == want
    parts = [sympy.sympify(t.replace("^", "**"), locals={"q": Q})
             for t in str(a).split("/")]
    assert sympy.cancel(parts[0] / (parts[1] if len(parts) > 1 else 1)
                        - _sympy(a)) == 0


def _load_parse_scalar():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qpbw_bench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.parse_scalar


parse_scalar = _load_parse_scalar()


@st.composite
def _monomial_denominators(draw):
    """num / (c q^k) with c >= 2, the denominators that print as (c*q^k)."""
    num = draw(_polys) or {0: draw(st.integers(1, 3))}
    return Scalar(num, {draw(st.integers(1, 4)): draw(st.integers(2, 6))})


@settings(PROPS, max_examples=60)
@given(_monomial_denominators())
def test_property_monomial_denominator_round_trips(a):
    text = str(a)
    # the whole string, read with the usual precedence, is the value
    value = sympy.sympify(text.replace("^", "**"), locals={"q": Q})
    assert sympy.cancel(value - _sympy(a)) == 0
    assert parse_scalar(text) == a


def _unreduced(a):
    """num and den of a times a common factor, for sympy to cancel."""
    extra = _pmul(PHI[6], {1: 2})
    return _pmul(a.num, extra), _pmul(a.den, extra)


def _terms(poly):
    return {e: int(v) for (e,), v in poly.terms() if v}


@PROPS
@given(_fractions(), _fractions())
def test_property_ops_match_gcd_arithmetic(a, b):
    got = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a,
           "bar": a.bar(), "subst": a.subst_q_power(3)}
    if not b.is_zero():
        got["div"] = a / b
    if not a.is_zero():
        got["inverse"] = a.inverse()
    for op, s in got.items():
        assert (s.num, s.den) == _ref_op(op, a, b), op
        assert _factorization_holds(s), op
    # equal denominators, where the sum may cancel a Phi_n of them
    c = Scalar(_padd(_pmul(a.den, b.num), a.num), _pmul(a.den, b.den)) - a
    assert (c.num, c.den) == _ref_op("sub", Scalar(
        _padd(_pmul(a.den, b.num), a.num), _pmul(a.den, b.den)), a)


def test_cyclotomic_transitions_make_no_gcd(monkeypatch):
    # every A2 transition denominator is a product of Phi_n: computed cold,
    # the six families at height <= 3 never reach the gcd fallback
    calls = []
    real = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd",
                        lambda a, b: calls.append(1) or real(a, b))
    monkeypatch.setattr(pbw, "_store", {})
    monkeypatch.setattr(braid, "_root_vectors", {})
    monkeypatch.setattr(pairing.Pairing, "_instances", {})
    ct = CartanType("A2")
    blocks = 0
    for family in FAMILIES:
        for h in range(1, 4):
            for ga in weights_of_height(ct, h):
                block = pbw.transition_matrix(ct, family, (0, 1, 0),
                                              (1, 0, 1), ga)
                blocks += bool(block)
    assert blocks == 6 * 9 and calls == []


def test_non_cyclotomic_denominator_takes_the_gcd_fallback(monkeypatch):
    calls = []
    real = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd",
                        lambda a, b: calls.append(1) or real(a, b))
    odd = Scalar({0: 2, 1: 1, 2: 1})          # q^2 + q + 2
    lin = Scalar({0: 1, 1: 2})                # 2q + 1
    x = odd.inverse() + lin.inverse()
    assert calls and scalars._factored(x) is False
    assert str(x) == "(q^2 + 3*q + 3)/(2*q^3 + 3*q^2 + 5*q + 2)"
    # exact: the sum times its denominators is the plain polynomial sum
    assert x * odd * lin == odd + lin
    assert (x - lin.inverse()) * odd == Scalar.from_int(1)


# -- fast paths for trivial operands ----------------------------------------

def _unit_remainders(n):
    """q^k mod Phi_n for k = 0..n-1, each as the coefficient list of degree
    below deg Phi_n: the fold mod q^n - 1 and the reduction mod Phi_n that
    scalars._phi_divides runs on longer numerators, taken one monomial at a
    time (q^(k+1) mod Phi_n is q times q^k mod Phi_n, reduced once)."""
    deg, tail = scalars._phi(n)
    r = [1] + [0] * (deg - 1)
    out = []
    for _ in range(n):
        out.append(tuple(r))
        top = r[-1]
        r = [0] + r[:-1]
        for e, c in tail:
            r[e] -= top * c
    return out


def test_phi_divisibility_of_monomials_and_binomials_matches_fold():
    coeffs = [c for c in range(-3, 4) if c]
    for n in range(1, scalars._MAX_ORDER + 1):
        rem = _unit_remainders(n)
        r0 = rem[0]
        for a in coeffs:
            # a monomial folds to a unit times R_0, never zero
            assert any(r0)
            for e in (0, 1, n, 3 * n):
                assert not scalars._phi_divides({e: a}, n), (n, e, a)
        # p = a + b q^d folds to a R_0 + b R_(d mod n), which is zero
        # exactly when Phi_n divides p; gaps d = r, r + n, ... up to 3n
        for r, rr in enumerate(rem):
            gaps = range(r or n, 3 * n + 1, n)
            for a in coeffs:
                for b in coeffs:
                    want = not any(a * x + b * y for x, y in zip(r0, rr))
                    for d in gaps:
                        got = scalars._phi_divides({0: a, d: b}, n)
                        assert got == want, (n, d, a, b)
        # a common q-power does not matter
        assert scalars._phi_divides({3: 1, 3 + n: -1}, n)


def test_q_power_is_memoized_and_matches_fresh_construction():
    assert Scalar.q_power(0) is scalars.ONE
    for k in range(-12, 13):
        s = Scalar.q_power(k)
        assert s is Scalar.q_power(k)
        fresh = Scalar({k: 1}) if k >= 0 else Scalar({0: 1}, {-k: 1})
        assert (s.num, s.den) == (fresh.num, fresh.den)
        assert scalars._factored(s) == scalars._den_factors(fresh.den)
        assert scalars._factored(s) == (1, max(-k, 0), ())
    for d in (1, 2, 3):
        inv = scalars.qdiff_inverse(d)
        assert inv is scalars.qdiff_inverse(d)
        assert inv * (Scalar.q_power(d) - Scalar.q_power(-d)) == scalars.ONE


def test_product_with_one_returns_the_other_operand():
    one = scalars.ONE
    dq = Scalar.q_power(1) - Scalar.q_power(-1)
    odd = Scalar({0: 2, 1: 1, 2: 1}).inverse()
    for x in (scalars.ZERO, one, Scalar.from_int(-3), Scalar.q_power(-2),
              dq, dq.inverse(), qbinom(5, 2), odd):
        assert x * one is x
        assert one * x is x
    # a value equal to one but not the shared ONE still multiplies exactly
    other_one = Scalar({0: 1})
    assert other_one is not one and dq * other_one == dq


@PROPS
@given(st.lists(_fractions(), min_size=1, max_size=4))
def test_property_common_denominator(values):
    nums, inv = scalars.common_denominator(values)
    assert _canonical(inv) and inv.num == {0: 1}
    assert _factorization_holds(inv)
    for s, p in zip(values, nums):
        assert min(p, default=0) >= 0
        assert Scalar(p) * inv == s
    if all(scalars._factored(s) is not False for s in values):
        # the least common denominator: nums are polynomials, so the
        # denominator is a common multiple, and its degree is the lcm's
        lcm = sympy.lcm_list([sum(v * Q ** e for e, v in s.den.items())
                              for s in values])
        assert max(inv.den) == sympy.degree(lcm, Q)


_laurent_maps = st.dictionaries(st.integers(-4, 5),
                                st.integers(-4, 4).filter(bool),
                                min_size=1, max_size=4)


@PROPS
@given(_laurent_maps, st.lists(_fractions(), max_size=3))
def test_property_laurent_product_is_the_product(p, factors):
    want = scalars._laurent(p)
    for s in factors:
        want = want * s
    got = scalars.laurent_product(p, factors)
    assert got == want
    assert _canonical(got) and _factorization_holds(got)


# -- the two reduction rules ---------------------------------------------------

@PROPS
@given(_fractions(), _fractions())
def test_property_factored_operands_reduce_without_gcd(a, b):
    # factored denominators, monomials included, reduce through _reduced:
    # sums, differences, products and quotients never reach the gcd
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        real = scalars._pgcd
        mp.setattr(scalars, "_pgcd",
                   lambda x, y: calls.append(1) or real(x, y))
        if scalars._factored(a) is not False:
            if scalars._factored(b) is not False:
                results.update(add=a + b, sub=a - b, mul=a * b)
            if not b.is_zero() and scalars._factored(b.inverse()) is not False:
                results["div"] = a / b
        assert calls == []
    for op, s in results.items():
        assert scalars._factored(s) is not False, op
        assert _factorization_holds(s), op
        assert (s.num, s.den) == _ref_op(op, a, b), op


def test_reduction_examples():
    qq = Scalar({1: 1}, {2: 1, 0: -1})            # q/(q^2 - 1)
    x = qq + Scalar({0: 1}, {2: 1, 0: -1})        # + 1/(q^2 - 1)
    assert str(x) == "1/(q - 1)" and x._fac == (1, 0, ((1, 1),))
    x = Scalar({0: 1}, {1: 2}) + Scalar({0: 1}, {2: 6})
    assert str(x) == "(3*q + 1)/(6*q^2)" and x._fac == (6, 2, ())
    x = Scalar({0: 1}, {1: 2}) * Scalar({0: 2}, {1: 1})
    assert str(x) == "1/q^2" and x._fac == (1, 2, ())
    odd = {0: 2, 1: 1, 2: 1}                       # q^2 + q + 2
    x = Scalar({0: 1}, odd) * Scalar(odd, {0: 1, 1: 2})
    assert str(x) == "1/(2*q + 1)" and scalars._factored(x) is False


def test_subst_q_power_rejects_exponents_below_one():
    x = Scalar({0: 1}, {0: -1, 1: 1})             # 1/(q - 1)
    for d in (0, -1):
        with pytest.raises(ValueError):
            x.subst_q_power(d)
