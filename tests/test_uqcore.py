"""Triangular normal forms and Hopf structure maps."""

import random

import pytest

from qpbw import braid, uqcore
from qpbw.rootdata import CartanType
from qpbw.scalars import Scalar
from qpbw.scalars import common_denominator, laurent_product, qint
from qpbw.uqcore import UElement, UTensor, divided_e_power

ONE = Scalar.from_int(1)


def test_ef_commutator_a1():
    ct = CartanType("A1")
    e, f = UElement.e(ct, 0), UElement.f(ct, 0)
    k, kinv = UElement.k_i(ct, 0), UElement.k_i(ct, 0, -1)
    dq = (Scalar.q_power(1) - Scalar.q_power(-1)).inverse()
    assert e * f == f * e + (k - kinv).scale(dq)


def test_ef_distinct_indices_commute():
    ct = CartanType("A2")
    e1, f2 = UElement.e(ct, 0), UElement.f(ct, 1)
    assert e1 * f2 == f2 * e1


def test_k_e_commutation():
    ct = CartanType("A1")
    k, e = UElement.k(ct, ct.alpha(0)), UElement.e(ct, 0)
    assert k * e == (e * k).scale(Scalar.q_power(2))


def test_coproducts():
    ct = CartanType("A2")
    e1, f1 = UElement.e(ct, 0), UElement.f(ct, 0)
    k1 = UElement.k_i(ct, 0)
    k1inv = UElement.k_i(ct, 0, -1)
    one = UElement.one(ct)
    assert e1.coproduct() == UTensor.of(e1, one) + UTensor.of(k1, e1)
    assert f1.coproduct() == UTensor.of(f1, k1inv) + UTensor.of(one, f1)
    kg = UElement.k(ct, (1, 1))
    assert kg.coproduct() == UTensor.of(kg, kg)


def test_antipode_and_counit():
    ct = CartanType("A1")
    e, f = UElement.e(ct, 0), UElement.f(ct, 0)
    k = UElement.k_i(ct, 0)
    kinv = UElement.k_i(ct, 0, -1)
    assert e.antipode() == -(kinv * e)
    assert f.antipode() == -(f * k)
    assert UElement.k(ct, (3,)).counit() == ONE
    assert e.counit().is_zero() and f.counit().is_zero()
    assert (e * f).antipode() == f * e


def _random_uelement(ct, rng):
    x = UElement.zero(ct)
    for _ in range(rng.randint(1, 3)):
        fw = tuple(rng.randrange(ct.rank) for _ in range(rng.randint(0, 2)))
        ew = tuple(rng.randrange(ct.rank) for _ in range(rng.randint(0, 2)))
        kap = tuple(rng.randint(-1, 1) for _ in range(ct.rank))
        t = UElement.f_word(ct, fw) * UElement.k(ct, kap) * \
            UElement.e_word(ct, ew)
        x = x + t.scale(Scalar.from_int(rng.randint(-3, 3)))
    return x


def test_associativity_random():
    rng = random.Random(5)
    for name in ("A2", "B2"):
        ct = CartanType(name)
        for _ in range(10):
            x, y, z = (_random_uelement(ct, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_hopf_axioms_random():
    rng = random.Random(9)
    ct = CartanType("B2")
    for _ in range(8):
        x = _random_uelement(ct, rng)
        cp = x.coproduct()
        # counit axiom both sides
        left = UElement.zero(ct)
        right = UElement.zero(ct)
        for (ma, mb), c in cp.terms.items():
            left = left + UElement(ct, {mb: c * UElement(
                ct, {ma: ONE}).counit()})
            right = right + UElement(ct, {ma: c * UElement(
                ct, {mb: ONE}).counit()})
        assert left == x and right == x
        # antipode axiom both sides
        conv_l = UElement.zero(ct)
        conv_r = UElement.zero(ct)
        for (ma, mb), c in cp.terms.items():
            conv_l = conv_l + (UElement(ct, {ma: c}).antipode()
                               * UElement(ct, {mb: ONE}))
            conv_r = conv_r + (UElement(ct, {ma: c})
                               * UElement(ct, {mb: ONE}).antipode())
        want = UElement.one(ct).scale(x.counit())
        assert conv_l == want and conv_r == want


def test_antipode_square_is_k_conjugation():
    rng = random.Random(13)
    ct = CartanType("A2")
    for _ in range(8):
        fw = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        ew = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        x = UElement.f_word(ct, fw) * UElement.e_word(ct, ew)
        # S^2 is conjugation by k_{-2 rho}
        ss = x.antipode().antipode()
        two_rho = tuple(sum(col) for col in zip(*ct.pos_roots))
        k = UElement.k(ct, tuple(-c for c in two_rho))
        kinv = UElement.k(ct, two_rho)
        assert ss == k * x * kinv


def test_no_zero_coefficient_is_stored():
    # the kernels build their term dicts without zeros and hand them to
    # UElement/UTensor unfiltered; differences and commutators cancel
    rng = random.Random(17)
    for name in ("A2", "B2"):
        ct = CartanType(name)
        for _ in range(6):
            x, y = _random_uelement(ct, rng), _random_uelement(ct, rng)
            dx = x.coproduct()
            out = [x * y, y * x, x * y + (-(y * x)), x - x, x + y - y,
                   x.scale(Scalar.q_power(1)), (x * y).coproduct(),
                   dx * y.coproduct(), dx + dx,
                   UTensor.of(x, -x) + UTensor.of(x, x),
                   x.antipode(), x.antipode_inv(), x.a_involution(),
                   (x * y).antipode() - y.antipode() * x.antipode()]
            out += [t(ct, i, x, plus=plus)
                    for t in (braid.t_dot, braid.t_hat, braid.t_dot_inv,
                              braid.t_hat_inv)
                    for i in range(ct.rank) for plus in (False, True)]
            for z in out:
                assert not any(c.is_zero() for c in z.terms.values()), z
            assert (x - x).terms == {}


def test_antipode_inverse_roundtrip():
    rng = random.Random(21)
    ct = CartanType("B2")
    for _ in range(6):
        x = _random_uelement(ct, rng)
        assert x.antipode().antipode_inv() == x
        assert x.antipode_inv().antipode() == x


def test_grading_preserved():
    ct = CartanType("A2")
    x = UElement.e_word(ct, (0, 1)) * UElement.f(ct, 0)
    assert x.weight() == (0, 1)


def test_divided_powers():
    ct = CartanType("A1")
    e = UElement.e(ct, 0)
    two = qint(2)
    assert divided_e_power(ct, 0, 2).scale(two) == e * e


def test_debug_serialization():
    ct = CartanType("A2")
    x = UElement.f(ct, 0) * UElement.k(ct, (1, -1)) * UElement.e(ct, 0)
    assert "f1" in repr(x) and "e1" in repr(x) and "k[1,-1]" in repr(x)


# -- differential tests: the memoized tensor product and the one-division
# f-commutator against the plain loops they replace --------------------

def _ref_rmul_f(ct, terms, j, plus=False):
    """Right multiplication by f_j, dividing each commutator term by
    q_j - q_j^{-1} on its own."""
    alpha_j = ct.alpha(j)
    dj = ct.qi(j)
    denom = Scalar.q_power(dj) - Scalar.q_power(-dj)
    acc = {}
    for (F, kappa, E), c in terms.items():
        if not plus:
            shift = -ct.pair_qq(kappa, alpha_j)
            uqcore._add_term(acc, (F + (j,), kappa, E),
                             c * Scalar.q_power(shift))
        for p, i in enumerate(E):
            if i != j:
                continue
            w = uqcore._fword_weight(ct, E[:p])
            E2 = E[:p] + E[p + 1:]
            s = ct.pair_qq(alpha_j, w)
            kp = tuple(a + b for a, b in zip(kappa, alpha_j))
            km = tuple(a - b for a, b in zip(kappa, alpha_j))
            uqcore._add_term(acc, (F, kp, E2),
                             c * Scalar.q_power(-s) / denom)
            uqcore._add_term(acc, (F, km, E2),
                             -(c * Scalar.q_power(s) / denom))
    return acc


def _ref_rmul_k(ct, terms, gamma):
    """Right multiplication by k_gamma, which passes e_E at the cost
    q^{-(gamma, wt E)}, the pairing taken on the whole weight."""
    acc = {}
    for (F, kappa, E), c in terms.items():
        shift = -ct.pair_qq(gamma, uqcore._fword_weight(ct, E))
        kap2 = tuple(a + b for a, b in zip(kappa, gamma))
        uqcore._add_term(acc, (F, kap2, E), c * Scalar.q_power(shift))
    return acc


def _ref_rmul_mono(ct, terms, mono):
    F, kappa, E = mono
    cur = dict(terms)
    for j in F:
        cur = _ref_rmul_f(ct, cur, j)
    if any(kappa):
        cur = _ref_rmul_k(ct, cur, kappa)
    return {(F1, k1, E1 + E): c for (F1, k1, E1), c in cur.items()}


def _ref_tensor_mul(x, y):
    """x * y in U x U, each monomial product recomputed where it is used."""
    ct = x.ct
    acc = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            left = _ref_rmul_mono(ct, {a1: ONE}, a2)
            right = _ref_rmul_mono(ct, {b1: ONE}, b2)
            cc = c1 * c2
            for ma, ca in left.items():
                for mb, cb in right.items():
                    uqcore._add_term(acc, (ma, mb), cc * ca * cb)
    return UTensor(ct, acc)


def _random_mono(ct, rng, max_len=3):
    def word():
        return tuple(rng.randrange(ct.rank)
                     for _ in range(rng.randint(0, max_len)))
    return word(), tuple(rng.randint(-2, 2) for _ in range(ct.rank)), word()


def _random_coeff(rng):
    c = Scalar.from_int(rng.choice((-3, -1, 1, 2, 5)))
    c = c * Scalar.q_power(rng.randint(-2, 2))
    if rng.random() < 0.5:
        c = c / qint(rng.randint(2, 3))
    return c


def _random_tensor(ct, rng):
    return UTensor(ct, {(_random_mono(ct, rng), _random_mono(ct, rng)):
                        _random_coeff(rng)
                        for _ in range(rng.randint(2, 4))})


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_rmul_f_matches_reference(name):
    rng = random.Random(31)
    ct = CartanType(name)
    for _ in range(40):
        terms = {_random_mono(ct, rng, 4): _random_coeff(rng)
                 for _ in range(rng.randint(1, 4))}
        j = rng.randrange(ct.rank)
        assert uqcore._rmul_f(ct, terms, j) == _ref_rmul_f(ct, terms, j)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_rmul_k_matches_reference(name):
    rng = random.Random(41)
    ct = CartanType(name)
    for _ in range(40):
        terms = {_random_mono(ct, rng, 4): _random_coeff(rng)
                 for _ in range(rng.randint(1, 4))}
        gamma = tuple(rng.randint(-2, 2) for _ in range(ct.rank))
        assert uqcore._rmul_k(ct, terms, gamma) \
            == _ref_rmul_k(ct, terms, gamma)


# -- the integral kernels, read back from the ê basis ----------------------

def _delta_word(ct, E):
    """prod_{l in E} (q_l - q_l^{-1}): e_E = ê_E / _delta_word(E)."""
    d = ONE
    for l in E:
        d = d * (Scalar.q_power(ct.qi(l)) - Scalar.q_power(-ct.qi(l)))
    return d


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_qdiff_product_is_the_word_factor(name):
    # D_{wt E} on every word up to length 4, one object per letter multiset
    ct = CartanType(name)
    seen = {}
    words = [()]
    for _ in range(4):
        words = [w + (l,) for w in words for l in range(ct.rank)]
        for E in words:
            gamma = uqcore._fword_weight(ct, E)
            d = uqcore.qdiff_product(ct, gamma)
            assert d == _delta_word(ct, E), (name, E)
            assert seen.setdefault(tuple(sorted(E)), d) is d, (name, E)
    assert uqcore.qdiff_product(ct, ct.zero()) == ONE


def _to_hat(ct, terms):
    """Integral ê-basis numerators of a Scalar term dict, and 1/L."""
    monos = list(terms)
    nums, inv = common_denominator([terms[m] / _delta_word(ct, m[2])
                                    for m in monos])
    return dict(zip(monos, nums)), inv


def _from_hat(ct, terms, inv):
    out = {}
    for m, p in terms.items():
        p = {e: v for e, v in p.items() if v}
        assert p, "a coefficient that cancelled was kept"
        out[m] = laurent_product(p, (inv, _delta_word(ct, m[2])))
    return out


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_integral_rmul_f_matches_reference(name):
    rng = random.Random(31)
    ct = CartanType(name)
    for _ in range(40):
        terms = {_random_mono(ct, rng, 4): _random_coeff(rng)
                 for _ in range(rng.randint(1, 4))}
        j = rng.randrange(ct.rank)
        nums, inv = _to_hat(ct, terms)
        for plus in (False, True):
            assert _from_hat(ct, uqcore._rmul_int_f(ct, nums, j, plus),
                             inv) == _ref_rmul_f(ct, terms, j, plus)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_int_mul_matches_reference(name):
    rng = random.Random(43)
    ct = CartanType(name)
    for _ in range(20):
        left, right = ({_random_mono(ct, rng, 3): _random_coeff(rng)
                        for _ in range(rng.randint(1, 3))}
                       for _ in range(2))
        want = {}
        for m2, c2 in right.items():
            for m, c in _ref_rmul_mono(ct, left, m2).items():
                uqcore._add_term(want, m, c * c2)
        (lnums, linv), (rnums, rinv) = _to_hat(ct, left), _to_hat(ct, right)
        got = uqcore.int_mul(ct, lnums, rnums)
        assert _from_hat(ct, got, linv * rinv) == want
        # the terms come out in the order of the Scalar kernels
        assert list(got) == list(
            (UElement(ct, left) * UElement(ct, right)).terms)
        # with plus, the f-free terms of an f-free left times right
        free = {m: c for m, c in left.items() if not m[0]}
        if free:
            want = {}
            for m2, c2 in right.items():
                for m, c in _ref_rmul_mono(ct, free, m2).items():
                    uqcore._add_term(want, m, c * c2)
            fnums, finv = _to_hat(ct, free)
            got = uqcore.int_mul(ct, fnums, rnums, plus=True)
            assert _from_hat(ct, got, finv * rinv) \
                == {m: c for m, c in want.items() if not m[0]}


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_tensor_mul_matches_reference(name):
    rng = random.Random(37)
    ct = CartanType(name)
    for _ in range(12):
        x, y = _random_tensor(ct, rng), _random_tensor(ct, rng)
        got = x * y
        assert got == _ref_tensor_mul(x, y)
        # the same product again comes from the memo, unchanged
        assert x * y == got


def test_tensor_mul_reads_memo(monkeypatch):
    ct = CartanType("B2")
    rng = random.Random(41)
    x, y = _random_tensor(ct, rng), _random_tensor(ct, rng)
    first = x * y

    def recompute(*args, **kwargs):
        raise AssertionError("a memoized monomial product was recomputed")

    monkeypatch.setattr(uqcore, "_rmul_mono", recompute)
    assert x * y == first
    monkeypatch.undo()
    # the shared entries still hold the products they were built from
    for (a1, b1) in x.terms:
        for (a2, b2) in y.terms:
            for m1, m2 in ((a1, a2), (b1, b2)):
                assert uqcore._products[(ct.name, m1, m2)] \
                    == uqcore._rmul_mono(ct, {m1: ONE}, m2)
