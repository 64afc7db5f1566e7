"""Drinfeld pairing, canonical coordinates, and the Serre-ideal oracle."""

import random
from itertools import permutations

import pytest

from qpbw.pairing import Pairing, canonical_coords, eq_mod_serre, \
    words_of_weight
from qpbw.pbw import pbw_coords, pbw_monomial
from qpbw.rootdata import CartanType, weights_of_height
from qpbw.scalars import Scalar, c_const, qint
from qpbw.uqcore import UElement, divided_e_power

from tau_reference import tau_words_ref

ONE = Scalar.from_int(1)


def test_tau_generators():
    ct = CartanType("A2")
    pr = Pairing(ct)
    dq = (Scalar.q_power(1) - Scalar.q_power(-1)).inverse()
    assert pr.tau_words((0,), (0,)) == dq
    assert pr.tau_words((0,), (1,)).is_zero()


def test_tau_words_is_symmetric():
    # tau(e_E, f_F) = tau(e_F, f_E) for every pair of words of one weight,
    # by the reference recursion, which peels the last letter of E only
    for name, top in (("A2", 4), ("B2", 4), ("G2", 4), ("A3", 3)):
        ct = CartanType(name)
        for h in range(top + 1):
            for gamma in weights_of_height(ct, h):
                words = words_of_weight(ct, gamma)
                for k, E in enumerate(words):
                    for F in words[k + 1:]:
                        assert tau_words_ref(ct, E, F) \
                            == tau_words_ref(ct, F, E), (name, E, F)


# every weight up to height 4 on the rank-2 types, height 3 on A3
NUMERATOR_CASES = (("A2", 4), ("B2", 4), ("G2", 4), ("A3", 3))


def _weights_with_words(name, top):
    ct = CartanType(name)
    for h in range(top + 1):
        for gamma in weights_of_height(ct, h):
            yield ct, gamma, words_of_weight(ct, gamma)


def _tau_mismatches(name, top):
    """The ordered word pairs up to the height top, in order, on which
    Pairing.tau_words (N(E, F) / D_beta) differs from the reference
    recursion; the memo of N is keyed on the unordered pair, the memo of
    tau_words on the ordered one."""
    out = []
    for ct, gamma, words in _weights_with_words(name, top):
        pr = Pairing(ct)
        for E in words:
            for F in words:
                if pr.tau_words(E, F) != tau_words_ref(ct, E, F):
                    out.append((E, F))
    return out


def test_numerator_over_denominator_is_tau_words():
    for name, top in NUMERATOR_CASES:
        assert _tau_mismatches(name, top) == [], name


def test_wrong_shift_in_the_numerator_is_named(monkeypatch):
    # N of one A2 word pair at height 3 shifted by q: the comparison with
    # the reference names that pair and no other
    target = ((0, 1, 0), (1, 0, 0))
    numerator = Pairing.numerator

    def shifted(self, eword, fword):
        val = numerator(self, eword, fword)
        if (eword, fword) == target:
            val = {e + 1: v for e, v in val.items()}
        return val

    monkeypatch.setattr(Pairing, "_instances", {})
    monkeypatch.setattr(Pairing, "numerator", shifted)
    assert _tau_mismatches("A2", 3) == [target]


def _numerator_ordered(ct, eword, fword, memo):
    # the numerator recursion memoized on ordered pairs: it peels the last
    # letter of eword only, so N(F, E) is computed independently of N(E, F)
    if not eword:
        return {} if fword else {0: 1}
    key = (eword, fword)
    if key not in memo:
        j, row = eword[-1], ct.form[eword[-1]]
        total = {}
        for p, letter in enumerate(fword):
            if letter != j:
                continue
            shift = sum(row[b] for b in fword[p + 1:])
            sub = _numerator_ordered(ct, eword[:-1],
                                     fword[:p] + fword[p + 1:], memo)
            for e, v in sub.items():
                total[e - shift] = total.get(e - shift, 0) + v
        memo[key] = {e: v for e, v in total.items() if v}
    return memo[key]


def test_numerator_is_symmetric():
    for name, top in NUMERATOR_CASES:
        memo = {}
        for ct, gamma, words in _weights_with_words(name, top):
            pr = Pairing(ct)
            for E in words:
                for F in words:
                    ordered = _numerator_ordered(ct, E, F, memo)
                    assert ordered == _numerator_ordered(ct, F, E, memo), \
                        (name, E, F)
                    assert pr.numerator(E, F) == ordered, (name, E, F)


def test_numerator_of_words_of_different_weights_vanishes():
    pr = Pairing(CartanType("B2"))
    assert pr.numerator((0, 1), (0, 0)) == {}
    assert pr.numerator((0,), (0, 1)) == {}
    assert pr.numerator((), (1,)) == {}
    assert pr.numerator((), ()) == {0: 1}


def test_tau_b2_qi():
    ct = CartanType("B2")
    pr = Pairing(ct)
    d = ct.qi(0)
    dq = (Scalar.q_power(d) - Scalar.q_power(-d)).inverse()
    assert pr.tau_words((0,), (0,)) == dq


def test_tau_e11_f11():
    ct = CartanType("A1")
    pr = Pairing(ct)
    # tau(e^2, f^2) = c(2): dividing the e side by [2]! gives c(2)/[2]!,
    # the orthogonality constant of the divided-power bases
    assert pr.tau_words((0, 0), (0, 0)) == c_const(2)
    two = qint(2)
    e2 = divided_e_power(ct, 0, 2)
    f2 = UElement.f_word(ct, (0, 0))
    assert pr.tau(e2, f2) == c_const(2) / two


def test_tau_k_rules():
    ct = CartanType("A2")
    pr = Pairing(ct)
    k1 = UElement.k(ct, ct.alpha(0))
    k2 = UElement.k(ct, ct.alpha(1))
    assert pr.tau(k1, k2) == Scalar.q_power(-1)
    assert pr.tau(UElement.e(ct, 0), k2).is_zero()
    assert pr.tau(k1, UElement.f(ct, 0)).is_zero()


def test_tau_antipode_invariance():
    ct = CartanType("B2")
    pr = Pairing(ct)
    rng = random.Random(17)
    for _ in range(10):
        ew = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        fw = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        x = UElement.e_word(ct, ew)
        y = UElement.f_word(ct, fw)
        assert pr.tau(x.antipode(), y.antipode()) == pr.tau(x, y)


def test_tau_coproduct_flip_law():
    # (tau x tau)(Delta(x), y2 x y1) = tau(x, y1 y2)
    ct = CartanType("A2")
    pr = Pairing(ct)
    rng = random.Random(23)
    for _ in range(10):
        ew = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        f1 = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        f2 = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        x = UElement.e_word(ct, ew)
        y1 = UElement.f_word(ct, f1)
        y2 = UElement.f_word(ct, f2)
        lhs = Scalar.from_int(0)
        for (ma, mb), c in x.coproduct().terms.items():
            lhs = lhs + c * pr.tau(UElement(ct, {ma: ONE}), y2) \
                * pr.tau(UElement(ct, {mb: ONE}), y1)
        assert lhs == pr.tau(x, y1 * y2)


def test_weight_mismatch_vanishes():
    ct = CartanType("B2")
    pr = Pairing(ct)
    assert pr.tau_words((0, 1), (0, 0)).is_zero()
    assert pr.tau_words((0,), (0, 1)).is_zero()


def test_serre_element_is_zero():
    ct = CartanType("A2")
    e1, e2 = UElement.e(ct, 0), UElement.e(ct, 1)
    serre = (e1 * e1 * e2 - (e1 * e2 * e1).scale(qint(2))
             + e2 * e1 * e1)
    assert not serre.is_zero()  # free normal form is nonzero...
    assert canonical_coords(serre) == {}  # ...but lies in the Serre ideal
    assert all(c.is_zero() for c in canonical_coords(serre).values()) or \
        not canonical_coords(serre)


def test_pbw_coords_unit_vectors():
    ct = CartanType("A2")
    word = (0, 1, 0)
    for n in ((1, 0, 0), (0, 1, 0), (1, 0, 1)):
        x = pbw_monomial(ct, "ehat", word, n)
        coords = pbw_coords(ct, x, word)
        assert coords == {n: ONE}


def test_pbw_coords_expansion():
    ct = CartanType("A2")
    word = (0, 1, 0)
    x = UElement.e(ct, 1) * UElement.e(ct, 0)
    coords = pbw_coords(ct, x, word)
    rebuilt = UElement.zero(ct)
    for n, c in coords.items():
        rebuilt = rebuilt + pbw_monomial(ct, "ehat", word, n).scale(c)
    assert pbw_coords(ct, rebuilt, word) == coords
    assert eq_mod_serre(rebuilt, x)


def test_tau_rejects_wrong_sides():
    ct = CartanType("A1")
    pr = Pairing(ct)
    with pytest.raises(ValueError):
        pr.tau(UElement.f(ct, 0), UElement.f(ct, 0))


def test_words_of_weight_are_the_distinct_orderings():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for h in range(8):
            for ga in weights_of_height(ct, h):
                letters = [i for i, m in enumerate(ga) for _ in range(m)]
                assert words_of_weight(ct, ga) == \
                    sorted(set(permutations(letters))), (name, ga)
    assert words_of_weight(CartanType("A2"), (0, 0)) == [()]


def test_words_of_weight_rejects_negative_coordinates():
    ct = CartanType("B2")
    for ga in ((-1, 0), (2, -1), (-1, -1)):
        with pytest.raises(ValueError):
            words_of_weight(ct, ga)
