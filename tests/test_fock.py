"""Slot modules: sl2 action, basis change between words, ladder operator."""

import pytest

from qpbw import fock, pbw
from qpbw.fock import FockVector, TruncationError, conj1_operator, \
    koy_transform, sigma_scalar, sl2_act
from qpbw.rootdata import (CartanType, all_reduced_words, exponent_weight,
                           weights_of_height)
from qpbw.scalars import Scalar

ONE = Scalar.from_int(1)
ZERO = Scalar.from_int(0)


def basis(ct, word, exps):
    return FockVector.basis(ct, word, tuple(exps))


def vacuum(ct, word):
    return FockVector.basis(ct, word, (0,) * len(word))


def leg_act(ct, g, r, v: FockVector) -> FockVector:
    """Action of g in {a,b,c,d} on the r-th tensor slot (0-based) of v,
    through the rank-1 rules at index word[r]."""
    i = v.word[r]
    terms = {}
    for n, c in v.terms.items():
        coeff, nr2 = fock._leg_act(ct, g, i, n[r])
        if coeff is not None:
            key = n[:r] + (nr2,) + n[r + 1:]
            terms[key] = terms.get(key, ZERO) + c * coeff
    return FockVector(ct, v.word, terms)


def test_sl2_action_rules():
    ct = CartanType("A1")
    word = (0,)
    p0 = basis(ct, word, (0,))
    p1 = basis(ct, word, (1,))
    # a p(1) = (1 - q^2) p(0);  a p(0) = 0
    want = p0.scale(ONE - Scalar.q_power(2))
    assert sl2_act(ct, "a", 0, p1) == want
    assert sl2_act(ct, "a", 0, p0).is_zero()
    # c p(0) = -q p(0)
    assert sl2_act(ct, "c", 0, p0) == p0.scale(-Scalar.q_power(1))
    # d always shifts up; b diagonal
    assert sl2_act(ct, "d", 0, p0) == p1
    assert sl2_act(ct, "b", 0, p1) == p1.scale(Scalar.q_power(1))


def test_quantum_determinant():
    ct = CartanType("A1")
    word = (0,)
    for n in range(6):
        v = basis(ct, word, (n,))
        ad = sl2_act(ct, "a", 0, sl2_act(ct, "d", 0, v))
        bc = sl2_act(ct, "b", 0, sl2_act(ct, "c", 0, v))
        assert ad - bc.scale(Scalar.q_power(1)) == v


def test_sl2_qi_scaling():
    # in B2 the long-root slot uses q_i = q^2
    ct = CartanType("B2")
    word = tuple(sorted(all_reduced_words(ct, ct.longest_word()))[0])
    i = word[0]
    d = ct.qi(i)
    v = vacuum(ct, word)
    got = leg_act(ct, "c", 0, v)
    assert got == v.scale(-Scalar.q_power(d))


def test_koy_transform_identity_and_vacuum():
    ct = CartanType("A2")
    wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
    v = basis(ct, wa, (1, 0, 1))
    assert koy_transform(ct, wa, wa, v) == v
    vac = vacuum(ct, wa)
    assert koy_transform(ct, wa, wb, vac) == vacuum(ct, wb)


def test_unknown_d_reading_is_rejected_up_front():
    # also where nothing is transformed: the same word, or the zero vector
    ct = CartanType("A2")
    wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
    v = basis(ct, wa, (1, 0, 1))
    zero = FockVector.zero(ct, wa)
    calls = [lambda: koy_transform(ct, wa, wa, v, "bogus"),
             lambda: koy_transform(ct, wa, wb, zero, "bogus"),
             lambda: koy_transform(ct, wa, wb, v, "bogus"),
             lambda: conj1_operator(ct, wa, 0, zero, "bogus"),
             lambda: conj1_operator(ct, wa, 0, v, "bogus")]
    for call in calls:
        with pytest.raises(ValueError, match="unknown d-reading 'bogus'"):
            call()


def test_koy_transform_roundtrip():
    ct = CartanType("B2")
    wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
    for exps in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1)):
        v = basis(ct, wa, exps)
        there = koy_transform(ct, wa, wb, v)
        back = koy_transform(ct, wb, wa, there)
        assert back == v


def test_koy_transform_two_terms():
    ct = CartanType("A2")
    v = basis(ct, (1, 0, 1), (0, 1, 0))
    got = koy_transform(ct, (1, 0, 1), (0, 1, 0), v)
    assert len(got.terms) == 2
    assert exponent_weight(ct, got.word, (0, 1, 0), "suffix") == (1, 1)


def test_sigma_scalar():
    ct = CartanType("A1")
    word = (0,)
    v = basis(ct, word, (3,))
    assert sigma_scalar(ct, (0,), v) == v
    vac = vacuum(ct, word)
    assert sigma_scalar(ct, (5,), vac) == vac
    # lambda = -antifundamental: q^{n (pi_1, alpha_1)} with (pi_1, alpha_1)=1
    assert sigma_scalar(ct, (-1,), v) == v.scale(Scalar.q_power(3))


def test_conj1_vacuum_a1():
    ct = CartanType("A1")
    vac = vacuum(ct, (0,))
    got = conj1_operator(ct, (0,), 0, vac)
    # c_{0,1} = 1 and d(0)/d(1) = 1/(1-q^2)
    want = basis(ct, (0,), (1,)).scale(
        (ONE - Scalar.q_power(2)).inverse())
    assert got == want


def test_conj1_weight_shift():
    ct = CartanType("A2")
    word = (0, 1, 0)
    v = basis(ct, word, (1, 0, 0))
    got = conj1_operator(ct, word, 1, v)
    for n in got.terms:
        assert exponent_weight(ct, word, n, "suffix") == (1, 1)


def test_conj1_sigma_commutation():
    # sigma_lam conj1_i = q^{-(lam, alpha_i')} conj1_i sigma_lam where
    # i' is the index dual to i under -w0 (the slot grading is twisted)
    ct = CartanType("A2")
    word = (0, 1, 0)
    lam = (1, -2)
    for exps in ((0, 0, 0), (1, 0, 0), (0, 1, 0)):
        v = basis(ct, word, exps)
        for i in range(2):
            lhs = sigma_scalar(ct, lam, conj1_operator(ct, word, i, v))
            rhs = conj1_operator(ct, word, i, sigma_scalar(ct, lam, v))
            pairing = ct.pair_pq(lam, ct.alpha(1 - i))
            assert lhs == rhs.scale(Scalar.q_power(-int(pairing)))


def test_truncation_error():
    ct = CartanType("A1")
    v = basis(ct, (0,), (9,))
    with pytest.raises(TruncationError):
        koy_transform(ct, (0,), (0,), v, height=3)


def test_fock_json():
    ct = CartanType("A2")
    v = basis(ct, (0, 1, 0), (1, 0, 0)).scale(Scalar.q_power(-1))
    js = v.to_json()
    assert js["word"] == [1, 2, 1]
    assert js["terms"] == [{"exps": [1, 0, 0], "coeff": "1/q"}]


def _basis_change_images(d_reading, cold=False):
    """koy_transform and conj1_operator images of a few basis vectors on A2
    and B2; cold=True empties the PBW block store before each call."""
    def fresh(op, *args):
        if cold:
            pbw.clear_store()
        return op(*args, d_reading)

    out = []
    for name in ("A2", "B2"):
        ct = CartanType(name)
        wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
        for exps in ((0,) * len(wa), (1,) + (0,) * (len(wa) - 1),
                     (0, 1) + (0,) * (len(wa) - 2), (1, 0, 1, 0)[:len(wa)]):
            v = basis(ct, wa, exps)
            out.append(fresh(koy_transform, ct, wa, wb, v))
            out += [fresh(conj1_operator, ct, wa, i, v)
                    for i in range(ct.rank)]
    return out


def test_store_cold_and_warm_vectors_agree():
    cold = {r: _basis_change_images(r, cold=True) for r in fock.D_READINGS}
    assert cold["qi"] != cold["q"]
    pbw.clear_store()
    for d_reading in fock.D_READINGS:
        assert _basis_change_images(d_reading) == cold[d_reading]


def test_d_word_inverse_is_kept_next_to_the_constant():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        word = ct.longest_word()
        for n in ((0,) * len(word), (1,) + (0,) * (len(word) - 1),
                  tuple(range(len(word)))):
            for reading in fock.D_READINGS:
                d = fock.d_word_const(ct, word, n, reading)
                inv = fock.d_word_inverse(ct, word, n, reading)
                assert d * inv == Scalar.from_int(1)
                assert inv is fock.d_word_inverse(ct, word, n, reading)


# -- the u-basis table against transition x d-ratio ------------------------
#
# Each reading is checked in a loop over D_READINGS: the q reading is the qi
# table conjugated by rho = d^q / d^qi, and the references below divide by
# d(n') directly.

def _ratio_rows(ct, from_word, to_word, gamma, reading):
    """The reference koy block: ehat transition entries times
    d(n) / d(n'), with the transition from the pairing engine."""
    out = {}
    for n, row in pbw.transition_matrix(ct, "ehat", from_word, to_word,
                                        gamma).items():
        dn = fock.d_word_const(ct, from_word, n, reading)
        out[n] = {n2: a * dn / fock.d_word_const(ct, to_word, n2, reading)
                  for n2, a in row.items()}
    return out


def _ladder_rows(ct, word, i, gamma, reading):
    """The reference conj1 rows: emul_constants times d(n) / d(n')."""
    out = {n: {} for n in pbw.indices_of_weight(ct, "ehat", word, gamma)}
    for (n, n2), c in pbw.emul_constants(ct, word, i, gamma).items():
        out[n][n2] = (c * fock.d_word_const(ct, word, n, reading)
                      / fock.d_word_const(ct, word, n2, reading))
    return out


def _words(name):
    ct = CartanType(name)
    return ct, sorted(all_reduced_words(ct, ct.longest_word()))


def _assert_koy_blocks_match(ct, pairs, height):
    for from_word, to_word in pairs:
        for h in range(height + 1):
            for gamma in weights_of_height(ct, h):
                for reading in fock.D_READINGS:
                    for n, want in _ratio_rows(ct, from_word, to_word, gamma,
                                               reading).items():
                        got = koy_transform(ct, from_word, to_word,
                                            basis(ct, from_word, n), reading,
                                            height)
                        assert got.terms == want, (ct.name, from_word,
                                                   to_word, n, reading)


@pytest.mark.parametrize("name,height", [("A2", 6), ("B2", 5), ("G2", 4)])
def test_u_table_koy_blocks_equal_transition_times_d_ratio(name, height):
    ct, (wa, wb) = _words(name)
    _assert_koy_blocks_match(ct, ((wa, wb), (wb, wa)), height)


def test_u_table_koy_blocks_equal_transition_times_d_ratio_a3():
    ct, words = _words("A3")
    assert len(words) == 16
    _assert_koy_blocks_match(ct, [(words[0], w) for w in words[1:]], 3)


@pytest.mark.parametrize("name,height", [("A2", 4), ("B2", 4), ("G2", 4),
                                         ("A3", 3)])
def test_u_table_ladder_rows_equal_emul_constants_times_d_ratio(name,
                                                               height):
    ct, words = _words(name)
    for word in words[:3]:
        for i in range(ct.rank):
            for h in range(height + 1):
                for gamma in weights_of_height(ct, h):
                    for reading in fock.D_READINGS:
                        for n, want in _ladder_rows(ct, word, i, gamma,
                                                    reading).items():
                            got = conj1_operator(ct, word, i,
                                                 basis(ct, word, n), reading,
                                                 height + 1)
                            assert got.terms == want, (name, word, i, n,
                                                       reading)


def test_u_table_constant_outside_its_slots_is_named(monkeypatch):
    ct, (word, _) = _words("A2")
    table = fock._UTable(ct, word)
    bad = {(0, 0, 1): Scalar.from_int(1)}
    monkeypatch.setattr(fock, "pbw_coords", lambda *args: bad)
    with pytest.raises(ValueError, match=r"s=1, r=3 at the monomial "
                       r"\[0, 0, 1\] is outside"):
        table.constants(0, 2)
    bad = {(0, 1, 0): Scalar({0: 1}, {0: 2})}
    with pytest.raises(ValueError, match=r"s=1, r=3 at the monomial "
                       r"\[0, 1, 0\] is not a Laurent"):
        table.constants(0, 2)


def test_conj1_needs_alpha_i_among_the_prefix_roots():
    ct = CartanType("A2")
    # the prefix roots of (1, 2) are alpha_1 and alpha_1 + alpha_2
    with pytest.raises(ValueError, match="no prefix root of .* is alpha_2"):
        conj1_operator(ct, (0, 1), 1, vacuum(ct, (0, 1)))
