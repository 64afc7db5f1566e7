"""PBW monomials, weight blocks, transition matrices, e-multiplication."""

import hashlib
import itertools

import pytest

from qpbw import pbw
from qpbw.braid import E_FAMILIES, FAMILIES
from qpbw.pairing import eq_mod_serre
from qpbw.rootdata import (CartanType, all_reduced_words, kostant_count,
                           weights_of_height)
from qpbw.scalars import Scalar, c_const, qfact, qint
from qpbw.uqcore import UElement, _fword_weight

from tau_reference import tau_words_ref

ONE = Scalar.from_int(1)


def test_divided_power_conventions():
    ct = CartanType("A1")
    e = UElement.e(ct, 0)
    # hat family uses divided powers
    assert (pbw.pbw_monomial(ct, "ehat", (0,), (3,)).scale(qfact(3))
            == e * e * e)
    # tilde e family uses plain powers
    assert pbw.pbw_monomial(ct, "etilde", (0,), (3,)) == e * e * e
    # hat f family uses plain powers
    f = UElement.f(ct, 0)
    assert pbw.pbw_monomial(ct, "fhat", (0,), (2,)) == f * f


def test_monomial_ordering():
    ct = CartanType("A2")
    word = (0, 1, 0)
    # fhat^(1,0,1) = fhat_3 * fhat_1, descending slot order
    from qpbw import braid
    f3 = braid.root_vector(ct, "fhat", word, 3)
    f1 = braid.root_vector(ct, "fhat", word, 1)
    assert pbw.pbw_monomial(ct, "fhat", word, (1, 0, 1)) == f3 * f1
    # etilde^(n) = etilde_1^{n_1} ... etilde_m^{n_m}, ascending
    e2 = braid.root_vector(ct, "etilde", word, 2)
    assert pbw.pbw_monomial(ct, "etilde", word, (0, 2, 0)) == e2 * e2


def test_indices_of_weight_counts():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for word in all_reduced_words(ct, ct.longest_word()):
            for h in range(1, 5):
                for ga in weights_of_height(ct, h):
                    idx = pbw.indices_of_weight(ct, "ehat", word, ga)
                    assert len(idx) == kostant_count(ct, ga)
                    assert idx == sorted(idx)


def _enumerate_exponents(ct, roots, gamma):
    """Every n >= 0 with sum n_r beta_r = gamma, by a bounded product."""
    bounds = [min(g // b for g, b in zip(gamma, beta) if b) for beta in roots]
    return [n for n in itertools.product(*(range(b + 1) for b in bounds))
            if all(sum(k * beta[t] for k, beta in zip(n, roots)) == gamma[t]
                   for t in range(ct.rank))]


def test_indices_of_weight_memo_matches_a_fresh_enumeration():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for word in all_reduced_words(ct, ct.longest_word()):
            for family in ("ehat", "etilde"):
                roots = pbw.family_roots(ct, family, word)
                for h in range(1, 6):
                    for ga in weights_of_height(ct, h):
                        first = pbw.indices_of_weight(ct, family, word, ga)
                        assert first == _enumerate_exponents(ct, roots, ga)
                        first.append("junk")
                        again = pbw.indices_of_weight(ct, family, word,
                                                      list(ga))
                        assert again == first[:-1] and again is not first


def test_transition_identity_same_word():
    ct = CartanType("A2")
    word = (0, 1, 0)
    ga = (1, 1)
    m = pbw.transition_matrix(ct, "ehat", word, word, ga)
    for n, row in m.items():
        assert row == {n: ONE}


def test_transition_a2_invertible():
    ct = CartanType("A2")
    ga = (1, 1)
    fwd = pbw.transition_matrix(ct, "ehat", (1, 0, 1), (0, 1, 0), ga)
    bwd = pbw.transition_matrix(ct, "ehat", (0, 1, 0), (1, 0, 1), ga)
    assert len(fwd) == 2
    # composition is the identity block
    for n, row in fwd.items():
        acc = {}
        for mid, c in row.items():
            for tgt, c2 in bwd[mid].items():
                acc[tgt] = acc.get(tgt, Scalar.from_int(0)) + c * c2
        acc = {t: c for t, c in acc.items() if not c.is_zero()}
        assert acc == {n: ONE}


def test_transition_respects_monomials():
    ct = CartanType("B2")
    wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
    ga = (1, 1)
    m = pbw.transition_matrix(ct, "ehat", wa, wb, ga)
    for n, row in m.items():
        lhs = pbw.pbw_monomial(ct, "ehat", wa, n)
        rhs = UElement.zero(ct)
        for n2, c in row.items():
            rhs = rhs + pbw.pbw_monomial(ct, "ehat", wb, n2).scale(c)
        assert eq_mod_serre(lhs, rhs)


def test_emul_constants_a1():
    ct = CartanType("A1")
    for n in range(5):
        consts = pbw.emul_constants(ct, (0,), 0, (n,))
        assert consts == {((n,), (n + 1,)): qint(n + 1)}


def test_emul_constants_vacuum_row():
    ct = CartanType("A2")
    word = (0, 1, 0)
    consts = pbw.emul_constants(ct, word, 0, (0, 0))
    # ehat^(0) = 1, so the row expands e_1 itself: unit coordinate
    assert consts == {((0, 0, 0), (1, 0, 0)): ONE}


def test_expand_in_family_roundtrip():
    ct = CartanType("A2")
    word = (0, 1, 0)
    x = pbw.pbw_monomial(ct, "edot", word, (1, 1, 0))
    coords = pbw.expand_in_family(ct, x, "edot", word)
    assert coords == {(1, 1, 0): ONE}


def _blocks_up_to(ct, wa, wb, height, cold=False):
    """Every transition block between wa and wb up to the height, for all
    six families; cold=True empties the store before each block."""
    out = {}
    for family in FAMILIES:
        for h in range(1, height + 1):
            for ga in weights_of_height(ct, h):
                if cold:
                    pbw.clear_store()
                out[family, ga] = pbw.transition_matrix(ct, family, wa, wb,
                                                        ga)
    return out


def test_store_hit_equals_cold_recomputation():
    cases = [(CartanType(name), 3) for name in ("A2", "B2")]
    cases.append((CartanType("A3"), 2))
    for ct, height in cases:
        words = sorted(all_reduced_words(ct, ct.longest_word()))
        wa, wb = words[0], words[-1]
        cold = _blocks_up_to(ct, wa, wb, height, cold=True)
        pbw.clear_store()
        stored = _blocks_up_to(ct, wa, wb, height)
        hits = _blocks_up_to(ct, wa, wb, height)
        for k, block in stored.items():
            assert hits[k] is block
            assert block == cold[k], (ct.name, k)


def test_repeated_calls_return_the_stored_block():
    ct = CartanType("A2")
    first = pbw.transition_matrix(ct, "hat_e", [1, 0, 1], [0, 1, 0], [1, 1])
    again = pbw.transition_matrix(ct, "ehat", (1, 0, 1), (0, 1, 0), (1, 1))
    assert again is first
    consts = pbw.emul_constants(ct, [0, 1, 0], 1, [1, 0])
    assert pbw.emul_constants(ct, (0, 1, 0), 1, (1, 0)) is consts


def test_solve_linear_many_targets_at_once():
    # one elimination with every target as a right-hand side gives what a
    # solve per target gives, on a non-hat block of each rank-2 type
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        words = sorted(all_reduced_words(ct, ct.longest_word()))
        ga = (2, 3) if name == "G2" else (2, 2)
        idx, cols = pbw._family_columns(ct, "edot", words[1], ga, True)
        targets = [pbw.pbw_coords(ct, pbw.pbw_monomial(ct, "edot",
                                                       words[0], n),
                                  words[1])
                   for n in pbw.indices_of_weight(ct, "edot", words[0], ga)]
        together = pbw.solve_linear(cols, targets)
        assert together == [pbw.solve_linear(cols, [t])[0] for t in targets]
        # the solutions reproduce the targets
        for sol, t in zip(together, targets):
            got = {}
            for a, col in zip(sol, cols):
                for key, v in col.items():
                    got[key] = got.get(key, Scalar.from_int(0)) + a * v
            assert {k: v for k, v in got.items() if not v.is_zero()} == t
        bad = {("not", "in", "span"): ONE}
        with pytest.raises(ValueError, match="not in span"):
            pbw.solve_linear(cols, targets + [bad])


def test_hat_norm_is_the_orthogonality_constant():
    # prod_r c(n_r) / [n_r]! in the q_r = q^{d_{i_r}} of each slot
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for word in sorted(all_reduced_words(ct, ct.longest_word())):
            for h in range(1, 6):
                for ga in weights_of_height(ct, h):
                    for n in pbw.indices_of_weight(ct, "ehat", word, ga):
                        want = ONE
                        for i, nr in zip(word, n):
                            d = ct.qi(i)
                            want = want * c_const(nr, d) / qfact(nr, d)
                        assert pbw._hat_norm(ct.name, word, n) == want, \
                            (name, word, n)


def _tau_double_loop(ct, x, y):
    # tau(x, y) by the bilinear double loop over the word pairs of x and y,
    # on the reference recursion
    total = Scalar.from_int(0)
    for (Fx, kap, E), cx in x.terms.items():
        assert not Fx
        for (F, mu, Ey), cy in y.terms.items():
            assert not Ey
            base = tau_words_ref(ct, E, F)
            if base.is_zero():
                continue
            shift = ct.pair_qq(mu, _fword_weight(ct, F)) \
                + ct.pair_qq(kap, mu)
            total = total + base * cx * cy * Scalar.q_power(shift)
    return total


def _coords_by_double_loop(ct, x, word, eside):
    # hat coordinates with one double loop per dual hat monomial
    family = "fhat" if eside else "ehat"
    gamma = x.weight()
    if not eside:
        gamma = tuple(-g for g in gamma)
    out = {}
    for n in pbw.indices_of_weight(ct, family, word, gamma):
        y = pbw.pbw_monomial(ct, family, word, n)
        val = _tau_double_loop(ct, x, y) if eside \
            else _tau_double_loop(ct, y, x)
        if not val.is_zero():
            out[n] = val / pbw._hat_norm(ct.name, word, n)
    return out


def test_pbw_coords_match_the_pairing_double_loop():
    for name, height in (("A2", 3), ("B2", 3), ("G2", 4)):
        ct = CartanType(name)
        wa, wb = sorted(all_reduced_words(ct, ct.longest_word()))
        for family in FAMILIES:
            eside = family in E_FAMILIES
            for h in range(1, height + 1):
                for ga in weights_of_height(ct, h):
                    for n in pbw.indices_of_weight(ct, family, wa, ga):
                        x = pbw.pbw_monomial(ct, family, wa, n)
                        for word in (wa, wb):
                            assert pbw.pbw_coords(ct, x, word, eside) \
                                == _coords_by_double_loop(ct, x, word,
                                                          eside), \
                                (name, family, n, word)


def _block_sha(block):
    rows = sorted((n, sorted((n2, str(c)) for n2, c in row.items()))
                  for n, row in block.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of the G2 ehat blocks (0,1,0,1,0,1) -> (1,0,1,0,1,0) as computed
# with one pairing double loop per monomial pair; (4, 6) as computed with
# the Scalar dual vector of each row, before hat coordinates were taken
# over Z[q, q^-1]
G2_HAT_BLOCK_SHAS = {
    (2, 4): "cb900b7f59a861b383c32f76f19e36207aaad58946e2a34ae8a20d8808194f75",
    (3, 4): "46206695956fb7148dc8504b21a10b13c0195948ce81632cef767441d492c579",
    (3, 5): "a864911c6399f2c88982b890da3c14222c9b8f0af954c146f9b09f8449a44e8e",
    (4, 6): "991fbe76eeccb4bb397e9d733a6bf3c1361a34dfc85cbfb34c5c8481ae40d8c8",
}


def test_g2_hat_blocks_match_pinned_shas():
    ct = CartanType("G2")
    for ga, sha in G2_HAT_BLOCK_SHAS.items():
        block = pbw.transition_matrix(ct, "ehat", (0, 1, 0, 1, 0, 1),
                                      (1, 0, 1, 0, 1, 0), ga)
        assert _block_sha(block) == sha, ga


@pytest.mark.parametrize("eside", [True, False])
@pytest.mark.parametrize("bad", ["k-part", "wrong side"])
def test_dual_hat_block_rejects_terms_the_dual_vector_cannot_pair(
        monkeypatch, eside, bad):
    # the dual block's monomials are built from the integral root vectors,
    # which read braid.root_vector through pbw's name for it
    ct = CartanType("A2")
    word = (0, 1, 0)
    real = pbw.root_vector

    def spoiled(ct, family, word, r):
        y = real(ct, family, word, r)
        if bad == "k-part":
            return y * UElement.k_i(ct, 0)
        extra = UElement.e(ct, 0) if eside else UElement.f(ct, 0)
        return y * extra + y

    x = pbw.pbw_monomial(ct, "ehat" if eside else "fhat", word, (1, 1, 0))
    pbw.clear_store()
    monkeypatch.setattr(pbw, "root_vector", spoiled)
    family = "fhat" if eside else "ehat"
    try:
        with pytest.raises(ValueError, match="%s root vector [0-9] along "
                           r"\(0, 1, 0\) is not a combination of pure"
                           % family):
            pbw.pbw_coords(ct, x, word, eside)
    finally:
        pbw.clear_store()
