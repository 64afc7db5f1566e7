"""Cartan data, reduced words, and root sequences."""

from functools import lru_cache

import pytest

from qpbw.rootdata import (CartanType, all_reduced_words, exponent_weight,
                           format_word, kostant_count, parse_word,
                           prefix_roots, suffix_roots, weights_of_height,
                           weyl_dimension)


def alpha(ct, *idx):
    v = list(ct.zero())
    for i in idx:
        v[i] += 1
    return tuple(v)


def test_cartan_invariants():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for i in range(ct.rank):
            assert ct.a[i][i] == 2
            for j in range(ct.rank):
                if i != j:
                    assert ct.a[i][j] <= 0
                assert ct.d[i] * ct.a[i][j] == ct.d[j] * ct.a[j][i]
        assert min(ct.d) == 1  # short roots have (alpha, alpha) = 2


def test_reflections_a2():
    ct = CartanType("A2")
    assert ct.reflect_q(0, ct.alpha(0)) == (-1, 0)
    assert ct.reflect_q(0, ct.alpha(1)) == alpha(ct, 0, 1)
    for i in range(2):
        v = alpha(ct, 0, 1)
        assert ct.reflect_q(i, ct.reflect_q(i, v)) == v


def test_reflection_g2():
    ct = CartanType("G2")
    # alpha_2 short: s_2(alpha_1) = alpha_1 + 3 alpha_2
    assert ct.d[1] == 1 and ct.d[0] == 3
    assert ct.reflect_q(1, ct.alpha(0)) == alpha(ct, 0, 1, 1, 1)


def test_form_invariance():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        vecs = [ct.alpha(0), ct.alpha(1), alpha(ct, 0, 1)]
        for i in range(ct.rank):
            for v in vecs:
                for w in vecs:
                    assert (ct.pair_qq(ct.reflect_q(i, v), ct.reflect_q(i, w))
                            == ct.pair_qq(v, w))


def test_all_reduced_words():
    a1 = CartanType("A1")
    assert all_reduced_words(a1, a1.longest_word()) == frozenset({(0,)})
    a2 = CartanType("A2")
    assert (all_reduced_words(a2, a2.longest_word())
            == frozenset({(0, 1, 0), (1, 0, 1)}))
    a3 = CartanType("A3")
    words = all_reduced_words(a3, a3.longest_word())
    assert len(words) == 16
    b2 = CartanType("B2")
    assert len(all_reduced_words(b2, b2.longest_word())) == 2
    g2 = CartanType("G2")
    assert len(all_reduced_words(g2, g2.longest_word())) == 2


def test_non_reduced_rejected():
    a2 = CartanType("A2")
    with pytest.raises(ValueError):
        all_reduced_words(a2, (0, 0))


def test_suffix_roots_a2():
    ct = CartanType("A2")
    assert tuple(suffix_roots(ct, (0, 1, 0))) == (ct.alpha(1),
                                                   alpha(ct, 0, 1),
                                                   ct.alpha(0))
    assert tuple(suffix_roots(ct, (1, 0, 1))) == (ct.alpha(0),
                                                  alpha(ct, 0, 1),
                                                  ct.alpha(1))
    assert tuple(suffix_roots(CartanType("A1"), (0,))) == ((1,),)


def test_prefix_roots():
    ct = CartanType("A2")
    assert tuple(prefix_roots(ct, (0, 1, 0))) == (ct.alpha(0),
                                                   alpha(ct, 0, 1),
                                                   ct.alpha(1))
    b2 = CartanType("B2")
    pr = prefix_roots(b2, (0, 1, 0, 1))
    assert len(set(pr)) == 4
    assert set(pr) == set(b2.pos_roots)


def test_root_sequences_accept_list_words():
    # the memo is keyed on the word as a tuple, so a list word hits it
    ct = CartanType("B2")
    for roots in (prefix_roots, suffix_roots):
        assert roots(ct, [0, 1, 0, 1]) == roots(ct, (0, 1, 0, 1))
        assert roots(ct, [1, 0, 1, 0]) == roots(ct, (1, 0, 1, 0))


def test_root_sequences_exhaust_positive_system():
    for name in ("A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for word in all_reduced_words(ct, ct.longest_word()):
            pr = prefix_roots(ct, word)
            assert len(set(pr)) == len(word)
            assert set(pr) == set(ct.pos_roots)
            assert set(suffix_roots(ct, word)) == set(ct.pos_roots)


def test_kostant_count():
    a2 = CartanType("A2")
    assert kostant_count(a2, a2.zero()) == 1
    assert kostant_count(a2, a2.alpha(0)) == 1
    assert kostant_count(a2, alpha(a2, 0, 1)) == 2
    assert kostant_count(a2, alpha(a2, 0, 0, 1, 1)) == 3


def _kostant_per_call(ct, gamma):
    # reference: a fresh memo for every call
    roots = ct.pos_roots

    @lru_cache(maxsize=None)
    def count(idx, rem):
        if all(c == 0 for c in rem):
            return 1
        if idx == len(roots):
            return 0
        beta = roots[idx]
        total = 0
        k = 0
        while all(rem[t] - k * beta[t] >= 0 for t in range(len(rem))):
            total += count(idx + 1, tuple(rem[t] - k * beta[t]
                                          for t in range(len(rem))))
            k += 1
        return total

    return count(0, tuple(gamma))


def test_kostant_count_shared_memo_matches_per_call_recursion():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for h in range(7):
            for ga in weights_of_height(ct, h):
                assert kostant_count(ct, ga) == _kostant_per_call(ct, ga), \
                    (name, ga)


def test_word_serialization():
    assert format_word((0, 1, 0)) == "1,2,1"
    assert parse_word("1,2,1") == (0, 1, 0)


def _old_weights_of_height(ct, h):
    # the enumeration that coordring, cli and test_pbw each kept a copy of
    out = []

    def rec(i, rem, acc):
        if i == ct.rank - 1:
            out.append(tuple(acc + [rem]))
            return
        for v in range(rem + 1):
            rec(i + 1, rem - v, acc + [v])

    rec(0, h, [])
    return sorted(out)


def test_weights_of_height_matches_old_enumeration():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for h in range(7):
            got = weights_of_height(ct, h)
            assert got == _old_weights_of_height(ct, h), (name, h)
            assert all(sum(g) == h and min(g) >= 0 for g in got)
            assert len(set(got)) == len(got)
        assert weights_of_height(ct, 0) == [ct.zero()]
        assert weights_of_height(ct, -1) == []


# The three weight helpers that exponent_weight replaced.

def _old_uplus_weight(ct, word, n):
    roots = prefix_roots(ct, word)
    return tuple(sum(n[r] * roots[r][t] for r in range(len(n)))
                 for t in range(ct.rank))


def _old_weight_of_coords(ct, word, coords):
    return _old_uplus_weight(ct, word, next(iter(coords)))


def _old_fock_gamma(ct, word, n):
    roots = suffix_roots(ct, word)
    return tuple(sum(n[r] * roots[r][t] for r in range(len(n)))
                 for t in range(ct.rank))


def _exponents_up_to(m, h):
    if m == 0:
        return [()]
    return [(k,) + rest for k in range(h + 1)
            for rest in _exponents_up_to(m - 1, h - k)]


def test_exponent_weight_equals_the_old_helpers():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        for word in all_reduced_words(ct, ct.longest_word()):
            for n in _exponents_up_to(len(word), 4):
                prefix = exponent_weight(ct, word, n, "prefix")
                assert prefix == _old_uplus_weight(ct, word, n)
                assert prefix == _old_weight_of_coords(ct, word, {n: None})
                assert exponent_weight(ct, word, n, "suffix") \
                    == _old_fock_gamma(ct, word, n)


def test_exponent_weight_needs_a_root_choice():
    ct = CartanType("A2")
    with pytest.raises(ValueError):
        exponent_weight(ct, (0, 1, 0), (1, 0, 0), "hat")


def test_pair_qq_reads_the_form_table():
    from itertools import product
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        n = range(ct.rank)
        assert ct.form == tuple(tuple(ct.d[i] * ct.a[i][j] for j in n)
                                for i in n)
        box = list(product(range(-2, 3), repeat=ct.rank))
        for v in box:
            for w in box:
                want = sum(v[i] * ct.d[i] * ct.a[i][j] * w[j]
                           for i in n for j in n)
                assert ct.pair_qq(v, w) == want, (name, v, w)


def test_weyl_dimension():
    dims = {("A1", (-3,)): 4, ("A2", (-1, 0)): 3, ("A2", (-1, -1)): 8,
            ("A2", (-2, -2)): 27, ("A3", (0, -1, 0)): 6,
            ("A3", (-1, 0, -1)): 15, ("B2", (-1, 0)): 5, ("B2", (0, -1)): 4,
            ("B2", (0, -3)): 20, ("G2", (0, -1)): 7, ("G2", (-1, 0)): 14}
    for (name, lam), dim in dims.items():
        assert weyl_dimension(CartanType(name), lam) == dim, (name, lam)
    for name in ("A1", "A2", "A3", "B2", "G2"):
        ct = CartanType(name)
        assert weyl_dimension(ct, ct.zero()) == 1
