"""Braid-group operators and root-vector families."""

import random

import pytest

from qpbw import braid, cli
from qpbw.pairing import eq_mod_serre
from qpbw.rootdata import CartanType, all_reduced_words
from qpbw.scalars import Scalar
from qpbw.uqcore import UElement


def validate_inverses(ct):
    """Round-trip check of the inverse tables modulo the Serre ideal;
    raises ValueError naming the operator, i, j and the generator.  The
    memos of monomial images (both values of plus) and of integral
    generator images are dropped first, so the check sees the tables as
    they are now."""
    braid._int_images.clear()
    braid._int_tables.clear()
    for i in range(ct.rank):
        for j in range(ct.rank):
            for side, gen in (("e", UElement.e(ct, j)),
                              ("f", UElement.f(ct, j))):
                for kind, fwd, inv in (
                        ("dot", braid.t_dot, braid.t_dot_inv),
                        ("hat", braid.t_hat, braid.t_hat_inv)):
                    if not eq_mod_serre(inv(ct, i, fwd(ct, i, gen)), gen):
                        raise ValueError(
                            "%s: T_%s^-1 T_%s (%s_%d) != %s_%d for i=%d, "
                            "j=%d" % (ct.name, kind, kind, side, j + 1,
                                      side, j + 1, i + 1, j + 1))


def test_tdot_on_its_own_index():
    ct = CartanType("A2")
    got = braid.t_dot(ct, 0, UElement.e(ct, 0))
    want = -(UElement.f(ct, 0) * UElement.k_i(ct, 0))
    assert got == want


def test_that_on_its_own_index():
    ct = CartanType("A2")
    got = braid.t_hat(ct, 0, UElement.e(ct, 0))
    want = -(UElement.f(ct, 0) * UElement.k_i(ct, 0, -1))
    assert got == want


def test_that_adjacent_index():
    ct = CartanType("A2")
    e1, e2 = UElement.e(ct, 0), UElement.e(ct, 1)
    got = braid.t_hat(ct, 0, e2)
    want = e1 * e2 - (e2 * e1).scale(Scalar.q_power(1))
    assert got == want


def test_braid_on_k():
    ct = CartanType("A2")
    got = braid.t_dot(ct, 0, UElement.k(ct, ct.alpha(1)))
    assert got == UElement.k(ct, (1, 1))
    assert braid.t_hat(ct, 0, UElement.k(ct, ct.alpha(1))) == got


def test_inverse_tables_roundtrip():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        validate_inverses(CartanType(name))


def test_inverse_examples():
    ct = CartanType("A1")
    f1k1 = UElement.f(ct, 0) * UElement.k_i(ct, 0)
    assert braid.t_dot_inv(ct, 0, -f1k1) == UElement.e(ct, 0)
    want = -(UElement.k_i(ct, 0, -1) * UElement.f(ct, 0))
    assert braid.t_dot_inv(ct, 0, UElement.e(ct, 0)) == want
    ct2 = CartanType("A2")
    e2 = UElement.e(ct2, 1)
    assert braid.t_hat_inv(ct2, 0, braid.t_hat(ct2, 0, e2)) == e2


def test_automorphism_property():
    rng = random.Random(31)
    for name in ("A2", "B2"):
        ct = CartanType(name)
        for _ in range(6):
            i = rng.randrange(ct.rank)
            xw = tuple(rng.randrange(ct.rank)
                       for _ in range(rng.randint(1, 2)))
            yw = tuple(rng.randrange(ct.rank)
                       for _ in range(rng.randint(1, 2)))
            x = UElement.e_word(ct, xw) * UElement.f(ct, rng.randrange(
                ct.rank))
            y = UElement.f_word(ct, yw)
            lhs = braid.t_dot(ct, i, x * y)
            rhs = braid.t_dot(ct, i, x) * braid.t_dot(ct, i, y)
            assert eq_mod_serre(lhs, rhs)


def test_braid_relation_a2_generators():
    ct = CartanType("A2")
    for g in (UElement.e(ct, 0), UElement.e(ct, 1), UElement.f(ct, 0),
              UElement.k_i(ct, 0)):
        lhs = braid.apply_word(ct, "dot", (0, 1, 0), g)
        rhs = braid.apply_word(ct, "dot", (1, 0, 1), g)
        assert eq_mod_serre(lhs, rhs)


def test_hat_is_antipode_conjugate_of_dot():
    # hat_w = S^-1 dot_w S on generators
    ct = CartanType("B2")
    for g in (UElement.e(ct, 0), UElement.e(ct, 1), UElement.f(ct, 0),
              UElement.f(ct, 1)):
        lhs = braid.t_hat(ct, 0, g)
        rhs = braid.t_dot(ct, 0, g.antipode()).antipode_inv()
        assert eq_mod_serre(lhs, rhs)


def test_apply_word_roundtrip():
    ct = CartanType("G2")
    x = UElement.e(ct, 1)
    word = (0, 1, 0)
    y = braid.apply_word(ct, "dot", word, x)
    assert braid.apply_word(ct, "dot", word, y, inverse=True) == x


def test_root_vectors():
    ct = CartanType("A2")
    word = (0, 1, 0)
    e1, e2 = UElement.e(ct, 0), UElement.e(ct, 1)
    assert braid.root_vector(ct, "ehat", word, 1) == e1
    want = e1 * e2 - (e2 * e1).scale(Scalar.q_power(1))
    assert braid.root_vector(ct, "ehat", word, 2) == want
    assert braid.root_vector(ct, "etilde", word, 3) == e1


def test_root_vectors_triangular():
    for name in ("A2", "B2"):
        ct = CartanType(name)
        word = min(all_reduced_words(ct, ct.longest_word()))
        for fam, eside in (("ehat", True), ("edot", True), ("etilde", True),
                           ("fhat", False), ("fdot", False),
                           ("ftilde", False)):
            for r in range(1, len(word) + 1):
                v = braid.root_vector(ct, fam, word, r)
                for (fw, kap, ew) in v.terms:
                    assert not any(kap)
                    if eside:
                        assert not fw
                    else:
                        assert not ew


# -- the pruned e-side chains and the psi-derived f-side families ----------

def _project(x, eside):
    """Pure e-words (eside) or pure f-words of x, without any k-part."""
    zero = x.ct.zero()
    return UElement(x.ct, {m: c for m, c in x.terms.items()
                           if m[1] == zero and not (m[0] if eside else m[2])})


def _unpruned_root_vector(ct, family, word, r):
    """The chain each family is defined by, run on the full images of the
    default operators and projected after every step."""
    eside = family in braid.E_FAMILIES
    x = (UElement.e if eside else UElement.f)(ct, word[r - 1])
    if family[1:] in ("dot", "hat"):
        op = braid.t_dot if family[1:] == "dot" else braid.t_hat
        for s in range(r - 2, -1, -1):
            x = _project(op(ct, word[s], x), eside)
    else:
        for s in range(r, len(word)):
            x = _project(braid.t_dot_inv(ct, word[s], x), eside)
    return x


def test_root_vectors_equal_unpruned_chains():
    for name in ("A2", "B2", "G2", "A3"):
        ct = CartanType(name)
        for word in sorted(all_reduced_words(ct, ct.longest_word())):
            for family in braid.FAMILIES:
                for r in range(1, len(word) + 1):
                    want = _unpruned_root_vector(ct, family, word, r)
                    got = braid.root_vector(ct, family, word, r)
                    assert got == want, (name, family, word, r)


def _mixed_elements(ct, rng, count):
    out = []
    for _ in range(count):
        x = UElement.zero(ct)
        for _ in range(3):
            fw, ew = (tuple(rng.randrange(ct.rank)
                            for _ in range(rng.randint(0, 2)))
                      for _ in range(2))
            kap = tuple(rng.randint(-1, 1) for _ in range(ct.rank))
            c = Scalar.q_power(rng.randint(-2, 2)) + Scalar.from_int(
                rng.randint(-2, 2))
            x = x + (UElement.f_word(ct, fw) * UElement.k(ct, kap)
                     * UElement.e_word(ct, ew)).scale(c)
        out.append(x)
    return out


def test_psi_is_an_anti_involution():
    rng = random.Random(5)
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        xs = _mixed_elements(ct, rng, 4)
        for x in xs:
            assert x.psi().psi() == x
        for x, y in zip(xs, xs[1:]):
            assert (x * y).psi() == y.psi() * x.psi()


def test_psi_intertwines_the_two_normalizations():
    # Tdot_i psi = psi That_i and Tdot_i^-1 psi = psi That_i^-1, exactly
    rng = random.Random(9)
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for x in _mixed_elements(ct, rng, 3):
            i = rng.randrange(ct.rank)
            assert braid.t_dot(ct, i, x.psi()) == braid.t_hat(ct, i, x).psi()
            assert braid.t_dot_inv(ct, i, x.psi()) \
                == braid.t_hat_inv(ct, i, x).psi()


def _hat_chains(ct, word, r):
    """The That chain and the That^-1 chain of the r-th slot, stepped with
    plus=True and started from e_{i_r}, as the e-side chains are: ehat_r,
    and the e-side preimage under psi of ftilde_r."""
    x = y = UElement.e(ct, word[r - 1])
    for s in range(r - 2, -1, -1):
        x = braid.t_hat(ct, word[s], x, plus=True)
    for s in range(r, len(word)):
        y = braid.t_hat_inv(ct, word[s], y, plus=True)
    return x, y


def test_hat_root_vectors_are_bar_images_of_the_dot_chains():
    # ehat_r = bar(edot_r) and ftilde_r = psi(bar(etilde_r)) against the
    # That and That^-1 chains themselves, on every slot of every reduced
    # word of w0
    slots = 0
    for name in ("A2", "B2", "G2", "A3"):
        ct = CartanType(name)
        for word in sorted(all_reduced_words(ct, ct.longest_word())):
            for r in range(1, len(word) + 1):
                ehat, etilde_hat = _hat_chains(ct, word, r)
                where = (name, word, r)
                assert braid.root_vector(ct, "ehat", word, r) == ehat, where
                assert braid.root_vector(ct, "ftilde", word, r) \
                    == etilde_hat.psi(), where
                slots += 1
    assert slots == 122


def test_plus_is_the_projection_of_the_full_image():
    rng = random.Random(13)
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for x in _mixed_elements(ct, rng, 3):
            i = rng.randrange(ct.rank)
            for op in (braid.t_dot, braid.t_hat, braid.t_dot_inv,
                       braid.t_hat_inv):
                assert op(ct, i, x, plus=True) \
                    == braid.project_plus(op(ct, i, x))


def test_default_operators_keep_the_full_image():
    for name in ("A1", "A2", "B2", "G2"):
        ct = CartanType(name)
        for i in range(ct.rank):
            got = braid.t_hat(ct, i, UElement.e(ct, i))
            assert got == -(UElement.f(ct, i) * UElement.k_i(ct, i, -1))
            assert braid.t_hat(ct, i, UElement.e(ct, i), plus=True) \
                == UElement.zero(ct)


def test_root_vector_rejects_an_index_outside_the_word():
    ct = CartanType("A2")
    word = (0, 1, 0)
    for family in ("ehat", "etilde", "fdot"):
        for r in (0, -1, len(word) + 1):
            before = dict(braid._root_vectors)
            with pytest.raises(ValueError, match=r"outside 1\.\.3"):
                braid.root_vector(ct, family, word, r)
            assert braid._root_vectors == before, (family, r)


def test_validate_inverses_names_a_corrupted_entry():
    ct = CartanType("B2")
    tab = braid._gen_table(ct, "hat_inv")
    key = (1, "e", 0)
    saved = tab[key]
    tab[key] = saved + UElement.e(ct, 0)
    try:
        with pytest.raises(ValueError, match=r"T_hat.*e_1.*i=2, j=1"):
            validate_inverses(ct)
    finally:
        tab[key] = saved
    validate_inverses(ct)


def _apply_letter_by_letter(ct, kind, i, x, plus):
    # the operator image built afresh for every monomial, letter by letter
    # in f -> k -> e order by Scalar products, without the memo of monomial
    # images; with plus, the projection of the full image
    tab = braid._gen_table(ct, kind)
    out = UElement.zero(ct)
    for (F, kappa, E), c in x.terms.items():
        y = UElement.one(ct)
        for j in F:
            y = y * tab[(i, "f", j)]
        y = y * UElement.k(ct, ct.reflect_q(i, kappa))
        for j in E:
            y = y * tab[(i, "e", j)]
        out = out + y.scale(c)
    return braid.project_plus(out) if plus else out


def test_memoized_images_match_letter_by_letter_products():
    rng = random.Random(17)
    for name in ("A2", "B2", "G2", "A3"):
        ct = CartanType(name)
        xs = _mixed_elements(ct, rng, 3)
        # the zero element and a one-term element, which takes the path
        # without a common denominator
        xs += [UElement.zero(ct),
               UElement.e_word(ct, (0, ct.rank - 1, 0)).scale(
                   Scalar.q_power(-1) + Scalar.from_int(3))]
        for x in xs:
            i = rng.randrange(ct.rank)
            for kind in ("dot", "hat", "dot_inv", "hat_inv"):
                for plus in (False, True):
                    assert braid._apply(ct, kind, i, x, plus) \
                        == _apply_letter_by_letter(ct, kind, i, x, plus)


def test_integral_images_match_every_step_of_the_g2_braid_chains():
    # the 24 generator chains of the G2 braid relations, each step against
    # the Scalar reference; the terms come out in the same order, so a
    # failing case names the same witness
    ct = CartanType("G2")
    steps = 0
    for word in cli._braid_word_pair(ct, 0, 1):
        for kind in ("dot", "hat"):
            for _, x in cli._generators(ct):
                for i in reversed(word):
                    got = braid._apply(ct, kind, i, x)
                    want = _apply_letter_by_letter(ct, kind, i, x, False)
                    assert got == want and list(got.terms) == list(
                        want.terms), (word, kind, i, x)
                    x = got
                    steps += 1
    assert steps == 24 * 6


def test_second_apply_reads_the_memo(monkeypatch):
    ct = CartanType("B2")
    x = (UElement.f_word(ct, (1, 0)) * UElement.k_i(ct, 0)
         * UElement.e_word(ct, (0, 1, 1))
         + UElement.e_word(ct, (1, 0)).scale(Scalar.q_power(2)))
    braid._int_images.clear()
    first = {plus: braid._apply(ct, "hat", 1, x, plus)
             for plus in (False, True)}
    assert all((ct.name, "hat", 1, m, plus) in braid._int_images
               for m in x.terms for plus in (False, True))

    def no_table(ct, kind):
        raise AssertionError("image rebuilt instead of read from the memo")

    # a memo hit needs no generator image
    monkeypatch.setattr(braid, "_gen_table", no_table)
    monkeypatch.setattr(braid, "_int_table", no_table)
    for plus in (False, True):
        assert braid._apply(ct, "hat", 1, x, plus) == first[plus]


@pytest.mark.parametrize("plus_first", [True, False])
def test_plus_and_full_images_do_not_share_memo_entries(plus_first):
    # the memo holds f-free images under plus=True and full images under
    # plus=False; whichever is computed first, the other reads its own
    ct = CartanType("B2")
    xs = [UElement.e_word(ct, w) for w in ((0,), (1,), (0, 1), (1, 1, 0))]
    xs += _mixed_elements(ct, random.Random(23), 3)
    want = {}
    for plus in (False, True):
        braid._int_images.clear()
        want[plus] = [braid.t_hat(ct, i, x, plus=plus)
                      for x in xs for i in range(ct.rank)]
    braid._int_images.clear()
    got = {}
    for plus in ((True, False) if plus_first else (False, True)):
        got[plus] = [braid.t_hat(ct, i, x, plus=plus)
                     for x in xs for i in range(ct.rank)]
    assert got == want


def test_restored_table_entry_is_not_shadowed_by_derived_tables():
    ct = CartanType("G2")
    validate_inverses(ct)
    tab = braid._gen_table(ct, "dot")
    key = (0, "e", 1)
    saved = tab[key]
    tab[key] = saved.scale(Scalar.q_power(1))
    try:
        with pytest.raises(ValueError, match=r"T_dot.*e_2.*i=1, j=2"):
            validate_inverses(ct)
        cases = cli.suite_braid(types=("G2",), n_random=0)
        failed = [c for c in cases if not c["pass"]]
        assert len(failed) == 4
        assert failed[0] == {
            "check": "braid G2 dot 1,2,1,2,1,2 on e1", "pass": False,
            "witness": {"coord": "f1*k[1,0]", "diff": "-q^3"}}
    finally:
        tab[key] = saved
    validate_inverses(ct)
    cases = cli.suite_braid(types=("G2",), n_random=0)
    assert len(cases) == 12 and all(c["pass"] for c in cases)
