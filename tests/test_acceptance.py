"""End-to-end acceptance checks, one pass/fail line per criterion.

Every check is exact (symbolic equality, tolerance zero) and carries a
wall-clock budget; criteria and budgets are asserted together.
"""

import time

from qpbw import cli
from qpbw.coordring import verify_intertwiner
from qpbw.rootdata import CartanType


def _report(name, results, elapsed, budget):
    bad = [r for r in results if not r["pass"]]
    ok = not bad and elapsed < budget
    print("%s: %s (%d checks, %.1fs, budget %ds)"
          % (name, "PASS" if ok else "FAIL", len(results), elapsed, budget))
    for r in bad[:3]:
        print("  failed:", r)
    assert not bad, "%s: %d failing checks" % (name, len(bad))
    assert elapsed < budget, "%s: %.1fs exceeds %ds" % (name, elapsed, budget)


def test_c1_hopf_axioms():
    t = time.time()
    res = cli.suite_hopf(types=("A2", "B2"), length=4)
    _report("C1 hopf", res, time.time() - t, 10)


def test_c2_braid():
    t = time.time()
    res = cli.suite_braid(types=("A2", "B2", "G2"), n_random=100)
    assert len(res) == 136
    _report("C2 braid", res, time.time() - t, 60)


def test_c3_pairing_orthogonality():
    t = time.time()
    res = cli.suite_pbw_orth(types=(("A2", 5), ("B2", 5), ("G2", 4)))
    _report("C3 pbw-orth", res, time.time() - t, 300)


def test_c4_pbw_and_transitions():
    t = time.time()
    res = cli.suite_koy(types=("A2", "B2", "A3"), height=3)
    res += cli.suite_transfer(types=("A2", "B2", "G2"), height=4)
    _report("C4 pbw/transitions", res, time.time() - t, 600)


def test_c5_oracle_with_d_reading_discrimination():
    t = time.time()
    res = cli.suite_oracle(types=(("A2", 4), ("B2", 3)), d_reading="qi")
    # exactly one reading passes in B2: the q substitution must fail
    wrong = verify_intertwiner(CartanType("B2"), (0, 1, 0, 1), (1, 0, 1, 0),
                               2, "q")
    res.append({"check": "oracle B2 q-reading is refuted",
                "pass": any(not r["pass"] for r in wrong)})
    _report("C5 oracle", res, time.time() - t, 1800)


def test_c6_ladder_operator_words():
    t = time.time()
    res = cli.suite_conj1(types=("A2", "B2"), height=3)
    _report("C6 conj1", res, time.time() - t, 300)


def test_c7_sl2_module():
    t = time.time()
    res = cli.suite_sl2(max_n=10)
    _report("C7 sl2", res, time.time() - t, 5)


def test_c8_decomposition():
    t = time.time()
    res = cli.suite_decomp(types=("A2", "B2", "G2"), height=4)
    _report("C8 decomp", res, time.time() - t, 120)


def test_c9_g2_oracle():
    # the first independent check of G2 transition blocks: every matrix
    # coefficient of both G2 fundamental modules decides one case
    t = time.time()
    res = cli.suite_oracle(types=(("G2", 0),))
    assert [(r["decisions"], r["phi_checked"]) for r in res] == [(245, 245)]
    _report("C9 G2 oracle", res, time.time() - t, 60)


def test_c10_g2_koy_conj1():
    # KOY's third rank-2 case: module basis change round trips and the
    # word-independence of the transported e_i operator on G2
    t = time.time()
    koy = cli.suite_koy(types=("G2",), height=5)
    conj1 = cli.suite_conj1(types=("G2",), height=4)
    assert (len(koy), len(conj1)) == (86, 59)
    _report("C10 G2 koy/conj1", koy + conj1, time.time() - t, 10)


def test_c11_g2_oracle_height_2():
    # the G2 oracle two heights up: 1715 decisions, every matrix coefficient
    # checked; the qi koy blocks come from the division-free u-basis table
    t = time.time()
    res = cli.suite_oracle(types=(("G2", 2),))
    assert [(r["decisions"], r["phi_checked"]) for r in res] == [(1715, 245)]
    _report("C11 G2 oracle h<=2", res, time.time() - t, 20)
