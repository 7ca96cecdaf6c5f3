import math
import random

from hypothesis import given, settings, strategies as st

from goursat import invariants, oracle, proximity
from goursat.charts import canonical_chart_point, enumerate_goursat_words, enumerate_rvt_words
from goursat.codeword import CRITICAL, goursat_normalize, is_goursat, parse_word
from goursat.invariants import (
    PuiseuxCharacteristic,
    beta_backend,
    beta_from_b,
    der2_backend,
    der_backend,
    e_table,
    multseq_from_pc,
    pc_from_multseq,
    sg_from_beta,
    vo_from_mult,
)

# ---------------------------------------------------------------------------
# Strategies


@st.composite
def rvt_words(draw, min_k=1, max_k=9, goursat=False):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    symbols = ["R"]
    for pos in range(2, k + 1):
        if pos == 2 and goursat:
            symbols.append("R")
        elif symbols[-1] in CRITICAL:
            symbols.append(draw(st.sampled_from("RVT")))
        else:
            symbols.append(draw(st.sampled_from("RV")))
    return parse_word("".join(symbols))


def goursat_words(min_k=1, max_k=9):
    return rvt_words(min_k=min_k, max_k=max_k, goursat=True)


@st.composite
def vo_vectors(draw):
    k = draw(st.integers(min_value=2, max_value=9))
    vo = [0] + draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=k - 2, max_size=k - 2)
    )
    return tuple(vo), k


def random_pc(rng: random.Random, max_lambda0=30, max_last=None) -> PuiseuxCharacteristic:
    while True:
        lam0 = rng.randint(2, max_lambda0)
        lam, e, exps = lam0, lam0, []
        ok = True
        while e > 1:
            d = 0
            while d == 0 or math.gcd(e, d) == e:
                d = rng.randint(1, 2 * e + 3)
            lam += d
            exps.append(lam)
            e = math.gcd(e, d)
            if max_last is not None and lam > max_last:
                ok = False
                break
        if ok:
            return PuiseuxCharacteristic(lam0, tuple(exps))


# ---------------------------------------------------------------------------
# E-table relations


@settings(max_examples=200, deadline=None)
@given(vo_vectors())
def test_etable_relations_random_vo(vok):
    vo, k = vok
    assert_etable_relations(vo, k)


def test_etable_relations_all_words():
    for k in range(1, 9):
        for w in enumerate_goursat_words(k):
            b = invariants.bundle(w)
            assert_etable_relations(b.vo, k)


def assert_etable_relations(vo, k):
    table = e_table(vo, k)

    def e(h, i):
        if not 2 <= i <= min(h, k + 1):
            return None
        if h > table.height:
            return 0
        return table.entry(h, i)

    for h in range(2, table.height + 1):
        for i in range(2, min(h, k + 1) + 1):
            assert max(e(h, i) - 1, 0) == e(h + 1, i)
            assert e(h, i) >= e(h + 1, i)
            if i + 1 <= min(h, k + 1):
                assert e(h, i + 1) >= e(h, i)
            if i + 1 <= k + 1:
                tail = sum(vo[j - 2] for j in range(max(k - i + 3, 2), k + 1))
                lhs = e(h, i) + tail
                rhs = e(h + 1, i + 1)
                if rhs is not None:
                    assert lhs >= rhs
                    if h == i:
                        assert lhs == rhs


# ---------------------------------------------------------------------------
# Shape of the growth vectors


@settings(max_examples=200, deadline=None)
@given(goursat_words(min_k=2))
def test_beta_begins_1_2_3(w):
    assert beta_backend(w)[:3] == (1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(goursat_words())
def test_der_begins_with_ones(w):
    der = der_backend(w)
    assert der[: min(2, len(der))] == (1,) * min(2, len(der))


@settings(max_examples=200, deadline=None)
@given(goursat_words(min_k=2))
def test_der2_begins_with_zero(w):
    assert der2_backend(w)[0] == 0


@settings(max_examples=200, deadline=None)
@given(goursat_words())
def test_sg_monotone_unit_steps_and_stabilization(w):
    beta = beta_backend(w)
    sg = sg_from_beta(beta)
    assert sg[0] == 2
    assert all(0 <= b - a <= 1 for a, b in zip(sg, sg[1:]))
    assert sg[-1] == w.k + 2
    assert len(sg) == beta[-1]
    assert sg.index(w.k + 2) + 1 == beta[-1]


# ---------------------------------------------------------------------------
# Route agreement


def test_three_route_beta_agreement_exhaustive():
    for k in range(1, 9):
        for w in enumerate_goursat_words(k):
            via_backend = beta_backend(w)
            der = proximity.derived_frontend(w)
            via_frontend = (1,)
            for d in der:
                via_frontend += (via_frontend[-1] + d,)
            mv = proximity.multiplicity_vector(proximity.build_diagram(w))
            via_etable = beta_from_b(e_table(vo_from_mult(mv, k), k).b)
            assert via_backend == via_frontend == via_etable, w


@settings(max_examples=200, deadline=None)
@given(goursat_words(max_k=12))
def test_three_route_beta_agreement_random(w):
    invariants.bundle(w)  # asserts the routes agree internally


def test_vertical_orders_match_oracle_exhaustive():
    for k in range(1, 9):
        for w in enumerate_goursat_words(k):
            combinatorial = invariants.bundle(w).vo
            at_point = oracle.vo_at_point(canonical_chart_point(w))
            assert at_point == combinatorial, w


def test_base_multiplicity_identity():
    # min of the base-coordinate orders = m_1 + VO_2 at every point
    for k in range(1, 8):
        for w in enumerate_rvt_words(k):
            p = canonical_chart_point(w)
            m0 = oracle.base_multiplicity_at_point(p)
            gw = goursat_normalize(w)
            mv = proximity.multiplicity_vector(proximity.build_diagram(gw))
            m1 = mv[-1] if mv else 1
            vo2 = oracle.vo_at_point(p)[0] if k >= 2 else 0
            assert m0 == m1 + vo2, w
            if is_goursat(w):
                assert m0 == m1


# ---------------------------------------------------------------------------
# Puiseux characteristics


def test_pc_roundtrip_500_random():
    rng = random.Random(20260810)
    for _ in range(500):
        pc = random_pc(rng, max_lambda0=30)
        ms = multseq_from_pc(pc)
        assert pc_from_multseq(ms) == pc
        assert multseq_from_pc(pc_from_multseq(ms)) == ms


def test_blowup_agrees_with_euclid_200_random():
    rng = random.Random(17)
    for _ in range(200):
        pc = random_pc(rng, max_lambda0=14, max_last=60)
        assert oracle.blowup_multseq(pc) == multseq_from_pc(pc), pc


def test_last_exponent_vs_nonholonomy_degree():
    # last characteristic exponent + trailing R count = beta_{k+2},
    # for every word of length <= 7 containing a critical symbol
    for k in range(1, 8):
        for w in enumerate_rvt_words(k):
            if not any(s in CRITICAL for s in w.symbols):
                continue
            p = canonical_chart_point(w)
            m0 = oracle.base_multiplicity_at_point(p)
            pc = invariants.puiseux_of_word(w, m0=m0 if not is_goursat(w) else None)
            trailing = len(w.symbols) - len(w.symbols.rstrip("R"))
            assert pc.exponents[-1] + trailing == invariants.nonholonomy_degree(w), w

