"""The pathway walk against a backtracking Poly-based reference.

`oracle.pathway_sections` walks down a column on exponent tuples: each
row takes the first step of its frame whose variable occurs in the
tracked monomial, and the focal step lemma, checked once per point, says
that step lowers the order by one.  The reference below assumes no lemma
and searches: every candidate is a `Poly` built by differentiating and
multiplying by the focal-frame slot, every order is recomputed from the
monomial, a candidate of the wrong order is passed over, a dead end is
backtracked out of, and f_k comes from the test-local VField recursion,
not from `symcalc`.  Both must return the same rows.
"""

from goursat import invariants, oracle
from goursat.codeword import (
    Chart,
    canonical_chart_point,
    enumerate_goursat_words,
    enumerate_rvt_words,
    is_goursat,
)
from goursat.polynomial import Poly

from worked_fixtures import reference_std_fields


def reference_pathway(p, i):
    """(h, coefficient, g_index, order) per row, by Poly arithmetic, and the
    number of candidates passed over for having the wrong order."""
    chart = p.chart
    k = chart.k
    sums = invariants._column_sums(oracle.vo_at_point(p), k)
    fo = oracle.focal_orders(p)
    fk = reference_std_fields(chart)[0][k]
    nv = chart.nvars
    nk_var = Chart.n_var(k)

    def mono_order(poly):
        mono, _ = poly.leading()
        return sum(e * fo.o_coord[v] for v, e in enumerate(mono))

    def e_entry(h, col):
        return max(0, col - h + sums[col])

    rows = []
    for h in range(3, i + 1):
        exps = {}
        for j in range(max(k - h + 4, 1), k + 1):
            if j in chart.ip:
                exps[Chart.n_var(j)] = h + j - k - 3
        term = Poly.monomial(nv, exps)
        assert mono_order(term) == e_entry(h, h)
        rows.append((h, term, h, e_entry(h, h)))

    def candidates(coeff):
        out = []
        if any(m[nk_var] for m in coeff.terms):
            out.append(coeff.diff(nk_var))
        mono, _ = coeff.leading()
        for var, e in enumerate(mono):
            if e and var != nk_var:
                out.append(fk.comps[var] * coeff.diff(var))
        return out

    b_i = i + sums[i]
    tail = []
    passed_over = 0
    pending = [iter(candidates(rows[-1][1]))] if i < b_i else []
    while pending:
        h = i + len(pending)
        expected = e_entry(h, i)
        cand = None
        for c in pending[-1]:
            if mono_order(c) == expected:
                cand = c
                break
            passed_over += 1
        if cand is None:
            pending.pop()
            if tail:
                tail.pop()
            continue
        tail.append((h, cand, i, expected))
        if h == b_i:
            break
        pending.append(iter(candidates(cand)))
    assert i == b_i or pending, "the reference found no pathway"
    return rows + tail, passed_over


def words_under_test():
    for k in range(2, 9):
        yield from enumerate_goursat_words(k)
    # Words that are not Goursat words give points where some coordinates
    # do not vanish, so not every candidate drops the order.
    for k in range(2, 7):
        yield from (w for w in enumerate_rvt_words(k) if not is_goursat(w))
    # The deepest chains: b_i grows like Fibonacci in k.
    for k in range(9, 15):
        yield "RR" + "V" * (k - 2)


def as_rows(rows):
    return [(h, sorted(coeff.terms.items()), g, order) for h, coeff, g, order in rows]


def test_rows_match_the_poly_reference():
    searched = passed_over = 0
    for w in words_under_test():
        p = canonical_chart_point(w)
        for i in range(3, p.k + 2):
            got = [
                (r.h, [(r.mono, r.coeff)], r.g_index, r.order)
                for r in oracle.pathway_sections(p, i)
            ]
            want, skipped = reference_pathway(p, i)
            assert got == as_rows(want), (str(w), i)
            searched += 1
            passed_over += skipped
    assert searched > 1000
    assert passed_over > 0, "every first candidate fit, so the order filter went untested"

