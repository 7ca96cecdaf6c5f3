import itertools
import time

import pytest

from goursat.codeword import (
    CRITICAL,
    Chart,
    ChartPoint,
    GoursatWord,
    RvtWord,
    canonical_chart_point,
    enumerate_goursat_words,
    enumerate_rvt_words,
    goursat_normalize,
    is_goursat,
    lift,
    lift_chain,
    parse_word,
    rvt_of_chart_point,
)
from goursat.errors import (
    BadSymbol,
    EmptyWord,
    LeadingCritical,
    OrphanT,
    TooShort,
    Unsupported,
    WordError,
)


class TestParse:
    def test_worked_word(self):
        w = parse_word("RRVTVV")
        assert w.symbols == "RRVTVV"
        assert w.k == 6

    def test_shortest_word(self):
        assert parse_word("R").symbols == "R"

    def test_case_insensitive(self):
        assert parse_word("rrVtvv").symbols == "RRVTVV"

    def test_empty(self):
        with pytest.raises(EmptyWord):
            parse_word("")

    def test_orphan_t(self):
        with pytest.raises(OrphanT) as err:
            parse_word("RTV")
        assert err.value.position == 2

    def test_bad_symbol_reported_before_orphan_t(self):
        with pytest.raises(BadSymbol) as err:
            parse_word("RTX")
        assert err.value.position == 3
        assert "BadSymbol at 3" in str(err.value)

    def test_leading_critical(self):
        with pytest.raises(LeadingCritical):
            parse_word("VRV")
        with pytest.raises(LeadingCritical):
            parse_word("TRR")

    def test_t_after_t_is_fine(self):
        parse_word("RVTTT")

    def test_letter_is_one_indexed(self):
        w = parse_word("RRVTVV")
        assert w.letter(1) == "R"
        assert w.letter(3) == "V"
        with pytest.raises(IndexError):
            w.letter(0)


class TestGoursat:
    def test_worked_examples(self):
        assert is_goursat("RRVTVV")
        assert not is_goursat("RVVVRVT")
        assert is_goursat("R")

    def test_goursat_word_type_rejects(self):
        with pytest.raises(WordError):
            GoursatWord("RVV")

    def test_normalize_worked_example(self):
        assert str(goursat_normalize("RVTRV")) == "RRRRV"

    def test_normalize_identity_on_goursat(self):
        assert str(goursat_normalize("RRVTVV")) == "RRVTVV"

    def test_normalize_rvv(self):
        assert str(goursat_normalize("RVV")) == "RRV"

    def test_normalize_idempotent(self):
        for k in range(1, 7):
            for w in enumerate_rvt_words(k):
                n = goursat_normalize(w)
                assert goursat_normalize(n) == n
                assert n.k == w.k


class TestLift:
    def test_figure_example(self):
        assert str(lift("RRVTVVR")) == "RRRVVR"

    def test_worked_tables_pair(self):
        assert str(lift("RRVTVV")) == "RRRVV"

    def test_trivial(self):
        assert str(lift("RR")) == "R"

    def test_too_short(self):
        with pytest.raises(TooShort):
            lift("R")

    def test_length_grammar_and_chain(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                chain = lift_chain(w)
                assert len(chain) == k
                assert str(chain[0]) == "R"
                for shorter, longer in zip(chain, chain[1:]):
                    assert lift(longer) == shorter
                    assert longer.k == shorter.k + 1


class TestCanonicalPoints:
    def test_rrvtvv_origin(self):
        p = canonical_chart_point("RRVTVV")
        assert p.chart.choices == "ooioii"
        assert all(c == 0 for c in p.coords)

    def test_rrvrvv_point(self):
        p = canonical_chart_point("RRVRVV")
        assert p.chart.choices == "ooioii"
        assert p.coords == (0,) * 5 + (1,) + (0,) * 2
        assert all(type(c) is int for c in p.coords)

    def test_all_regular(self):
        p = canonical_chart_point("RRR")
        assert p.chart.choices == "ooo"
        assert all(c == 0 for c in p.coords)

    def test_roundtrip_worked_points(self):
        for w in ("RRVTVV", "RRVRVV", "R", "RVVVRVT", "RVTRV"):
            assert str(rvt_of_chart_point(canonical_chart_point(w))) == w

    def test_roundtrip_exhaustive(self):
        for k in range(1, 9):
            for w in enumerate_rvt_words(k):
                assert rvt_of_chart_point(canonical_chart_point(w)) == w

    def test_ip_is_v_positions(self):
        for k in range(1, 8):
            for w in enumerate_rvt_words(k):
                p = canonical_chart_point(w)
                assert p.ip == {j for j in range(1, k + 1) if w.letter(j) == "V"}

    def test_coordinates_are_ints(self):
        # A float or a bool coordinate is refused; any sequence of ints is
        # stored as a tuple, so the point hashes.
        chart = Chart("oi")
        for coords in ((0, 0, 0.5, 0), (0, 0, True, 0), (0, 0, "0", 0)):
            with pytest.raises(ValueError, match="coordinates must be ints"):
                ChartPoint(chart, coords)
        p, q = ChartPoint(chart, [0, 0, 1, 0]), ChartPoint(chart, (0, 0, 1, 0))
        assert p.coords == (0, 0, 1, 0)
        assert p == q and hash(p) == hash(q)

    def test_unsupported_configuration(self):
        chart = Chart("oi")
        p = ChartPoint(chart, (0, 0, 0, 1))
        with pytest.raises(Unsupported):
            rvt_of_chart_point(p)

    def test_inverted_level_one_is_unsupported(self):
        # Only R stands at level 1, so an inverted level 1 is outside the
        # letter map with n_1 = 0 (where V would stand) and with n_1 = 1.
        for choices in ("i", "ii", "ioo", "io"):
            for n1 in (0, 1):
                p = ChartPoint(Chart(choices), (0, 0, n1) + (0,) * (len(choices) - 1))
                with pytest.raises(Unsupported, match="level 1: choice 'i'"):
                    rvt_of_chart_point(p)

    def test_inverse_matches_the_hand_written_reference(self):
        # Every chart with k <= 5 and each n_j in {0, 1, 2}: the same word,
        # or the same refusal, Unsupported for a level outside the letter
        # map; no point is read as a word that starts with V.
        def outcome(read, p):
            try:
                return read(p)
            except (Unsupported, LeadingCritical) as exc:
                return type(exc)

        seen = set()
        for k in range(1, 6):
            for choices in itertools.product("oi", repeat=k):
                chart = Chart("".join(choices))
                for values in itertools.product((0, 1, 2), repeat=k):
                    p = ChartPoint(chart, (0, 0, *values))
                    expected = outcome(_reference_rvt_of_chart_point, p)
                    assert outcome(rvt_of_chart_point, p) == expected, p
                    seen.add(expected if isinstance(expected, type) else RvtWord)
        assert seen == {RvtWord, Unsupported}


def _reference_rvt_of_chart_point(p):
    # The letter map's inverse written out by hand, case by case.
    letters = []
    prev = ""
    for j in range(1, p.k + 1):
        inverted = j in p.ip
        vanishes = p.n_value(j) == 0
        if j == 1 and (inverted or not vanishes):
            raise Unsupported("level 1: only R, ordinary with n_1 = 0, starts a word")
        if inverted:
            if not vanishes:
                raise Unsupported(f"level {j}: inverted choice with n_{j} != 0")
            letters.append("V")
        elif vanishes:
            letters.append("T" if prev in CRITICAL else "R")
        else:
            if prev not in CRITICAL:
                raise Unsupported(f"level {j}: ordinary choice with n_{j} != 0 after R")
            letters.append("R")
        prev = letters[-1]
    return RvtWord("".join(letters))


class TestChartBookkeeping:
    def test_cached_chart_equals_a_new_one(self):
        # canonical_chart_point takes its chart from a cache; the cached
        # chart and its cached properties equal those of a new Chart.
        for k in range(1, 9):
            for w in enumerate_rvt_words(k):
                cached = canonical_chart_point(w).chart
                new = Chart(cached.choices)
                assert cached == new
                assert cached.ip == new.ip
                assert cached.alt_names == new.alt_names
                assert cached.retained == new.retained
                assert cached.relations == new.relations
                assert canonical_chart_point(w).chart is cached

    def test_alt_names_ooioii(self):
        chart = Chart("ooioii")
        assert chart.alt_names == ("x", "y", "y'", "y''", "x'", "x''", "y^(3)", "x^(3)")

    def test_retained_and_deactivated(self):
        chart = Chart("ooioii")

        def deactivated(j):
            # d_j is r_{j-1} at an inverted level, else n_{j-1}
            return chart.retained[j - 1] if chart.choices[j - 1] == "i" else Chart.n_var(j - 1)

        # level 3 inverts: retains n_2, deactivates r_0's lineage coordinate
        assert chart.retained[2] == 0
        assert chart.retained[3] == Chart.n_var(2)
        assert deactivated(3) == 0
        assert deactivated(6) == Chart.n_var(4)

    def test_relations_deactivate_each_coordinate_once(self):
        # focal_orders relies on it: every coordinate but n_k and r_k is d_j
        # at exactly one level j.  Every chart with k <= 10 (2,047).
        charts = 0
        for k in range(11):
            for choices in itertools.product("oi", repeat=k):
                chart = Chart("".join(choices))
                ds = [d for d, _, _ in chart.relations]
                assert sorted(ds + [Chart.n_var(k), chart.retained[k]]) == list(
                    range(chart.nvars)
                ), chart.choices
                assert [n for _, n, _ in chart.relations] == [
                    Chart.n_var(j) for j in range(1, k + 1)
                ]
                charts += 1
        assert charts == 2047

    def test_ip(self):
        assert Chart("ooioii").ip == {3, 5, 6}


def test_enumeration_counts():
    assert [len(list(enumerate_rvt_words(k))) for k in range(1, 7)] == [
        1, 2, 5, 13, 34, 89,
    ]
    assert [len(list(enumerate_goursat_words(k))) for k in range(1, 7)] == [
        1, 1, 2, 5, 13, 34,
    ]


def test_enumeration_is_lexicographic():
    for k in range(1, 9):
        rvt = [w.symbols for w in enumerate_rvt_words(k)]
        assert rvt == sorted(rvt)
        goursat = [w.symbols for w in enumerate_goursat_words(k)]
        assert goursat == [s for s in rvt if is_goursat(s)]


def test_enumeration_is_lazy():
    # There are about 10^24 Goursat words of length 60; the first one must
    # come without generating the others.
    start = time.perf_counter()
    assert next(enumerate_goursat_words(60)).symbols == "R" * 60
    assert next(enumerate_rvt_words(60)).symbols == "R" * 60
    assert time.perf_counter() - start < 1.0
