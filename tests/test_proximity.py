import random

from goursat.charts import enumerate_goursat_words
from goursat.codeword import lift_chain
from goursat.invariants import der_backend
from goursat.proximity import (
    build_diagram,
    derived_frontend,
    multiplicity_vector,
    to_dot,
)


class TestBuildDiagram:
    def test_new_multiplicity_of_figure_word(self):
        # lifting RRRVVR -> RRVTVVR attaches vertex 1 to the block V T at 3, 4
        d = build_diagram("RRVTVVR")
        assert d.mult[1] == 3 + 3 + 2

    def test_rrvtvv_edges_and_mult(self):
        d = build_diagram("RRVTVV")
        chain = {(i, i + 1) for i in range(6)}
        assert set(d.edges) == chain | {(1, 3), (1, 4), (3, 5), (4, 6)}
        assert d.mult == (8, 8, 3, 3, 2, 1, 1)

    def test_all_regular_word_is_a_chain(self):
        for k in (1, 3, 6):
            d = build_diagram("R" * k)
            assert set(d.edges) == {(i, i + 1) for i in range(k)}
            assert d.mult == (1,) * (k + 1)

    def test_labels(self):
        d = build_diagram("RRVTVV")
        assert d.label(0) == ""
        assert [d.label(v) for v in range(1, 7)] == list("RRVTVV")


class TestMultiplicityVector:
    def test_worked_example(self):
        assert multiplicity_vector(build_diagram("RRVTVV")) == (1, 2, 3, 3, 8)

    def test_rrrvv(self):
        assert multiplicity_vector(build_diagram("RRRVV")) == (1, 2, 3, 3)

    def test_rr(self):
        assert multiplicity_vector(build_diagram("RR")) == (1,)

    def test_base_multiplicity_copies_m1(self):
        for k in range(1, 8):
            for w in enumerate_goursat_words(k):
                d = build_diagram(w)
                assert d.mult[0] == d.mult[1]


class TestDerivedFrontend:
    def test_long_worked_word(self):
        assert derived_frontend("RRVTRRRVTTTV") == (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9, 27)

    def test_front_end_intermediate_words(self):
        # the lifting recursion passes through these words
        expected = {
            "RR": (1, 1),
            "RRV": (1, 1, 2),
            "RRRRRV": (1, 1, 2, 2, 2, 2),
            "RRVTTTV": (1, 1, 2, 2, 2, 2, 9),
            "RRRRRRVTTTV": (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9),
        }
        chain = [str(w) for w in lift_chain("RRVTRRRVTTTV")]
        for word, der in expected.items():
            assert word in chain
            assert derived_frontend(word) == der

    def test_worked_example(self):
        assert derived_frontend("RRVTVV") == (1, 1, 2, 3, 3, 8)

    def test_rr(self):
        assert derived_frontend("RR") == (1, 1)


class TestProperties:
    def test_frontend_equals_backend(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                assert derived_frontend(w) == der_backend(w)

    def test_mult_vector_is_der_minus_first(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                der = derived_frontend(w)
                assert multiplicity_vector(build_diagram(w)) == der[1:]

    def test_mult_monotone_with_unit_tail(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                m = build_diagram(w).mult
                assert all(a >= b for a, b in zip(m, m[1:]))
                assert m[-1] == 1

    def test_matches_the_validated_lift_chain(self):
        # The edges collected from lift_chain's validated GoursatWords, and
        # each m_i summed over the vertices joined to i from the right: on
        # every Goursat word with k <= 12, and on seeded long words with
        # long T runs and critical blocks back to back, where the walk
        # down the lift chain was quadratic in k.
        rng = random.Random(29)
        long_words = ["RR" + "V" + "T" * 120 + "V" * 80, "RR" + "VT" * 100]
        for k in (50, 120, 300):
            letters = ["R", "R"]
            while len(letters) < k:
                letters += ["V"] + ["T"] * rng.choice((0, 0, 1, 5, 40))
            long_words.append("".join(letters[:k]))
        words = [w for k in range(1, 13) for w in enumerate_goursat_words(k)]
        for w in words + long_words:
            k = len(str(w))
            edges = set()
            for lifted in lift_chain(w):
                base = k - lifted.k
                edges.add((base, base + 1))
                if lifted.k >= 3 and lifted.letter(3) == "V":
                    edges.add((base + 1, base + 3))
                    pos = 4
                    while pos <= lifted.k and lifted.letter(pos) == "T":
                        edges.add((base + 1, base + pos))
                        pos += 1
            into = [[] for _ in range(k + 1)]
            for i, j in edges:
                into[i].append(j)
            mult = [0] * k + [1]
            for i in range(k - 1, -1, -1):
                mult[i] = sum(mult[j] for j in into[i])
            d = build_diagram(w)
            assert d.edges == edges, w
            assert d.mult == tuple(mult), w
        assert len(words) == 17712

    def test_edge_count(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                d = build_diagram(w)
                blocks = 0
                for word in lift_chain(w)[1:]:
                    if word.k >= 3 and word.letter(3) == "V":
                        blocks += 1
                        pos = 4
                        while pos <= word.k and word.letter(pos) == "T":
                            blocks += 1
                            pos += 1
                assert len(d.edges) == w.k + blocks


class TestDot:
    def test_counts(self):
        dot = to_dot(build_diagram("RR"))
        assert dot.count("[label=") == 3
        assert dot.count(" -- ") == 2

    def test_rrvtvv_counts(self):
        dot = to_dot(build_diagram("RRVTVV"))
        assert dot.count("[label=") == 7
        assert dot.count(" -- ") == 10

    def test_figure_word_has_block_edges(self):
        dot = to_dot(build_diagram("RRVTVVR"))
        assert "v1 -- v3 [style=dashed, constraint=false];" in dot
        assert "v1 -- v4 [style=dashed, constraint=false];" in dot

    def test_deterministic(self):
        assert to_dot(build_diagram("RRVTVV")) == to_dot(build_diagram("RRVTVV"))

    def test_is_undirected_graph(self):
        assert to_dot(build_diagram("RRVTVV")).startswith("graph ")


def test_figure_word_vertex_one_fans_out_to_three():
    d = build_diagram("RRVTVVR")
    assert sorted(j for i, j in d.edges if i == 1) == [2, 3, 4]
