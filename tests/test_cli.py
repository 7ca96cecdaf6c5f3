import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from goursat import cli, codeword, invariants, oracle, proximity, symcalc
from goursat.codeword import (
    CHART_CHOICES,
    LETTER_MAP,
    MAX_LEVELS,
    Chart,
    canonical_chart_point,
    enumerate_goursat_words,
    enumerate_rvt_words,
    parse_word,
)
from goursat.cli import (
    ALL_WORDS_LEVEL_LIMIT,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    MAX_OUTPUT_BYTES,
    MAX_WORD_LENGTH,
    bundle_from_json,
    bundle_to_json,
    dumps_bundle,
    main,
    output_bound,
    render_bundle,
    render_etable,
    verify_word,
)
from goursat.errors import LevelLimitExceeded, NonExactDivision, NotRealizable, RouteMismatch
from test_cli_corpus import corpus_commands

GOLDEN = Path(__file__).parent / "golden"

# Drawn Goursat words of length 20, 24 and 28 (degrees 8,173, 9,827 and
# 10,162), then RR V^16 and RR V^18 (degrees 6,765 and 17,711).
LONG_WORDS = [
    "RRVRVVTTVVVVTVVVVVTV",
    "RRVTRVTTVTVTTTTVTTTVTTRV",
    "RRVVTRVTTVRRVTVTRRVTTTVRRRVR",
    "RR" + "V" * 16,
    "RR" + "V" * 18,
]
# Words whose table ends at a height H <= k + 1: no row has all k columns.
SHORT_TABLE_WORDS = [("R", None), ("RR", None), ("RRR", None), ("RVT", 3)]


def run_verify_script(body: str, argv: list[str], cpus: int = 2, timeout: float = 60):
    """Run cli.main(argv) in a fresh interpreter that reports cpus CPUs,
    after body, which may patch cli.  body sees child_words: the words
    that verify --all-words N runs in forked children."""
    n = int(argv[argv.index("--all-words") + 1])
    script = (
        "import os, signal, sys, time\n"
        "from goursat import cli\n"
        "from goursat.codeword import enumerate_goursat_words\n"
        f"os.cpu_count = lambda: {cpus}\n"
        f"words = list(enumerate_goursat_words({n}))\n"
        f"shares = cli._shares(words, {'--symbolic' in argv}, {cpus})\n"
        "child_words = [str(words[i]) for share in shares[1:] for i in share]\n"
        f"{body}\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=timeout
    )


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "goursat.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestInvariantsCommand:
    def test_text_output(self):
        code, out, _ = run_cli("invariants", "RRVTVV")
        assert code == EXIT_OK
        assert "beta:                 (1, 2, 3, 5, 8, 11, 19)" in out
        assert "der:                  (1, 1, 2, 3, 3, 8)" in out
        assert "der2:                 (0, 1, 1, 0, 5)" in out
        assert "puiseux:              [8;19]" in out

    def test_trivial_word(self):
        code, out, _ = run_cli("invariants", "R")
        assert code == EXIT_OK
        assert "beta:                 (1, 2)" in out
        assert "puiseux:              [1;]" in out

    def test_parse_error_exit_code(self):
        code, out, err = run_cli("invariants", "RTX")
        assert code == EXIT_INVALID
        assert "BadSymbol at 3" in err

    def test_json_deterministic_and_fields(self):
        code, out, _ = run_cli("invariants", "RRVTVV", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["beta"] == [1, 2, 3, 5, 8, 11, 19]
        assert data["mult_vector"] == [1, 2, 3, 3, 8]
        assert data["m0"] == 8
        assert data["vo"] == [0, 5, 0, 1, 1]
        assert data["b"] == [2, 3, 5, 8, 11, 19]
        assert data["puiseux"] == {"exponents": [19], "lambda0": 8}
        assert data["nonholonomy_degree"] == 19
        assert list(data) == sorted(data)

    def test_non_goursat_word_wires_oracle_m0(self):
        code, out, _ = run_cli("invariants", "RVTRV", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["goursat_word"] == "RRRRV"
        assert data["m0"] == 6
        assert data["puiseux"] == {"exponents": [8, 9], "lambda0": 6}

    def test_wired_m0_that_does_not_fit_is_a_route_mismatch(self, monkeypatch, capsys):
        from goursat import oracle

        real = oracle.base_multiplicity_at_point
        monkeypatch.setattr(oracle, "base_multiplicity_at_point", lambda p: real(p) + 1)
        assert main(["invariants", "RVV"]) == EXIT_MISMATCH
        assert "oracle-wired m_0 = 4 does not fit RVV" in capsys.readouterr().err

    def test_goursat_word_whose_multiplicities_no_characteristic_yields(
        self, monkeypatch, capsys
    ):
        # On the Goursat locus m_0 comes from the diagram, so an unrealizable
        # multiplicity sequence is a failed route, not invalid input.
        def unrealizable(ms):
            raise NotRealizable(f"no Puiseux characteristic yields {ms}")

        monkeypatch.setattr(invariants, "pc_from_multseq", unrealizable)
        with pytest.raises(RouteMismatch, match="m_0 = 8 does not fit RRVTVV"):
            invariants.bundle("RRVTVV")
        assert main(["invariants", "RRVTVV"]) == EXIT_MISMATCH
        assert "m_0 = 8 does not fit RRVTVV" in capsys.readouterr().err


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        for word, m0 in (("RRVTVV", None), ("RVTRV", 6), ("R", None)):
            b = invariants.bundle(word, m0=m0)
            again = bundle_from_json(json.loads(dumps_bundle(b)))
            assert again == b

    def test_tampered_etable_rejected(self):
        data = bundle_to_json(invariants.bundle("RRVTVV"))
        data["e_table"]["rows"][5][5] = 99
        with pytest.raises(ValueError):
            bundle_from_json(data)

    def test_forged_m0_rejected(self):
        data = bundle_to_json(invariants.bundle("RVV", m0=3))
        data["m0"] = 4
        with pytest.raises(ValueError, match="m_0 = 4 does not fit RVV"):
            bundle_from_json(data)

    def test_forged_invariants_rejected(self):
        # A self-consistent e-table with a forged beta, degree and Puiseux
        # characteristic: only a full re-derivation tells it apart.
        data = bundle_to_json(invariants.bundle("RRVTVV"))
        data["beta"] = [1, 2, 3, 5, 8, 11, 99]
        data["nonholonomy_degree"] = 99
        data["puiseux"] = {"exponents": [99], "lambda0": 8}
        with pytest.raises(ValueError, match="beta, nonholonomy_degree, puiseux"):
            bundle_from_json(data)

    @pytest.mark.parametrize(
        "word, change, named",
        [
            ("RVTRV", {"word": 5}, "str word"),
            ("RVTRV", {"m0": None}, "int m0"),
            ("RVTRV", {"m0": "6"}, "int m0"),
            ("RVTRV", {"m0": 6.0}, "int m0"),
            ("RRVTVV", {"m0": 8.0}, "int m0"),
            ("RRVTVV", {"m0": True}, "int m0"),
            ("R", {"m0": True}, "int m0"),
        ],
        ids=["RVTRV-int-word", "RVTRV-null-m0", "RVTRV-str-m0", "RVTRV-float-m0",
             "RRVTVV-float-m0", "RRVTVV-bool-m0", "R-bool-m0"],
    )
    def test_malformed_field_rejected(self, word, change, named):
        # A str word and an int m0 that is not a bool, or a ValueError
        # that names the field.
        data = bundle_to_json(invariants.bundle(word, m0=6 if word == "RVTRV" else None))
        data.update(change)
        with pytest.raises(ValueError, match=named):
            bundle_from_json(data)

    @pytest.mark.parametrize(
        "data, named",
        [({}, "str word"), ({"word": "RVTRV"}, "int m0"), ([], "JSON object"), ("RVTRV", "JSON object")],
        ids=["empty", "no-m0", "list", "str"],
    )
    def test_malformed_shape_rejected(self, data, named):
        with pytest.raises(ValueError, match=named):
            bundle_from_json(data)

    def test_word_past_the_length_limit_refused_before_any_bundle(self, monkeypatch):
        def no_bundle(*args, **kwargs):
            raise AssertionError("a bundle was built for a word past MAX_WORD_LENGTH")

        data = bundle_to_json(invariants.bundle("R" * MAX_WORD_LENGTH))
        assert bundle_from_json(data).k == MAX_WORD_LENGTH
        data["word"] += "R"
        monkeypatch.setattr(invariants, "bundle", no_bundle)
        with pytest.raises(LevelLimitExceeded, match=f"k = {MAX_WORD_LENGTH + 1}"):
            bundle_from_json(data)

    @pytest.mark.parametrize("field", ["sg", "vo", "der2", "goursat_word", "k"])
    def test_any_tampered_field_rejected(self, field):
        data = bundle_to_json(invariants.bundle("RRVTVV"))
        data[field] = data[field][:-1] if isinstance(data[field], (list, str)) else 7
        with pytest.raises(ValueError, match=f"in: {field}$"):
            bundle_from_json(data)


def _per_cell_render_etable(table) -> str:
    # The e-table renderer as it was when every row was materialized: the
    # width comes from a scan of every cell, each cell is appended in turn.
    red = set(table.b)
    width = max(2, max((len(str(e)) for row in table.rows for e in row), default=1))
    hwidth = max(2, len(str(table.height)))
    cols = list(range(2, table.k + 2))
    header = " " * 2 + "h".rjust(hwidth) + " |"
    for i in cols:
        header += str(i).rjust(width + 1)
    header += " | SG"
    lines = [header, "-" * len(header)]
    for idx, row in enumerate(table.rows):
        h = idx + 2
        line = ("*" if h in red else " ") + " " + str(h).rjust(hwidth) + " |"
        for i in cols:
            if i - 2 < len(row):
                line += str(row[i - 2]).rjust(width + 1)
            else:
                line += " " * (width + 1)
        line += f" | {table.sg[idx]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def streamed_bundles():
    """Every Goursat word with k <= 8, the long words, RVTRV and the words
    with short tables."""
    out = [invariants.bundle(w) for k in range(1, 9) for w in enumerate_goursat_words(k)]
    out += [invariants.bundle(w) for w in LONG_WORDS]
    out += [invariants.bundle(w, m0=m0) for w, m0 in SHORT_TABLE_WORDS + [("RVTRV", 6)]]
    return out


class TestStreamedOutput:
    def test_dumps_bundle_matches_json_module(self, streamed_bundles):
        # Name the differing words rather than diff texts of up to 2 MB.
        differ = [
            str(b.word)
            for b in streamed_bundles
            if dumps_bundle(b) != json.dumps(bundle_to_json(b), sort_keys=True, indent=2)
        ]
        assert differ == []

    def test_render_etable_matches_per_cell_renderer(self, streamed_bundles):
        differ = [
            str(b.word)
            for b in streamed_bundles
            if render_etable(b.e_table) != _per_cell_render_etable(b.e_table)
        ]
        assert differ == []

    @pytest.mark.parametrize("word, m0", SHORT_TABLE_WORDS)
    def test_short_tables_are_in_the_fixture(self, word, m0, streamed_bundles):
        table = invariants.bundle(word, m0=m0).e_table
        assert table.height <= table.k + 1
        assert table in [b.e_table for b in streamed_bundles]

    @pytest.mark.parametrize("word", ["RRVTVV", "RRRVV"])
    def test_render_etable_matches_golden(self, word):
        golden = (GOLDEN / f"etable_{word.lower()}.txt").read_text()
        table = invariants.bundle(word).e_table
        assert render_etable(table) == golden == _per_cell_render_etable(table)

    def test_bundle_to_json_is_plain(self):
        data = bundle_to_json(invariants.bundle("RRVTVV"))
        assert type(data["sg"]) is list and type(data["e_table"]["sg"]) is list
        assert all(type(row) is list for row in data["e_table"]["rows"])
        assert type(data["puiseux"]["exponents"]) is list


def _printed(argv) -> tuple[int, int]:
    # (exit code, bytes written to stdout) of one command run in process.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, len(out.getvalue().encode())


# The command of each form that output_bound covers, without its word.
_FORM_ARGV = {"text": ("invariants",), "json": ("invariants", "--json"), "etable": ("etable",)}


def test_render_bundle_memory_is_proportional_to_its_output():
    # The SG line is written run by run; one str per SG entry took about
    # 20 times the output.
    b = invariants.bundle("RR" + "V" * 24)
    tracemalloc.start()
    try:
        text = render_bundle(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(b.sg) == 317_811
    assert peak < 4 * len(text)


class TestOutputBudget:
    @pytest.mark.parametrize("argv", [["etable"], ["invariants"], ["invariants", "--json"]])
    def test_refusal_comes_before_any_output(self, argv):
        start = time.perf_counter()
        code, out, err = run_cli(*argv, "RR" + "V" * 84)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET and out == ""
        assert f"MAX_OUTPUT_BYTES = {MAX_OUTPUT_BYTES}" in err

    @pytest.mark.parametrize("argv", [["etable"], ["invariants"], ["invariants", "--json"]])
    def test_refusal_names_k_not_the_whole_word(self, argv, capsys):
        # The refusal quotes a short prefix of the word and its k; stdout
        # is empty, so only stderr could grow with the word.
        assert main([*argv, "RR" + "V" * (MAX_WORD_LENGTH - 2)]) == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert out == ""
        assert f"k = {MAX_WORD_LENGTH}" in err and "RRVV" in err
        assert len(err) < 200

    @pytest.mark.parametrize("argv", [["etable"], ["invariants"], ["invariants", "--json"]])
    def test_refusal_builds_no_bundle(self, argv, monkeypatch, capsys):
        def no_bundle(*args, **kwargs):
            raise AssertionError("the bundle was built before the output budget was checked")

        monkeypatch.setattr(invariants, "bundle", no_bundle)
        assert main([*argv, "RR" + "V" * 84]) == EXIT_BUDGET
        assert "MAX_OUTPUT_BYTES" in capsys.readouterr().err

    def test_every_number_is_at_most_the_degree(self):
        # output_bound charges each number the degree's digits: every RVT
        # word with k <= 8, with the m_0 the commands wire
        import goursat.cli as cli

        for k in range(1, 9):
            for word in enumerate_rvt_words(k):
                b = cli._wired(word)
                numbers = [*b.beta, *b.der, *b.der2, *b.mult_vector, *b.vo, *b.b]
                numbers += [b.m0, b.puiseux.lambda0, *b.puiseux.exponents]
                assert 0 <= min(numbers) and max(numbers) <= b.nonholonomy_degree, word
                assert len(numbers) + 2 <= 7 * k + 4, word

    def test_bound_covers_every_corpus_output(self):
        # Every invariants, invariants --json and etable command of the CLI
        # corpus that prints its output.
        import goursat.cli as cli

        forms = {argv: form for form, argv in _FORM_ARGV.items()}
        short = []
        for command in corpus_commands():
            form = forms.get((command[0], *command[2:]))
            if form is None:
                continue
            code, printed = _printed(list(command))
            assert code == EXIT_OK, command
            bundle = cli._wired(parse_word(command[1]))
            if output_bound(bundle.k, bundle.nonholonomy_degree, form) < printed:
                short.append(" ".join(command))
        assert short == []

    @pytest.mark.parametrize("word", LONG_WORDS)
    @pytest.mark.parametrize("form", ["text", "json", "etable"])
    def test_bound_is_tight_for_long_words(self, word, form):
        code, printed = _printed([*_FORM_ARGV[form], word])
        bound = output_bound(parse_word(word).k, invariants.nonholonomy_degree(word), form)
        assert code == EXIT_OK
        assert printed <= bound
        assert printed <= 1e6 or bound <= 2 * printed


class TestETableCommand:
    @pytest.mark.parametrize("word", ["RRVTVV", "RRRVV"])
    def test_golden(self, word):
        code, out, _ = run_cli("etable", word)
        assert code == EXIT_OK
        assert out == (GOLDEN / f"etable_{word.lower()}.txt").read_text()

    def test_rr_has_two_rows(self):
        table = invariants.bundle("RR").e_table
        assert len(table.rows) == 2
        rendered = render_etable(table)
        assert rendered.count("\n") == 4  # header, rule, rows h=2,3


class TestOtherCommands:
    def test_lift(self):
        code, out, _ = run_cli("lift", "RRVTVVR")
        assert code == EXIT_OK and out.strip() == "RRRVVR"

    def test_lift_rejects_non_goursat(self):
        code, _, err = run_cli("lift", "RVV")
        assert code == EXIT_INVALID

    def test_puiseux(self):
        assert run_cli("puiseux", "RRRRV")[1].strip() == "[2;9]"
        assert run_cli("puiseux", "RVTRV")[1].strip() == "[6;8,9]"

    def test_prox_dot(self):
        code, out, _ = run_cli("prox", "RRVTVV", "--dot")
        assert code == EXIT_OK
        assert out.startswith("graph proximity {")
        assert out.count(" -- ") == 10

    def test_chart(self):
        code, out, _ = run_cli("chart", "RRVRVV")
        assert code == EXIT_OK
        assert "chart:       ooioii" in out
        assert "round trip:  RRVRVV" in out

    def test_bracket_table(self):
        code, out, _ = run_cli("bracket-table", "ooioii")
        assert code == EXIT_OK
        assert "-n4*n5*n6*f2" in out

    def test_bracket_table_bad_chart(self):
        code, _, _ = run_cli("bracket-table", "oxo")
        assert code == EXIT_INVALID


def _lemma_frames(monkeypatch, mutate):
    # The structure lemmas take their packing from lemma_packing, and the
    # brute force builds its own, so it keeps the true frames.
    class Mutated(symcalc.Packing):
        __slots__ = ()

        @property
        def frames(self):
            fs, vs = super().frames
            return mutate(self, fs, vs)

    monkeypatch.setattr(symcalc, "lemma_packing", lambda chart: Mutated(chart, 3))


def _doubled_top_field(monkeypatch):
    _lemma_frames(
        monkeypatch, lambda pk, fs, vs: (fs[:-1] + ({key: 2 * c for key, c in fs[-1].items()},), vs)
    )


def _negated_top_slot(monkeypatch):
    # The r_0 slot of f_k turns negative, so f_k maps r_0 to a negative
    # coefficient: what the monomial-positivity check used to catch.
    def negate(pk, fs, vs):
        top = {key: -c if key & pk.cmask == 0 else c for key, c in fs[-1].items()}
        return fs[:-1] + (top,), vs

    _lemma_frames(monkeypatch, negate)


def _top_field_gains_f0(monkeypatch):
    # f_k gains f_0 = d/dr_0, which commutes with every frame field (no
    # slot holds r_0), and f_k is the left slot of no computed bracket nor
    # the field of any closed form, so the bracket table still agrees; only
    # the expansion of f_k reads f_k itself.
    def gain(pk, fs, vs):
        top = dict(fs[-1])
        top[0] = top.get(0, 0) + 1
        return fs[:-1] + (top,), vs

    _lemma_frames(monkeypatch, gain)


def _g_field_off_the_frame(monkeypatch):
    # Every g_i with i >= 2 gains n_k d/dr_0.  It commutes with g_0 = f_k
    # (f_k has no d/dn_k component, and no slot holds r_0), so every later
    # bracket and division is unchanged.  Then g_i fails [g_1, g_i] = 0
    # ([v_k, n_k d/dr_0] = d/dr_0) and lies in no Delta^i: what the
    # [g_1, g_i] and g-membership checks used to catch.  The g-basis is
    # the only caller of Packing.divide.
    divide = symcalc.Packing.divide

    def mutated(self, row, exps):
        out = dict(divide(self, row, exps))
        n_k = 1 << self.shifts[Chart.n_var(self.chart.k)]
        out[n_k] = out.get(n_k, 0) + 1
        return out

    monkeypatch.setattr(symcalc.Packing, "divide", mutated)


def _constant_fields_fail_to_commute(monkeypatch):
    # The bracket of two constant fields comes out nonzero: [g_1, g_i] for a
    # vertical g_i brackets two constant fields, as [v_i, f_0] does.
    lie_bracket = symcalc.lie_bracket

    def constant(pk, x):
        return all(key <= pk.cmask for key in x)

    def mutated(pk, x, y):
        return x if constant(pk, x) and constant(pk, y) else lie_bracket(pk, x, y)

    monkeypatch.setattr(symcalc, "lie_bracket", mutated)


def _delta_basis_one_level_deep(monkeypatch):
    # The basis of the i-th sheaf is read one level too deep, as
    # (f_{k-i}, v_{k-i}, ..., v_k) for i <= k; f_{k-i} and v_{k-i} fail the
    # pairing at level k-i+1.  Only the Delta^i lemma reads delta_basis.
    delta_basis = symcalc.delta_basis

    def mutated(chart, i):
        return delta_basis(chart, min(i + 1, chart.k + 1))

    monkeypatch.setattr(symcalc, "delta_basis", mutated)


class TestVerifyCommand:
    def test_verify_pass(self):
        code, out, _ = run_cli("verify", "RRRVV")
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_verify_normalizing_word(self):
        code, out, _ = run_cli("verify", "RVTRV")
        assert code == EXIT_OK

    def test_verify_symbolic(self):
        code, out, _ = run_cli("verify", "RRVV", "--symbolic", "--seed", "5")
        assert code == EXIT_OK
        assert "brute-force small growth agrees" in out

    def test_vo2_mismatch_is_reported(self, monkeypatch, capsys):
        # The bundle's VO_2 = m_0 - m_1 takes m_0 from the base focal orders,
        # so an oracle VO_2 off by one is a mismatch.
        from goursat import oracle

        real = oracle.vo_at_point
        monkeypatch.setattr(oracle, "vo_at_point", lambda p: (real(p)[0] + 1,) + real(p)[1:])
        assert main(["verify", "RVV"]) == EXIT_MISMATCH
        assert "RVV: MISMATCH VO_2 oracle=2 bundle=1" in capsys.readouterr().out

    def test_vo2_mismatch_writes_no_orders_agree_line(self, monkeypatch):
        # VO_2 is one of the vertical orders, so the step that says they
        # agree (and prints VO_2 with them) stays silent when it fails.
        from goursat import oracle

        real = oracle.vo_at_point
        monkeypatch.setattr(oracle, "vo_at_point", lambda p: (real(p)[0] + 1,) + real(p)[1:])
        ok, lines = verify_word(parse_word("RVV"))
        assert not ok and "RVV: MISMATCH VO_2 oracle=2 bundle=1" in lines
        assert not any("vertical orders agree" in line for line in lines)

    def test_jet_mismatch_writes_no_agree_line(self, monkeypatch, capsys):
        # Every generic-jet order one too large: each of RRVT's 6 coordinates
        # is a MISMATCH, and the report does not also say the orders agree.
        from goursat import oracle

        real = oracle.focal_order_generic_jet
        monkeypatch.setattr(
            oracle, "focal_order_generic_jet", lambda *args, **kwargs: real(*args, **kwargs) + 1
        )
        ok, lines = verify_word(parse_word("RRVT"), symbolic=True)
        mismatches = [line for line in lines if "MISMATCH generic-jet order of" in line]
        assert not ok and len(mismatches) == 6
        assert "RRVT: MISMATCH generic-jet order of r0 jet=4 procedural=3" in mismatches
        assert not any("generic-jet focal orders agree" in line for line in lines)
        assert main(["verify", "RRVT", "--symbolic"]) == EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "generic-jet focal orders agree" not in out and out.endswith("FAIL\n")

    def test_pathway_columns_are_not_walked(self, monkeypatch):
        # verify checks the pathway frame once per point, which implies every
        # column; pathway_sections walks a column only for a caller that
        # wants its rows.
        from goursat import oracle

        def walk(p, i):
            raise RuntimeError(f"verify walked pathway column {i}")

        monkeypatch.setattr(oracle, "pathway_sections", walk)
        for w, symbolic in [("RRVTVV", False), ("RVTRV", False), ("RRVV", True)]:
            ok, lines = verify_word(parse_word(w), symbolic=symbolic)
            assert ok
            assert f"{w}: pathway orders match the e-table for all columns" in lines

    def test_verify_all_words(self):
        code, out, _ = run_cli("verify", "--all-words", "4")
        assert code == EXIT_OK
        assert out.count("three-route invariants agree") == 5

    def test_all_words_printed_in_word_order(self):
        expected = []
        for w in enumerate_goursat_words(5):
            expected += verify_word(w)[1]
        code, out, _ = run_cli("verify", "--all-words", "5")
        assert code == EXIT_OK
        assert out.splitlines() == expected + ["PASS"]

    def test_all_words_balanced_by_degree(self):
        # Under --symbolic, whose brute force grows with the degree, each
        # chart's words weigh their degrees, and the charts go heaviest
        # first to the least loaded share (LPT).  So each share received
        # its lightest chart last, when no share had less load; and share
        # 0, which the parent runs, holds a heaviest chart.  At N = 6 the
        # shares that word counts would give fail this on 2 and on 3
        # workers.
        words = list(enumerate_goursat_words(6))
        degree = [invariants.nonholonomy_degree(w) for w in words]
        for workers in (2, 3):
            shares = cli._shares(words, True, workers)
            weight = {}
            for i, w in enumerate(words):
                chart = canonical_chart_point(w).chart
                weight[chart] = weight.get(chart, 0) + degree[i]
            charts = [{canonical_chart_point(words[i]).chart for i in share} for share in shares]
            loads = [sum(degree[i] for i in share) for share in shares]
            assert len(shares) == workers
            for held, load in zip(charts, loads):
                assert load - min(weight[c] for c in held) <= min(loads)
            assert max(weight[c] for c in charts[0]) == max(weight.values())

    def test_all_words_split_into_chart_shares(self, monkeypatch, capsys):
        # Every word in exactly one share, each share in word order, each
        # chart's words in one share (one lemma sweep per chart and
        # process), and the report printed in word order whatever the
        # shares.
        words = list(enumerate_goursat_words(7))
        for symbolic in (False, True):
            for workers in (1, 2, 3, 100):
                shares = cli._shares(words, symbolic, workers)
                assert sorted(i for share in shares for i in share) == list(range(len(words)))
                assert all(share == sorted(share) for share in shares)
                held = {}
                for s, share in enumerate(shares):
                    for i in share:
                        assert held.setdefault(canonical_chart_point(words[i]).chart, s) == s
                assert len(shares) == min(workers, len(held)) and len(held) == 32
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["verify", "--all-words", "7"]) == EXIT_OK
        printed = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if "three-route" in line
        ]
        assert printed == [str(w) for w in words]

    def test_chart_key_read_from_the_letters(self):
        # _shares groups by the letters' chart without building a point: in
        # the letter map each letter has one choice, whatever precedes it.
        for row in LETTER_MAP.values():
            for letter, (choice, _) in row.items():
                assert letter.translate(CHART_CHOICES) == choice
        for k in range(1, 9):
            for w in enumerate_rvt_words(k):
                key = w.symbols.translate(CHART_CHOICES)
                assert key == canonical_chart_point(w).chart.choices

    def test_fan_out_prints_what_a_serial_run_prints(self, monkeypatch, capsys):
        # One CPU runs every word in this process; three fork two children.
        outs = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert main(["verify", "--all-words", "5", "--symbolic", "--seed", "3"]) == EXIT_OK
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]

    def test_no_fork_runs_every_share_here(self, monkeypatch, capsys):
        # Where no process can be started, this process runs every share.
        def refused():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["verify", "--all-words", "5"]) == EXIT_OK
        expected = [line for w in enumerate_goursat_words(5) for line in verify_word(w)[1]]
        assert capsys.readouterr().out.splitlines() == expected + ["PASS"]

    def test_dead_worker_exits_with_budget_code(self):
        # A child that ends before it sends its results (as an OOM kill
        # would end it): verify names how it ended, prints no report and
        # exits 3, without a traceback.
        for death, cause in [
            ("os._exit(9)", "exit status 9"),
            ("os.kill(os.getpid(), signal.SIGKILL)", "signal 9"),
        ]:
            body = (
                "real = cli.verify_word\n"
                "def dying(word, *args):\n"
                "    if str(word) == child_words[0]:\n"
                f"        {death}\n"
                "    return real(word, *args)\n"
                "cli.verify_word = dying\n"
            )
            proc = run_verify_script(body, ["verify", "--all-words", "4"])
            assert proc.returncode == EXIT_BUDGET
            assert f"a worker process ended abruptly ({cause}) before" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_child_route_mismatch_reads_as_a_serial_one(self):
        # A RouteMismatch raised in a child crosses the pipe and leaves as
        # it would from a serial run: its message on stderr and exit 2.
        words = list(enumerate_goursat_words(5))
        failing = str(words[cli._shares(words, True, 2)[1][-1]])
        body = (
            "from goursat.errors import RouteMismatch\n"
            "real = cli.verify_word\n"
            "def failing(word, *args):\n"
            f"    if str(word) == {failing!r}:\n"
            "        raise RouteMismatch(f'{word}: injected route mismatch')\n"
            "    return real(word, *args)\n"
            "cli.verify_word = failing\n"
        )
        argv = ["verify", "--all-words", "5", "--symbolic"]
        forked, serial = (run_verify_script(body, argv, cpus) for cpus in (2, 1))
        assert forked.returncode == serial.returncode == EXIT_MISMATCH
        assert forked.stderr == serial.stderr and serial.stderr.endswith(
            ": injected route mismatch\n"
        )
        assert "Traceback" not in forked.stderr
        assert forked.stdout == serial.stdout == ""

    def test_parent_failure_leaves_no_child_running(self, tmp_path):
        # Three CPUs: two children, which block once they have written
        # their pids; the parent's own share fails once both have.  The
        # parent kills and reaps them before its error leaves.
        pids = tmp_path / "pids"
        body = (
            "def task(word, *args):\n"
            "    if str(word) in child_words:\n"
            f"        with open({str(pids)!r}, 'a') as f:\n"
            "            f.write(f'{os.getpid()}\\n')\n"
            "        time.sleep(30)\n"
            "    deadline = time.time() + 20\n"
            "    while time.time() < deadline:\n"
            f"        if os.path.exists({str(pids)!r}) and len(open({str(pids)!r}).readlines()) == 2:\n"
            "            break\n"
            "        time.sleep(0.01)\n"
            "    raise RuntimeError('the parent share fails')\n"
            "cli.verify_word = task\n"
        )
        start = time.perf_counter()
        proc = run_verify_script(body, ["verify", "--all-words", "4"], cpus=3)
        assert time.perf_counter() - start < 25
        assert proc.returncode != 0 and "the parent share fails" in proc.stderr
        children = list(map(int, pids.read_text().split()))
        assert len(children) == 2
        for pid in children:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_structure_lemmas_run_once_per_chart(self, monkeypatch, capsys):
        # verify --all-words 6 --symbolic, in this process and serially: the
        # 34 words share 16 charts, and each chart's bracket table is built
        # once.
        charts = []
        bracket_table = symcalc.bracket_table

        def counted(chart):
            charts.append(chart)
            return bracket_table(chart)

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(symcalc, "bracket_table", counted)
        symcalc.verify_structure.cache_clear()
        assert main(["verify", "--all-words", "6", "--symbolic"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("PASS\n")
        words = list(enumerate_goursat_words(6))
        distinct = {canonical_chart_point(w).chart for w in words}
        assert (len(words), len(distinct)) == (34, 16)
        assert len(charts) == len(distinct) and set(charts) == distinct

    def test_structure_lemmas_run_once_per_chart_across_processes(self):
        # On two CPUs, each chart's words run in one process, so the 16
        # charts of --all-words 6 --symbolic get 16 lemma sweeps between the
        # parent and its child, not one per chart and process.
        body = (
            "from goursat import symcalc\n"
            "real = symcalc.bracket_table\n"
            "def counted(chart):\n"
            "    os.write(2, f'sweep {os.getpid()} {chart.choices}\\n'.encode())\n"
            "    return real(chart)\n"
            "symcalc.bracket_table = counted\n"
        )
        proc = run_verify_script(body, ["verify", "--all-words", "6", "--symbolic"])
        assert proc.returncode == EXIT_OK, proc.stderr
        sweeps = [line.split()[1:] for line in proc.stderr.splitlines()]
        charts = [choices for _, choices in sweeps]
        distinct = {canonical_chart_point(w).chart.choices for w in enumerate_goursat_words(6)}
        assert len(charts) == 16 and set(charts) == distinct
        assert len({pid for pid, _ in sweeps}) == 2

    def test_symbolic_budget_guard(self):
        code, _, err = run_cli("verify", "RRVVVVVV", "--symbolic")
        assert code == EXIT_BUDGET
        assert "SYMBOLIC_LEVEL_LIMIT" in err

    def test_symbolic_budget_checked_before_any_work(self):
        start = time.perf_counter()
        code, _, err = run_cli("verify", "--all-words", "12", "--symbolic")
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_BUDGET
        assert "SYMBOLIC_LEVEL_LIMIT" in err

    @pytest.mark.parametrize(
        "mutate, lemma",
        [
            (_doubled_top_field, "bracket_closed_forms"),
            (_negated_top_slot, "bracket_closed_forms"),
            (_top_field_gains_f0, "f_expansion"),
            (_g_field_off_the_frame, "g_independence"),
            (_constant_fields_fail_to_commute, "bracket_closed_forms"),
            (_delta_basis_one_level_deep, "delta_annihilators"),
        ],
        ids=["doubled-top-field", "negated-top-slot", "top-field-gains-f0",
             "g-field-off-the-frame", "constant-fields-fail-to-commute",
             "delta-basis-one-level-deep"],
    )
    def test_broken_structure_lemma_fails_verify(self, mutate, lemma, monkeypatch, capsys):
        # Each mutation breaks one structure fact; the lemma that catches it
        # is named in the error, and verify --symbolic exits 2.
        word = "RRVTV"
        chart = canonical_chart_point(word).chart
        mutate(monkeypatch)
        symcalc.verify_structure.cache_clear()
        try:
            with pytest.raises(
                (RouteMismatch, NonExactDivision), match=f"{lemma} fails on chart {chart.choices}"
            ):
                symcalc.verify_structure(chart)
            assert main(["verify", word, "--symbolic"]) == EXIT_MISMATCH
        finally:
            symcalc.verify_structure.cache_clear()
        assert f"structure lemma {lemma}" in capsys.readouterr().err

    def test_symbolic_at_the_level_limit(self):
        # RRVVVVV is the slowest word with k = 7.
        code, out, err = run_cli("verify", "RRVVVVV", "--symbolic")
        assert code == EXIT_OK, err
        assert "brute-force small growth agrees" in out
        assert out.endswith("PASS\n")

    def test_verify_deep_word(self):
        # At k = 16 nothing in verify may recurse per e-table row: a
        # recursive pathway search ran out of stack here.
        code, out, err = run_cli("verify", "RR" + "V" * 14)
        assert code == EXIT_OK, err
        assert "Traceback" not in err
        assert out.endswith("PASS\n")

    def test_all_words_limit(self):
        code, _, err = run_cli("verify", "--all-words", "1200")
        assert code == EXIT_BUDGET
        assert "Traceback" not in err
        assert f"ALL_WORDS_LEVEL_LIMIT = {ALL_WORDS_LEVEL_LIMIT}" in err

    def test_word_and_all_words_refused(self, capsys):
        assert main(["verify", "RR", "--all-words", "3"]) == EXIT_INVALID
        assert "not both" in capsys.readouterr().err


def test_verify_word_validates_no_word_and_builds_one_chart_per_chart(monkeypatch):
    # A cost guard: verify_word works on the one validated word and the
    # shared charts, so it validates no lift or re-typed word, builds each
    # of the 64 charts of k = 8 once, builds each chart's candidate pathway
    # steps once (each build reads focal_slots once; the patched function
    # is a new cache key, so no step built before counts), and scans the
    # word for its proximity diagram without lifting it.
    words = list(enumerate_goursat_words(8))
    validated, charts, slots, lifts = [], [], [], []

    def counting_validate(symbols):
        validated.append(symbols)
        return validate(symbols)

    def counting_init(self, choices):
        charts.append(choices)
        init(self, choices)

    def counting_slots(chart):
        slots.append(chart.choices)
        return focal_slots(chart)

    def counting_lift(symbols):
        lifts.append(symbols)
        return lift_symbols(symbols)

    validate, init = codeword._validate_rvt, Chart.__init__
    focal_slots, lift_symbols = oracle.focal_slots, codeword.lift_symbols
    codeword._chart.cache_clear()
    monkeypatch.setattr(codeword, "_validate_rvt", counting_validate)
    monkeypatch.setattr(Chart, "__init__", counting_init)
    monkeypatch.setattr(oracle, "focal_slots", counting_slots)
    monkeypatch.setattr(codeword, "lift_symbols", counting_lift)
    # a proximity that imported the name would hold its own reference
    monkeypatch.setattr(proximity, "lift_symbols", counting_lift, raising=False)
    for w in words:
        assert verify_word(w)[0]
    assert validated == []
    assert len(charts) == len(set(charts)) == 64
    assert len(slots) == len(set(slots)) == 64
    assert lifts == []


@pytest.mark.parametrize(
    "argv", [["verify", "--all-words", "5"], ["invariants", "--json", "RR" + "V" * 20]]
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # The reading end is closed before the command writes, as when
    # `| head` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "goursat.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [["verify", "RR" + "V" * 15], ["chart", "RR" + "V" * 15], ["bracket-table", "o" * 17],
     ["verify", "RV" + "T" * 15], ["chart", "RV" + "T" * 15]],
)
def test_chart_level_cap_is_a_budget(argv, capsys):
    assert main(argv) == EXIT_BUDGET
    assert f"MAX_LEVELS = {MAX_LEVELS}" in capsys.readouterr().err
    assert main(["bracket-table", "o" * 17 + "x"]) == EXIT_INVALID


@pytest.mark.parametrize("command", ["invariants", "etable", "puiseux"])
@pytest.mark.parametrize("k", [MAX_LEVELS + 1, MAX_WORD_LENGTH])
def test_chart_level_cap_spares_the_invariants(command, k, capsys):
    # A word that is not a Goursat word takes its m_0 from the focal orders
    # at its chart point; the chart cap applies to chart, bracket-table and
    # verify only.
    word = "RV" + "T" * (k - 2)
    assert main([command, word]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_refuses_levels_before_building_the_bundle(monkeypatch, capsys):
    def no_bundle(*args, **kwargs):
        raise AssertionError("verify built the bundle of a word past MAX_LEVELS")

    monkeypatch.setattr(invariants, "bundle", no_bundle)
    assert main(["verify", "R" * (MAX_LEVELS + 1)]) == EXIT_BUDGET
    assert f"MAX_LEVELS = {MAX_LEVELS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["invariants"], ["invariants", "--json"], ["etable"], ["prox"], ["prox", "--dot"],
     ["lift"], ["puiseux"], ["chart"], ["verify"], ["verify", "--symbolic"]],
    ids=" ".join,
)
def test_word_length_is_a_budget(command):
    # One letter past the limit is refused at once; the refusal names the
    # limit and k, not the word.
    word = "RR" + "V" * (MAX_WORD_LENGTH - 1)
    start = time.perf_counter()
    code, out, err = run_cli(*command, word)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET and out == ""
    assert f"MAX_WORD_LENGTH = {MAX_WORD_LENGTH}" in err
    assert f"k = {MAX_WORD_LENGTH + 1}" in err
    assert "VVVV" not in err


@pytest.mark.parametrize(
    "argv", [[], ["invariants"], ["frobnicate", "RR"], ["verify", "--all-words", "x"]]
)
def test_usage_errors_exit_invalid(argv, capsys):
    # Exit code 2 is reserved for a verification mismatch.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    assert "usage:" in capsys.readouterr().err


def test_main_invocation_in_process(capsys):
    assert main(["invariants", "RR"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "beta:                 (1, 2, 3)" in out
    assert main(["invariants", ""]) == EXIT_INVALID


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    import goursat.cli as cli

    def fake_verify(word, *args):
        return False, [f"{word}: MISMATCH injected for the exit-code contract"]

    monkeypatch.setattr(cli, "verify_word", fake_verify)
    parser = cli.build_parser()
    args = parser.parse_args(["verify", "RR"])
    assert args.func(args) == EXIT_MISMATCH
    assert "FAIL" in capsys.readouterr().out


def test_cli_starts_without_the_symbolic_modules():
    # Only verify, chart, bracket-table and a word that is not a Goursat
    # word need the oracle, the vector fields or the polynomials; they
    # import them when they run.
    script = (
        "import sys, goursat.cli\n"
        "print([m for m in ('goursat.oracle', 'goursat.symcalc', 'goursat.polynomial',"
        " 'goursat.fanout') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

    # Nor do they start with the modules that cost the most to import:
    # dataclasses (with inspect), fractions (with decimal) and json, which
    # only invariants --json needs.  One line of loaded modules per stage.
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True,
    )
    assert bare.returncode == 0, bare.stderr
    baseline = set(bare.stdout.split())
    script = (
        "import contextlib, io, os, sys, goursat.cli\n"
        "def loaded(*argvs):\n"
        "    for argv in argvs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert goursat.cli.main(argv) == 0, argv\n"
        "    print(*sys.modules)\n"
        "loaded(['invariants', 'RRVTVV'], ['etable', 'RRVTVV'], ['lift', 'RR'])\n"
        "loaded(['invariants', 'RRVTVV', '--json'])\n"
        "loaded(['verify', 'RRVV'])\n"
        "loaded(['verify', 'RRVV', '--symbolic'])\n"
        "os.cpu_count = lambda: 2\n"
        "loaded(['verify', '--all-words', '5'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plain, as_json, verify, symbolic, all_words = (
        set(line.split()) for line in proc.stdout.splitlines()
    )
    costly = {"dataclasses", "inspect", "fractions", "decimal", "json"}
    assert not costly & (plain - baseline)
    assert not {"goursat.oracle", "goursat.symcalc", "goursat.polynomial", "goursat.fanout"} & plain
    # _json is the json package's C accelerator.
    assert {m.partition(".")[0] for m in as_json - plain} <= {"json", "_json"}
    assert "json" in as_json
    assert "dataclasses" not in verify - baseline
    # The package computes in ints only, so verify needs no fractions.
    assert not {"fractions", "decimal"} & (symbolic - baseline)
    # verify --all-words forks its workers itself, without an executor.
    assert not {"concurrent", "concurrent.futures", "multiprocessing"} & all_words
