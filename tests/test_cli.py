import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from goursat import invariants, symcalc
from goursat.codeword import (
    MAX_LEVELS,
    canonical_chart_point,
    enumerate_goursat_words,
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
    render_etable,
    verify_word,
)
from goursat.errors import LevelLimitExceeded, NonExactDivision, NotRealizable, RouteMismatch
from goursat.polynomial import Poly
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


class EagerPool:
    """Stands in for ProcessPoolExecutor: map runs the tasks in this process,
    chunk by chunk in submission order, and records each chunk's words."""

    def __init__(self):
        self.workers = None
        self.chunks = []

    def __call__(self, max_workers):
        self.workers = max_workers
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @property
    def submitted(self):
        return [word for chunk in self.chunks for word in chunk]

    def map(self, fn, iterable, chunksize=1):
        tasks = list(iterable)
        results = []
        for start in range(0, len(tasks), chunksize):
            chunk = tasks[start : start + chunksize]
            self.chunks.append([task[0] for task in chunk])
            results.extend(map(fn, chunk))
        return iter(results)


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
            bundle = cli._wired(invariants.bundle, parse_word(command[1]))
            if output_bound(bundle, form) < printed:
                short.append(" ".join(command))
        assert short == []

    @pytest.mark.parametrize("word", LONG_WORDS)
    @pytest.mark.parametrize("form", ["text", "json", "etable"])
    def test_bound_is_tight_for_long_words(self, word, form):
        code, printed = _printed([*_FORM_ARGV[form], word])
        bound = output_bound(invariants.bundle(word), form)
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


def _doubled_top_field(monkeypatch):
    std_fields = symcalc.std_fields

    def mutated(chart):
        fs, vs = std_fields(chart)
        return fs[:-1] + (2 * fs[-1],), vs

    monkeypatch.setattr(symcalc, "std_fields", mutated)


def _negated_top_slot(monkeypatch):
    # The r_0 slot of f_k turns negative, so f_k maps r_0 to a negative
    # coefficient: what the monomial-positivity check used to catch.
    std_fields = symcalc.std_fields

    def mutated(chart):
        fs, vs = std_fields(chart)
        top = fs[-1]
        return fs[:-1] + (symcalc.VField(top.nvars, (-top.comps[0],) + top.comps[1:]),), vs

    monkeypatch.setattr(symcalc, "std_fields", mutated)


def _g_field_off_the_frame(monkeypatch):
    # Every g_i with i >= 2 gains Q times the sum of the frame fields, for a
    # monomial Q in n_0..n_k of high degree (so every later division stays
    # exact).  Then g_i fails [g_1, g_i] = 0 and lies in no Delta^i: what the
    # [g_1, g_i] and g-membership checks used to catch.  The g-basis is the
    # only caller of divide_monomial.
    divide_monomial = Poly.divide_monomial

    def mutated(self, exps):
        nv = self.nvars
        return divide_monomial(self, exps) + Poly.monomial(nv, {v: 2 * nv for v in range(1, nv)})

    monkeypatch.setattr(Poly, "divide_monomial", mutated)


def _constant_fields_fail_to_commute(monkeypatch):
    # The bracket of two constant fields comes out nonzero: [g_1, g_i] for a
    # vertical g_i brackets two constant fields, as [v_i, f_0] does.
    lie_bracket = symcalc.lie_bracket

    def constant(x):
        return not any(any(m) for p in x.comps for m in p.terms)

    def mutated(x, y):
        return x if constant(x) and constant(y) else lie_bracket(x, y)

    monkeypatch.setattr(symcalc, "lie_bracket", mutated)


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

    def test_all_words_start_deepest_first(self, monkeypatch, capsys):
        # Under --symbolic, whose brute force grows with the degree.  An
        # executor that runs each task when it is submitted completes the
        # tasks in submission order, which is not word order.
        pool = EagerPool()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        assert main(["verify", "--all-words", "5", "--symbolic"]) == EXIT_OK
        words = [str(w) for w in enumerate_goursat_words(5)]
        degrees = [invariants.nonholonomy_degree(w) for w in pool.submitted]
        assert degrees == sorted(degrees, reverse=True)
        assert pool.submitted != words and sorted(pool.submitted) == sorted(words)
        printed = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if "three-route" in line
        ]
        assert printed == words

    def test_all_words_go_out_in_chunks(self, monkeypatch, capsys):
        # One CPU: the 89 words of length 7 go out in chunks of 89 // 16 = 5.
        # Without --symbolic they go out in word order, not sorted by degree.
        pool = EagerPool()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["verify", "--all-words", "7"]) == EXIT_OK
        words = [str(w) for w in enumerate_goursat_words(7)]
        assert pool.workers == 1 and len(words) == 89
        assert [len(chunk) for chunk in pool.chunks] == [5] * 17 + [4]
        assert pool.submitted == words
        printed = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if "three-route" in line
        ]
        assert printed == words

    def test_dead_worker_exits_with_budget_code(self):
        # A worker that exits abruptly (as an OOM kill would end it) breaks
        # the pool; verify names the cause and exits 3, without a traceback.
        script = (
            "import os, sys\n"
            "from goursat import cli\n"
            "real = cli._verify_task\n"
            "def dying(task):\n"
            "    if task[0] == 'RRVV':\n"
            "        os._exit(9)\n"
            "    return real(task)\n"
            "cli._verify_task = dying\n"
            "sys.exit(cli.main(['verify', '--all-words', '4']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_BUDGET
        assert "BrokenProcessPool" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_structure_lemmas_run_once_per_chart(self, monkeypatch, capsys):
        # verify --all-words 6 --symbolic, in this process and serially: the
        # 34 words share 16 charts, and each chart's bracket table is built
        # once.
        charts = []
        bracket_table = symcalc.bracket_table

        def counted(chart):
            charts.append(chart)
            return bracket_table(chart)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", EagerPool())
        monkeypatch.setattr(symcalc, "bracket_table", counted)
        symcalc.verify_structure.cache_clear()
        assert main(["verify", "--all-words", "6", "--symbolic"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("PASS\n")
        words = list(enumerate_goursat_words(6))
        distinct = {canonical_chart_point(w).chart for w in words}
        assert (len(words), len(distinct)) == (34, 16)
        assert len(charts) == len(distinct) and set(charts) == distinct

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
            (_g_field_off_the_frame, "g_independence"),
            (_constant_fields_fail_to_commute, "bracket_closed_forms"),
        ],
        ids=["doubled-top-field", "negated-top-slot", "g-field-off-the-frame",
             "constant-fields-fail-to-commute"],
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

    def test_depth_budget(self):
        code, _, err = run_cli("verify", "RRVTVV", "--symbolic", "--depth", "4")
        assert code == EXIT_BUDGET

    def test_all_words_limit(self):
        code, _, err = run_cli("verify", "--all-words", "1200")
        assert code == EXIT_BUDGET
        assert "Traceback" not in err
        assert f"ALL_WORDS_LEVEL_LIMIT = {ALL_WORDS_LEVEL_LIMIT}" in err

    def test_word_and_all_words_refused(self, capsys):
        assert main(["verify", "RR", "--all-words", "3"]) == EXIT_INVALID
        assert "not both" in capsys.readouterr().err


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
    [["verify", "RR" + "V" * 15], ["chart", "RR" + "V" * 15], ["bracket-table", "o" * 17]],
)
def test_chart_level_cap_is_a_budget(argv, capsys):
    assert main(argv) == EXIT_BUDGET
    assert f"MAX_LEVELS = {MAX_LEVELS}" in capsys.readouterr().err
    assert main(["bracket-table", "o" * 17 + "x"]) == EXIT_INVALID


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

    def fake_verify(task):
        return False, [f"{task[0]}: MISMATCH injected for the exit-code contract"]

    monkeypatch.setattr(cli, "_verify_task", fake_verify)
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
        "print([m for m in ('goursat.oracle', 'goursat.symcalc', 'goursat.polynomial')"
        " if m in sys.modules])\n"
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
        "import contextlib, io, sys, goursat.cli\n"
        "def loaded(*argvs):\n"
        "    for argv in argvs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert goursat.cli.main(argv) == 0, argv\n"
        "    print(*sys.modules)\n"
        "loaded(['invariants', 'RRVTVV'], ['etable', 'RRVTVV'], ['lift', 'RR'])\n"
        "loaded(['invariants', 'RRVTVV', '--json'])\n"
        "loaded(['verify', 'RRVV'])\n"
        "loaded(['verify', 'RRVV', '--symbolic'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plain, as_json, verify, symbolic = (set(line.split()) for line in proc.stdout.splitlines())
    costly = {"dataclasses", "inspect", "fractions", "decimal", "json"}
    assert not costly & (plain - baseline)
    assert not {"goursat.oracle", "goursat.symcalc", "goursat.polynomial"} & plain
    # _json is the json package's C accelerator.
    assert {m.partition(".")[0] for m in as_json - plain} <= {"json", "_json"}
    assert "json" in as_json
    assert "dataclasses" not in verify - baseline
    # The package computes in ints only, so verify needs no fractions.
    assert not {"fractions", "decimal"} & (symbolic - baseline)
