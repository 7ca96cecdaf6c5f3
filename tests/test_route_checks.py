"""Route checks raise errors rather than assert, so they hold under
`python -O`, which strips assert statements.  So do the guard of
symcalc.Packing's rows, which raises where an exponent would otherwise
carry into the next field, and the structure lemmas on those rows.

The field matrix mutates, for each field of InvariantBundle, the route
that produces it, and names the error of bundle or the MISMATCH line of
verify that catches the mutation.  The fields that verify's checks cover
are read from verify.route_checks, and each must be reported under some
mutation.  der2, nonholonomy_degree and the e-table's rows are
written from checked values (der, beta and b) after every check, so no
run-time check reads them; tests pin them instead.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each case makes one route check fail and names the error it must raise,
# with a part of its message ("" when any message will do).
SCRIPT = textwrap.dedent(
    """
    import inspect
    import operator
    import textwrap
    from contextlib import contextmanager

    from goursat import cli, codeword, invariants, oracle, proximity, symcalc
    from goursat.charts import Chart, canonical_chart_point, enumerate_rvt_words
    from goursat.codeword import parse_word
    from goursat.errors import (
        ExponentOverflow,
        NonExactDivision,
        OrderMismatch,
        RouteMismatch,
        TruncationTooSmall,
    )
    from goursat.verify import route_checks, verify_word

    assert False, "asserts are live: the script must run under -O"


    @contextmanager
    def patched(owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        try:
            yield
        finally:
            setattr(owner, name, original)


    @contextmanager
    def mutated(module, name, old, new, owner=None):
        # The function recompiled from its own source with old replaced by
        # new, in its module's namespace, and set on owner (the module
        # itself by default)
        owner = module if owner is None else owner
        source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
        if source.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} must occur once in its source")
        scope = {}
        exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), scope)
        with patched(owner, name, lambda original: scope[name]):
            yield


    class Reported(Exception):
        # verify_word returned not ok; the message holds its MISMATCH lines,
        # and fields the bundle fields of verify's checks that failed
        def __init__(self, message, fields):
            super().__init__(message)
            self.fields = fields


    def verify_reports(word, symbolic=False):
        ok, lines = verify_word(parse_word(word), symbolic=symbolic)
        if not ok:
            steps = route_checks(parse_word(word), symbolic=symbolic)
            failed = {c.field for _, checks in steps for c in checks if c.left[1] != c.right[1]}
            raise Reported(" ".join(line for line in lines if "MISMATCH" in line), failed)


    def under(mutation, call):
        def run():
            with mutation:
                call()
        return run


    def last_v_read_as_t(as_word):
        def read(w):
            w = as_word(w)
            return as_word(w.symbols[:-1] + "T") if w.symbols.endswith("V") else w
        return read


    def wired_m0_plus_one(base_multiplicity_at_point):
        return lambda p: base_multiplicity_at_point(p) + 1


    def bundle_with_a_mutated_backend(old, new):
        with mutated(invariants, "beta_backend", old, new):
            invariants.bundle("RRVTVV")


    # Each pathway mutation runs through a check: the walk down one column
    # (pathway_sections), or verify's own path (verify_word), which checks
    # the frame once per point.  The frame is built at every call, from
    # candidate steps cached per chart and focal_slots function, so a
    # mutation that patches focal_slots is read on a chart already seen.
    def walk(word, i):
        oracle.pathway_sections(canonical_chart_point(word), i)


    def verify(word, i):
        # every column of the word at once
        verify_word(parse_word(word))


    def pathway_with_a_raised_column_sum(check):
        def raise_s5(column_sums):
            def sums(vo, k):
                out = column_sums(vo, k)
                out[5] += 1
                return out
            return sums

        with patched(invariants, "_column_sums", raise_s5):
            check("RRVTVV", 5)


    def pathway_with_a_scaled_focal_field(check):
        def scale_top_field(focal_slots):
            def slots(chart):
                *below, top = focal_slots(chart)
                nk = chart.k + 1
                top = tuple(
                    None if s is None else s[:nk] + (s[nk] + 1,) + s[nk + 1 :] for s in top
                )
                return (*below, top)
            return slots

        with patched(oracle, "focal_slots", scale_top_field):
            check("RRVVVV", 5)


    def pathway_with_squared_ordinary_slots(check):
        # As if focal_slots set slot n_{i-1} to n_i^2 at each ordinary level i
        def square_ordinary_slots(focal_slots):
            def slots(chart):
                *below, top = focal_slots(chart)
                top = list(top)
                for i in range(1, chart.k + 1):
                    if i not in chart.ip:
                        s, ni = top[Chart.n_var(i - 1)], Chart.n_var(i)
                        top[Chart.n_var(i - 1)] = s[:ni] + (s[ni] + 1,) + s[ni + 1 :]
                return (*below, tuple(top))
            return slots

        with patched(oracle, "focal_slots", square_ordinary_slots):
            check("RRVTTVVV", 9)


    # On chart o, f_1 = d/dr_0 + n_1 d/dn_0 and [f_1, n_0 n_1 d/dr_0] is
    # n_1^2 d/dr_0.  A budget of one step packs each exponent in 2 bits,
    # the upper one the guard, so n_1^2 reaches it: the bracket must raise
    # before a carry would turn the exponent into another coordinate's.
    # With a budget of two steps the same bracket fits.
    def bracket_past_the_guard():
        roomy = oracle.GeneratorSet(Chart("o"), 2)
        pk = roomy.packing
        if roomy.bracket_f({pk.mono((0, 1, 1)): 1}) != {pk.mono((0, 0, 2)): 1}:
            raise SystemExit("[f_1, n0*n1 d/dr0] is not n1^2 d/dr0 with room to spare")
        gens = oracle.GeneratorSet(Chart("o"), 1)
        gens.bracket_f({gens.packing.mono((0, 1, 1)): 1})

    def pack_past_the_guard():
        oracle.GeneratorSet(Chart("o"), 1).packing.mono((0, 0, 2))

    def structure_lemma(mutation):
        # verify_structure on RRVTV's chart under a mutation of its lemmas
        def run():
            symcalc.verify_structure.cache_clear()
            with mutation:
                symcalc.verify_structure(canonical_chart_point("RRVTV").chart)
        return run

    def constant_fields_fail_to_commute(lie_bracket):
        def mutated(pk, x, y):
            if all(key <= pk.cmask for key in (*x, *y)):
                return x
            return lie_bracket(pk, x, y)
        return mutated

    def quotient_one_level_short(divide):
        # each g-basis division takes off n_1 as well, which no term holds
        def mutated(self, row, exps):
            return divide(self, row, exps[:2] + (1,) + exps[3:])
        return mutated

    cases = {
        "oracle.GeneratorSet.bracket_f at the guard": (
            ExponentOverflow,
            bracket_past_the_guard,
            "exponents (0, 0, 2) reach 2, the guard bit of their 2-bit fields, on chart o",
        ),
        "symcalc.Packing.mono at the guard": (
            ExponentOverflow,
            pack_past_the_guard,
            "exponents (0, 0, 2) reach 2",
        ),
        "symcalc.verify_structure: constant fields fail to commute": (
            RouteMismatch,
            structure_lemma(patched(symcalc, "lie_bracket", constant_fields_fail_to_commute)),
            "structure lemma bracket_closed_forms fails on chart ooioi: "
            "[v_0, f_0] deviates from its closed form",
        ),
        "symcalc.verify_structure: a g-basis division one level short": (
            NonExactDivision,
            structure_lemma(patched(symcalc.Packing, "divide", quotient_one_level_short)),
            "structure lemma g_independence fails on chart ooioi: term with exponents",
        ),
        # der and der2 are the differences of beta, so a wrong beta shows in
        # der against the front end's (1, m_{k-1}, ..., m_1)
        "invariants.beta_backend R adds 2": (
            RouteMismatch,
            lambda: bundle_with_a_mutated_backend("1 + p for", "2 + p for"),
            "der: (1, 1, 2, 3, 3, 8) vs (1, 1, 2, 3, 3, 11)",
        ),
        "invariants.beta_backend V reads prev[idx - 2]": (
            RouteMismatch,
            lambda: bundle_with_a_mutated_backend(
                "p + o for p, o in zip(prev[1:], older)", "p + o for p, o in zip(prev, older)"
            ),
            "der: (1, 1, 2, 3, 3, 8) vs (1, 0, 2, 1, 1, 4)",
        ),
        "oracle.Series.shift_out": (
            TruncationTooSmall,
            lambda: oracle.Series((1, 0)).shift_out(1),
            "",
        ),
        # S_5 one too large: _column_sums feeds the e-table route of the
        # bundle, which verify builds before it reaches the pathway frame
        "verify.verify_word diagonal": (
            RouteMismatch,
            lambda: pathway_with_a_raised_column_sum(verify),
            "beta from b",
        ),
        # f_6 times n_6: each g_0 step lowers the order by o(n_6) = 1 less,
        # so the first coordinate of positive order, r_0, keeps it
        "oracle.pathway_sections chain": (
            OrderMismatch,
            lambda: pathway_with_a_scaled_focal_field(walk),
            "the focal step on r0 changes the order by 0, not -1, on chart ooiiii",
        ),
        "verify.verify_word chain": (
            OrderMismatch,
            lambda: pathway_with_a_scaled_focal_field(verify),
            "the focal step on r0 changes the order by 0, not -1, on chart ooiiii",
        ),
        # slot n_0 of f_8 holds n_1^2, not n_1, so the step on n_0 raises the
        # order; a search over the steps for a pathway down column 9 ran on
        # for about 23 s before it gave up
        "oracle.pathway_sections squared slot": (
            OrderMismatch,
            lambda: pathway_with_squared_ordinary_slots(walk),
            "the focal step on n0 changes the order by 22, not -1, on chart ooiooiii",
        ),
        "verify.verify_word squared slot": (
            OrderMismatch,
            lambda: pathway_with_squared_ordinary_slots(verify),
            "the focal step on n0 changes the order by 22, not -1, on chart ooiooiii",
        ),
    }
    # The field matrix: one route per field of InvariantBundle (beta above)
    cases.update({
        "word: the bundle reads RRVTVV as RRVTVT": (
            Reported,
            under(patched(invariants, "_as_word", last_v_read_as_t),
                  lambda: verify_reports("RRVTVV")),
            "MISMATCH restricted vertical orders oracle=(5, 0, 1, 1) combinatorial=(4, 0, 2, 0)",
        ),
        "goursat_word: the normalization ends in R": (
            RouteMismatch,
            under(mutated(codeword, "goursat_normalize", "_regularize(w.symbols, 2)",
                          "_regularize(w.symbols[:-1] + 'R', 2)", owner=invariants),
                  lambda: cli._wired(parse_word("RVTVV"))),
            "oracle-wired m_0",
        ),
        "k: one level too many": (
            ValueError,
            under(mutated(invariants, "bundle", "k = gw.k", "k = gw.k + 1"),
                  lambda: invariants.bundle("RRVTVV")),
            "expected 6 multiplicities for k=7, got 5",
        ),
        "der: the last difference replaced by 1": (
            RouteMismatch,
            under(mutated(invariants, "bundle", "der_be = _differences(beta_be)",
                          "der_be = _differences(beta_be)[:-1] + (1,)"),
                  lambda: invariants.bundle("RRVTVV")),
            "der: (1, 1, 2, 3, 3, 8) vs (1, 1, 2, 3, 3, 1)",
        ),
        "sg: base 2": (
            Reported,
            under(mutated(invariants, "sg_from_beta", "StepSequence(1, beta[-1], 1, beta)",
                          "StepSequence(1, beta[-1], 2, beta)"),
                  lambda: verify_reports("RRVTVV", symbolic=True)),
            "MISMATCH small growth brute=(2, 3, 4, 4,",
        ),
        "mult_vector: m_k = 2": (
            RouteMismatch,
            under(mutated(proximity, "_multiplicities", "m[k] = 1", "m[k] = 2"),
                  lambda: invariants.bundle("RRVTVV")),
            "der: (1, 2, 4, 6, 6, 16) vs (1, 1, 2, 3, 3, 8)",
        ),
        "m0: the Goursat m_0 one more than m_1": (
            RouteMismatch,
            under(mutated(invariants, "_resolve_m0", "        return m1\\n",
                          "        return m1 + 1\\n"),
                  lambda: invariants.bundle("RRVTVV")),
            "m_0 = 9 does not fit RRVTVV: no Puiseux characteristic yields (9, 8, 3, 3, 2, 1)",
        ),
        "m0: the wired m_0 one more than the oracle's": (
            Reported,
            under(patched(oracle, "base_multiplicity_at_point", wired_m0_plus_one),
                  lambda: verify_reports("RVTRV")),
            "MISMATCH VO_2",
        ),
        "vo: VO_3 .. VO_k one too large": (
            RouteMismatch,
            under(mutated(invariants, "vo_from_mult", "out.append(diff)", "out.append(diff + 1)"),
                  lambda: invariants.bundle("RRVTVV")),
            "beta from b: (1, 2, 3, 6, 11, 17, 29) vs (1, 2, 3, 5, 8, 11, 19)",
        ),
        "vo: VO_2 one too large": (
            Reported,
            under(mutated(invariants, "bundle", "(m0 - m1,)", "(m0 - m1 + 1,)"),
                  lambda: verify_reports("RRVTVV")),
            "MISMATCH VO_2 oracle=0 bundle=1",
        ),
        # S_i = S_{i-1} + tail_i, so each weight one larger adds tail_i to S_i
        "b: each column sum's weight one larger": (
            RouteMismatch,
            under(mutated(invariants, "_column_sums", "sums[i] = total", "sums[i] = total + tail"),
                  lambda: invariants.bundle("RRVTVV")),
            "beta from b",
        ),
        "e_table: b_i = i + S_i + 1": (
            RouteMismatch,
            under(mutated(invariants, "e_table", "i + s for", "i + s + 1 for"),
                  lambda: invariants.bundle("RRVTVV")),
            "beta from b: (1, 3, 4, 6, 9, 12, 20) vs (1, 2, 3, 5, 8, 11, 19)",
        ),
        "puiseux: a block's gap one e too large": (
            RouteMismatch,
            under(mutated(invariants, "pc_from_multseq", "d = run * e + r", "d = run * e + r + e"),
                  lambda: invariants.bundle("RRVTVV")),
            "no Puiseux characteristic yields (8, 8, 3, 3, 2, 1)",
        ),
    })

    failures = 0
    reported = set()
    for name, (error, call, message) in cases.items():
        try:
            call()
        except error as exc:
            if message in str(exc):
                reported |= getattr(exc, "fields", set())
                continue
            print(f"{name}: raised {exc!r}, expected the message {message!r}")
        except Exception as exc:
            print(f"{name}: raised {type(exc).__name__}, expected {error.__name__}")
        else:
            print(f"{name}: returned without raising {error.__name__}")
        failures += 1

    # The fields that verify's checks cover, read from the checks: each
    # must be one that a mutated route above makes verify report.
    steps = route_checks(parse_word("RRVTVV"), symbolic=True)
    covered = {c.field for _, checks in steps for c in checks} - {None}
    if not covered or reported != covered:
        print(f"verify's checks cover {sorted(covered)}, the mutations reach {sorted(reported)}")
        failures += 1

    # An edge (0, 2) changes only vertex 0's multiplicity, which prox
    # prints and no invariant reads: no bundle may change, prox must.
    def wired_bundle(w):
        try:
            return cli._wired(w)
        except Exception as exc:
            return repr(exc)

    def wired_bundles():
        return [wired_bundle(w) for k in range(2, 9) for w in enumerate_rvt_words(k)]

    before = wired_bundles()
    prox_before = proximity.build_diagram("RRVTVV").mult
    with mutated(proximity, "build_diagram", "edges = frozenset(edges)",
                 "edges = frozenset(edges | {(0, 2)})"):
        after = wired_bundles()
        prox_after = proximity.build_diagram("RRVTVV").mult
    if len(before) != 986 or after != before or prox_after == prox_before:
        print(f"the (0, 2) edge: {sum(map(operator.ne, before, after))} of "
              f"{len(before)} bundles changed, prox {prox_before} -> {prox_after}")
        failures += 1
    raise SystemExit(failures)
    """
)


def test_route_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
