"""Route checks raise errors rather than assert, so they hold under
`python -O`, which strips assert statements."""

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
    from contextlib import contextmanager

    from goursat import cli, invariants, oracle, proximity
    from goursat.codeword import Chart, canonical_chart_point, parse_word
    from goursat.errors import OrderMismatch, RouteMismatch, TruncationTooSmall

    assert False, "asserts are live: the script must run under -O"


    @contextmanager
    def patched(owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        try:
            yield
        finally:
            setattr(owner, name, original)


    # Each pathway mutation runs through a check: the walk down one column
    # (pathway_sections), or verify's own path (verify_word), which checks
    # the frame once per point.  The frame is cached per point, so each
    # mutation uses its own word.
    def walk(word, i):
        oracle.pathway_sections(canonical_chart_point(word), i)


    def verify(word, i):
        # every column of the word at once
        cli.verify_word(parse_word(word))


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


    cases = {
        # m_0 = 2 differs from m_1 = 1 on this diagram
        "proximity._multiplicities": (
            RouteMismatch,
            lambda: proximity._multiplicities(frozenset({(0, 1), (1, 2), (0, 2)}), 2),
            "",
        ),
        "oracle.Series.shift_out": (
            TruncationTooSmall,
            lambda: oracle.Series((1, 0)).shift_out(1),
            "",
        ),
        # S_5 one too large: the diagonal term n5*n6^2 has order 3, not 4
        "oracle.pathway_sections diagonal": (
            OrderMismatch,
            lambda: pathway_with_a_raised_column_sum(walk),
            "diagonal term at h=5 has order 3, expected 4",
        ),
        # _column_sums also feeds the e-table route of the bundle, which
        # verify builds before it reaches the pathway frame
        "cli.verify_word diagonal": (
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
        "cli.verify_word chain": (
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
        "cli.verify_word squared slot": (
            OrderMismatch,
            lambda: pathway_with_squared_ordinary_slots(verify),
            "the focal step on n0 changes the order by 22, not -1, on chart ooiooiii",
        ),
    }
    failures = 0
    for name, (error, call, message) in cases.items():
        try:
            call()
        except error as exc:
            if message in str(exc):
                continue
            print(f"{name}: raised {exc!r}, expected the message {message!r}")
        except Exception as exc:
            print(f"{name}: raised {type(exc).__name__}, expected {error.__name__}")
        else:
            print(f"{name}: returned without raising {error.__name__}")
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
