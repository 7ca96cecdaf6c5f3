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

    from goursat import invariants, oracle, proximity
    from goursat.codeword import canonical_chart_point
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


    # The pathway search caches one frame per point, so each case below
    # uses its own word.
    def pathway_with_a_raised_column_sum():
        def raise_s5(column_sums):
            def sums(vo, k):
                out = column_sums(vo, k)
                out[5] += 1
                return out
            return sums

        with patched(invariants, "_column_sums", raise_s5):
            oracle.pathway_sections(canonical_chart_point("RRVTVV"), 5)


    def pathway_with_a_scaled_focal_field():
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
            oracle.pathway_sections(canonical_chart_point("RRVVVV"), 5)


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
            pathway_with_a_raised_column_sum,
            "diagonal term at h=5 has order 3, expected 4",
        ),
        # f_6 times n_6: each g_0 step lowers the order by o(n_6) less, so no
        # chain from column 5 reaches zero
        "oracle.pathway_sections chain": (
            OrderMismatch,
            pathway_with_a_scaled_focal_field,
            "no pathway from column 5 tracks orders down to zero at h=8",
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
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
