"""Route checks raise errors rather than assert, so they hold under
`python -O`, which strips assert statements."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each case makes one route check fail and names the error it must raise.
SCRIPT = textwrap.dedent(
    """
    from fractions import Fraction

    from goursat import invariants, oracle, proximity
    from goursat.errors import RouteMismatch, TruncationTooSmall

    assert False, "asserts are live: the script must run under -O"


    def zero_entry(table, h, i):
        return 0


    def table_whose_columns_vanish_at_once():
        invariants.ETable.entry = zero_entry
        invariants.e_table((0, 5, 0, 1, 1), 6)


    cases = {
        # m_0 = 2 differs from m_1 = 1 on this diagram
        "proximity._multiplicities": (
            RouteMismatch,
            lambda: proximity._multiplicities(frozenset({(0, 1), (1, 2), (0, 2)}), 2),
        ),
        "oracle.Series.shift_out": (
            TruncationTooSmall,
            lambda: oracle.Series((Fraction(1), Fraction(0))).shift_out(1),
        ),
        "invariants.e_table": (RouteMismatch, table_whose_columns_vanish_at_once),
    }
    failures = 0
    for name, (error, call) in cases.items():
        try:
            call()
        except error:
            continue
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
