"""Command-line front end: compute, render, verify, and serialize.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 resource budget exceeded.  A command whose reader closes stdout early
(as ``| head`` does) stops writing and exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, repeat

# goursat.verify (the verify, chart and bracket-table commands), charts,
# oracle and symcalc are imported where they are used, so that invariants,
# etable and the other commands start without them.
from . import invariants, proximity
from .codeword import RvtWord, is_goursat, lift, parse_word
from .errors import (
    GoursatError,
    InvalidM0,
    LevelLimitExceeded,
    OutputBudgetExceeded,
    RouteMismatch,
    StepBudgetExceeded,
    TruncationTooSmall,
    WordError,
)
from .invariants import InvariantBundle

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

# The output of invariants, invariants --json and etable grows like
# degree * k, and the degree like Fibonacci in k; past this many bytes
# (predicted by output_bound) the command refuses rather than run out of
# memory.
MAX_OUTPUT_BYTES = 64 * 2**20
# Every command's cost grows about like k^2 in the word length k; past
# this many letters a command refuses rather than run for minutes.  At
# this length the slowest command measured, invariants --json on
# RRV T^997, took 0.23 s on a shared 2-vCPU host.
MAX_WORD_LENGTH = 1000


# ---------------------------------------------------------------------------
# Serialization


def _bundle_fields(b: InvariantBundle) -> dict:
    # The serialized shape: dicts, strs, ints, sequences of ints and the
    # e-table rows.  Every field is written as it stands but the four that
    # are reshaped here.  The SG vectors stay lazy, and the e-table rows are
    # the table itself, which _write writes through _write_rows.
    return {
        **b._asdict(),
        "word": str(b.word),
        "goursat_word": str(b.goursat_word),
        "e_table": {"h_first": 2, "rows": b.e_table, "sg": b.e_table.sg},
        "puiseux": {"lambda0": b.puiseux.lambda0, "exponents": b.puiseux.exponents},
    }


def bundle_to_json(b: InvariantBundle) -> dict:
    """The bundle as plain JSON data: dicts, lists, strs and ints."""
    import json

    return json.loads(dumps_bundle(b))


def bundle_from_json(data: dict) -> InvariantBundle:
    """Re-derive the bundle from its str word and int m0 and require every
    serialized field to agree with the re-derivation; ValueError if not, or
    if data is not a dict with such a word and m0.  The word is read as a
    command reads it: LevelLimitExceeded, before any bundle is built, if it
    has more than MAX_WORD_LENGTH letters."""
    if not isinstance(data, dict):
        raise ValueError(f"serialized bundle must be a JSON object, got {type(data).__name__}")
    for key, kind in (("word", str), ("m0", int)):
        value = data.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"serialized bundle needs a {kind.__name__} {key}: {value!r}")
    rebuilt = invariants.bundle(_read_word(data["word"]), m0=data["m0"])
    expected = bundle_to_json(rebuilt)
    wrong = sorted(
        key for key in expected.keys() | data.keys() if expected.get(key) != data.get(key)
    )
    if wrong:
        raise ValueError(
            f"serialized bundle disagrees with its re-derivation in: {', '.join(wrong)}"
        )
    return rebuilt


def _write(value, indent: str, parts: list[str]) -> None:
    # Appends to parts what json.dumps(value, sort_keys=True, indent=2)
    # writes at indent, for the shapes of _bundle_fields.  With indent set,
    # the json module falls back to its pure-Python encoder, which is
    # several times slower than this.  json is imported here, so that the
    # other commands start without it.
    import json

    if isinstance(value, str):
        parts.append(json.dumps(value))
        return
    if isinstance(value, int):
        parts.append(str(value))
        return
    if not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        parts.append("{\n" + inner)
        for n, key in enumerate(sorted(value)):
            parts.append(f"{sep if n else ''}{json.dumps(key)}: ")
            _write(value[key], inner, parts)
        parts.append("\n" + indent + "}")
        return
    # Every sequence holds ints; each item is written with sep after it,
    # and the last sep gives way to the closing bracket.
    parts.append("[\n" + inner)
    if isinstance(value, invariants.ETable):
        _write_rows(value, inner, parts)
    elif isinstance(value, invariants.StepSequence):
        parts += (f"{v}{sep}" * n for v, n in value.runs())
    else:
        parts.append(sep.join(map(str, value)) + sep)
    parts[-1] = parts[-1][: -len(sep)] + "\n" + indent + "]"


# The e-table rows are rendered a chunk at a time, each chunk by one string
# operation over rows of one layout; a chunk holds at most this many rows,
# so that each piece, and what it takes to build it, stays small.
CHUNK_ROWS = 256


def _chunks(table: invariants.ETable) -> Iterator[tuple[int, int, int, int]]:
    """The rows h = 2..H of the e-table as (lo, hi, z, c): rows lo..hi-1,
    at most CHUNK_ROWS of them, of one layout.  Each row holds the c
    entries of columns 2..c+1, the first z of them 0; column i > z + 1
    holds b_i - h.

    A column vanishes from row b_i on, and b rises, so the zero columns
    are the first z = #{i : b_i <= h}, and SG_h = z + 2.  Each row h <= k+1
    adds a column and is a block of its own; from h = k + 2 on every row
    holds all k columns, and only a row h in b starts a new block.
    """
    k, b, height = table.k, table.b, table.height
    starts = [*range(2, min(k + 2, height) + 1), *(x for x in b if x > k + 2)]
    for lo, hi in zip(starts, [*starts[1:], height + 1]):
        z, c = bisect_right(b, lo), min(lo, k + 1) - 1
        for start in range(lo, hi, CHUNK_ROWS):
            yield start, min(start + CHUNK_ROWS, hi), z, c


def _entries(tops: tuple[int, ...], lo: int, hi: int, *head: range) -> tuple[int, ...]:
    """Row after row for h = lo..hi-1: the row's item of each range in
    head, then b_i - h for each b_i in tops, the positive entries."""
    columns = [range(x - lo, x - hi, -1) for x in tops]
    return tuple(chain.from_iterable(zip(*head, *columns)))


def _write_rows(table: invariants.ETable, indent: str, parts: list[str]) -> None:
    # The rows as _write writes them at indent, a chunk at a time: the
    # chunk's row, each positive entry a %d, repeated and filled by one %.
    inner = indent + "  "
    for lo, hi, z, c in _chunks(table):
        entries = (",\n" + inner).join(chain(repeat("0", z), repeat("%d", c - z)))
        row = f"[\n{inner}{entries}\n{indent}],\n{indent}"
        parts.append(row * (hi - lo) % _entries(table.b[z:c], lo, hi))


def dumps_bundle(b: InvariantBundle) -> str:
    """Deterministic JSON text: what json.dumps(..., sort_keys=True,
    indent=2) writes for the bundle's fields, without building plain
    lists, joined once from its parts."""
    parts: list[str] = []
    _write(_bundle_fields(b), "", parts)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Rendering


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def render_bundle(b: InvariantBundle) -> str:
    # SG is written run by run, one str per run rather than one per entry.
    lines = [
        f"word:                 {b.word}",
        f"goursat word:         {b.goursat_word}",
        f"k:                    {b.k}",
        f"beta:                 {_vec(b.beta)}",
        f"der:                  {_vec(b.der)}",
        f"der2:                 {_vec(b.der2)}",
        f"sg:                   {''.join(f'{v} ' * n for v, n in b.sg.runs())[:-1]}",
        f"mult vector:          {_vec(b.mult_vector)}",
        f"m0:                   {b.m0}",
        f"vo:                   {_vec(b.vo)}",
        f"b:                    {_vec(b.b)}",
        f"puiseux:              {b.puiseux}",
        f"nonholonomy degree:   {b.nonholonomy_degree}",
    ]
    return "\n".join(lines) + "\n"


def render_etable(table: invariants.ETable) -> str:
    """ASCII e-table: one row per h with the SG column; rows h in the b
    vector (where a column first vanishes) are marked with '*'."""
    # Column i is largest on the diagonal, where e_{i,i} = S_i.
    width = max(2, max(len(str(table.entry(i, i))) for i in range(2, table.k + 2))) + 1
    hwidth = max(2, len(str(table.height)))
    header = (
        " " * 2 + "h".rjust(hwidth) + " |"
        + "".join(str(i).rjust(width) for i in range(2, table.k + 2))
        + " | SG"
    )
    parts = [f"{header}\n{'-' * len(header)}\n"]
    red = set(table.b)
    cell = f"%{width}d"
    # Row h: its mark (only a chunk's first row can be in b), h, the z
    # zeros, the positive entries, a blank for each column i > h and SG_h.
    for lo, hi, z, c in _chunks(table):
        row = (
            f"  %{hwidth}d |{cell % 0 * z}{cell * (c - z)}{' ' * width * (table.k - c)}"
            f" | {z + 2}\n"
        )
        text = row * (hi - lo) % _entries(table.b[z:c], lo, hi, range(lo, hi))
        parts.append("*" + text[1:] if lo in red else text)
    return "".join(parts)


def render_proximity(d: proximity.ProximityDiagram) -> str:
    cells = [str(v) for v in range(d.k + 1)]
    labels = ["-"] + [d.label(v) for v in range(1, d.k + 1)]
    mults = [str(m) for m in d.mult]
    width = max(len(s) for s in cells + labels + mults) + 2
    rows = [
        "vertex:" + "".join(c.rjust(width) for c in cells),
        "label: " + "".join(c.rjust(width) for c in labels),
        "mult:  " + "".join(c.rjust(width) for c in mults),
        "edges: " + " ".join(f"{i}-{j}" for i, j in sorted(d.edges)),
    ]
    return "\n".join(rows) + "\n"


def _wired(word: RvtWord) -> InvariantBundle:
    """The word's bundle, with m_0 wired for a word that is not a Goursat
    word: m_0 is the oracle's base multiplicity at the canonical chart
    point, the minimum of the base focal orders.  The wired m_0 is a route
    of its own, so one that does not fit the word is a failed route check,
    and the bundle's VO_2 = m_0 - m_1 is checked against the oracle's in
    verify."""
    m0 = None
    if not is_goursat(word):
        from . import oracle

        m0 = oracle.base_multiplicity_at_point(_canonical_point(word))
    try:
        return invariants.bundle(word, m0=m0)
    except InvalidM0 as exc:
        raise RouteMismatch(f"oracle-wired {exc}") from exc


def _canonical_point(word: RvtWord):
    """The word's canonical chart point, from this module's
    canonical_chart_point, looked up at each call: the benchmark's tracer
    replaces that attribute, and so sees every call, verify's too."""
    return sys.modules[__name__].canonical_chart_point(word)


def __getattr__(name: str):
    # The names of goursat.charts and goursat.verify that the benchmark's
    # tracer reads on cli, loaded with their module on first use and then
    # kept here, where a patch replaces them.
    if name == "verify_word":
        from .verify import verify_word as value
    elif name in ("canonical_chart_point", "enumerate_goursat_words"):
        from . import charts

        value = getattr(charts, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# ---------------------------------------------------------------------------
# Output budget


def output_bound(k: int, degree: int, form: str) -> int:
    """An upper bound on the bytes that invariants (form "text"),
    invariants --json ("json") or etable ("etable") prints for a word of
    length k and degree of nonholonomy, taken before the bundle is built.

    Each line is charged its deepest indentation, and each row of the
    table k entries.  SG values are at most k + 2, and e-table entries are
    less than the height H, which is the degree.  The other numbers, at
    most 7k + 4, are each charged the degree's digits: none is negative or
    exceeds the degree (beta rises to it; der, der2, the multiplicities and
    the vertical orders are its differences and theirs; b ends at H; m_0
    and the Puiseux exponents are at most lambda_g, and lambda_g plus the
    trailing R's is the degree, or m_0 = 1 with no exponent).
    """
    numbers = 7 * k + 4
    digits = len(str(degree))
    sg_digits = len(str(k + 2))
    if form == "text":
        # 13 labelled lines; each number with its ", " or brackets.
        return 512 + 2 * k + numbers * (digits + 2) + degree * (sg_digits + 1)
    if form == "json":
        # Keys and braces; numbers one to a line at an indent of up to 8
        # spaces; each row's brackets on lines of their own.
        return (
            512 + 2 * k + numbers * (digits + 8)
            + degree * (sg_digits + 6)
            + (degree - 1) * (sg_digits + 8 + 18 + k * (digits + 10))
        )
    # etable: the header, the rule and H - 1 rows, each as wide as the
    # header plus the SG digits.
    hwidth = max(2, digits)
    return (degree + 1) * (hwidth + 9 + sg_digits + k * (max(2, digits) + 1))


# The output budget's refusal quotes at most this many letters of the word
# and digits of the bound, so that its length does not grow with k.
QUOTED_LETTERS = 12
QUOTED_DIGITS = 15


def _check_output_budget(word: RvtWord, form: str) -> None:
    # Before the bundle is built: the degree takes one back-end pass.
    bound = output_bound(word.k, invariants.nonholonomy_degree(word), form)
    if bound > MAX_OUTPUT_BYTES:
        text, size = str(word), str(bound)
        if len(text) > QUOTED_LETTERS:
            text = text[:QUOTED_LETTERS] + "..."
        if len(size) > QUOTED_DIGITS:
            size = f"about {size[0]}.{size[1:3]}e{len(size) - 1}"
        raise OutputBudgetExceeded(
            f"the output of {text} (k = {word.k}) would take up to {size} bytes, "
            f"more than MAX_OUTPUT_BYTES = {MAX_OUTPUT_BYTES}"
        )


# ---------------------------------------------------------------------------
# Commands


def _read_word(text: str) -> RvtWord:
    """The word a command takes, parsed and held to MAX_WORD_LENGTH."""
    word = parse_word(text)
    if word.k > MAX_WORD_LENGTH:
        raise LevelLimitExceeded(
            f"words are limited to MAX_WORD_LENGTH = {MAX_WORD_LENGTH} letters, "
            f"got k = {word.k}"
        )
    return word


def cmd_invariants(args) -> int:
    word = _read_word(args.word)
    _check_output_budget(word, "json" if args.json else "text")
    bundle = _wired(word)
    if args.json:
        print(dumps_bundle(bundle))
    else:
        print(render_bundle(bundle), end="")
    return EXIT_OK


def cmd_etable(args) -> int:
    word = _read_word(args.word)
    _check_output_budget(word, "etable")
    bundle = _wired(word)
    print(render_etable(bundle.e_table), end="")
    return EXIT_OK


def cmd_prox(args) -> int:
    word = invariants.goursat_normalize(_read_word(args.word))
    diagram = proximity.build_diagram(word)
    if args.dot:
        print(proximity.to_dot(diagram), end="")
    else:
        print(render_proximity(diagram), end="")
    return EXIT_OK


def cmd_lift(args) -> int:
    word = _read_word(args.word)
    if not is_goursat(word):
        raise WordError(f"lift needs a Goursat word, got {word}")
    print(str(lift(word)))
    return EXIT_OK


def cmd_puiseux(args) -> int:
    word = _read_word(args.word)
    print(str(_wired(word).puiseux))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INVALID; exit
    code 2 is reserved for a verification mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _chart_command(args) -> int:
    # verify, chart and bracket-table live in goursat.verify, which is
    # imported when one of them runs.
    from . import verify

    commands = {"chart": verify.cmd_chart, "bracket-table": verify.cmd_bracket_table}
    return commands.get(args.command, verify.cmd_verify)(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goursat",
        description=(
            "Exact invariants of rank-2 Goursat distributions from RVT code "
            "words: growth vectors, proximity diagrams, e-tables, Puiseux "
            "characteristics, and symbolic cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="compute the full invariant bundle")
    p.add_argument("word")
    p.add_argument("--json", action="store_true", help="deterministic JSON output")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("etable", help="render the e-table with its SG column")
    p.add_argument("word")
    p.set_defaults(func=cmd_etable)

    p = sub.add_parser(
        "prox", help="render the proximity diagram (of the normalized Goursat word)"
    )
    p.add_argument("word")
    p.add_argument("--dot", action="store_true", help="Graphviz output")
    p.set_defaults(func=cmd_prox)

    p = sub.add_parser("lift", help="print the lifted Goursat word")
    p.add_argument("word")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("puiseux", help="print the Puiseux characteristic")
    p.add_argument("word")
    p.set_defaults(func=cmd_puiseux)

    p = sub.add_parser("chart", help="show the canonical chart realization")
    p.add_argument("word")
    p.set_defaults(func=_chart_command)

    p = sub.add_parser("bracket-table", help="full Lie bracket table of a chart")
    p.add_argument("chartword", help="choice word over o/i, e.g. ooioii")
    p.set_defaults(func=_chart_command)

    p = sub.add_parser("verify", help="cross-validate all computation routes")
    p.add_argument("word", nargs="?")
    p.add_argument("--all-words", type=int, default=None, metavar="N",
                   help="verify every Goursat word of length N")
    p.add_argument("--seed", type=int, default=0, help="seed for generic jets")
    p.add_argument("--symbolic", action="store_true",
                   help="include brute-force and chart-lemma verification")
    p.set_defaults(func=_chart_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Python's SIGPIPE recipe: point stdout
        # at devnull so that the flush at exit stays silent, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:  # WordError and every other invalid input
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except (
        LevelLimitExceeded, OutputBudgetExceeded, StepBudgetExceeded, TruncationTooSmall
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except GoursatError as exc:  # RouteMismatch and every other failed check
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    # Run as python -m goursat.cli: goursat.verify, which imports cli, gets
    # this module rather than a second copy.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
