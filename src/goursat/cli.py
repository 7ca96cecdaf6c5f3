"""Command-line front end: compute, render, verify, and serialize.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 resource budget exceeded.  A command whose reader closes stdout early
(as ``| head`` does) stops writing and exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import invariants, oracle, proximity, symcalc
from .codeword import (
    Chart,
    RvtWord,
    canonical_chart_point,
    enumerate_goursat_words,
    is_goursat,
    lift,
    parse_word,
    rvt_of_chart_point,
)
from .errors import (
    GoursatError,
    InvalidM0,
    LevelLimitExceeded,
    RouteMismatch,
    StepBudgetExceeded,
    TruncationTooSmall,
    WordError,
)
from .invariants import InvariantBundle
from .polynomial import Poly, var_names

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

# Brute-force small growth is exponential in the worst case; past this many
# levels the symbolic verification refuses to run rather than hang.
SYMBOLIC_LEVEL_LIMIT = 7
# The number of Goursat words of length N grows like 2.6^N; past this length
# verify --all-words refuses rather than run for hours.
ALL_WORDS_LEVEL_LIMIT = 12


# ---------------------------------------------------------------------------
# Serialization


def _bundle_fields(b: InvariantBundle) -> dict:
    # The serialized shape: dicts, strs, ints, and sequences of ints or of
    # sequences.  The e-table rows and the SG vectors stay lazy here.
    return {
        "word": str(b.word),
        "goursat_word": str(b.goursat_word),
        "k": b.k,
        "beta": b.beta,
        "der": b.der,
        "der2": b.der2,
        "sg": b.sg,
        "mult_vector": b.mult_vector,
        "m0": b.m0,
        "vo": b.vo,
        "b": b.b,
        "e_table": {"h_first": 2, "rows": b.e_table.rows, "sg": b.e_table.sg},
        "puiseux": {"lambda0": b.puiseux.lambda0, "exponents": b.puiseux.exponents},
        "nonholonomy_degree": b.nonholonomy_degree,
    }


def bundle_to_json(b: InvariantBundle) -> dict:
    """The bundle as plain JSON data: dicts, lists, strs and ints."""
    return json.loads(dumps_bundle(b))


def bundle_from_json(data: dict) -> InvariantBundle:
    """Re-derive the bundle from its word and m_0 and require every
    serialized field to agree with the re-derivation (ValueError if not)."""
    rebuilt = invariants.bundle(parse_word(data["word"]), m0=data["m0"])
    expected = bundle_to_json(rebuilt)
    wrong = sorted(
        key for key in expected.keys() | data.keys() if expected.get(key) != data.get(key)
    )
    if wrong:
        raise ValueError(
            f"serialized bundle disagrees with its re-derivation in: {', '.join(wrong)}"
        )
    return rebuilt


def _dumps(value, indent: str) -> str:
    # json.dumps(value, sort_keys=True, indent=2) for the shapes of
    # _bundle_fields.  With indent set, the json module falls back to its
    # pure-Python encoder, which is several times slower than this.
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = (f"{json.dumps(key)}: {_dumps(value[key], inner)}" for key in sorted(value))
    else:
        brackets = "[]"
        if isinstance(value[0], int):
            items = map(str, value)
        else:
            items = (_dumps(item, inner) for item in value)
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def dumps_bundle(b: InvariantBundle) -> str:
    """Deterministic JSON text: what json.dumps(..., sort_keys=True,
    indent=2) writes for the bundle's fields, without building plain lists."""
    return _dumps(_bundle_fields(b), "")


# ---------------------------------------------------------------------------
# Rendering


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def render_bundle(b: InvariantBundle) -> str:
    lines = [
        f"word:                 {b.word}",
        f"goursat word:         {b.goursat_word}",
        f"k:                    {b.k}",
        f"beta:                 {_vec(b.beta)}",
        f"der:                  {_vec(b.der)}",
        f"der2:                 {_vec(b.der2)}",
        f"sg:                   {' '.join(str(s) for s in b.sg)}",
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
    red = set(table.b)
    # Column i is largest on the diagonal, where e_{i,i} = S_i.
    width = max(2, max(len(str(table.entry(i, i))) for i in range(2, table.k + 2))) + 1
    hwidth = max(2, len(str(table.height)))
    header = (
        " " * 2 + "h".rjust(hwidth) + " |"
        + "".join(str(i).rjust(width) for i in range(2, table.k + 2))
        + " | SG"
    )
    # line[n] formats (mark, h, the n entries of the row, SG_h).
    line = [
        f"%s %{hwidth}d |" + f"%{width}d" * n + " " * (width * (table.k - n)) + " | %d"
        for n in range(table.k + 1)
    ]
    lines = [header, "-" * len(header)]
    for h, row, sg in zip(range(2, table.height + 1), table.rows, table.sg):
        lines.append(line[len(row)] % ("*" if h in red else " ", h, *row, sg))
    return "\n".join(lines) + "\n"


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


def render_bracket_table(table: symcalc.BracketTable) -> str:
    k = table.chart.k
    names = var_names(k)
    rows = [("v", i) for i in range(k + 1)] + [("f", i) for i in range(k + 1)]
    cols = list(range(k + 1))
    cells = {}
    width = 0
    for kind, i in rows:
        for j in cols:
            text = table.render_entry(kind, i, j)
            cells[(kind, i, j)] = text
            width = max(width, len(text))
    width = max(width, 6) + 2
    head = " " * 5 + "".join(f"f{j}".rjust(width) for j in cols)
    lines = [f"chart {table.chart.choices}  (left slot x rows, [row, column]):", head]
    for kind, i in rows:
        line = f"{kind}{i}".rjust(4) + " "
        line += "".join(cells[(kind, i, j)].rjust(width) for j in cols)
        lines.append(line)
        if (kind, i) == ("v", k):
            lines.append("")
    return "\n".join(lines) + "\n"


def _wired(fn, word: RvtWord):
    """fn(word, m0=...) with m_0 wired for a word that is not a Goursat word:
    m_0 is the oracle's base multiplicity at the canonical chart point, the
    minimum of the base focal orders.  The wired m_0 is a route of its own,
    so one that does not fit the word is a failed route check, and the
    bundle's VO_2 = m_0 - m_1 is checked against the oracle's in verify."""
    m0 = None
    if not is_goursat(word):
        m0 = oracle.base_multiplicity_at_point(canonical_chart_point(word))
    try:
        return fn(word, m0=m0)
    except InvalidM0 as exc:
        raise RouteMismatch(f"oracle-wired {exc}") from exc


# ---------------------------------------------------------------------------
# Verification


def _check_symbolic_level(k: int) -> None:
    if k > SYMBOLIC_LEVEL_LIMIT:
        raise LevelLimitExceeded(
            f"symbolic verification is limited to k <= SYMBOLIC_LEVEL_LIMIT = "
            f"{SYMBOLIC_LEVEL_LIMIT}, got {k}"
        )


def verify_word(
    word: RvtWord,
    depth: int | None = None,
    seed: int = 0,
    symbolic: bool = False,
) -> tuple[bool, list[str]]:
    """Run the cross-checks for one word; returns (ok, report lines)."""
    if symbolic:
        _check_symbolic_level(word.k)
    lines = []
    ok = True
    bundle = _wired(invariants.bundle, word)
    lines.append(f"{word}: three-route invariants agree (beta ends {bundle.beta[-1]})")

    point = canonical_chart_point(word)
    vo_oracle = oracle.vo_at_point(point)
    if word.k >= 2 and vo_oracle[1:] != bundle.vo[1:]:
        ok = False
        lines.append(
            f"{word}: MISMATCH restricted vertical orders "
            f"oracle={vo_oracle[1:]} combinatorial={bundle.vo[1:]}"
        )
    else:
        lines.append(f"{word}: focal-order vertical orders agree {vo_oracle}")
    if word.k >= 2 and vo_oracle[0] != bundle.vo[0]:
        ok = False
        lines.append(
            f"{word}: MISMATCH VO_2 oracle={vo_oracle[0]} bundle={bundle.vo[0]}"
        )

    if word.k >= 2:
        for i in range(3, word.k + 2):
            oracle.pathway_sections(point, i)
        lines.append(f"{word}: pathway orders match the e-table for all columns")

    if symbolic:
        max_steps = depth if depth is not None else bundle.nonholonomy_degree + 2
        sg = oracle.small_growth_bruteforce(point, max_steps)
        if sg != bundle.sg:
            ok = False
            lines.append(
                f"{word}: MISMATCH small growth brute={sg} combinatorial={bundle.sg}"
            )
        else:
            lines.append(f"{word}: brute-force small growth agrees ({len(sg)} steps)")

        symcalc.verify_structure(point.chart)
        lines.append(f"{word}: structure lemmas verified on chart {point.chart.choices}")

        fo = oracle.focal_orders(point)
        prec = bundle.nonholonomy_degree + 5
        for var in range(point.chart.nvars):
            a = Poly.variable(point.chart.nvars, var)
            jet_order = oracle.focal_order_generic_jet(point, a, prec, seed=seed)
            if jet_order != fo.o_coord[var]:
                ok = False
                lines.append(
                    f"{word}: MISMATCH generic-jet order of {var_names(word.k)[var]} "
                    f"jet={jet_order} procedural={fo.o_coord[var]}"
                )
        lines.append(f"{word}: generic-jet focal orders agree")
    return ok, lines


# ---------------------------------------------------------------------------
# Commands


def cmd_invariants(args) -> int:
    word = parse_word(args.word)
    bundle = _wired(invariants.bundle, word)
    if args.json:
        print(dumps_bundle(bundle))
    else:
        print(render_bundle(bundle), end="")
    return EXIT_OK


def cmd_etable(args) -> int:
    word = parse_word(args.word)
    bundle = _wired(invariants.bundle, word)
    print(render_etable(bundle.e_table), end="")
    return EXIT_OK


def cmd_prox(args) -> int:
    word = invariants.goursat_normalize(parse_word(args.word))
    diagram = proximity.build_diagram(word)
    if args.dot:
        print(proximity.to_dot(diagram), end="")
    else:
        print(render_proximity(diagram), end="")
    return EXIT_OK


def cmd_lift(args) -> int:
    word = parse_word(args.word)
    if not is_goursat(word):
        raise WordError(f"lift needs a Goursat word, got {word}")
    print(str(lift(word)))
    return EXIT_OK


def cmd_puiseux(args) -> int:
    word = parse_word(args.word)
    pc = _wired(invariants.puiseux_of_word, word)
    print(str(pc))
    return EXIT_OK


def cmd_chart(args) -> int:
    word = parse_word(args.word)
    point = canonical_chart_point(word)
    chart = point.chart
    print(f"word:        {word}")
    print(f"chart:       {chart.choices}")
    print(f"IP:          {{{', '.join(str(j) for j in sorted(chart.ip))}}}")
    names = var_names(word.k)
    coords = " ".join(
        f"{names[v]}={point.coords[v]}" for v in range(chart.nvars)
    )
    print(f"point:       {coords}")
    alt = " ".join(
        f"{names[v]}={chart.alt_names[v]}" for v in range(chart.nvars)
    )
    print(f"alt names:   {alt}")
    print(f"round trip:  {rvt_of_chart_point(point)}")
    return EXIT_OK


def cmd_bracket_table(args) -> int:
    chart = Chart(args.chartword)
    table = symcalc.bracket_table(chart)
    print(render_bracket_table(table), end="")
    return EXIT_OK


def _verify_task(task: tuple[str, int | None, int, bool]) -> tuple[bool, list[str]]:
    word, depth, seed, symbolic = task
    return verify_word(parse_word(word), depth=depth, seed=seed, symbolic=symbolic)


def cmd_verify(args) -> int:
    if args.all_words is not None and args.word is not None:
        raise WordError("verify takes a word or --all-words N, not both")
    if args.all_words is not None:
        if args.all_words > ALL_WORDS_LEVEL_LIMIT:
            raise LevelLimitExceeded(
                f"verify --all-words is limited to N <= ALL_WORDS_LEVEL_LIMIT = "
                f"{ALL_WORDS_LEVEL_LIMIT}, got {args.all_words}"
            )
        words = list(enumerate_goursat_words(args.all_words))
        if not words:
            raise WordError(f"no Goursat words of length {args.all_words}")
    elif args.word is not None:
        words = [parse_word(args.word)]
    else:
        raise WordError("verify needs a word or --all-words N")

    if args.symbolic:
        # Before any word is checked, so that a refusal comes at once.
        _check_symbolic_level(max(w.k for w in words))
    tasks = [(str(w), args.depth, args.seed, args.symbolic) for w in words]
    if len(tasks) > 1:
        # Per-word checks are pure and independent; fan out across workers.
        # Cost grows with the degree of nonholonomy, so the deepest words
        # start first and none is left to run alone at the end; results are
        # still printed in word order.  The words go out in about 16 chunks
        # per worker, so that dispatch is paid per chunk, not per word.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        by_depth = sorted(
            range(len(words)), key=lambda i: -invariants.nonholonomy_degree(words[i])
        )
        workers = os.cpu_count() or 1
        chunksize = max(1, len(tasks) // (16 * workers))
        results = [None] * len(tasks)
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                done = pool.map(_verify_task, [tasks[i] for i in by_depth], chunksize=chunksize)
                for i, result in zip(by_depth, done):
                    results[i] = result
        except BrokenProcessPool:
            # A worker was killed (by a signal, or out of memory); the words
            # it held have no report, so none is printed.
            print(
                "verify: a worker process ended abruptly (BrokenProcessPool: killed "
                "by a signal or out of memory); no report was printed",
                file=sys.stderr,
            )
            return EXIT_BUDGET
    else:
        results = [_verify_task(tasks[0])]

    all_ok = True
    for ok, lines in results:
        all_ok = all_ok and ok
        for line in lines:
            print(line)
    if all_ok:
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INVALID; exit
    code 2 is reserved for a verification mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


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
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("bracket-table", help="full Lie bracket table of a chart")
    p.add_argument("chartword", help="choice word over o/i, e.g. ooioii")
    p.set_defaults(func=cmd_bracket_table)

    p = sub.add_parser("verify", help="cross-validate all computation routes")
    p.add_argument("word", nargs="?")
    p.add_argument("--all-words", type=int, default=None, metavar="N",
                   help="verify every Goursat word of length N")
    p.add_argument("--depth", type=int, default=None,
                   help="step budget for brute-force small growth")
    p.add_argument("--seed", type=int, default=0, help="seed for generic jets")
    p.add_argument("--symbolic", action="store_true",
                   help="include brute-force and chart-lemma verification")
    p.set_defaults(func=cmd_verify)
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
    except (LevelLimitExceeded, StepBudgetExceeded, TruncationTooSmall) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except GoursatError as exc:  # RouteMismatch and every other failed check
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
