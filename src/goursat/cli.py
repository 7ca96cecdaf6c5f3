"""Command-line front end: compute, render, verify, and serialize.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 resource budget exceeded.  A command whose reader closes stdout early
(as ``| head`` does) stops writing and exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import chain, islice, repeat

# oracle, symcalc and polynomial are imported by the commands that use
# them, so that invariants, etable and the other commands start without
# them.
from . import invariants, proximity
from .codeword import (
    CHART_CHOICES,
    Chart,
    RvtWord,
    canonical_chart_point,
    check_levels,
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

# Brute-force small growth is exponential in the worst case; past this many
# levels the symbolic verification refuses to run rather than hang.
SYMBOLIC_LEVEL_LIMIT = 7
# The number of Goursat words of length N grows like 2.6^N; past this length
# verify --all-words refuses rather than run for hours.
ALL_WORDS_LEVEL_LIMIT = 12
# The output of invariants, invariants --json and etable grows like
# degree * k, and the degree like Fibonacci in k; past this many bytes
# (predicted by output_bound) the command refuses rather than run out of
# memory.
MAX_OUTPUT_BYTES = 64 * 2**20
# Every command's cost grows about like k^2 in the word length k; past
# this many letters a command refuses rather than run for minutes.  At
# this length the slowest command measured, invariants --json on
# RRV T^997, took 0.45 s on a 2-vCPU host.
MAX_WORD_LENGTH = 1000


# ---------------------------------------------------------------------------
# Serialization


def _bundle_fields(b: InvariantBundle) -> dict:
    # The serialized shape: dicts, strs, ints, and sequences of ints or of
    # sequences.  The SG vectors stay lazy here, and the e-table rows are
    # the table itself, which _dumps writes through _json_rows.
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
        "e_table": {"h_first": 2, "rows": b.e_table, "sg": b.e_table.sg},
        "puiseux": {"lambda0": b.puiseux.lambda0, "exponents": b.puiseux.exponents},
        "nonholonomy_degree": b.nonholonomy_degree,
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


def _dumps(value, indent: str) -> str:
    # json.dumps(value, sort_keys=True, indent=2) for the shapes of
    # _bundle_fields.  With indent set, the json module falls back to its
    # pure-Python encoder, which is several times slower than this.  json
    # is imported here, so that the other commands start without it.
    import json

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
        if isinstance(value, invariants.ETable):
            items = _json_rows(value, inner)
        elif isinstance(value[0], int):
            items = map(str, value)
        else:
            items = (_dumps(item, inner) for item in value)
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def _full_columns(
    table: invariants.ETable, fmt: Callable[[int], str], blank: str
) -> list[Iterator[str]]:
    """Columns i = 2..k+1 of the e-table rows h = 2..H, each entry v
    written as fmt(v), and each cell above the diagonal (h < i) as blank.

    Down column i the entry e_{h,i} = (b_i - h)^+ falls by one from S_i on
    the diagonal to 1 and then stays 0: i - 2 blanks, a reversed run over
    the formatted cells, then the zero cell repeated.  No S_i exceeds
    S_{k+1} = H - k - 1, and each value is formatted once, however many
    cells hold it.
    """
    k, height = table.k, table.height
    cells = list(map(fmt, range(height - k)))
    return [
        chain(
            repeat(blank, i - 2),
            map(cells.__getitem__, range(bi - i, 0, -1)),
            repeat(cells[0], height + 1 - bi),
        )
        for i, bi in enumerate(table.b, start=2)
    ]


def _json_rows(table: invariants.ETable, indent: str) -> Iterator[str]:
    # The rows as _dumps writes them at indent: rows h <= k+1 one by one,
    # the full rows h >= k+2 from their columns.
    inner = indent + "  "
    head = (_dumps(table.row(h), indent) for h in range(2, min(table.k + 2, table.height + 1)))
    columns = _full_columns(table, str, "")
    for column in columns:
        next(islice(column, table.k, table.k), None)  # skip the rows h <= k+1
    full = map((",\n" + inner).join, zip(*columns))
    return chain(head, map(f"[\n{inner}%s\n{indent}]".__mod__, full))


def dumps_bundle(b: InvariantBundle) -> str:
    """Deterministic JSON text: what json.dumps(..., sort_keys=True,
    indent=2) writes for the bundle's fields, without building plain lists."""
    return _dumps(_bundle_fields(b), "")


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
    red = set(table.b)
    # Column i is largest on the diagonal, where e_{i,i} = S_i.
    width = max(2, max(len(str(table.entry(i, i))) for i in range(2, table.k + 2))) + 1
    hwidth = max(2, len(str(table.height)))
    header = (
        " " * 2 + "h".rjust(hwidth) + " |"
        + "".join(str(i).rjust(width) for i in range(2, table.k + 2))
        + " | SG"
    )
    # Every row is joined from columns: the marks (" *"[h in red]), h,
    # the entries and SG_h.
    hs = range(2, table.height + 1)
    marks = map(" *".__getitem__, map(red.__contains__, hs))
    rows = zip(
        map(f"%s %{hwidth}d |".__mod__, zip(marks, hs)),
        *_full_columns(table, f"%{width}d".__mod__, " " * width),
        map(" | %d".__mod__, table.sg),
    )
    return "\n".join(chain([header, "-" * len(header)], map("".join, rows), [""]))


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

        m0 = oracle.base_multiplicity_at_point(canonical_chart_point(word))
    try:
        return invariants.bundle(word, m0=m0)
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


# A check of verify: the InvariantBundle field it covers (None for a value
# the bundle does not hold), its MISMATCH label and each route's (name, value).
RouteCheck = namedtuple("RouteCheck", "field label left right")


def route_checks(word: RvtWord, seed: int = 0, symbolic: bool = False) -> list[tuple]:
    """The checks of verify_word as (agree text, [RouteCheck]) steps, in
    report order.  A step with no checks follows a call that raises if it
    fails: the bundle's own routes, the pathway frame and the structure
    lemmas.

    The pathway frame is checked once at the word's point; no column is
    walked.  By the induction in oracle.pathway_sections' docstring, the
    frame's focal step lemma implies that every column i = 3..k+1 walks
    from order S_i down to order 0 at row b_i, its orders matching the
    e-table, so the pathway line holds for all columns.  A frame that fails
    raises OrderMismatch.  A column's diagonal order is S_i of the point's
    vertical orders term for term, so the frame need not check it: the
    bundle's "beta from b" route checks the column sums, and the
    vertical-order checks the point's orders.
    """
    from . import oracle

    if symbolic:
        _check_symbolic_level(word.k)
    bundle = _wired(word)
    point = canonical_chart_point(word)
    vo = oracle.vo_at_point(point)
    orders = [RouteCheck(
        "vo", "restricted vertical orders", ("oracle", vo[1:]), ("combinatorial", bundle.vo[1:])
    )]
    steps = [
        (f"three-route invariants agree (beta ends {bundle.beta[-1]})", []),
        (f"focal-order vertical orders agree {vo}", orders),
    ]
    if word.k >= 2:
        # VO_2 is an order of the same step, so its agree text waits for it
        orders.append(RouteCheck("vo", "VO_2", ("oracle", vo[0]), ("bundle", bundle.vo[0])))
        oracle.pathway_frame(point)
        steps.append(("pathway orders match the e-table for all columns", []))
    if symbolic:
        from . import symcalc
        from .polynomial import var_names

        sg = oracle.small_growth_bruteforce(point, bundle.nonholonomy_degree + 2)
        brute = RouteCheck("sg", "small growth", ("brute", sg), ("combinatorial", bundle.sg))
        steps.append((f"brute-force small growth agrees ({len(sg)} steps)", [brute]))
        symcalc.verify_structure(point.chart)
        steps.append((f"structure lemmas verified on chart {point.chart.choices}", []))
        fo = oracle.focal_orders(point)
        prec, n = bundle.nonholonomy_degree + 5, point.chart.nvars
        jets = []
        for var, name in enumerate(var_names(word.k)):
            # the coordinate as its one term, 1 * x_var
            probe = (1, (0,) * var + (1,) + (0,) * (n - 1 - var))
            order = oracle.focal_order_generic_jet(point, [probe], prec, seed=seed)
            jets.append(RouteCheck(
                None, f"generic-jet order of {name}", ("jet", order), ("procedural", fo.o_coord[var])
            ))
        steps.append(("generic-jet focal orders agree", jets))
    return steps


def verify_word(
    word: RvtWord, seed: int = 0, symbolic: bool = False
) -> tuple[bool, list[str]]:
    """Run the cross-checks for one word; returns (ok, report lines): a
    MISMATCH line for each failed check of route_checks, in order, and the
    agree text of each step whose checks all agree."""
    ok, lines = True, []
    for agree, checks in route_checks(word, seed, symbolic):
        failed = [c for c in checks if c.left[1] != c.right[1]]
        ok = ok and not failed
        lines += (
            f"{word}: MISMATCH {c.label} {c.left[0]}={c.left[1]} {c.right[0]}={c.right[1]}"
            for c in failed
        )
        if not failed:
            lines.append(f"{word}: {agree}")
    return ok, lines


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


def cmd_chart(args) -> int:
    from .polynomial import var_names

    word = _read_word(args.word)
    check_levels(word.k)
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
    from . import symcalc

    chart = Chart(args.chartword)
    check_levels(chart.k)
    table = symcalc.bracket_table(chart)
    print(render_bracket_table(table), end="")
    return EXIT_OK


def _shares(words: list[RvtWord], symbolic: bool, workers: int) -> list[list[int]]:
    """The word indices split into at most workers shares, each in word
    order, with every chart's words in one share, so that each process
    sweeps a chart's structure lemmas (cached per process) once.

    A chart's group weighs the sum of its words' degrees of nonholonomy
    under --symbolic, whose brute force grows with the degree, and its
    word count otherwise.  The groups go heaviest first to the share with
    the least load (LPT scheduling).
    """
    groups: dict[str, list[int]] = {}
    for i, w in enumerate(words):
        groups.setdefault(w.symbols.translate(CHART_CHOICES), []).append(i)
    cost = [invariants.nonholonomy_degree(w) for w in words] if symbolic else [1] * len(words)
    weighed = sorted(
        ((sum(cost[i] for i in group), group) for group in groups.values()),
        key=lambda item: -item[0],
    )
    shares: list[list[int]] = [[] for _ in range(min(workers, len(groups)))]
    loads = [0] * len(shares)
    for weight, group in weighed:
        least = loads.index(min(loads))
        shares[least] += group
        loads[least] += weight
    return [sorted(share) for share in shares]


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
        words = [_read_word(args.word)]
    else:
        raise WordError("verify needs a word or --all-words N")

    # Before any word is checked, so that a refusal comes at once.
    deepest = max(w.k for w in words)
    if args.symbolic:
        _check_symbolic_level(deepest)
    check_levels(deepest)
    # verify_word imports the oracle; importing it here, before any worker
    # is forked, lets the workers share the parent's copy.
    from . import fanout, oracle  # noqa: F401

    # Per-word checks are pure and independent; fan out across processes
    # (forked, so the function they run is not pickled).
    workers = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    shares = _shares(words, args.symbolic, workers)
    try:
        results = fanout.fan_out(lambda w: verify_word(w, args.seed, args.symbolic), words, shares)
    except fanout.DeadWorker as exc:
        # A worker was killed (by a signal, or out of memory); the words
        # it held have no report, so none is printed.
        print(
            f"verify: a worker process ended abruptly ({exc}) before it sent "
            "its reports; no report was printed",
            file=sys.stderr,
        )
        return EXIT_BUDGET

    for _, lines in results:
        for line in lines:
            print(line)
    ok = all(ok for ok, _ in results)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


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
    except (
        LevelLimitExceeded, OutputBudgetExceeded, StepBudgetExceeded, TruncationTooSmall
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except GoursatError as exc:  # RouteMismatch and every other failed check
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
