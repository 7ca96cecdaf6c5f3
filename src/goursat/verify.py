"""The commands that build a chart: ``verify``, ``chart`` and
``bracket-table``, with their budgets and verify's route checks.

Only these commands import this module, so that ``invariants``,
``etable`` and the other commands start without compiling it.  They read
their words, exit codes and bundles through ``goursat.cli``.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple

from . import cli, invariants
from .charts import CHART_CHOICES, Chart, enumerate_goursat_words, rvt_of_chart_point, var_names
from .codeword import RvtWord
from .errors import LevelLimitExceeded, WordError

# chart, bracket-table and verify cap a chart's levels (_check_levels): its
# tables grow quadratically with the level and nothing in scope needs more
# than 12 levels.  The focal orders that give a word's m_0 need no cap.
MAX_LEVELS = 16
# Brute-force small growth is exponential in the worst case; past this many
# levels the symbolic verification refuses to run rather than hang.
SYMBOLIC_LEVEL_LIMIT = 7
# The number of Goursat words of length N grows like 2.6^N; past this length
# verify --all-words refuses rather than run for hours.
ALL_WORDS_LEVEL_LIMIT = 12


def _check_levels(k: int) -> None:
    if k > MAX_LEVELS:
        raise LevelLimitExceeded(
            f"charts are limited to MAX_LEVELS = {MAX_LEVELS} levels, got {k}"
        )


def _check_symbolic_level(k: int) -> None:
    if k > SYMBOLIC_LEVEL_LIMIT:
        raise LevelLimitExceeded(
            f"symbolic verification is limited to k <= SYMBOLIC_LEVEL_LIMIT = "
            f"{SYMBOLIC_LEVEL_LIMIT}, got {k}"
        )


# ---------------------------------------------------------------------------
# Verification


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
    bundle = cli._wired(word)
    point = cli._canonical_point(word)
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
# Commands


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


def cmd_chart(args) -> int:
    word = cli._read_word(args.word)
    _check_levels(word.k)
    point = cli._canonical_point(word)
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
    return cli.EXIT_OK


def cmd_bracket_table(args) -> int:
    from . import symcalc

    chart = Chart(args.chartword)
    _check_levels(chart.k)
    table = symcalc.bracket_table(chart)
    print(render_bracket_table(table), end="")
    return cli.EXIT_OK


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
        words = [cli._read_word(args.word)]
    else:
        raise WordError("verify needs a word or --all-words N")

    # Before any word is checked, so that a refusal comes at once.
    deepest = max(w.k for w in words)
    if args.symbolic:
        _check_symbolic_level(deepest)
    _check_levels(deepest)
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
        return cli.EXIT_BUDGET

    for _, lines in results:
        for line in lines:
            print(line)
    ok = all(ok for ok, _ in results)
    print("PASS" if ok else "FAIL")
    return cli.EXIT_OK if ok else cli.EXIT_MISMATCH
