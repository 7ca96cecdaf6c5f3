"""In-process run of one benchmark workload, traced or not.

Reads a JSON spec on stdin and runs the workload through the package's own
functions in this one process, so the spans of every call are seen:

  {"kind": "commands", "commands": [["invariants", "RRV..."], ...]}
  {"kind": "verify", "n": 10, "symbolic": false, "seed": 0}
  plus "trace": true|false and, when tracing, "spans_path".

`verify` words run serially through `cli.verify_word` (pool workers would
lose their spans).  Prints one JSON object: wall time, operations attempted
and failed, and, when tracing, the per-layer metrics.  run.py starts it with
PYTHONPATH pointing at the package sources.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import time
import traceback


class Tracer:
    """Spans (name, start, end, parent) and exact counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent, nested]
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._open: collections.Counter = collections.Counter()

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(result) adds to a counter."""
        spans, stack, open_names = self.spans, self._stack, self._open
        self.names.append(name)
        name_index = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            # A span nested in one of the same name adds nothing to .s.
            spans.append([name_index, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1, open_names[name] > 0])
            stack.append(index)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_names[name] -= 1
                stack.pop()
                spans[index][2] = time.perf_counter_ns()
            if count is not None:
                key, n = count(result)
                self.counters[key] += n
            return result

        return traced

    def patch(self, owners, attr: str, name: str, count=None) -> None:
        """Replace attr on every owner that looks the name up."""
        wrapper = self.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            setattr(owner, attr, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        children = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for index, (ni, start, end, _, nested) in enumerate(self.spans):
            name = self.names[ni]
            seconds = (end - start) / 1e9
            if not nested:
                out[name + ".s"] = out.get(name + ".s", 0.0) + seconds
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + seconds - children[index] / 1e9)
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".max_s"] = max(out.get(name + ".max_s", 0.0), seconds)
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each module where they are looked up."""
    from goursat import cli, codeword, invariants, oracle, polynomial, proximity, symcalc

    t = tracer
    t.patch([invariants], "bundle", "invariants.bundle")
    t.patch([invariants], "e_table", "invariants.e_table",
            lambda table: ("invariants.e_table.rows", len(table.rows)))
    t.patch([invariants], "sg_from_beta", "invariants.sg_from_beta")
    t.patch([invariants], "puiseux_of_word", "invariants.puiseux_of_word")
    for backend in ("beta_backend", "der_backend", "der2_backend"):
        t.patch([invariants], backend, "invariants.backend")
    t.patch([proximity], "build_diagram", "proximity.build_diagram")
    t.patch([proximity], "derived_frontend", "proximity.derived_frontend")
    t.patch([cli], "render_bundle", "cli.render_bundle")
    t.patch([cli], "render_etable", "cli.render_etable")
    t.patch([cli], "dumps_bundle", "cli.dumps_bundle")
    t.patch([cli], "verify_word", "cli.verify_word")
    t.patch([cli, codeword], "canonical_chart_point", "codeword.canonical_chart_point")
    t.patch([oracle], "vo_at_point", "oracle.vo_at_point")
    t.patch([oracle], "pathway_sections", "oracle.pathway_sections",
            lambda rows: ("oracle.pathway_sections.rows", len(rows)))
    t.patch([oracle], "small_growth_bruteforce", "oracle.small_growth_bruteforce")
    t.patch([oracle.GeneratorSet], "grow", "oracle.GeneratorSet.grow")
    # _admit sees every generator: the focal pair at construction, then
    # each grown batch.
    t.patch([oracle.GeneratorSet], "_admit", "oracle.GeneratorSet._admit",
            lambda batch: ("oracle.generators", len(batch)))
    # oracle binds lie_bracket by name and calls it only while growing
    # generators, so its calls are the brute-force brackets.
    t.patch([oracle], "lie_bracket", "symcalc.lie_bracket",
            lambda _: ("oracle.GeneratorSet.grow.brackets", 1))
    t.patch([symcalc], "lie_bracket", "symcalc.lie_bracket")
    t.patch([symcalc], "verify_structure", "symcalc.verify_structure")
    t.patch([oracle], "focal_order_generic_jet", "oracle.focal_order_generic_jet")
    t.patch([oracle], "focal_jet", "oracle.focal_jet",
            lambda _: ("oracle.jet_trials", 1))

    counters = t.counters

    def counting_new(cls, *args, **kwargs):
        counters["polynomial.Poly.constructed"] += 1
        return object.__new__(cls)

    # Poly's fast paths call Poly.__new__ directly, so count there.
    polynomial.Poly.__new__ = staticmethod(counting_new)


def run_commands(commands: list[list[str]]) -> tuple[int, int]:
    from goursat import cli

    failed = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in commands:
            try:
                failed += cli.main(argv) != 0
            except Exception:  # noqa: BLE001 - a failed command is counted, the run goes on
                traceback.print_exc()
                failed += 1
    return len(commands), failed


def run_verify(n: int, symbolic: bool, seed: int, enumerate_words) -> tuple[int, int]:
    from goursat import cli
    from goursat.codeword import parse_word

    failed = 0
    words = enumerate_words(n)
    for word in words:
        try:
            ok, _ = cli.verify_word(parse_word(str(word)), seed=seed, symbolic=symbolic)
        except Exception:  # noqa: BLE001 - a failed word is counted, the run goes on
            traceback.print_exc()
            ok = False
        failed += not ok
    return len(words), failed


def main() -> int:
    spec = json.load(sys.stdin)
    from goursat import cli

    tracer = Tracer() if spec["trace"] else None

    def enumerate_words(n):
        return list(cli.enumerate_goursat_words(n))

    if tracer is not None:
        install(tracer)
        enumerate_words = tracer.wrap("codeword.enumerate_goursat_words", enumerate_words)
    start = time.perf_counter()
    if spec["kind"] == "commands":
        ops, failed = run_commands(spec["commands"])
    else:
        ops, failed = run_verify(spec["n"], spec["symbolic"], spec["seed"], enumerate_words)
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "attempted": ops, "failed": failed}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
