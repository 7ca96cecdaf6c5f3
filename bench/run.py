"""Benchmark of the goursat command-line tool.

    python3 bench/run.py --workload deep-words|sweep|symbolic \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
One closed-loop client runs the real CLI (`python3 -m goursat.cli`) as a
subprocess, one command in flight at a time, and checks every output.

--trace 0 times the CLI end to end: set-up (a fresh process that does no
word work), then passes over the workload until --seconds have gone by.
Between passes a fixed reference job (bench/reference.py) is timed, and
every time is divided by the host factor it gives (see measure()), so the
times are those of a host of fixed speed.
--trace 1 runs one untraced CLI pass, then the workload in-process twice
(bench/trace_worker.py, each in a fresh process), untraced and traced, and
reports per-layer times and exact counters; the ratio of the two wall
times is the tracing overhead.  Its length is set by the workload, not by
--seconds.

The next-to-last line of stdout records the environment and per-pass
details; the last is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json.  An operation is a command or an output
check; a command that exits nonzero or times out, and a check that finds a
problem, each count as one failed operation.  The exit code is 0 only when
nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import words

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

# Every run must end within 180 s; commands are cut off before that.
RUN_BUDGET_S = 165.0
SETUP_RUNS = 11
SETUP_PER_PASS = 3
SETUP_TIMEOUT_S = 30.0
# The reference job's (reference.py) time on a quiet 2-vCPU host: 0.24 s
# for one copy, 0.28 s for two at once.  Its mean over a run, divided by
# this, is the host factor that every time is divided by, so that scaled
# times read close to raw ones there.
REFERENCE_S = 0.25


@dataclass
class Command:
    code: int
    out: str
    out_bytes: int
    err: str
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


def run_process(argv: list[str], timeout: float, stdin: str = "") -> Command:
    """Run argv to completion and reap it with os.wait4, whose rusage is
    this child's alone (plus the pool workers it waited for).  After
    timeout seconds the whole process group is killed.

    preexec_fn makes subprocess fork rather than vfork: a vforked child
    takes this process's peak RSS as the start of its own ru_maxrss.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, preexec_fn=os.setsid,
    )
    if stdin:
        proc.stdin.write(stdin.encode())
    proc.stdin.close()
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    deadline = start + timeout
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(max(0.0, deadline - time.perf_counter()))
            if not ready and not timed_out:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
            for key, _ in ready:
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout])
    return Command(
        code=proc.returncode,
        out=out.decode(),
        out_bytes=len(out),
        err=b"".join(chunks[proc.stderr]).decode(),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out,
    )


@dataclass
class Client:
    """Closed-loop client: one command at a time; tallies operations."""

    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, argv: list[str], timeout: float, stdin: str = "") -> Command:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        cmd = run_process(argv, max(1.0, min(timeout, left)), stdin)
        self.attempted += 1
        if not cmd.ok:
            self.failed += 1
            tail = cmd.err.strip().splitlines()[-1:] or [""]
            what = "timed out" if cmd.timed_out else f"exit {cmd.code}"
            self.problems.append(f"{' '.join(argv[-4:])}: {what} {tail[0]}")
        return cmd

    def cli(self, args: list[str], timeout: float) -> Command:
        return self.run([sys.executable, "-m", "goursat.cli", *args], timeout)

    def check(self, problems: list[str], *cmds: Command) -> None:
        """Count one check; then drop the outputs it read, so that this
        process stays small (every fork copies its page tables)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        for cmd in cmds:
            cmd.out = cmd.err = ""

    def over_budget(self, next_s: float) -> bool:
        return time.perf_counter() - self.started + next_s > RUN_BUDGET_S


@dataclass
class Pass:
    commands: list[Command]
    words: int

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


class DeepWords:
    """Drawn deep Goursat words, each through invariants, --json and etable."""

    workers = 1
    timeout_s = 60.0

    def __init__(self, seed: int):
        self.words = words.deep_words(seed)

    def commands(self, word: str) -> list[list[str]]:
        return [["invariants", word], ["invariants", word, "--json"], ["etable", word]]

    def run_pass(self, client: Client) -> Pass:
        done = []
        for word in self.words:
            cmds = [client.cli(args, self.timeout_s) for args in self.commands(word)]
            done += cmds
            if all(c.ok for c in cmds):
                client.check(checks.check_deep_word(word, *(c.out for c in cmds)), *cmds)
        return Pass(done, len(self.words))

    def trace_spec(self) -> dict:
        return {"kind": "commands",
                "commands": [args for w in self.words for args in self.commands(w)]}


class VerifyAll:
    """One `verify --all-words n` per pass, fanned out over the CLI's pool."""

    workers = os.cpu_count() or 1
    timeout_s = 120.0

    def __init__(self, n: int, symbolic: bool, seed: int):
        self.n, self.symbolic, self.seed = n, symbolic, seed
        self.args = ["verify", "--all-words", str(n)]
        if symbolic:
            self.args += ["--symbolic", "--seed", str(seed)]
        self.word_count = len(words.goursat_words(n))

    def run_pass(self, client: Client) -> Pass:
        cmd = client.cli(self.args, self.timeout_s)
        if cmd.ok:
            client.check(checks.check_verify(cmd.out, self.n), cmd)
        return Pass([cmd], self.word_count)

    def trace_spec(self) -> dict:
        return {"kind": "verify", "n": self.n, "symbolic": self.symbolic, "seed": self.seed}


def make_workload(name: str, seed: int):
    if name == "deep-words":
        return DeepWords(seed)
    if name == "sweep":
        # Every Goursat word of length SWEEP_N; the seed changes nothing.
        return VerifyAll(words.SWEEP_N, False, seed)
    if name == "symbolic":
        return VerifyAll(words.SYMBOLIC_N, True, seed)
    raise SystemExit(f"unknown workload {name!r}")


def run_checks(client: Client) -> None:
    """The paper's worked examples, cross-command agreement and the checks'
    own self-test, before any measurement."""
    outs = {}
    for word in ("RRVTVV", "RVTRV"):
        cmds = [client.cli(["invariants", word], 30), client.cli(["invariants", word, "--json"], 30)]
        if all(c.ok for c in cmds):
            outs[word] = [c.out for c in cmds]
            client.check(checks.check_worked(word, *outs[word]))
    etable = client.cli(["etable", "RRVTVV"], 30)
    if etable.ok and "RRVTVV" in outs:
        client.check(checks.check_deep_word("RRVTVV", *outs["RRVTVV"], etable.out))
        for case, ok in checks.self_test(*outs["RRVTVV"], etable.out).items():
            client.check([] if ok else [f"self-test: {case}"])


def time_reference(client: Client, copies: int) -> float | None:
    """Wall time of `copies` concurrent runs of the reference job: as many
    processes as the workload's command keeps busy, so that the job meets
    the host in the same shape as the workload does."""
    argv = [sys.executable, str(BENCH_DIR / "reference.py")]
    start = time.perf_counter()
    procs = [subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
             for _ in range(copies)]
    ok = True
    for proc in procs:
        try:
            ok &= proc.wait(max(1.0, start + SETUP_TIMEOUT_S - time.perf_counter())) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            ok = False
    wall = time.perf_counter() - start
    client.check([] if ok else [f"reference job ({copies} copies) failed or timed out"])
    return wall if ok else None


def host_slot(client: Client, workload, setups: list[float], refs: list[float]) -> None:
    """Between passes: SETUP_PER_PASS set-up commands, each followed by a
    run of the reference job."""
    for _ in range(SETUP_PER_PASS):
        cmd = client.cli(["lift", "RR"], SETUP_TIMEOUT_S)
        if cmd.ok:
            client.check([] if cmd.out == "R\n" else [f"lift RR printed {cmd.out!r}"])
            setups.append(cmd.wall)
        ref = time_reference(client, workload.workers)
        if ref is not None:
            refs.append(ref)


def measure(client: Client, workload, seconds: float) -> tuple[dict, dict]:
    """Passes over the workload until `seconds` have gone by, with a host
    slot before and after each.  Every time is divided by the run's host
    factor, the reference job's mean wall time over REFERENCE_S, so the
    times are those of a host that runs the reference job in REFERENCE_S.
    On a shared host the speed of fresh processes drifts by a third within
    minutes, which no statistic inside one run removes; the reference job
    drifts with it, and no change to the package changes its time.  Run in
    the workload's shape (two copies at once for the pooled `verify`), its
    run medians tracked those of the passes with a correlation of 0.86 over
    eight symbolic runs, against 0.44 for one copy.  The host switches
    between two speeds about 1.4x apart within a second or two, so each
    reference sample catches one of them; their mean weighs the two by how
    often they occur, as a pass does, where a median would pick one."""
    setups: list[float] = []
    refs: list[float] = []
    host_slot(client, workload, setups, refs)
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes and client.over_budget(2 * passes[-1].wall):
            break
        passes.append(workload.run_pass(client))
        host_slot(client, workload, setups, refs)
    for _ in range(0, SETUP_RUNS - len(setups), SETUP_PER_PASS):
        host_slot(client, workload, setups, refs)
    factor = statistics.fmean(refs) / REFERENCE_S if refs else 1.0
    walls = [p.wall / factor for p in passes]
    latencies = sorted(c.wall * 1e3 / factor for p in passes for c in p.commands)
    n = len(latencies)
    median = statistics.median
    # The highest percentile with at least 10 samples beyond it.  With 20
    # samples or fewer (one verify command per pass) that is no higher than
    # the median, which stands in for it; the note says which.
    if n > 20:
        tail = latencies[n - 11]
        tail_note = f"p{100 * (n - 10) / n:.1f} of {n} command latencies"
    else:
        tail = median(latencies)
        tail_note = f"the median: only {n} command latencies"
    metrics = {
        "setup_s": median(setups) / factor if setups else 0.0,
        "wall_s": median(walls),
        "cpu_s": median([sum(c.cpu for c in p.commands) for p in passes]) / factor,
        "words_per_s": median([p.words / w for p, w in zip(passes, walls)]),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": median([max(c.rss_mb for c in p.commands) for p in passes]),
    }
    note = {
        "latency_tail_ms": tail_note,
        "host_factor": factor,
        "reference_s": refs,
        "raw_pass_wall_s": [p.wall for p in passes],
        "raw_pass_cpu_s": [sum(c.cpu for c in p.commands) for p in passes],
        "raw_setup_s": setups,
    }
    return metrics, note


def trace(client: Client, workload, name: str, seed: int) -> tuple[dict, dict]:
    cli_pass = workload.run_pass(client)
    worker = [sys.executable, str(BENCH_DIR / "trace_worker.py")]
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.json"
    results = {}
    for traced in (False, True):
        spec = dict(workload.trace_spec(), trace=traced, spans_path=str(spans_path))
        cmd = client.run(worker, 150.0, json.dumps(spec))
        if not cmd.ok:
            continue
        try:
            result = json.loads(cmd.out)
        except ValueError:
            client.check([f"in-process run (trace={traced}) printed no result"])
            continue
        client.attempted += result["attempted"]
        client.failed += result["failed"]
        if result["failed"]:
            client.problems.append(f"in-process run: {result['failed']} operations failed")
        results[traced] = result
    layers = dict(results[True]["layers"]) if True in results else {}
    layers["cli.stdout_bytes"] = sum(c.out_bytes for c in cli_pass.commands)
    layers["cli.pool_utilization"] = (
        sum(c.cpu for c in cli_pass.commands) / (cli_pass.wall * workload.workers))
    if len(results) == 2:
        layers["trace.untraced_wall_s"] = results[False]["wall_s"]
        layers["trace.traced_wall_s"] = results[True]["wall_s"]
        layers["trace.overhead"] = results[True]["wall_s"] / results[False]["wall_s"]
    return layers, {"spans": str(spans_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "goursat" / "cli.py").is_file():
        print(f"no package sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    workload = make_workload(args.workload, args.seed)
    client = Client()
    run_checks(client)
    if args.trace:
        values, note = trace(client, workload, args.workload, args.seed)
    else:
        values, note = measure(client, workload, args.seconds)
    values["failed_frac"] = client.failed / client.attempted
    env["loadavg_end"] = os.getloadavg()

    for problem in client.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "note": note,
                      "environment": env}))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
