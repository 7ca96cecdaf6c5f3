"""Byte-for-byte output corpus of the command line.

Every command below runs through ``cli.main`` in-process; its exit code
and stdout are hashed and compared with the digests recorded in
``golden/cli_corpus.json``.  A refactor that keeps behaviour keeps every
digest.  Run this file as a script to re-record the digests after an
intended change of output.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from goursat.cli import main
from goursat.codeword import RvtWord, is_goursat
from goursat.errors import WordError

DIGESTS = Path(__file__).parent / "golden" / "cli_corpus.json"


def _words(max_k: int, goursat: bool, min_k: int = 1):
    for k in range(min_k, max_k + 1):
        for letters in itertools.product("RTV", repeat=k):
            try:
                word = RvtWord("".join(letters))
            except WordError:
                continue
            if is_goursat(word) or not goursat:
                yield word.symbols


def corpus_commands() -> list[tuple[str, ...]]:
    """The commands, without repeats (short Goursat words are RVT words too)."""
    commands = []
    for w in _words(8, goursat=True):
        commands += [
            ("invariants", w), ("invariants", w, "--json"), ("etable", w),
            ("prox", w), ("prox", w, "--dot"), ("puiseux", w), ("chart", w), ("lift", w),
        ]
    for w in _words(6, goursat=False):
        commands += [
            ("invariants", w), ("invariants", w, "--json"), ("etable", w),
            ("prox", w), ("puiseux", w), ("verify", w),
        ]
    for w in _words(7, goursat=False, min_k=7):
        commands += [("puiseux", w), ("chart", w)]
    for w in _words(5, goursat=False):
        commands.append(("verify", w, "--symbolic"))
    for w in _words(6, goursat=True, min_k=6):
        commands.append(("verify", w, "--symbolic"))
    commands.append(("verify", "--all-words", "6", "--symbolic", "--seed", "7"))
    commands.append(("verify", "--all-words", "8"))
    commands.append(("verify", "--all-words", "10"))
    commands.append(("verify", "--all-words", "7", "--symbolic"))
    for k in range(1, 7):
        commands += [("bracket-table", "".join(c)) for c in itertools.product("oi", repeat=k)]
    return list(dict.fromkeys(commands))


def digest(command: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(command))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()[:20]


def test_cli_output_corpus_is_unchanged():
    recorded = json.loads(DIGESTS.read_text())
    commands = corpus_commands()
    assert sorted(" ".join(c) for c in commands) == sorted(recorded)
    changed = [" ".join(c) for c in commands if digest(c) != recorded[" ".join(c)]]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({" ".join(c): digest(c) for c in corpus_commands()}, indent=0, sort_keys=True)
        + "\n"
    )
