"""Fuzzing the command line in-process: every word, however malformed,
ends in a documented exit code (0, 1, 2 or 3), never in an exception."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from goursat.cli import main

ALPHABET = "RVTXrv "
WORDS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=10),
    # mostly well-formed: a leading R, then symbols in either case
    st.text(alphabet="RVTrv", max_size=9).map(lambda tail: "R" + tail),
)
COMMANDS = st.sampled_from(
    [["invariants"], ["invariants", "--json"], ["etable"], ["puiseux"], ["lift"], ["prox"]]
)


@settings(max_examples=300, deadline=None)
@given(word=WORDS, command=COMMANDS)
def test_every_word_gets_a_documented_exit_code(word, command):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command[0], word, *command[1:]])
    assert code in {0, 1, 2, 3}
