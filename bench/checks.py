"""Output checks for the benchmark.

Each check takes the text a `goursat` command printed and returns a list of
problems; an empty list means the output passed.  The expected values come
from the paper's worked examples, from closed forms (the degree of
RR V^(k-2) is F(k+2)), from the benchmark's own recursion in `words.py`,
and from agreement between commands.  None of them calls the package.
"""

from __future__ import annotations

import json
import re

import words

# Worked examples: (word, beta, Puiseux characteristic, degree of nonholonomy).
WORKED = (
    ("RRVTVV", (1, 2, 3, 5, 8, 11, 19), "[8;19]", 19),
    ("RVTRV", None, "[6;8,9]", None),
)


def parse_text_bundle(text: str) -> dict[str, str]:
    """The `invariants` text output as a field -> value map."""
    fields = {}
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep:
            fields[name.strip()] = value.strip()
    return fields


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in re.findall(r"-?\d+", text))


def etable_sg(text: str) -> list[int]:
    """The SG column of the `etable` output (after the header and rule)."""
    return [int(line.rsplit("|", 1)[1]) for line in text.splitlines()[2:]]


def check_json_bundle(word: str, js: str, expected_degree: int | None) -> tuple[dict, list[str]]:
    """The parsed `invariants --json` output and its structural problems."""
    try:
        data = json.loads(js)
        beta, b, sg = data["beta"], data["b"], data["sg"]
        degree = data["nonholonomy_degree"]
        rows = data["e_table"]["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [f"{word}: unreadable JSON bundle ({exc!r})"]
    problems = []
    if data.get("word") != word:
        problems.append(f"{word}: JSON word is {data.get('word')!r}")
    if b != beta[1:]:
        problems.append(f"{word}: JSON b != beta[1:]")
    if len(sg) != degree:
        problems.append(f"{word}: JSON len(sg) {len(sg)} != degree {degree}")
    if len(rows) != degree - 1:
        problems.append(f"{word}: JSON has {len(rows)} e-table rows, degree {degree}")
    if expected_degree is not None and degree != expected_degree:
        problems.append(f"{word}: degree {degree}, expected {expected_degree}")
    return data, problems


def check_deep_word(word: str, text: str, js: str, etable: str) -> list[str]:
    """invariants, invariants --json and etable of one Goursat word agree
    with each other and with the benchmark's own degree: F(k+2) for
    RR V^(k-2), the recursion in words.py otherwise."""
    k = len(word)
    expected = words.fib(k + 2) if word == words.rrv_word(k) else words.degree(word)
    data, problems = check_json_bundle(word, js, expected)
    if problems:
        return problems
    fields = parse_text_bundle(text)
    if _int_tuple(fields.get("beta", "")) != tuple(data["beta"]):
        problems.append(f"{word}: text beta differs from JSON beta")
    if fields.get("nonholonomy degree") != str(data["nonholonomy_degree"]):
        problems.append(f"{word}: text degree differs from JSON degree")
    try:
        sg_column = etable_sg(etable)
    except (IndexError, ValueError):
        return problems + [f"{word}: unreadable etable output"]
    if sg_column != data["e_table"]["sg"]:
        problems.append(f"{word}: etable SG column differs from JSON e_table.sg")
    return problems


def check_worked(word: str, text: str, js: str) -> list[str]:
    """The paper's worked examples, from both output formats."""
    _, beta, puiseux, degree = next(w for w in WORKED if w[0] == word)
    data, problems = check_json_bundle(word, js, degree)
    if problems:
        return problems
    fields = parse_text_bundle(text)
    pc = data["puiseux"]
    json_pc = f"[{pc['lambda0']};{','.join(str(e) for e in pc['exponents'])}]"
    if json_pc != puiseux or fields.get("puiseux") != puiseux:
        problems.append(f"{word}: Puiseux {json_pc} / {fields.get('puiseux')}, expected {puiseux}")
    if beta is not None and (
        tuple(data["beta"]) != beta or _int_tuple(fields.get("beta", "")) != beta
    ):
        problems.append(f"{word}: beta differs from {beta}")
    return problems


def check_verify(out: str, n: int) -> list[str]:
    """`verify --all-words n`: a final PASS, no MISMATCH, and reports for
    exactly the benchmark's own list of Goursat words of length n."""
    lines = out.splitlines()
    problems = []
    if not lines or lines[-1] != "PASS":
        problems.append(f"verify --all-words {n}: last line is not PASS")
    if any("MISMATCH" in line for line in lines):
        problems.append(f"verify --all-words {n}: MISMATCH reported")
    reported = {line.split(":", 1)[0] for line in lines[:-1]}
    expected = set(words.goursat_words(n))
    if reported != expected:
        problems.append(
            f"verify --all-words {n}: {len(reported)} words reported, "
            f"{len(expected)} Goursat words of length {n}"
        )
    return problems


def self_test(text: str, js: str, etable: str) -> dict[str, bool]:
    """Feed a well-formed verify report and tampered copies of real outputs
    (RRVTVV's) to the checks.  Returns, per case, whether the checks got it
    right: the report accepted, every tampering reported."""
    word = "RRVTVV"
    data = json.loads(js)
    verify_ok = "".join(f"{w}: agree\n" for w in words.goursat_words(6)) + "PASS\n"
    tampered = {
        "JSON beta": check_worked(word, text, json.dumps(dict(data, beta=[1, 2, 3, 5, 8, 11, 20]))),
        "JSON sg length": check_json_bundle(word, json.dumps(dict(data, sg=data["sg"][:-1])), 19)[1],
        "text Puiseux": check_worked(word, text.replace("[8;19]", "[8;18]"), js),
        "etable SG": check_deep_word(word, text, js, etable.rsplit("|", 1)[0] + "| 99\n"),
        "verify word dropped": check_verify(verify_ok.split("\n", 1)[1], 6),
        "verify MISMATCH": check_verify(f"{word}: MISMATCH VO_2\n" + verify_ok, 6),
        "verify FAIL": check_verify(verify_ok.replace("PASS", "FAIL"), 6),
    }
    cases = {"well-formed verify report accepted": not check_verify(verify_ok, 6)}
    cases.update((f"tampered {name} caught", bool(p)) for name, p in tampered.items())
    return cases
