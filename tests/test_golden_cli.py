"""CLI golden transcript: stdout and exit code of fixed commands, byte for byte.

Regenerate ``golden_cli.txt`` only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import sys
from pathlib import Path

from amalg.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.txt")

# Closed, with identity 0 and inverses, but (1 * 2) * 2 = 0 while 1 * (2 * 2) = 1.
NON_ASSOCIATIVE = """\
group N order 3
identity 0
row 0: 0 1 2
row 1: 1 0 2
row 2: 2 2 0
generators: 1 2
"""

# Left projection: associative, but 0 is not a two-sided identity.
NO_IDENTITY = """\
group P order 2
identity 0
row 0: 0 0
row 1: 1 1
generators: 1
"""

# The monoid {0, 1} under multiplication with 1 * 1 = 1: 1 has no inverse.
NO_INVERSES = """\
group M order 2
identity 0
row 0: 0 1
row 1: 1 1
generators: 1
"""

# Z3 with an empty generating set.
NOT_GENERATED = """\
group Q order 3
identity 0
row 0: 0 1 2
row 1: 1 2 0
row 2: 2 0 1
generators:
"""

STDIN = {
    "NON_ASSOCIATIVE": NON_ASSOCIATIVE,
    "NO_IDENTITY": NO_IDENTITY,
    "NO_INVERSES": NO_INVERSES,
    "NOT_GENERATED": NOT_GENERATED,
}

FLAGSHIP = [
    "--A", "Z4", "--B", "Z6", "--D", "Z2", "--C", "Z2",
    "--iotaA", "1:2", "--iotaB", "1:3",
    "--actA", "inv", "--actB", "inv", "--actD", "inv",
]
NF = ["nf", "--A", "Z4", "--B", "Z6", "--D", "Z2", "--iotaA", "1:2", "--iotaB", "1:3"]

# (argv, key of the STDIN text given on stdin, or None)
CASES = [
    (["axioms", "-"], "NON_ASSOCIATIVE"),
    (["axioms", "-"], "NO_IDENTITY"),
    (["axioms", "-"], "NO_INVERSES"),
    (["axioms", "-"], "NOT_GENERATED"),
    (["axioms", "--format", "json-lines", "-"], "NON_ASSOCIATIVE"),
    (["axioms", "D6"], None),
    (["functor-check"], None),
    (["functor-check", "--format", "json-lines"], None),
    (["iso-check"] + FLAGSHIP, None),
    (["iso-check"] + FLAGSHIP + ["--format", "json-lines", "--seed", "1"], None),
    (["iso-check"] + FLAGSHIP + ["--format", "json-lines", "--seed", "2"], None),
    (["iso-check", "--A", "Z6", "--B", "Z6", "--D", "Z3", "--C", "Z2",
      "--iotaA", "1:2", "--iotaB", "1:4", "--actA", "inv", "--actB", "inv",
      "--actD", "inv", "--bound", "2", "--samples", "100"], None),
    (NF + ["a:3 * b:4"], None),
    (NF + ["a:1 * b:2 * a:1^-1 * b:5"], None),
    (NF + ["--format", "json-lines", "b:3 * a:2"], None),
    (NF + ["a:9"], None),
    (["gl2", "decompose", "[[2,3],[1,2]]"], None),
    (["gl2", "decompose", "[[0,1],[1,0]]"], None),
    (["gl2", "decompose", "--format", "json-lines", "[[-7,2],[4,-1]]"], None),
    (["gl2", "decompose", "[[2,0],[0,1]]"], None),
    (["gl2", "eval", "s * u * s * u^2 * s * u * s^2"], None),
    (["gl2", "eval", "--format", "json-lines", "j * s^-1 * u^5"], None),
    (["gl2", "eval", "s * q"], None),
    (["sl2", "decompose", "[[1,1],[0,1]]"], None),
    (["sl2", "decompose", "[[5,-3],[-8,5]]"], None),
    (["sl2", "decompose", "--format", "json-lines", "[[0,-1],[1,0]]"], None),
    # Adjacent equal letters add up; the sum is not taken mod the letter's order.
    (["gl2", "eval", "--format", "json-lines", "s^3 * s^3 * u^6 * j^2"], None),
    (["gl2", "eval", "u^1000000000000000001 * s^-1000000000000000001"], None),
    (NF + ["a:1^3 * b:1^-2 * b:5^3 * a:3^-2"], None),
]


def transcript() -> str:
    """Each case as '$ amalg ARGS [< STDIN]', its stdout, and '[exit N]'."""
    out = []
    for argv, stdin_name in CASES:
        line = "$ amalg " + " ".join(repr(a) if " " in a else a for a in argv)
        if stdin_name is not None:
            line += f" < {stdin_name}"
        stdout = io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(STDIN.get(stdin_name, ""))
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            sys.stdin = saved_stdin
        out.append(f"{line}\n{stdout.getvalue()}[exit {code}]\n")
    return "".join(out)


def test_cli_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(transcript())
