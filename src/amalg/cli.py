"""Command line front end: parsers for the text grammars and the subcommands.

Subcommands: nf, iso-check, functor-check, gl2 decompose/eval, sl2 decompose,
axioms.  Exit code 0 on success, 1 on a failed mathematical assertion, 2 on
usage or parse errors.  Positional word/matrix/group arguments accept '-' to
read stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Callable, Collection

from .amalgam import SIDE_A, SIDE_B, AmalgamSpec, Syllable, make_amalgam, reduce_word, to_word
from .groups import (
    FiniteGroup,
    GroupAction,
    check_group_axioms,
    hom_from_generators,
    inversion_action,
    make_action,
    make_cyclic,
    make_dihedral,
)
from .iso import CompatibleActionTriple, make_big_amalgam, verify_exact_sequence, verify_split
from .matgroup import (
    LETTERS,
    Glt2Word,
    Mat2,
    evaluate_word,
    fold_letters,
    form_to_letters,
    gl2_decompose,
    sl2_decompose,
    small_form_to_letters,
)
from .products import inversion_embedding_catalog, verify_functor_laws
from .reporting import CheckRecord, Report

__all__ = [
    "ParseError",
    "parse_matrix",
    "parse_letter_word",
    "parse_amalgam_word",
    "parse_group_spec",
    "parse_action_spec",
    "render_matrix",
    "render_letter_word",
    "render_amalgam_word",
    "load_group",
    "run",
    "main",
]

BUILTIN_GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z6", "D2", "D4", "D6")

# The one integer grammar of every input: an optional '-', then ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    """A syntax error at a byte offset of the input expression."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"parse error at offset {offset}: {message}")
        self.offset = offset


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
            raise ParseError(self.pos, f"expected {ch!r}, found {found}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        m = _INTEGER.match(self.text, start)
        end = m.end() if m else start + self.text.startswith("-", start)
        if end < len(self.text) and self.text[end].isdigit():
            raise ParseError(end, f"non-ASCII digit {self.text[end]!r}")
        if m is None:
            raise ParseError(start, "expected an integer")
        self.pos = end
        try:
            return int(m[0])
        except ValueError:  # longer than the interpreter's int() digit limit
            digits = len(m[0].lstrip("-"))
            raise ParseError(start, f"integer of {digits} digits is too long to convert") from None

    def end(self) -> None:
        if not self.eof():
            raise ParseError(self.pos, f"unexpected trailing input {self.text[self.pos]!r}")


def integer(text: str) -> int:
    """``text`` as one integer of the word grammar, ``_INTEGER``.  Blanks that
    the scanner skips may surround it, and the scanner names any error."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int() digit limit
            pass
    s = _Scanner(text)
    value = s.integer()
    s.end()
    return value


def parse_matrix(text: str) -> Mat2:
    """Parse '[[a,b],[c,d]]' (whitespace-insensitive, negative entries fine)."""
    s = _Scanner(text)
    s.expect("[")
    s.expect("[")
    a = s.integer()
    s.expect(",")
    b = s.integer()
    s.expect("]")
    s.expect(",")
    s.expect("[")
    c = s.integer()
    s.expect(",")
    d = s.integer()
    s.expect("]")
    s.expect("]")
    s.end()
    return Mat2(a, b, c, d)


def _parse_terms(
    text: str, heads: Collection[str], kind: str, body: Callable[[_Scanner, str], Any]
) -> list[tuple[Any, int]]:
    """Parse ``term ('*' term)*``, or only whitespace for no terms.  A term is
    a head character, whatever ``body(scanner, head)`` reads after it, and an
    optional nonzero exponent ``^k``; each term is returned as (body, k)."""
    s = _Scanner(text)
    terms: list[tuple[Any, int]] = []
    while not s.eof():
        if terms:
            s.expect("*")
            if s.eof():
                raise ParseError(s.pos, "expected a term after '*'")
        head = s.peek()
        if head not in heads:
            raise ParseError(s.pos, f"unknown {kind} {head!r}")
        s.pos += 1
        value = body(s, head)
        exp = 1
        if s.peek() == "^":
            s.expect("^")
            exp_off = s.pos
            exp = s.integer()
            if exp == 0:
                raise ParseError(exp_off, "zero exponent")
        terms.append((value, exp))
    return terms


def parse_letter_word(text: str) -> Glt2Word:
    """Parse a word like 's^3 * u^2 * j'; the empty string is the empty word."""
    return Glt2Word(fold_letters(_parse_terms(text, LETTERS, "letter", lambda s, head: head)))


def parse_amalgam_word(text: str, spec: AmalgamSpec) -> tuple[Syllable, ...]:
    """Parse a word like 'a:1 * b:2 * a:3^-1' over the given amalgam into
    its raw syllables."""
    groups = {SIDE_A: spec.a, SIDE_B: spec.b}

    def syllable(s: _Scanner, side: str) -> tuple[str, int]:
        s.expect(":")
        idx_off = s.pos
        idx = s.integer()
        if not 0 <= idx < groups[side].order:
            raise ParseError(idx_off, f"element index {idx} out of range for side {side}")
        return side, idx

    terms = _parse_terms(text, (SIDE_A, SIDE_B), "side", syllable)
    return tuple((side, groups[side].power(x, k)) for (side, x), k in terms)


def render_matrix(m: Mat2) -> str:
    return f"[[{m.a},{m.b}],[{m.c},{m.d}]]"


def render_letter_word(w: Glt2Word) -> str:
    return " * ".join(l if k == 1 else f"{l}^{k}" for l, k in w.letters)


def render_amalgam_word(w: tuple[Syllable, ...]) -> str:
    return " * ".join(f"{side}:{idx}" for side, idx in w)


def _spec_lines(text: str, kind: str) -> list[tuple[int, str]]:
    """The stripped non-blank lines of a group or action spec, numbered from 1."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not lines:
        raise ValueError(f"empty {kind} specification")
    return lines


def _spec_error(kind: str, lineno: int, message: str) -> ValueError:
    return ValueError(f"{kind} spec line {lineno}: {message}")


def _spec_ints(kind: str, lineno: int, fields: list[str], message: str) -> tuple[int, ...]:
    """The ``fields`` of line ``lineno`` of a ``kind`` spec, each read by
    ``integer``; if one is not an integer, ``message`` is the line's error."""
    try:
        return tuple(map(integer, fields))
    except ValueError:
        raise _spec_error(kind, lineno, message) from None


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse the line-oriented group format (header, identity, rows, generators)."""
    lines = _spec_lines(text, "group")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "group" or parts[2] != "order":
        raise _spec_error("group", lineno, "expected 'group <label> order <n>'")
    label = parts[1]
    [n] = _spec_ints("group", lineno, parts[3:], f"bad order {parts[3]!r}")
    if n <= 0:
        raise _spec_error("group", lineno, "order must be positive")

    if len(lines) < 2:
        raise ValueError("group spec: missing 'identity' line")
    lineno, ident_line = lines[1]
    parts = ident_line.split()
    if len(parts) != 2 or parts[0] != "identity":
        raise _spec_error("group", lineno, "expected 'identity <i>'")
    [identity] = _spec_ints("group", lineno, parts[1:], f"bad identity {parts[1]!r}")
    if not 0 <= identity < n:
        raise _spec_error("group", lineno, f"identity index {identity} out of range")

    body = lines[2:]
    if len(body) < n + 1:
        raise _spec_error("group", lines[0][0], f"order {n} needs {n} rows and a generators"
                          f" line, found {len(body)} lines")
    rows: list[tuple[int, ...] | None] = [None] * n
    for lineno, line in body[:n]:
        if not line.startswith("row"):
            raise _spec_error("group", lineno, "expected 'row <i>: ...'")
        head, _, rest = line.partition(":")
        # The index is the head's second word; a one-word head, "row...", is none.
        [i] = _spec_ints("group", lineno, head.split()[1:2] or [head], "expected 'row <i>: ...'")
        if not 0 <= i < n or rows[i] is not None:
            raise _spec_error("group", lineno, f"bad or repeated row index {i}")
        entries = _spec_ints("group", lineno, rest.split(), "row entries must be integers")
        if len(entries) != n or any(not 0 <= v < n for v in entries):
            raise _spec_error("group", lineno, f"row {i} must have {n} entries in range")
        rows[i] = entries
    lineno, gen_line = body[n]
    if not gen_line.startswith("generators:"):
        raise _spec_error("group", lineno, "expected 'generators: ...'")
    gen_idx = _spec_ints("group", lineno, gen_line.split(":", 1)[1].split(),
                         "generator indices must be integers")
    if any(not 0 <= g < n for g in gen_idx):
        raise _spec_error("group", lineno, "generator index out of range")
    if len(body) > n + 1:
        raise _spec_error("group", body[n + 1][0], "unexpected line after the generators line")

    mul = tuple(r for r in rows if r is not None)
    # In a finite monoid a right inverse is the two-sided one; a row without
    # the identity gets x itself, so axiom checking can report the failure.
    inv = [row.index(identity) if identity in row else x for x, row in enumerate(mul)]
    return FiniteGroup(label, mul, identity, tuple(inv), gen_idx)


def parse_action_spec(text: str, actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    """Parse the line-oriented action format and verify the action laws."""
    lines = _spec_lines(text, "action")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "action" or parts[2] != "on":
        raise _spec_error("action", lineno, "expected 'action <actor> on <space>'")
    rows: list[tuple[int, ...] | None] = [None] * actor.order
    for lineno, line in lines[1:]:
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "c":
            raise _spec_error("action", lineno, "expected 'c <i>: ...'")
        [c] = _spec_ints("action", lineno, parts[1:], f"bad actor index {parts[1]!r}")
        if not 0 <= c < actor.order or rows[c] is not None:
            raise _spec_error("action", lineno, f"bad or repeated actor index {c}")
        perm = _spec_ints("action", lineno, rest.split(), "permutation entries must be integers")
        if len(perm) != space.order:
            raise _spec_error("action", lineno, f"expected {space.order} entries")
        rows[c] = perm
    if any(r is None for r in rows):
        raise ValueError("action spec: missing actor rows")
    return make_action(actor, space, tuple(r for r in rows if r is not None))


def _read_spec_file(name: str, kind: str, builtins: str) -> str:
    """The text of a group or action file; a name that is neither a builtin
    nor a readable file is a usage error."""
    try:
        with open(name) as f:
            return f.read()
    except (FileNotFoundError, NotADirectoryError):
        raise ValueError(f"unknown {kind} {name!r}: not {builtins} and not a file") from None
    except OSError as e:
        raise ValueError(f"cannot read {kind} file {name!r}: {e.strerror}") from None


def load_group(name: str) -> FiniteGroup:
    """A builtin name (Z1 Z2 Z3 Z4 Z6 D2 D4 D6) or a path to a group file."""
    if name in BUILTIN_GROUPS:
        kind, k = name[0], int(name[1:])
        return make_cyclic(k) if kind == "Z" else make_dihedral(k)
    return parse_group_spec(_read_spec_file(name, "group", "a builtin"))


def _load_amalgam_group(name: str) -> FiniteGroup:
    """load_group for a factor, subgroup or actor of an amalgam: a group read
    from a file must pass the axiom check before any amalgam is built on it."""
    group = load_group(name)
    if name not in BUILTIN_GROUPS:
        failed = check_group_axioms(group).first_failure()
        if failed is not None:
            raise ValueError(
                f"group file {name}: {failed.check} fails: {failed.witness}"
            )
    return group


def load_action(arg: str, actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    """The builtin name 'inv' or a path to an action file."""
    if arg == "inv":
        return inversion_action(actor, space)
    return parse_action_spec(_read_spec_file(arg, "action", "'inv'"), actor, space)


def parse_gen_map(arg: str) -> dict[int, int]:
    """Parse a generator-image map like '1:2' or '1:2,3:4'; a blank one is
    empty, as for Z1, which has no generators."""
    out: dict[int, int] = {}
    for piece in arg.split(",") if arg.strip() else ():
        left, sep, right = piece.partition(":")
        if not sep:
            raise ValueError(f"bad generator map entry {piece!r}, expected 'i:j'")
        try:
            key, value = integer(left), integer(right)
        except ValueError:
            raise ValueError(f"bad generator map entry {piece!r}") from None
        if key in out:
            raise ValueError(f"repeated generator map entry {piece!r}")
        out[key] = value
    return out


def _read_arg(value: str) -> str:
    return sys.stdin.read().strip() if value == "-" else value


def _emit_report(report: Report, fmt: str) -> None:
    for r in report.records:
        if fmt == "json-lines":
            rec = {"check": r.check, "instance": r.instance,
                   "status": "pass" if r.ok else "fail"}
            if r.witness is not None:
                rec["witness"] = r.witness
            print(json.dumps(rec, sort_keys=True))
        else:
            mark = "PASS" if r.ok else "FAIL"
            tail = "" if r.witness is None else f": {r.witness}"
            print(f"{mark} {r.check} [{r.instance}]{tail}")


def _emit_result(check: str, instance: str, result: str, fmt: str) -> None:
    if fmt == "json-lines":
        print(json.dumps(
            {"check": check, "instance": instance, "status": "pass", "result": result},
            sort_keys=True,
        ))
    else:
        print(result)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json-lines"), default="text")
    amalgam = argparse.ArgumentParser(add_help=False)  # read by _amalgam_from_args
    for flag in ("--A", "--B", "--D", "--iotaA", "--iotaB"):
        amalgam.add_argument(flag, required=True)

    parser = argparse.ArgumentParser(
        prog="amalg",
        description="Finite-group amalgams, semidirect products, and GL2(Z) words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", parents=[common, amalgam], help="normalize an amalgam word")
    p_nf.add_argument("word")
    p_nf.set_defaults(func=_cmd_nf)

    p_iso = sub.add_parser(
        "iso-check", parents=[common, amalgam],
        help="verify the semidirect/amalgam distribution on an instance",
    )
    for flag in ("--C", "--actA", "--actB", "--actD"):
        p_iso.add_argument(flag, required=True)
    p_iso.add_argument("--seed", type=integer, default=0)
    p_iso.add_argument("--samples", type=integer, default=1000)
    p_iso.add_argument("--bound", type=integer, default=3)
    p_iso.set_defaults(func=_cmd_iso_check)

    sub.add_parser(
        "functor-check", parents=[common],
        help="verify functor laws on the builtin inversion catalog",
    ).set_defaults(func=_cmd_functor_check)

    p_gl2 = sub.add_parser("gl2", help="GL2(Z) word operations")
    gl2_sub = p_gl2.add_subparsers(dest="gl2_command", required=True)
    p_gd = gl2_sub.add_parser("decompose", parents=[common])
    p_gd.add_argument("matrix")
    p_gd.set_defaults(func=_cmd_gl2_decompose)
    p_ge = gl2_sub.add_parser("eval", parents=[common])
    p_ge.add_argument("word")
    p_ge.set_defaults(func=_cmd_gl2_eval)

    p_sl2 = sub.add_parser("sl2", help="SL2(Z) word operations")
    sl2_sub = p_sl2.add_subparsers(dest="sl2_command", required=True)
    p_sd = sl2_sub.add_parser("decompose", parents=[common])
    p_sd.add_argument("matrix")
    p_sd.set_defaults(func=_cmd_sl2_decompose)

    p_ax = sub.add_parser("axioms", parents=[common], help="check group axioms")
    p_ax.add_argument("group")
    p_ax.set_defaults(func=_cmd_axioms)
    return parser


def _amalgam_from_args(args: argparse.Namespace) -> AmalgamSpec:
    a = _load_amalgam_group(args.A)
    b = _load_amalgam_group(args.B)
    d = _load_amalgam_group(args.D)
    iota_a = hom_from_generators(d, a, parse_gen_map(args.iotaA))
    iota_b = hom_from_generators(d, b, parse_gen_map(args.iotaB))
    return make_amalgam(a, b, d, iota_a, iota_b)


def _cmd_nf(args: argparse.Namespace) -> int:
    spec = _amalgam_from_args(args)
    text = _read_arg(args.word)
    form = reduce_word(spec, parse_amalgam_word(text, spec))
    _emit_result("nf", text, render_amalgam_word(to_word(spec, form)), args.format)
    return 0


def _cmd_iso_check(args: argparse.Namespace) -> int:
    spec = _amalgam_from_args(args)
    c_group = _load_amalgam_group(args.C)
    acts = CompatibleActionTriple(
        load_action(args.actA, c_group, spec.a),
        load_action(args.actB, c_group, spec.b),
        load_action(args.actD, c_group, spec.d),
    )
    try:
        big = make_big_amalgam(spec, acts)
    except ValueError as e:
        _emit_report(
            Report((CheckRecord("instance-construction", spec.label, False, str(e)),)),
            args.format,
        )
        return 1
    report = verify_exact_sequence(big, args.bound) + verify_split(
        big, args.samples, args.seed
    )
    _emit_report(report, args.format)
    return 0 if report.ok else 1


def _cmd_functor_check(args: argparse.Namespace) -> int:
    actor, spaces, homs = inversion_embedding_catalog()
    report = verify_functor_laws(actor, spaces, homs)
    _emit_report(report, args.format)
    return 0 if report.ok else 1


def _cmd_gl2_decompose(args: argparse.Namespace) -> int:
    text = _read_arg(args.matrix)
    m = parse_matrix(text)
    form = gl2_decompose(m)
    _emit_result(
        "gl2-decompose", render_matrix(m),
        render_letter_word(form_to_letters(form)), args.format,
    )
    return 0


def _cmd_gl2_eval(args: argparse.Namespace) -> int:
    text = _read_arg(args.word)
    word = parse_letter_word(text)
    m = evaluate_word(word)
    _emit_result("gl2-eval", render_letter_word(word), render_matrix(m), args.format)
    return 0


def _cmd_sl2_decompose(args: argparse.Namespace) -> int:
    text = _read_arg(args.matrix)
    m = parse_matrix(text)
    word = small_form_to_letters(sl2_decompose(m))
    _emit_result("sl2-decompose", render_matrix(m), render_letter_word(word), args.format)
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    if args.group == "-":
        group = parse_group_spec(sys.stdin.read())
    else:
        group = load_group(args.group)
    report = check_group_axioms(group)
    _emit_report(report, args.format)
    return 0 if report.ok else 1


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> None:
    # Arithmetic is exact, so read and print integers of any length (3.11+ limit).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: exit as a process killed by SIGPIPE, with
        # stdout on devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
