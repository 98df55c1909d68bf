"""Command-line interface.

Exit codes: 0 ok, 1 usage (an unreadable or unwritable path included), 2
parse error (input that is not UTF-8 included), 3 validation/guard error,
4 split-vs-direct mismatch found by ``check``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from splitkit import aba, generate, instantiate, io, setaf, split_aba, split_setaf
from splitkit.errors import DegenerateSplit, ParseError, SplitkitError
from splitkit.finder import (
    QUASI_WINDOW,
    dependency_graph,
    find_balanced_splitting,
    find_quasi_splitting,
    find_setaf_splitting,
)
from splitkit.graphs import to_dot
from splitkit.semantics import Semantics, resolve_guard
from splitkit.setaf import primal_graph


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(data.count(b"\n", 0, err.start) + 1, "input is not UTF-8 text") from None


def _write_out(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args) -> tuple[str, object]:
    text = _read(args.path)
    if args.format == "aba":
        return "aba", io.parse_aba(text, strict_dummy=args.strict_dummy)
    return "setaf", io.parse_setaf(text)


def _explicit_split_set(args, framework) -> Optional[frozenset[int]]:
    if args.split_set is None:
        return None
    return io.parse_atom_set(_read(args.split_set), len(framework.names))


def _solve(fmt: str, fw, sem: Semantics, mode: str, guard: Optional[int],
           s: Optional[frozenset[int]] = None):
    """The one solve dispatch of ``solve`` and ``check``: the family, and the
    split set it used (found when ``s`` is None; None in direct mode)."""
    if mode == "direct":
        module = aba if fmt == "aba" else setaf
        return module.enumerate_extensions(fw, sem, guard=guard), None
    if mode == "param" and (fmt != "aba" or sem is not Semantics.STB):
        raise SplitkitError("parametrised solving covers stable semantics on ABA input only")
    if s is None:
        try:
            if mode == "param":
                s = find_quasi_splitting(fw).s
            elif fmt == "aba":
                s = find_balanced_splitting(fw)
            else:
                s = find_setaf_splitting(fw)
        except DegenerateSplit:
            s = frozenset()
    if mode == "param":
        return split_aba.param_split_solve(fw, s, guard=guard), s
    module = split_aba if fmt == "aba" else split_setaf
    return module.split_solve(fw, s, sem, guard=guard), s


def cmd_solve(args) -> int:
    fmt, fw = _load(args)
    exts, _ = _solve(fmt, fw, Semantics(args.semantics), args.mode, args.guard,
                     _explicit_split_set(args, fw))
    _write_out(args, io.format_extensions(exts, fw.names))
    return 0


def cmd_instantiate(args) -> int:
    resolve_guard(args.guard)  # a malformed guard fails even where nothing enumerates
    fmt, fw = _load(args)
    if fmt == "aba":
        sf = instantiate.aba_to_setaf(fw, all_tails=args.all_supports, guard=args.guard)
        _write_out(args, io.emit_setaf(sf))
    else:
        _write_out(args, io.emit_aba(instantiate.setaf_to_aba(fw)))
    return 0


def cmd_find_split(args) -> int:
    fmt, fw = _load(args)
    prefix = ""
    if args.quasi:
        if fmt != "aba":
            raise SplitkitError("quasi-splittings are defined on ABA input only")
        width = args.window
        q = find_quasi_splitting(fw, lo=args.balance - width, hi=args.balance + width)
        chosen = q.s
        prefix = f"# k {q.k}\n"
    elif fmt == "aba":
        chosen = find_balanced_splitting(fw, target=args.balance)
    else:
        chosen = find_setaf_splitting(fw, target=args.balance)
    if args.dot:
        g = dependency_graph(fw) if fmt == "aba" else primal_graph(fw)
        Path(args.dot).write_text(to_dot(g), encoding="utf-8")
    lines = "".join(f"{atom + 1}\n" for atom in sorted(chosen))
    _write_out(args, prefix + lines)
    return 0


def cmd_gen(args) -> int:
    if args.format == "aba":
        fw = generate.random_abaf(
            args.seed,
            max_assumptions=args.assumptions,
            max_rules=args.rules,
            max_body=args.max_body,
            max_extra=args.extra,
        )
        _write_out(args, io.emit_aba(fw))
    else:
        fw = generate.random_setaf(
            args.seed, max_args=args.args, max_attacks=args.attacks, max_tail=args.max_tail
        )
        _write_out(args, io.emit_setaf(fw))
    return 0


def cmd_check(args) -> int:
    sem = Semantics(args.semantics)
    if args.count < 0:
        raise SplitkitError(f"--count must be nonnegative, got {args.count}")
    mismatches = 0
    for i in range(args.count):
        seed = args.seed + i
        if args.format == "aba":
            fw = generate.random_abaf(seed, max_assumptions=6, max_rules=8)
            emitted = io.emit_aba(fw)
        else:
            fw = generate.random_setaf(seed, max_args=7, max_attacks=9)
            emitted = io.emit_setaf(fw)
        via_split, s = _solve(args.format, fw, sem, args.mode, args.guard)
        direct, _ = _solve(args.format, fw, sem, "direct", args.guard)
        if direct != via_split:
            mismatches += 1
            sys.stderr.write(f"mismatch at seed {seed} with split set "
                             f"{sorted(a + 1 for a in s)}:\n{emitted}")
            sys.stderr.write("direct:\n" + io.format_extensions(direct, fw.names))
            sys.stderr.write("split:\n" + io.format_extensions(via_split, fw.names))
    print(f"checked {args.count} instances, {mismatches} mismatches")
    return 4 if mismatches else 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_guard(p):
    p.add_argument("--guard", type=int, default=None,
                   help="enumeration guard (also via SPLITKIT_GUARD)")


def _add_common(p, semantics: bool = True):
    p.add_argument("path", help="input file, or - for stdin")
    p.add_argument("--format", choices=("aba", "setaf"), default="aba")
    if semantics:
        p.add_argument("--semantics", choices=[s.value for s in Semantics], required=True)
    p.add_argument("--strict-dummy", action="store_true",
                   help="reject instead of stripping dummy rules")
    p.add_argument("--output", default=None, help="write results here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="enumerate extensions")
    _add_common(p)
    _add_guard(p)
    p.add_argument("--mode", choices=("direct", "split", "param"), default="direct")
    p.add_argument("--split-set", default=None, help="file with one atom id per line")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("instantiate", help="translate between ABA and SETAF")
    _add_common(p, semantics=False)
    _add_guard(p)
    p.add_argument("--all-supports", action="store_true",
                   help="emit every derivation tail, not only the minimal ones")
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("find-split", help="print a splitting set, one atom id per line")
    _add_common(p, semantics=False)
    p.add_argument("--balance", type=float, default=0.5,
                   help="target share of the atoms in the bottom, in [0, 1]")
    p.add_argument("--quasi", action="store_true")
    p.add_argument("--window", type=float, default=(QUASI_WINDOW[1] - QUASI_WINDOW[0]) / 2,
                   help="half-width of the balance window for --quasi")
    p.add_argument("--dot", default=None, help="also write the dependency/primal graph")
    p.set_defaults(func=cmd_find_split)

    p = sub.add_parser("gen", help="emit a seeded random instance")
    p.add_argument("--format", choices=("aba", "setaf"), default="aba")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assumptions", type=_at_least(1), default=5)
    p.add_argument("--rules", type=_at_least(0), default=6)
    p.add_argument("--max-body", type=_at_least(1), default=2)
    p.add_argument("--extra", type=_at_least(0), default=1)
    p.add_argument("--args", type=_at_least(1), default=6)
    p.add_argument("--attacks", type=_at_least(0), default=8)
    p.add_argument("--max-tail", type=_at_least(1), default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="compare split pipelines against direct solving")
    p.add_argument("--format", choices=("aba", "setaf"), default="aba")
    p.add_argument("--mode", choices=("split", "param"), default="split")
    p.add_argument("--semantics", choices=[s.value for s in Semantics], required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_guard(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except SplitkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # a path that cannot be read or written
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
