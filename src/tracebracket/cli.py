"""Command-line front end.

Exit codes: 0 = success, 1 = domain findings (axiom or identity violations,
reported as data), 2 = malformed input.  ``--json`` emits one line of JSON
with sorted keys, in a stable schema:
{"command": ..., "inputs": ..., "result": ..., "witnesses": ...}.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, List, Optional

from . import biquandle as bqmod
from . import bracket as brmod
from . import coloring as colmod
from . import diagram as dgmod
from . import trace as trmod
from .search import CLASSIFICATIONS, search_brackets


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None


def _parse_file(path: str, parse: Callable, *args):
    """``parse(text, *args)`` on the file's text, a ValueError becoming an
    input error that names the file."""
    try:
        return parse(_read(path), *args)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_biquandle(spec: str, verify: bool = True) -> bqmod.Biquandle:
    """An inline spec (valid by construction) or a biquandle file, which
    must pass the axioms unless ``verify`` is off."""
    inline = bqmod.biquandle_from_spec(spec)
    if inline is not None:
        return inline
    bq = _parse_file(spec, bqmod.parse_biquandle)
    if verify:
        report = bqmod.verify_biquandle(bq)
        if not report.ok:
            raise InputError(f"{spec}: not a biquandle: {report.violations[0].describe()}")
    return bq


def _load_diagram(path: str) -> dgmod.OrientedDiagram:
    d = _parse_file(path, dgmod.parse_diagram)
    report = dgmod.validate_diagram(d)
    if not report.ok:
        raise InputError(f"{path}: " + "; ".join(report.problems))
    return d


def _emit(args, payload: dict, text_lines: Callable[[], Iterable[str]]) -> None:
    """Print the payload as JSON, or else the lines ``text_lines()`` gives,
    which are built only in text mode.  A closed stdout (the reader of a
    pipe stopped) ends the output quietly: the rest is dropped, and stdout
    is pointed at devnull, where it has a file descriptor, so that the
    flush at exit writes nowhere."""
    try:
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in text_lines():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def cmd_verify_biquandle(args) -> int:
    bq = _load_biquandle(args.biquandle, verify=False)
    report = bqmod.verify_biquandle(bq)
    findings = [v.describe() for v in report.violations]
    _emit(args, {"command": "verify-biquandle", "inputs": {"biquandle": args.biquandle},
                 "result": "pass" if report.ok else "fail", "witnesses": findings},
          lambda: ["pass"] if report.ok else findings)
    return 0 if report.ok else 1


def cmd_verify_bracket(args) -> int:
    bq = _load_biquandle(args.biquandle)
    ring, A, B = _parse_file(args.bracket, brmod.parse_bracket_tables, bq)
    check = brmod.verify_bracket(bq, ring, A, B)
    if check.ok:
        beta = check.bracket
        _emit(args, {"command": "verify-bracket",
                     "inputs": {"biquandle": args.biquandle, "bracket": args.bracket},
                     "result": {"delta": str(beta.delta), "w": str(beta.w)},
                     "witnesses": []},
              lambda: [f"valid bracket: delta = {beta.delta}, w = {beta.w}"])
        return 0
    findings = [v.describe() for v in check.violations]
    _emit(args, {"command": "verify-bracket",
                 "inputs": {"biquandle": args.biquandle, "bracket": args.bracket},
                 "result": "fail", "witnesses": findings}, lambda: findings)
    return 1


def cmd_colorings(args) -> int:
    d = _load_diagram(args.diagram)
    bq = _load_biquandle(args.biquandle)
    cols = colmod.enumerate_colorings(d, bq)

    def lines():
        for col in cols:
            yield " ".join(f"{s}={c + 1}" for s, c in enumerate(col, start=1))
        yield f"count: {len(cols)}"

    _emit(args, {"command": "colorings",
                 "inputs": {"diagram": args.diagram, "biquandle": args.biquandle},
                 "result": {"count": len(cols),
                            "colorings": [[c + 1 for c in col] for col in cols]},
                 "witnesses": []}, lines)
    return 0


def cmd_invariant(args) -> int:
    d = _load_diagram(args.diagram)
    bq = _load_biquandle(args.biquandle)
    beta = _parse_file(args.bracket, brmod.parse_bracket, bq)
    inv = brmod.bracket_invariant(d, bq, beta)
    _emit(args, {"command": "invariant",
                 "inputs": {"diagram": args.diagram, "biquandle": args.biquandle,
                            "bracket": args.bracket},
                 "result": {"multiset": {str(v): m for v, m in inv.sorted_items()},
                            "polynomial": inv.polynomial_str()},
                 "witnesses": []},
          lambda: [f"multiset: {inv.multiset_str()}", f"poly: {inv.polynomial_str()}"])
    return 0


def cmd_classify(args) -> int:
    bq = _load_biquandle(args.biquandle)
    beta = _parse_file(args.bracket, brmod.parse_bracket, bq)
    cls = brmod.classify_adequacy(beta)
    witnesses = [f"{name} fails at ({','.join(str(v + 1) for v in w)})"
                 for name, w in (("over", cls.over_witness), ("under", cls.under_witness))
                 if w is not None]
    if cls.passthrough_witness is not None:
        witnesses.append("passthrough fails at "
                         + brmod.identity_text(bq.n, cls.passthrough_witness))
    _emit(args, {"command": "classify",
                 "inputs": {"biquandle": args.biquandle, "bracket": args.bracket},
                 "result": {"class": cls.label(),
                            "passthrough": cls.passthrough},
                 "witnesses": witnesses},
          lambda: [cls.label(), f"passthrough: {'yes' if cls.passthrough else 'no'}"]
          + witnesses)
    return 0


def cmd_search(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit {args.limit} is negative")
    bq = _load_biquandle(args.biquandle)
    n = bq.n
    texts = {}                  # an int table -> its rows of text, made once

    def rows(flat) -> list:
        key = tuple(flat)
        text = texts.get(key)
        if text is None:
            text = texts[key] = [[str(v) for v in key[x:x + n]] for x in range(0, n * n, n)]
        return text

    results = [{"A": rows(beta.raw_tables[0]), "B": rows(beta.raw_tables[1]),
                "class": cls.label(), "passthrough": cls.passthrough}
               for beta, cls in search_brackets(bq, args.mod,
                                                classification=args.classification,
                                                limit=args.limit)]

    def lines():
        for r in results:
            for row_a, row_b in zip(r["A"], r["B"]):
                yield " ".join(row_a) + " | " + " ".join(row_b)
            yield f"class: {r['class']}  passthrough: {'yes' if r['passthrough'] else 'no'}"
            yield ""
        yield f"found: {len(results)}"

    _emit(args, {"command": "search",
                 "inputs": {"biquandle": args.biquandle, "mod": args.mod},
                 "result": {"count": len(results), "brackets": results}, "witnesses": []},
          lines)
    return 0


def cmd_eval_trace(args) -> int:
    bq = _load_biquandle(args.biquandle)
    beta = _parse_file(args.bracket, brmod.parse_bracket, bq)
    td, _colors = _parse_file(args.trace_file, trmod.parse_trace_diagram, bq)
    if args.method == "parity":
        value = trmod.evaluate_by_parity(td, beta)
    elif args.method == "statesum":
        value = trmod.evaluate_recursive(td, beta)
    else:
        value = trmod.evaluate_recursive_parity(td, beta)
    parities = {str(cid): trmod.magnetic_parity(td, cid) for cid in td.crossings()}
    _emit(args, {"command": "eval-trace",
                 "inputs": {"trace_file": args.trace_file, "biquandle": args.biquandle,
                            "bracket": args.bracket, "method": args.method},
                 "result": {"value": str(value), "parities": parities}, "witnesses": []},
          lambda: [f"value: {value}"] + [f"parity[{c}]: {p}" for c, p in parities.items()])
    return 0


def cmd_skein_check(args) -> int:
    d = _load_diagram(args.diagram)
    bq = _load_biquandle(args.biquandle)
    beta = _parse_file(args.bracket, brmod.parse_bracket, bq)
    if not 0 <= args.crossing < len(d.crossings):
        raise InputError(f"--crossing {args.crossing} is out of range: {args.diagram} "
                         f"has {len(d.crossings)} crossings, numbered from 0")
    c = d.crossings[args.crossing]
    failures = []
    checked = 0
    for col in colmod.enumerate_colorings(d, bq):
        x, y = brmod.crossing_coefficient_pair(c, col)
        if x != y:
            continue
        checked += 1
        if not trmod.skein_identity_check(d, bq, beta, col, args.crossing):
            failures.append([v + 1 for v in col])
    if checked == 0:
        raise InputError("no coloring gives that crossing a diagonal coefficient pair (x, x)")
    ok = not failures
    _emit(args, {"command": "skein-check",
                 "inputs": {"diagram": args.diagram, "crossing": args.crossing},
                 "result": {"checked": checked, "ok": ok},
                 "witnesses": failures},
          lambda: [f"checked {checked} colorings: " + ("all satisfy the skein identity"
                                                       if ok else f"{len(failures)} failures")])
    return 0 if ok else 1


def _int_option(flag: str) -> Callable[[str], int]:
    """The argparse type of an integer option: ``biquandle.parse_int``, with
    a bad value an input error (one line, exit 2) rather than a usage error."""
    def parse(text: str) -> int:
        try:
            return bqmod.parse_int(text)
        except ValueError as e:
            raise InputError(f"{flag}: {e}") from None
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    :func:`main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="tracebracket",
        description="biquandle counting and bracket invariants of oriented links")
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-biquandle", help="check the biquandle axioms")
    p.add_argument("biquandle")
    p.set_defaults(func=cmd_verify_biquandle)

    p = sub.add_parser("verify-bracket", help="check the bracket conditions")
    p.add_argument("biquandle")
    p.add_argument("bracket")
    p.set_defaults(func=cmd_verify_bracket)

    p = sub.add_parser("colorings", help="enumerate colorings of a diagram")
    p.add_argument("diagram")
    p.add_argument("biquandle",
                   help="biquandle file, or alexander(n,t,s) / trivial(n)")
    p.set_defaults(func=cmd_colorings)

    p = sub.add_parser("invariant", help="bracket multiset invariant")
    p.add_argument("diagram")
    p.add_argument("biquandle")
    p.add_argument("bracket")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("classify", help="adequacy classification of a bracket")
    p.add_argument("biquandle")
    p.add_argument("bracket")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", help="search for brackets over Z_n")
    p.add_argument("biquandle")
    p.add_argument("--mod", type=_int_option("--mod"), required=True)
    p.add_argument("--class", dest="classification",
                   choices=CLASSIFICATIONS,
                   default="any")
    p.add_argument("--limit", type=_int_option("--limit"), default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval-trace", help="evaluate a colored trace diagram")
    p.add_argument("trace_file")
    p.add_argument("biquandle")
    p.add_argument("bracket")
    p.add_argument("--method", choices=["recursive", "parity", "statesum"],
                   default="recursive")
    p.set_defaults(func=cmd_eval_trace)

    p = sub.add_parser("skein-check", help="verify the skein identity at a diagonal-pair crossing")
    p.add_argument("diagram")
    p.add_argument("biquandle")
    p.add_argument("bracket")
    p.add_argument("--crossing", type=_int_option("--crossing"), default=0)
    p.set_defaults(func=cmd_skein_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
