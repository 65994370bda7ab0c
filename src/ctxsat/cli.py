"""Command-line interface.

    ctxsat run <file> [--max-iters N] [--json PATH]
                      [--dump-dot PATH --context NAME]
    ctxsat compare-assume <file> [--json PATH]
    ctxsat stats <file> --context NAME [--json PATH]

Exit codes: 0 all checks pass, 1 some check failed, 2 parse or engine error
(a program file that is not UTF-8 text included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assume import assume_encode
from .dot import export_dot
from .dsl import execute, parse_program
from .errors import CtxSatError


def _write_json(data: dict, path: str | None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    return text


def _cmd_run(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"))
    out = execute(program, max_iterations=args.max_iters)
    for check in out.checks:
        status = "PASS" if check.ok else "FAIL"
        reason = "" if check.reason is None else f"  ({check.reason})"
        print(f"{status}  {check.name}{reason}")
    for ex in out.extracts:
        print(f"extract  {ex.term}  cost={ex.cost:g}")
    data = out.report_json()
    rep = data["report"]
    print(
        f"iterations={rep['iterations']} saturated={rep['saturated']} "
        f"checks={sum(c.ok for c in out.checks)}/{len(out.checks)}"
    )
    if args.json_path:
        _write_json(data, args.json_path)
    if args.dot_path:
        ctx = out.engine.eg.lattice.id_of(args.context)
        Path(args.dot_path).write_text(export_dot(out.engine.eg, ctx))
    return out.exit_status


def _cmd_compare_assume(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"))
    cmp = assume_encode(program)
    print(_write_json(cmp.to_json(), args.json_path), end="")
    return 0


def _cmd_stats(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"))
    out = execute(program)
    eg = out.engine.eg
    ctx = eg.lattice.id_of(args.context)
    classes, nodes = eg.stats(ctx)
    print(
        _write_json(
            {"context": args.context, "classes": classes, "nodes": nodes},
            args.json_path,
        ),
        end="",
    )
    return 0


def _iteration_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxsat", description="contextual equality saturation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a program file")
    run_p.add_argument("file")
    run_p.add_argument("--max-iters", type=_iteration_cap, default=None)
    run_p.add_argument("--json", dest="json_path", default=None)
    run_p.add_argument("--dump-dot", dest="dot_path", default=None)
    run_p.add_argument("--context", default="bot")
    run_p.set_defaults(fn=_cmd_run)

    ca_p = sub.add_parser(
        "compare-assume", help="compare assumption-node vs layered encoding sizes"
    )
    ca_p.add_argument("file")
    ca_p.add_argument("--json", dest="json_path", default=None)
    ca_p.set_defaults(fn=_cmd_compare_assume)

    st_p = sub.add_parser("stats", help="class/node counts for one context")
    st_p.add_argument("file")
    st_p.add_argument("--context", required=True)
    st_p.add_argument("--json", dest="json_path", default=None)
    st_p.set_defaults(fn=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CtxSatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {args.file}: not UTF-8 text ({e})", file=sys.stderr)
        return 2
    except RecursionError as e:
        print(f"error: input nested too deeply ({e})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
