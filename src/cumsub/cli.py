"""Command-line interface for the cumulative subtraction toolkit.

Exit codes: 0 success, 2 usage error, 3 internal theorem violation,
4 I/O failure.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys

from .analysis import (
    TheoremViolationError,
    convergence_bound,
    convergence_point,
    observation_sweep_report,
    sacrifice_conjecture_report,
)
from .closed_form import build_two_action
from .core import Mover, Ruleset, build_outcome_table
from .multipile import build_grid, export_grid, periodicity_reports
from .truncated import duality_conjecture_report, sweep_truncated


def parse_ruleset(text: str) -> Ruleset:
    try:
        actions = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid ruleset {text!r}; expected comma-separated integers like 5,7"
        ) from None
    return Ruleset(actions)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_table(args) -> int:
    ruleset = parse_ruleset(args.ruleset)
    table = build_outcome_table(ruleset, args.x_max)
    if args.json or args.format == "json":
        _emit_json(
            {
                "ruleset": list(ruleset.actions),
                "x_max": table.x_max,
                "rows": [
                    {"x": x, "opt": table.opts[x], "o": table.outcomes[x]}
                    for x in range(table.x_max + 1)
                ],
            }
        )
    elif args.format == "csv":
        print("x,opt,o")
        for x in range(table.x_max + 1):
            opt = "" if table.opts[x] is None else table.opts[x]
            print(f"{x},{opt},{table.outcomes[x]}")
    else:
        print(f"{'x':>6} {'opt':>5} {'o':>5}")
        for x in range(table.x_max + 1):
            opt = "-" if table.opts[x] is None else str(table.opts[x])
            print(f"{x:>6} {opt:>5} {table.outcomes[x]:>5}")
    return 0


def cmd_converge(args) -> int:
    ruleset = parse_ruleset(args.ruleset)
    report = convergence_point(ruleset)
    if args.json:
        _emit_json(report.as_dict())
    else:
        print(f"ruleset {ruleset}")
        print(f"converges at xi = {report.xi} (bound {convergence_bound(ruleset)}, "
              f"satisfied: {report.bound_satisfied})")
        print(f"converged action = {report.converged_action}")
        print(f"eventual period = {report.period.period} "
              f"(certified from heap {report.period.tail_start} on)")
    return 0


def cmd_twoaction(args) -> int:
    sol = build_two_action(args.s2, args.s1)
    if args.json:
        _emit_json(sol.as_dict())
    else:
        print(f"ruleset {{{sol.s2},{sol.s1}}}: alpha = {sol.alpha}, "
              f"i_max = {sol.i_max}, xi = {sol.xi}")
        for i, block in enumerate(sol.x_star, start=1):
            positions = ",".join(str(y) for y in block)
            print(f"X*({i}) = {{{positions}}}  outcome {sol.s1 - i * sol.alpha}")
    return 0


def cmd_trunc(args) -> int:
    reports = sweep_truncated(args.m_min, args.m_max, csv_dir=args.csv_dir)
    if args.json:
        _emit_json(reports)
    else:
        for rep in reports:
            tr = ",".join(str(v) for v in rep["tr"])
            verdict = "pass" if rep["conjecture"]["pass"] else "FAIL"
            print(f"m={rep['m']:>3} tr=({tr}) distinct={len(rep['x_values'])} "
                  f"conjecture={verdict}")
        if args.csv_dir:
            print(f"csv files written to {args.csv_dir}")
    return 0


def cmd_grid(args) -> int:
    ruleset = parse_ruleset(args.ruleset)
    grid = build_grid(ruleset, args.width, args.height)
    # Before any export, so that a usage error leaves no file behind.
    periods = periodicity_reports(grid, max_diag=args.max_diag) if args.periods else None
    exports = []
    for fmt, path in (("csv", args.csv), ("pgm", args.pgm), ("ppm", args.ppm)):
        if path:
            export_grid(grid, fmt, path)
            exports.append({"format": fmt, "path": path})
    value_min, value_max = min(grid.value_set), max(grid.value_set)
    if args.json:
        payload = {
            "ruleset": list(ruleset.actions),
            "width": grid.width,
            "height": grid.height,
            "value_min": value_min,
            "value_max": value_max,
            "exports": exports,
        }
        if periods is not None:
            payload["periods"] = periods
        _emit_json(payload)
    else:
        print(f"grid {grid.width}x{grid.height} for {ruleset}: "
              f"values in [{value_min}, {value_max}]")
        for item in exports:
            print(f"wrote {item['format']} to {item['path']}")
        if periods is not None:
            for key in ("lines", "diagonals"):
                rep = periods[key]
                print(f"{key}: {rep['verdict']} "
                      f"({len(rep['counterexamples'])} counterexamples)")
    return 0


# Conjecture name -> its report, from the parsed `scan` arguments.
_SCANS = {
    "sacrifice": lambda a: sacrifice_conjecture_report(a.max_s, a.x_cap),
    "last-move": lambda a: observation_sweep_report(a.conjecture, a.max_s, a.x_cap),
    "one-greedy": lambda a: observation_sweep_report(a.conjecture, a.max_s, a.x_cap),
    "duality": lambda a: duality_conjecture_report(a.m_min, a.m_max),
    "grid-periods": lambda a: periodicity_reports(
        build_grid(parse_ruleset(a.ruleset), a.width, a.height), max_diag=a.max_diag
    ),
}


def cmd_scan(args) -> int:
    _emit_json(_SCANS[args.conjecture](args))
    return 0


def _prompt_action(ruleset: Ruleset, heap: int) -> int:
    playable = ruleset.playable(heap)
    options = ",".join(str(s) for s in playable)
    while True:
        raw = input(f"your move from heap {heap} (playable: {options}): ").strip()
        try:
            action = int(raw)
        except ValueError:
            print(f"illegal action {raw!r}; pick one of {options}")
            continue
        if action not in playable:
            print(f"illegal action {action}; pick one of {options}")
            continue
        return action


def cmd_play(args) -> int:
    ruleset = parse_ruleset(args.ruleset)
    if args.heap < 0:
        raise ValueError(f"heap must be nonnegative, got {args.heap}")
    human = Mover.POSITIVE if args.human_side == "positive" else Mover.NEGATIVE
    table = build_outcome_table(ruleset, args.heap)
    prediction = table.outcomes[args.heap]
    print(f"game {ruleset}, heap {args.heap}; "
          f"predicted result under optimal play: {prediction}")
    heap = args.heap
    score = 0
    mover = Mover.POSITIVE
    try:
        while not ruleset.is_terminal(heap):
            if mover is human:
                action = _prompt_action(ruleset, heap)
            else:
                action = table.opts[heap]
                print(f"engine ({mover.value}) takes {action}")
            score += mover.sign * action
            heap -= action
            print(f"heap {heap}, score {score}")
            mover = mover.opponent
    except EOFError:
        print("input closed; aborting game", file=sys.stderr)
        return 2
    print(f"result: {score} (predicted {prediction})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumsub",
        description="exact solver and experiment harness for cumulative subtraction games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")

    s = sub.add_parser("table", parents=[common], help="print the outcome/opt table")
    s.add_argument("-S", "--ruleset", required=True, help="comma-separated actions, e.g. 5,7")
    s.add_argument("-x", "--x-max", type=int, required=True, help="largest heap to tabulate")
    s.add_argument("--format", choices=("text", "csv", "json"), default="text")
    s.set_defaults(func=cmd_table)

    s = sub.add_parser("converge", parents=[common],
                       help="convergence point and eventual period")
    s.add_argument("-S", "--ruleset", required=True)
    s.set_defaults(func=cmd_converge)

    s = sub.add_parser("twoaction", parents=[common],
                       help="closed-form structure of a two-action game")
    s.add_argument("s2", type=int, help="smaller action")
    s.add_argument("s1", type=int, help="larger action")
    s.set_defaults(func=cmd_twoaction)

    s = sub.add_parser("trunc", parents=[common],
                       help="tr profiles for truncated sets {a..m}")
    s.add_argument("m_min", type=int)
    s.add_argument("m_max", type=int)
    s.add_argument("--csv-dir", help="directory for per-m CSV files")
    s.set_defaults(func=cmd_trunc)

    s = sub.add_parser("grid", parents=[common], help="two-pile outcome grid")
    s.add_argument("-S", "--ruleset", required=True)
    s.add_argument("-W", "--width", type=int, required=True)
    s.add_argument("-H", "--height", type=int, required=True)
    s.add_argument("--csv", help="write grid values as CSV")
    s.add_argument("--pgm", help="write grayscale image")
    s.add_argument("--ppm", help="write blue-to-red image")
    s.add_argument("--periods", action="store_true", help="certified line periods")
    s.add_argument("--max-diag", type=int, default=50)
    s.set_defaults(func=cmd_grid)

    s = sub.add_parser("scan", parents=[common], help="conjecture falsification sweeps")
    s.add_argument("conjecture", choices=tuple(_SCANS))
    s.add_argument("--max-s", type=int, default=12)
    s.add_argument("--x-cap", type=int, default=200)
    s.add_argument("--m-min", type=int, default=2)
    s.add_argument("--m-max", type=int, default=30)
    s.add_argument("-S", "--ruleset", default="5,7")
    s.add_argument("-W", "--width", type=int, default=120)
    s.add_argument("-H", "--height", type=int, default=120)
    s.add_argument("--max-diag", type=int, default=20)
    s.set_defaults(func=cmd_scan)

    s = sub.add_parser("play", help="play against the optimal engine")
    s.add_argument("-S", "--ruleset", required=True)
    s.add_argument("-x", "--heap", type=int, required=True)
    s.add_argument("--human-side", choices=("positive", "negative"), default="negative",
                   help="side played by the human (default: engine opens as Positive)")
    s.set_defaults(func=cmd_play)

    return parser


def _stdout_closed() -> bool:
    """True if stdout is a pipe or socket whose reader has gone away."""
    poller = select.poll()
    try:
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (OSError, ValueError):  # not backed by a file, e.g. captured
        return False
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        if not _stdout_closed():
            print(f"i/o error: {exc}", file=sys.stderr)  # an export path broke
            return 4
        # The reader went away (e.g. `| head`): stop quietly, and send what
        # is still buffered to devnull so the exit-time flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
