"""The four benchmark workloads: input generation, one timed pass, output checks.

Every call into cumsub goes through a module attribute (``cli.main``,
``core.build_outcome_table``, ...), so that the traced run's wrappers,
which replace those attributes, see each call.

``run_pass`` returns a dict: ``seconds`` (the timed part of the pass),
``attempted`` and ``failed`` (checked items; an exception, a non-zero
exit code or a wrong value fails an item), ``items`` (per-item seconds;
for the CLI workloads the item is the whole pass), and byte counts for
the per-layer report.  Output checks run outside the timed part, except
in ``cross-check``, whose comparisons are the work being measured.

A workload is built from the seed alone (that is part of the timed
set-up); the reference values its checks compare against are assigned
to ``expected`` afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

from cumsub import analysis, cli, closed_form, core

HERE = os.path.dirname(os.path.abspath(__file__))

TRUNC_M = 60
GRID_N = 1200
GRID_RULESET = "5,7"
SCAN_MAX_S = 15
SCAN_X_CAP = 300
CROSS_ITEMS = 1000
CROSS_MAX_S = (6, 40)
TRACES_PER_ITEM = 3


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Call cli.main in-process; exit code (None if it raised) and stdout."""
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
    return code, out.getvalue()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class CliWorkload:
    """One in-process ``cli.main(argv)`` call per pass; the pass is the item."""

    argv: list[str]
    expected = None

    def run_pass(self) -> dict:
        t0 = time.perf_counter()
        code, out = _run_cli(self.argv)
        elapsed = time.perf_counter() - t0
        ok = code == 0 and self._matches(out)
        return {
            "seconds": elapsed,
            "attempted": 1,
            "failed": 0 if ok else 1,
            "items": [elapsed],
            "stdout_bytes": len(out.encode()),
        }

    def _matches(self, out: str) -> bool:
        raise NotImplementedError


class TruncSweep(CliWorkload):
    """``cumsub trunc 2 M --json``, checked row by row against the reference."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.argv = ["trunc", "2", str(TRUNC_M), "--json"]

    def _matches(self, out: str) -> bool:
        try:
            rows = {
                str(rep["m"]): {"tr": rep["tr"], "pass": rep["conjecture"]["pass"]}
                for rep in json.loads(out)
            }
        except (ValueError, KeyError, TypeError):
            return False
        return rows == self.expected


class SacrificeScan(CliWorkload):
    """``cumsub scan sacrifice``: counts and first counterexample must match."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.argv = [
            "scan", "sacrifice", "--max-s", str(SCAN_MAX_S), "--x-cap", str(SCAN_X_CAP),
        ]

    def _matches(self, out: str) -> bool:
        try:
            report = json.loads(out)
            counter = report["counterexamples"]
            found = {
                "positions": report["swept_space"]["positions_with_both_sacrificing"],
                "counterexamples": len(counter),
                "first_ruleset": counter[0]["ruleset"],
                "first_x": counter[0]["x"],
            }
        except (ValueError, KeyError, TypeError, IndexError):
            return False
        return found == self.expected


class GridExport(CliWorkload):
    """``cumsub grid ... --periods --csv --ppm --json`` into a scratch directory.

    Checked by value range and by the sha256 of both exported files.
    Line verdicts are not checked: they only feed the traced run's
    undecided-line share.
    """

    def __init__(self, seed: int, workdir: str) -> None:
        self.csv = os.path.join(workdir, "grid.csv")
        self.ppm = os.path.join(workdir, "grid.ppm")
        n = str(GRID_N)
        self.argv = [
            "grid", "-S", GRID_RULESET, "-W", n, "-H", n, "--periods",
            "--csv", self.csv, "--ppm", self.ppm, "--json",
        ]

    def run_pass(self) -> dict:
        for path in (self.csv, self.ppm):
            if os.path.exists(path):
                os.remove(path)
        record = super().run_pass()
        record["export_bytes"] = sum(
            os.path.getsize(p) for p in (self.csv, self.ppm) if os.path.exists(p)
        )
        return record

    def _matches(self, out: str) -> bool:
        try:
            report = json.loads(out)
            found = {
                "value_min": report["value_min"],
                "value_max": report["value_max"],
                "csv_sha256": _sha256(self.csv),
                "ppm_sha256": _sha256(self.ppm),
            }
        except (ValueError, KeyError, TypeError, OSError):
            return False
        return found == self.expected


def cross_check_inputs(seed: int) -> list[tuple[core.Ruleset, tuple[int, ...]]]:
    """Random rulesets with trace start heaps, reproducible from the seed.

    Item i has max S = 6 + i mod 35 and kind i mod 4 (two-action,
    contiguous {a..m}, then twice 3-5 actions); 4 and 35 are coprime, so
    every cycle of 140 items covers each (max S, kind) pair once.  For
    the two kinds with one free action (the smaller action, or a), the
    free action comes from the lower half of 1..m-1 in even cycles and
    the upper half in odd ones: that choice decides whether a two-action
    set needs the costly closed-form cases and how many actions {a..m}
    has.  The seed picks the action within its range, the 3-5 action
    sets, the trace starts and the order.  The stratification keeps a
    pass's cost, and its slowest 1% of items, steady from seed to seed.
    """
    rng = random.Random(seed)
    lo, hi = CROSS_MAX_S
    cycle = 4 * (hi - lo + 1)
    items = []
    for i in range(CROSS_ITEMS):
        m = lo + i % (hi - lo + 1)
        kind = i % 4
        half = m // 2
        free = rng.randint(1, half) if (i // cycle) % 2 == 0 else rng.randint(half + 1, m - 1)
        if kind == 0:
            actions = (free, m)
        elif kind == 1:
            actions = tuple(range(free, m + 1))
        else:
            rest = rng.sample(range(1, m), rng.randint(2, 4))
            actions = tuple(sorted(rest)) + (m,)
        ruleset = core.Ruleset(actions)
        x_max = analysis.default_x_max(ruleset)
        starts = tuple(rng.randint(0, x_max) for _ in range(TRACES_PER_ITEM))
        items.append((ruleset, starts))
    rng.shuffle(items)
    return items


def cross_check_item(ruleset: core.Ruleset, starts: tuple[int, ...]) -> bool:
    """Solve one ruleset every way the package can and compare the answers."""
    x_max = analysis.default_x_max(ruleset)
    table = core.build_outcome_table(ruleset, x_max)
    o, opts = table.outcomes, table.opts
    if core.minimax_values(ruleset, x_max) != o:
        return False
    conv = analysis.convergence_point(ruleset, table)
    period = analysis.eventual_period(table, conv.xi)
    m = ruleset.max_action
    if not conv.bound_satisfied or (2 * m) % period.period:
        return False
    if ruleset.is_two_action:
        sol = closed_form.build_two_action(ruleset.min_action, m)
        if sol.xi != conv.xi:
            return False
        if any(closed_form.two_action_outcome(sol, x) != o[x] for x in range(x_max + 1)):
            return False
        if any(
            closed_form.two_action_opt(sol, x) != opts[x]
            for x in range(ruleset.min_action, x_max + 1)
        ):
            return False
    if ruleset.is_full_support:
        if any(closed_form.full_support_outcome(m, x) != o[x] for x in range(x_max + 1)):
            return False
        if any(closed_form.full_support_opt(m, x) != opts[x] for x in range(1, x_max + 1)):
            return False
    return all(
        core.canonical_trace(ruleset, x, table=table).final_score == o[x] for x in starts
    )


class CrossCheck:
    """Seeded library calls, one item per random ruleset; checks itself."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.items = cross_check_inputs(seed)

    def run_pass(self) -> dict:
        failed = 0
        latencies = []
        clock = time.perf_counter
        start = clock()
        for ruleset, starts in self.items:
            t0 = clock()
            try:
                ok = cross_check_item(ruleset, starts)
            except Exception:
                ok = False
            latencies.append(clock() - t0)
            failed += not ok
        return {
            "seconds": clock() - start,
            "attempted": len(self.items),
            "failed": failed,
            "items": latencies,
        }


WORKLOADS = {
    "trunc-sweep": TruncSweep,
    "sacrifice-scan": SacrificeScan,
    "grid-export": GridExport,
    "cross-check": CrossCheck,
}
