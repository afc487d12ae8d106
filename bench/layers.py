"""Per-layer metrics of the traced run, computed from its spans.

Counts and totals are per pass.  A metric whose layer the workload does
not enter (no spans of that name) reads 0.
"""

from __future__ import annotations

from math import comb

from tracing import Spans


def _dp_kind(ruleset) -> str:
    """The input class a DP call belongs to, whichever kernel serves it."""
    if not ruleset.is_contiguous:
        return "noncontig"
    return "contig" if len(ruleset.actions) >= 4 else "contig_narrow"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _convergence_note(args, kwargs, report):
    table = _arg(args, kwargs, 1, "table")
    return [report.xi, None if table is None else len(table.outcomes)]


# Span name -> note(args, kwargs, result), kept per span by the tracer.
NOTES = {
    "core.build_outcome_table": lambda a, k, table: [
        len(table.outcomes), _dp_kind(table.ruleset),
    ],
    "core.minimax_values": lambda a, k, values: len(values),
    "analysis.convergence_point": _convergence_note,
    "analysis.scan_sacrifice_conjecture": lambda a, k, r: _arg(a, k, 0, "max_s"),
    "multipile.build_grid": lambda a, k, grid: grid.width * grid.height,
    "multipile.row_period": lambda a, k, rep: rep.period is None,
    "multipile.column_period": lambda a, k, rep: rep.period is None,
    "multipile.export_grid": lambda a, k, r: _arg(a, k, 1, "fmt"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rulesets_scanned(max_s: int) -> int:
    """Rulesets a sacrifice scan visits: every 4- and 5-subset of {1..max_s}."""
    return sum(comb(max_s, size) for size in (4, 5) if size <= max_s)


def layer_metrics(spans: Spans, passes: int, stdout_bytes: float, export_bytes: float) -> dict:
    """Every per-layer metric except ``trace.overhead_ratio``.

    ``stdout_bytes`` and ``export_bytes`` are per-pass averages measured
    by the workload itself.
    """
    notes = spans.notes
    own = spans.self_time
    out: dict[str, float] = {}

    def total(idx) -> int:
        return sum(own[i] for i in idx)

    def note_sum(idx, pick=lambda v: v) -> int:
        return sum(pick(notes[i]) for i in idx if i in notes)

    dp = spans.indices("core.build_outcome_table")
    for kind in ("contig", "contig_narrow", "noncontig"):
        sel = [i for i in dp if i in notes and notes[i][1] == kind]
        out[f"core.dp.{kind}.ns_per_heap"] = _ratio(total(sel), note_sum(sel, lambda v: v[0]))
    out["core.dp.calls"] = len(dp) / passes
    out["core.dp.heaps"] = note_sum(dp, lambda v: v[0]) / passes

    oracle = spans.indices("core.minimax_values")
    oracle_heaps = note_sum(oracle)
    out["core.oracle.ns_per_heap"] = _ratio(total(oracle), oracle_heaps)
    out["core.oracle.heaps"] = oracle_heaps / passes

    trace = spans.indices("core.canonical_trace")
    out["core.trace.us_per_call"] = _ratio(total(trace), len(trace)) / 1e3

    conv = spans.indices("analysis.convergence_point")
    out["analysis.converge.self_ms"] = total(conv) / passes / 1e6
    out["analysis.converge.calls"] = len(conv) / passes
    out["analysis.converge.xi_share"] = _xi_share(spans, conv, dp)

    period = spans.indices("analysis.eventual_period")
    out["analysis.period.us_per_call"] = _ratio(total(period), len(period)) / 1e3
    out["analysis.period.calls"] = len(period) / passes

    scan = spans.indices("analysis.scan_sacrifice_conjecture")
    rulesets = note_sum(scan, _rulesets_scanned)
    out["analysis.scan.self_ms"] = total(scan) / passes / 1e6
    scan_ns = sum(spans.duration[i] for i in scan)
    out["analysis.scan.us_per_ruleset"] = _ratio(scan_ns, rulesets) / 1e3

    out["truncated.self_ms"] = total(spans.module_indices("truncated")) / passes / 1e6

    # two_action_outcome recurses through its module attribute, so a call
    # is an outermost span and its time includes the nested ones.
    outcome = _outermost(spans, spans.indices("closed_form.two_action_outcome"))
    out["closed_form.outcome.us_per_call"] = _ratio(_inclusive(spans, outcome), len(outcome)) / 1e3
    out["closed_form.outcome.calls"] = len(outcome) / passes
    opt = spans.indices("closed_form.two_action_opt")
    out["closed_form.opt.us_per_call"] = _ratio(total(opt), len(opt)) / 1e3
    build = spans.indices("closed_form.build_two_action")
    out["closed_form.build.us_per_call"] = _ratio(total(build), len(build)) / 1e3

    grid = spans.indices("multipile.build_grid")
    cells = note_sum(grid)
    out["multipile.grid.ns_per_cell"] = _ratio(total(grid), cells)
    out["multipile.grid.cells"] = cells / passes

    reports = spans.indices("multipile.periodicity_reports")
    out["multipile.periods.ms"] = _inclusive(spans, reports) / passes / 1e6
    lines = [*spans.indices("multipile.row_period"), *spans.indices("multipile.column_period")]
    out["multipile.periods.lines"] = len(lines) / passes
    out["multipile.periods.undecided_share"] = _ratio(note_sum(lines), len(lines))

    exports = spans.indices("multipile.export_grid")
    for fmt in ("csv", "ppm"):
        sel = [i for i in exports if notes.get(i) == fmt]
        out[f"multipile.export.{fmt}_ms"] = _inclusive(spans, sel) / passes / 1e6
    out["multipile.export.mib"] = export_bytes / 2**20

    out["cli.self_ms"] = total(spans.module_indices("cli")) / passes / 1e6
    out["cli.stdout_kib"] = stdout_bytes / 2**10
    return out


def _inclusive(spans: Spans, idx) -> int:
    return sum(spans.duration[i] for i in idx)


def _outermost(spans: Spans, idx) -> list[int]:
    """Drop spans nested in a span of the same name (recursive calls)."""
    return [i for i in idx if spans.parent[i] < 0 or spans.name[spans.parent[i]] != spans.name[i]]


def _xi_share(spans: Spans, conv, dp) -> float:
    """Sum of xi over the heaps tabulated for the convergence searches.

    A search's heaps are those of the DP calls made under it or, when it
    made none, the length of the table its caller passed in.
    """
    conv_set = set(conv)
    under: dict[int, int] = {}
    for i in dp:
        p = spans.parent[i]
        while p >= 0 and p not in conv_set:
            p = spans.parent[p]
        if p >= 0 and i in spans.notes:
            under[p] = under.get(p, 0) + spans.notes[i][0]
    xi_sum = heaps = 0
    for c in conv:
        note = spans.notes.get(c)
        if note is None:
            continue
        tabulated = under.get(c) or note[1]
        if tabulated:
            xi_sum += note[0]
            heaps += tabulated
    return _ratio(xi_sum, heaps)
