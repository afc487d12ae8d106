"""cumsub benchmark: one workload, measured end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built.  Every workload runs in fresh
child processes (bench/child.py), one at a time, each a closed loop with
one call in flight.

--trace 0: one child that runs passes for S seconds, with set-up-only
children before and after it.  Reports the end-to-end metrics of
BENCHMARK.json, every timing scaled to a reference machine speed (see
REFERENCE_PROBE_S); the raw median pass time goes to stderr.

--trace 1: one child that runs passes for S seconds, tracing every
second one.  Reports the per-layer metrics, computed from the traced
passes' spans, and the traced/untraced ratio of pass times.

The last line of stdout is the result object.  Scratch files go to a
temporary directory under .bench_tmp/ in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PACKAGE = os.path.join(ROOT, "src", "cumsub", "__init__.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

# Set-up is about 60 ms and a single sample spreads widely, so each
# end-to-end run samples it in this many fresh processes, half of them
# before the timed child and half after it.
SETUP_SAMPLES = 6
# The shared machine this benchmark was written on changes speed by up
# to 1.75x (co-tenants' load), so raw timings of one run spread by 20-30%
# from run to run.  Every timing is therefore reported at a fixed
# reference speed: the one at which the probe loop in speed.py takes
# this long.
REFERENCE_PROBE_S = 0.0002
TIME_UNITS = {"ns", "us", "ms", "s"}
# Whole-run budget, below the 180 s a run may take.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_factor(samples: list[float]) -> float:
    """Multiplier that takes a timing to the reference speed.

    ``samples`` are probe times taken evenly in time while the timed work
    ran (or right around it).  The work done is the time multiplied by
    the mean speed, and speed is the inverse of the probe time.
    """
    return statistics.fmean(REFERENCE_PROBE_S / s for s in samples)


def pass_factors(run: dict) -> list[float]:
    # A pass shorter than the probe interval has no samples of its own;
    # it falls back on the calibrations around the set-up.
    return [speed_factor(s or run["calibration_s"]) for s in run["probe_s"]]


def scaled_pass_s(run: dict) -> list[float]:
    """A child's pass times at the reference speed, probe time removed."""
    return [
        (p - sum(s)) * f for p, s, f in zip(run["pass_s"], run["probe_s"], pass_factors(run))
    ]


class Children:
    """Starts child processes one after another within the run budget."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, mode: str, seconds: float = 0.0) -> dict:
        cmd = [
            sys.executable, CHILD, mode, self.workload, str(self.seed), repr(seconds),
            self.workdir,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the {BUDGET_S:.0f} s run budget") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited with code {proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(children: Children, seconds: float) -> tuple[dict, list[dict]]:
    half = SETUP_SAMPLES // 2
    setups = [children.run("setup") for _ in range(half)]
    run = children.run("run", seconds)
    setups += [children.run("setup") for _ in range(SETUP_SAMPLES - half)]
    setup = [r["setup_s"] * speed_factor(r["calibration_s"]) for r in setups + [run]]
    scaled_items = [[t * f for t in p] for p, f in zip(run["item_s"], pass_factors(run))]
    # Every pass repeats the same items, so each item has one latency
    # sample per pass; an item's latency is the median of those.
    items = [statistics.median(samples) for samples in zip(*scaled_items)]
    values = {
        "wall_s": statistics.median(scaled_pass_s(run)),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p99_ms": percentile(items, 99) * 1e3,
        "peak_rss_mib": run["peak_rss_mib"],
        "setup_s": statistics.median(setup),
    }
    print(
        f"raw median pass {statistics.median(run['pass_s']):.4f} s, "
        f"median probe {statistics.median(s for p in run['probe_s'] for s in p) * 1e3:.3f} ms",
        file=sys.stderr,
    )
    return values, [run]


def per_layer(children: Children, seconds: float, units: dict) -> tuple[dict, list[dict]]:
    import layers
    import tracing

    run = children.run("trace", seconds)
    spans = tracing.Spans(os.path.join(children.workdir, "spans"))
    values = layers.layer_metrics(
        spans, sum(run["traced"]), run["stdout_bytes"], run["export_bytes"]
    )
    # Span times are raw; scale them by the traced passes' time-weighted
    # speed factor, like the end-to-end timings.
    raw = [p - sum(s) for p, s in zip(run["pass_s"], run["probe_s"])]
    scaled = scaled_pass_s(run)
    traced = [i for i, t in enumerate(run["traced"]) if t]
    factor = sum(scaled[i] for i in traced) / sum(raw[i] for i in traced)
    for name, unit in units.items():
        if unit in TIME_UNITS and name in values:
            values[name] *= factor
    untraced = [s for s, t in zip(scaled, run["traced"]) if not t]
    values["trace.overhead_ratio"] = (
        statistics.median(scaled[i] for i in traced) / statistics.median(untraced)
    )
    return values, [run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(PACKAGE):
        print(f"no cumsub sources at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        children = Children(args.workload, args.seed, workdir)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, runs = per_layer(children, args.seconds, units)
        else:
            values, runs = end_to_end(children, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(
        f"{args.workload}: {sum(r['passes'] for r in runs)} passes, {attempted} items, "
        f"error_ratio {failed / attempted:.4g}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
