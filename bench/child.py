"""One benchmark child process: set up one workload, then run timed passes.

    python3 bench/child.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (set up, report the set-up time, exit), ``run``
(passes until SECONDS have gone by, no wrappers installed) or ``trace``
(the same, with the tracer installed for every second pass and removed
after it; spans go to WORKDIR/spans.* once the passes end).  Alternating
puts each traced pass next to an untraced one, so their ratio is not
skewed by the machine changing speed.  The last line of stdout is a
JSON summary for run.py.

Set-up time covers importing cumsub (and the standard library modules it
pulls in), ``cli.build_parser()`` and generating the workload's inputs.
Arguments are read without argparse so that its import stays inside the
measured set-up.

The child also samples the machine's speed (speed.py): with
``calibrate()`` right before and right after the set-up, and with a
``SpeedProbe`` during every pass.  run.py uses the samples to scale the
timings to a reference speed.
"""

import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

def main(argv: list[str]) -> int:
    mode, name, seed, seconds, workdir = argv
    sys.path.insert(0, SRC)

    calibration = [speed.calibrate()]
    start = time.perf_counter()
    import cumsub
    from cumsub import cli

    import workloads

    cli.build_parser()
    workload = workloads.WORKLOADS[name](int(seed), workdir)
    setup_s = time.perf_counter() - start

    import json

    if not os.path.abspath(cumsub.__file__).startswith(SRC + os.sep):
        print(f"cumsub imported from {cumsub.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    calibration.append(speed.calibrate())
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration}))
        return 0
    workload.expected = workloads.load_reference().get(name)

    tracer = None
    if mode == "trace":
        import importlib

        import layers
        import tracing

        tracer = tracing.Tracer(layers.NOTES)
        modules = [importlib.import_module("cumsub." + m) for m in tracing.TRACED_MODULES]
    passes = []
    traced = []
    deadline = time.perf_counter() + float(seconds)
    while True:
        trace_this = tracer is not None and len(passes) % 2 == 1
        if trace_this:
            tracer.install(modules)
        try:
            with speed.SpeedProbe() as probe:
                record = workload.run_pass()
        finally:
            if trace_this:
                tracer.uninstall()
        record["probe_s"] = probe.samples
        passes.append(record)
        traced.append(trace_this)
        if time.perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            break
    if tracer is not None:
        tracer.save(os.path.join(workdir, "spans"))

    n = len(passes)
    summary = {
        "setup_s": setup_s,
        "calibration_s": calibration,
        "passes": n,
        "pass_s": [p["seconds"] for p in passes],
        "probe_s": [p["probe_s"] for p in passes],
        "traced": traced,
        "item_s": [p["items"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "stdout_bytes": sum(p.get("stdout_bytes", 0) for p in passes) / n,
        "export_bytes": sum(p.get("export_bytes", 0) for p in passes) / n,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
