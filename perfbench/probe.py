"""Run one pdfill command in a fresh interpreter and time the library call inside it.

    python3 perfbench/probe.py --report FILE [--facts] [--trace FILE] -- <pdfill args>

The command runs through the CLI's click entry point, as the ``pdfill``
console script runs it, so stdout is exactly what ``pdfill <args>``
prints.  FILE gets a JSON report: the import time, the time of the library
call alone (isoperimetric_sweep, slimness_sweep or folner_sweep, without
import or JSON), the time from its return to the end of the command
(emission), the exit code, and with --facts the window facts that the
fill-surface check needs, read after the command.  The host's speed is
sampled during the library call (speed.py), and the report carries the
reading, so the caller can scale the probe's times.  With --trace the layer
wrappers of tracing.py are installed before the command runs, their spans
are written to that file, and the report carries the per-layer figures.

The caller puts the checkout's src/ first on PYTHONPATH; the probe refuses
to run against a pdfill imported from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import speed

LIBRARY_CALLS = {"fill": "isoperimetric_sweep", "slim": "slimness_sweep", "folner": "folner_sweep"}


def surface_fill_facts(argv, report):
    """What the fill-surface check reads from the program's own window.

    The window is rebuilt outside the timed call; each filler comes from
    ``minimal_filling`` with faces named by (base vertex word, relator).
    """
    from pdfill.filling import build_ball_complex, minimal_filling, word_cycle
    from pdfill.groups import make_group
    from pdfill.words import word_from_string, word_to_string

    group = make_group(argv[1])
    radius = int(argv[argv.index("--radius") + 1])
    complex_ = build_ball_complex(group, radius)
    sizes = [0] * (radius + 1)
    for d in complex_.distances:
        sizes[d] += 1
    fillers = {}
    for entry in report.per_cycle:
        if entry["status"] != "filled":
            continue
        cycle = word_cycle(complex_, word_from_string(entry["word"]))
        result = minimal_filling(complex_, cycle, report.coefficient_bound)
        fillers[entry["word"]] = [
            [word_to_string(group.as_word(complex_.vertices[complex_.faces[f][0]])),
             complex_.faces[f][1], coeff]
            for f, coeff in sorted(result.filler.items())
        ]
    return {
        "vertices": complex_.vertex_count,
        "faces": complex_.face_count,
        "sphere_sizes": sizes,
        "fillers": fillers,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--facts", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter_ns()
    import pdfill.cli as cli
    imported = time.perf_counter_ns()
    expected = os.path.realpath(os.path.join(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0], "pdfill"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        sys.exit(f"probe: pdfill imported from {cli.__file__}, not from {expected}")

    tracer = None
    captured = {}
    if args.trace:
        from pdfill import filling, folner, groups, slimness

        import tracing

        tracer = tracing.Tracer()
        tracer.record("import", start, imported)
        tracing.install(tracer, (groups, filling, folner, slimness), captured)

    name = LIBRARY_CALLS[argv[0]]
    library_call = getattr(cli, name)
    if tracer is not None:
        library_call = tracer.span(name, library_call)
    timing = {}

    sampler = speed.Sampler()

    def timed(*call_args, **call_kwargs):
        sampler.warm_up()
        begin = time.perf_counter_ns()
        sampler.start()
        try:
            result = library_call(*call_args, **call_kwargs)
        finally:
            sampler.stop()
        timing["end"] = time.perf_counter_ns()
        timing["probe_ns"] = timing["end"] - begin
        captured["group"] = call_args[0]
        captured["report"] = result
        return result

    setattr(cli, name, timed)
    exit_code = 0
    try:
        cli.main.main(args=argv, prog_name="pdfill", standalone_mode=False)
    except SystemExit as stop:
        exit_code = stop.code if isinstance(stop.code, int) else 1
    sys.stdout.flush()
    done = time.perf_counter_ns()

    out = {"pdfill": cli.__file__, "exit_code": exit_code, "import_s": (imported - start) / 1e9}
    if "probe_ns" in timing:
        out["probe_s"] = timing["probe_ns"] / 1e9
        out["emit_s"] = (done - timing["end"]) / 1e9
        out["speed"] = sampler.reading()
    if tracer is not None and exit_code == 0:
        tracer.record("emit", timing["end"], done)
        out["layers"] = tracing.layer_metrics(
            tracer, name, captured["report"], captured["group"], captured.get("complex")
        )
        out["layers"]["cli.import_s"] = out["import_s"]
        out["layers"]["cli.emit_s"] = out["emit_s"]
        tracer.dump(args.trace, {"argv": argv})
    if exit_code == 0 and args.facts:
        out["facts"] = surface_fill_facts(argv, captured["report"])
    with open(args.report, "w") as handle:
        json.dump(out, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
