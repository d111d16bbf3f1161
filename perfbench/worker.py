"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py RESULT_JSON SRC_DIR TRACE [-- ZETALAB_ARGS...]

Times the import of zetalab.cli (set-up), then, if arguments follow
`--`, calls zetalab.cli.main(args) with its stdout captured and times
that call (wall). With TRACE=1 the spans of perfbench/spans.py are
installed between the two and their summary lands in the result; the
raw spans are written next to RESULT_JSON once the command returns.
Without `--` it only measures set-up. Last, after every measurement,
it times the calibration workload of perfbench/calibrate.py. Writes
RESULT_JSON and exits 0, also when the command failed: the failure is
part of the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    result_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:] if sys.argv[4:5] == ["--"] else None

    t0 = time.perf_counter()
    import zetalab.cli

    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    import calibrate

    where = os.path.realpath(zetalab.cli.__file__)
    if os.path.commonpath([where, os.path.realpath(src_dir)]) != os.path.realpath(src_dir):
        print(f"zetalab imported from {where}, not from {src_dir}", file=sys.stderr)
        return 3
    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }

    if argv is not None:
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer(trace_id=os.path.basename(os.path.dirname(result_path)))
            spans.install(tracer)
        out = io.StringIO()
        rc, error = None, None
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = zetalab.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        wall_s = time.perf_counter() - t1
        result.update(
            wall_s=wall_s,
            rc=rc,
            error=error,
            stdout=out.getvalue(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["trace"] = tracer.summarize()
            spans_path = os.path.join(os.path.dirname(result_path), "spans.jsonl")
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")

    result["cal_s"] = calibrate.calibration_s()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
