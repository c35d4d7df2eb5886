"""One benchmark run in a fresh interpreter, doing what ``recoillab run``
does: import ``recoillab.cli``, ``load_spec``, ``run_scenario``.

    python3 bench/worker.py SPEC --out DIR --seed N --format csv|binary
                            [--setup-only] [--spans FILE]

The last line of standard output is one JSON object with the clock reading
(``time.monotonic``, shared by all processes) when the spec was parsed, the
run's wall and CPU time (their gap shows time the run waited for a core),
its exit code, this process's peak RSS, and the library versions.  ``--setup-only`` stops after ``load_spec``.  ``--spans FILE``
traces the run (see tracing.py) and writes the spans and per-layer figures
to FILE.
"""

import argparse
import json
import logging
import sys
import time


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--format", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import recoillab.cli as cli

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.spec}:{args.seed}")
        tracer.install()
    try:
        logging.basicConfig(level=logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        spec = cli.load_spec(args.spec, out_dir=args.out, seed=args.seed,
                             fmt=args.format)
        spec_parsed = time.monotonic()
        code, run_s, run_cpu_s = 0, None, None
        if not args.setup_only:
            start, cpu_start = time.perf_counter(), time.process_time()
            code = cli.run_scenario(spec)
            run_s = time.perf_counter() - start
            run_cpu_s = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.restore()

    import numpy
    import scipy
    import tracing

    result = {"spec_parsed": spec_parsed, "run_s": run_s, "run_cpu_s": run_cpu_s,
              "exit_code": code,
              "peak_rss_mb": tracing.rss_mb(), "recoillab_file": cli.__file__,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer.spans, tracer.rss_after, tracer.drift_rows_unused())
        result["self_by_name"] = tracing.self_by_name(tracer.spans)
        with open(args.spans, "w") as fh:
            json.dump({"run": tracer.run_id, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
