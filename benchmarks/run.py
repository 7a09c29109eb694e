"""Benchmark of the gasketfields pipeline: mesh -> spectrum -> draw -> field -> verdict.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload field-sim --seed 1 --seconds 5 --trace 0

Workloads: field-sim, lepage-routes, spectrum-L7, cli-export (see
workloads.py).  The package is imported from the checkout's `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics
(setup_s, run_s, peak_rss_mb); with `--trace 1` it carries the
per-layer metrics of a separate traced pass.  Earlier lines print every
end-to-end figure that applies to the workload (including
realizations_per_s, lepage_terms_per_s, csv_mb_per_s and failed_frac),
the sampling verdicts that did not pass, and the environment.  A full
result file, and the spans of a traced run, go to benchmarks/out/.

Self-tests: PYTHONPATH=src python3 -m pytest benchmarks/tests
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("field-sim", "lepage-routes", "spectrum-L7", "cli-export")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def report(result, details, trace, units):
    env = details["environment"]
    print(f"workload {env['workload']} seed {env['seed']}: "
          f"{len(details['pass_times_s'])} untraced pass(es), "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, value in details["end_to_end"].items():
        if value or name == "failed_frac":
            print(f"  {name:<20} {value:.6g} {units[name]}")
    if trace:
        print(f"  traced pass {details['traced_pass_s']:.6g} s, "
              f"spans in {os.path.relpath(details['spans_file'], ROOT)}")
    verdicts = [v for op in details["operations"] for v in op["verdicts_failed"]]
    print("sampling verdicts not passed: " + (", ".join(verdicts) or "none"))
    for failure in details["failures"]:
        print(f"FAILED: {failure}")
    print("environment " + json.dumps(env, default=str))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gasketfields", "__init__.py")):
        print(f"error: no gasketfields sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads these when it loads, which happens on the imports below.
    # One BLAS thread: on a 2-vCPU VM a second, busy-waiting BLAS thread
    # competes with the interpreter and with any other busy process; one cold
    # level-6 set-up took 7.4 s instead of ~0.5 s that way.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import bench
    import workloads

    result, details, _ = bench.run(workloads.WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), OUT)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    report(result, details, args.trace, {**bench.UNITS_E2E, **bench.UNITS_LAYER})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
