"""One fresh interpreter: import properconn from the checkout's `src`,
build one workload's inputs, then either stop (mode `setup`), run it
untraced (`run`) or run it traced (`trace`). Prints one JSON line.

Started by run.py; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_properconn():
    sys.path.insert(0, SRC)
    import properconn

    if not os.path.abspath(properconn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"properconn imported from {properconn.__file__}, not {SRC}")
    return properconn


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args()

    pc = _import_properconn()
    inputs = workloads.build(pc, args.workload, args.seed)
    out = {"ready": time.perf_counter()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracing.instrument(tracer, pc)
        result = workloads.run(pc, args.workload, inputs, tracer)
        out.update(result)
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans)
            layers["trace.overhead_s"] = tracing.wrapper_cost_s() * len(tracer.spans)
            layers["trace.wall_s"] = result["wall_s"]
            out["layers"] = layers
            if args.spans:
                tracer.write(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
