"""properconn benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Workloads (see workloads.py):

- `mindeg-survey`: `survey_min_degree(5, 8)`, the paper's headline sweep.
- `bipartite-survey`: `survey_bipartite(4, 9)`.
- `compute-mix`: `pc_exact`, then a JSON round trip and
  `verify_certificate`, on a seed-stratified batch of connected graphs
  plus `F@QFw`, `G@LCE[` and `make_star_of_bicliques(2)`.

Every repetition runs in a fresh interpreter, because `survey._LEVELS`
caches enumeration levels for the life of a process and every `pc survey`
invocation pays to build them. Repetitions run one after another (closed
loop, one client, `jobs=1`) until `--seconds` have been spent measuring;
at least one always runs. Around them, setup-only interpreters import the
package and build the inputs, half before and half after, so `setup_s` is
a median over several moments of the run.

With `--trace 0` the last line of stdout is a JSON object holding every
end-to-end metric named in BENCHMARK.json; with `--trace 1` it holds
every per-layer metric, from spans recorded around the calls into each
module (tracing.py), and the spans go to `perfbench/out/<workload>.spans.tsv`.
A wrong answer prints its reason on stderr, reports `"correct": false` and
exits 1; a missing or broken package exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 8
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    pass


def _spawn(args, mode: str, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    env.pop("PC_BUDGET_MS", None)  # a wall-clock budget would make answers vary
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders, so the same work, in every interpreter
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter reads CLOCK_MONOTONIC, which parent and worker share on Linux
    out["setup_s"] = out["ready"] - start
    return out


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _quantiles(samples):
    """(p50, p90) of a list of at least two samples."""
    deciles = statistics.quantiles(samples, n=10)
    return statistics.median(samples), deciles[8]


def _measure(args):
    deadline = time.perf_counter() + RUN_LIMIT_S
    mode = "trace" if args.trace else "run"
    probes = 0 if args.trace else SETUP_PROBES
    setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(probes - probes // 2)]
    spans = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{args.workload}.spans.tsv")
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        rep = _spawn(args, mode, deadline, spans)
        setups.append(rep["setup_s"])
        reps.append(rep)
    setups += [_spawn(args, "setup", deadline)["setup_s"] for _ in range(probes // 2)]
    return setups, reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "properconn", "__init__.py")):
        print(f"no properconn package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    end_to_end, per_layer = _declared()
    try:
        setups, reps = _measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    wrong = [w for rep in reps for w in rep["wrong"]]
    for w in wrong:
        print(f"WRONG {args.workload}: {w}", file=sys.stderr)
    attempted = sum(rep["attempted"] for rep in reps)
    unanswered = sum(rep["unanswered"] for rep in reps)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "answer_ratio": (attempted - unanswered) / attempted,
    }
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    info = {"fail_ratio": (unanswered / attempted, "ratio")}
    if args.workload == "compute-mix" and not args.trace:
        for kind in ("compute", "verify"):
            samples = [x for rep in reps for x in rep[f"{kind}_ms"]]
            p50, p90 = _quantiles(samples)
            info[f"{kind}_ms_p50"] = (p50, "ms")
            info[f"{kind}_ms_p90"] = (p90, "ms")
            info[f"{kind}_samples"] = (len(samples), "count")
    if args.trace:
        declared = per_layer
        values = {
            key: statistics.median(rep["layers"][key] for rep in reps)
            for key in reps[0]["layers"]
        }
    else:
        declared = end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} repetitions {len(reps)} setups {len(setups)}")
    if args.workload != "compute-mix":
        print("the surveys take no inputs, so the seed is ignored")
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit}")
    for m in declared:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]} for m in declared
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
